#!/usr/bin/env python3
"""Prune-flag crossover: the per-root worklist against the batched pass.

The distance-first backends recover Algorithm 4's pruneability flags from
finished distance rows, by one of two routes chosen by snapshot size
(``repro.core.backends._BATCHED_FLAGS_MIN_VERTICES``): the per-root
worklist of :func:`~repro.core.pruned_dijkstra.prune_flags_from_distances`
or the one-pass :func:`~repro.core.pruned_dijkstra.prune_flags_batch`.
This script records where one overtakes the other on the repository
benchmark's own graphs (``perfbench.inputs``): for each workload it runs
one build plus four reweight epochs (the first two change sets of the
perfbench pool, each applied and reverted), and on every flag call it
times both routes (best of ``--repeats``) on the same distance rows and
asserts that their flags are identical.  The table groups the calls by
snapshot size.  Both routes get the rows as the backend hands them over,
one float64 array, so the worklist's per-row ``tolist`` is counted.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_prune_flags.py [--workload build-int] [--repeats 3]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import repro.core.backends as backends  # noqa: E402
from perfbench.inputs import PIN_SEED, make_inputs, workload_graph  # noqa: E402
from repro.core.dynamic import DynamicHC2LIndex  # noqa: E402
from repro.core.pruned_dijkstra import (  # noqa: E402
    prune_flags_batch,
    prune_flags_from_distances,
)

WORKLOADS = ("build-int", "query-float")
EPOCHS = 4
#: snapshots of this many vertices and more share the last bucket
TOP_BUCKET = 2048


def _best_of(repeats: int, call: Callable[[], object]) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def _bucket(n: int) -> int:
    return min(1 << (n.bit_length() - 1), TOP_BUCKET)


def measure(workload: str, repeats: int) -> Dict[int, List[float]]:
    """Per size bucket: ``[calls, worklist seconds, batched seconds]``."""
    table: Dict[int, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    shipped = backends._prune_flags

    def both_routes(flat, roots, prune_sets, dists):
        block = np.asarray(dists, dtype=np.float64)
        worklist_s, worklist = _best_of(repeats, lambda: [
            prune_flags_from_distances(flat, root, prune_ids, dist)
            for root, prune_ids, dist in zip(roots, prune_sets, block)
        ])
        batched_s, batched = _best_of(
            repeats, lambda: prune_flags_batch(flat, roots, prune_sets, block))
        if batched.tolist() != worklist:
            raise AssertionError(
                f"{workload}: the routes disagree on a {len(flat.vertices)}-vertex "
                f"snapshot with {len(roots)} roots")
        row = table[_bucket(len(flat.vertices))]
        row[0] += 1
        row[1] += worklist_s
        row[2] += batched_s
        return batched if len(flat.vertices) >= backends._BATCHED_FLAGS_MIN_VERTICES else worklist

    graph = workload_graph(workload, "full")
    pool = make_inputs(workload, "full", PIN_SEED, graph).pool[: EPOCHS // 2]
    backends._prune_flags = both_routes
    try:
        dynamic = DynamicHC2LIndex(graph)
        for changes in pool:
            revert = {edge: graph.edge_weight(*edge) for edge in changes}
            for epoch in (changes, revert):
                for (u, v), weight in epoch.items():
                    dynamic.update_edge_weight(u, v, weight)
                dynamic.flush()
    finally:
        backends._prune_flags = shipped
    return dict(table)


def print_table(workload: str, table: Dict[int, List[float]]) -> None:
    print(f"{workload}: one build + {EPOCHS} epochs, best of the repeats per call")
    print(f"  {'vertices':>11}  {'calls':>6}  {'worklist_s':>10}  {'batched_s':>10}")
    for lo in sorted(table):
        calls, worklist_s, batched_s = table[lo]
        span = f">= {lo}" if lo == TOP_BUCKET else f"{lo}-{2 * lo - 1}"
        print(f"  {span:>11}  {int(calls):>6}  {worklist_s:>10.4f}  {batched_s:>10.4f}")
    threshold = backends._BATCHED_FLAGS_MIN_VERTICES
    shipped = sum(row[2] if lo >= threshold else row[1] for lo, row in table.items())
    print(f"  all routes agree; shipped dispatch (>= {threshold} batched): {shipped:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload graph to run (repeatable; default: both)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per route and call (best is kept)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for workload in args.workload or WORKLOADS:
        print_table(workload, measure(workload, args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Where patching a kept distance row stops beating one fresh search.

A scoped relabel patches the rows its index kept
(:class:`repro.core.flat_build.KeptRows`) with
:func:`repro.core.row_patch.patch_rows`, whose Python loops cost about a
fixed amount per vertex they settle, while a fresh scipy search costs
about the same per row whatever changed.  This benchmark measures both on
the rows a build keeps: it builds one csr index of a generated road graph
(float travel times), applies clustered weight changes of several sizes
and factors, and for every kept block times

* the patch of each row alone (unbounded budget), with the number of
  vertices it settled, and
* one scipy search of all the block's rows on the new weights, per row.

Every patched row is compared with ``==`` to the searched one before it
is counted.  Per snapshot size the patch time is modelled as
``a + b * settled``, ``a`` the median time of rows that settle nothing
and ``b`` the median extra time per settled vertex of the rest; the
crossover is where that line meets the search cost, as a fraction of
the snapshot's vertices.  The smallest fraction
over the snapshots is the record's ``settle_fraction``, which
:data:`repro.core.row_patch.SETTLE_FRACTION` takes.

Run with::

    PYTHONPATH=src python benchmarks/bench_patch_crossover.py \\
        [--vertices 10000] [--seed 2024] [--output benchmarks/patch_crossover.json]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import repro.core.row_patch as row_patch
from repro import RoadNetworkSpec, synthetic_road_network
from repro.core.construction import root_snapshot
from repro.core.index import HC2LIndex
from repro.experiments.dynamic import clustered_edge_changes

#: clustered change sets: edges per set, and the factors they are scaled by
EDGE_COUNTS = (5, 10, 20, 40)
FACTORS = (0.5, 2.5)
SEEDS = (1, 2, 3)
#: timed repetitions of each measurement; the best is kept
REPEATS = 3
#: rows settling fewer vertices set the per-row cost, not the per-vertex one
MIN_SETTLED_FOR_SLOPE = 10


def _search(flat, sources: np.ndarray) -> np.ndarray:
    indptr, indices, weights = flat.csr_arrays()
    n = len(flat.vertices)
    matrix = csr_matrix((weights, indices, indptr), shape=(n, n))
    return np.atleast_2d(dijkstra(matrix, directed=True, indices=sources))


def _blocks(index: HC2LIndex, graph) -> List[tuple]:
    """``(old snapshot, new-snapshot maker, block)`` for every kept block."""
    hierarchy, kept = index.hierarchy, index.relabel_rows
    root = root_snapshot(graph)
    found = []
    for i, block in kept.labels.items():
        if hierarchy.nodes[i].parent is None:
            found.append((root, lambda new_root: new_root, block))
    for i, block in kept.borders.items():
        parent = hierarchy.nodes[i].parent
        if parent is not None and hierarchy.nodes[parent].parent is None:
            region = hierarchy.subtree_vertices(i)
            found.append(
                (root.induce(region), lambda new_root, region=region: new_root.induce(region), block)
            )
    return found


def _best(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def run(num_vertices: int, seed: int) -> Dict[str, object]:
    graph = synthetic_road_network(
        RoadNetworkSpec("bench-patch", num_vertices=num_vertices, seed=seed)
    ).travel_time_graph
    index = HC2LIndex.build(graph, backend="csr", contract=False)
    blocks = _blocks(index, graph)
    samples: Dict[int, List[tuple]] = {}
    search_us: Dict[int, List[float]] = {}
    shipped, row_patch.SETTLE_FRACTION = row_patch.SETTLE_FRACTION, float("inf")
    try:
        for edges in EDGE_COUNTS:
            for factor in FACTORS:
                for change_seed in SEEDS:
                    changes = clustered_edge_changes(graph, edges, factor, seed=change_seed)
                    new_root = root_snapshot(graph.reweighted(changes))
                    for old, make_new, block in blocks:
                        new = make_new(new_root)
                        new_weights = new.csr_arrays()[2]
                        n = len(old.vertices)
                        want = _search(new, block.sources)
                        search_us.setdefault(n, []).append(
                            _best(lambda: _search(new, block.sources)) / len(block.sources) * 1e6
                        )
                        patcher = row_patch.RowPatcher(old, new_weights)
                        for r, row in enumerate(block.rows):
                            patched = row.copy()
                            settled = patcher.patch(patched)
                            if not np.array_equal(patched, want[r]):
                                raise AssertionError("a patched row differs from the searched one")
                            copies = [row.copy() for _ in range(REPEATS)]
                            seconds = _best(lambda: patcher.patch(copies.pop()))
                            samples.setdefault(n, []).append((settled, seconds * 1e6))
    finally:
        row_patch.SETTLE_FRACTION = shipped
    rows = []
    for n in sorted(samples):
        settled, micros = (np.asarray(values, dtype=np.float64) for values in zip(*samples[n]))
        # medians rather than a least-squares line: a few rows settle
        # thousands of vertices and would set the slope alone
        idle = settled == 0
        intercept = float(np.median(micros[idle])) if idle.any() else 0.0
        busy = settled >= MIN_SETTLED_FOR_SLOPE
        slope = float(np.median((micros[busy] - intercept) / settled[busy]))
        search = float(np.median(search_us[n]))
        crossover = (search - intercept) / slope
        rows.append({
            "snapshot_vertices": n,
            "rows": len(settled),
            "settled_median": float(np.median(settled)),
            "settled_max": int(settled.max()),
            "patch_us_intercept": round(float(intercept), 2),
            "patch_us_per_settled": round(float(slope), 3),
            "search_us_per_row": round(search, 2),
            "crossover_settled": round(float(crossover), 1),
            "crossover_fraction": round(float(crossover) / n, 4),
        })
    return {
        "graph": {"vertices": num_vertices, "seed": seed, "weights": "travel_time"},
        "edge_counts": list(EDGE_COUNTS),
        "factors": list(FACTORS),
        "repeats": REPEATS,
        "rows": rows,
        "settle_fraction": min(row["crossover_fraction"] for row in rows),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent / "patch_crossover.json"
    )
    args = parser.parse_args()
    record = run(args.vertices, args.seed)
    payload = json.dumps(record, indent=2) + "\n"
    args.output.write_text(payload, encoding="utf-8")
    print(payload)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

"""Shard-router overhead measurement (serving-scale experiment).

The :class:`~repro.serving.shards.ShardRouter` buys horizontal capacity -
per-range label shards, read-only mmap loading, per-source-shard fan-out - at
the cost of extra routing work per batch (shard lookups, per-shard
gathers, result re-assembly).  This workload quantifies that cost: it
shards a built index at several shard counts, replays the same query
batch through the monolithic engine and through each router, verifies the
answers are bit-identical, and reports the per-shard-count latency plus
routing statistics.  The rows feed ``BENCH_query.json`` (one row per
shard count) so router regressions are visible across PRs.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.index import HC2LIndex
from repro.serving.shards import RouterStats, ShardRouter

QueryPair = Tuple[int, int]


def router_overhead_rows(
    index: HC2LIndex,
    pairs: Sequence[QueryPair],
    workdir: Union[str, Path],
    shard_counts: Sequence[int] = (1, 2, 4),
    repetitions: int = 1,
) -> List[Dict[str, object]]:
    """Measure the shard router against the monolithic engine.

    Shards ``index`` under ``workdir`` at each count in ``shard_counts``
    and times the same ``pairs`` batch through a
    :class:`ShardRouter` (shard load time excluded - the router maps
    every shard when it opens, and a serving worker pays that once, not
    per batch).  Raises ``AssertionError`` if any
    router answer diverges from the engine.  Returns one row per shard
    count with the batch latency, the overhead ratio relative to the
    monolithic batch path, and the fan-out statistics of one
    steady-state batch.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # save_sharded partitions the in-memory index; the path only names the
    # <path>.shards/ layout directory, so no monolithic archive is written
    path = workdir / "router-overhead.npz"

    pairs = list(pairs)
    index.distances(pairs[:1])  # warm the engine outside the timed region
    baseline = index.distances(pairs)
    engine_seconds = min(_timed(index, pairs) for _ in range(repetitions))

    rows: List[Dict[str, object]] = []
    for count in shard_counts:
        index.save_sharded(path, num_shards=count)
        router = ShardRouter(path)
        answers = router.distances(pairs)
        if answers.tolist() != baseline.tolist():
            raise AssertionError(
                f"router answers diverged from the engine at {count} shards"
            )
        router_seconds = min(_timed(router, pairs) for _ in range(repetitions))
        # report the routing stats of exactly one steady-state batch, not
        # the accumulation over verification + every timed repetition -
        # otherwise the counters scale with `repetitions` and read as
        # routing regressions across PRs
        router.stats = RouterStats()
        router.distances(pairs)
        rows.append(
            {
                "oracle": f"HC2L+router(shards={count})",
                "num_queries": len(pairs),
                "num_shards": count,
                "batch_queries_per_second": round(len(pairs) / router_seconds, 1),
                "batch_microseconds_per_query": round(
                    router_seconds / len(pairs) * 1e6, 3
                ),
                "router_overhead_ratio": round(router_seconds / engine_seconds, 3)
                if engine_seconds > 0
                else float("inf"),
                "engine_batch_microseconds_per_query": round(
                    engine_seconds / len(pairs) * 1e6, 3
                ),
                **router.stats.as_dict(),
            }
        )
    return rows


def boundary_locality_rows(
    index: HC2LIndex,
    pairs: Sequence[QueryPair],
    workdir: Union[str, Path],
    num_shards: int = 4,
    modes: Sequence[str] = ("even", "hierarchy"),
) -> List[Dict[str, object]]:
    """Compare shard-boundary layouts on the cross-shard pair fraction.

    Shards ``index`` once per mode under ``workdir`` and replays the same
    ``pairs`` batch through a router, verifying the answers are
    bit-identical to the monolithic engine (the layouts only move label
    bytes around).  Returns one row per mode carrying the router stats -
    most importantly ``cross_shard_fraction``, the locality metric the
    hierarchy-aligned boundaries exist to push down on neighbourhood-style
    traffic (:func:`repro.experiments.workloads.neighborhood_pairs`).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    pairs = list(pairs)
    baseline = index.distances(pairs)
    rows: List[Dict[str, object]] = []
    for mode in modes:
        path = workdir / f"boundaries-{mode}.npz"
        index.save_sharded(path, num_shards=num_shards, boundaries=mode)
        router = ShardRouter(path)
        answers = router.distances(pairs)
        if answers.tolist() != baseline.tolist():
            raise AssertionError(
                f"router answers diverged from the engine under {mode!r} boundaries"
            )
        rows.append(
            {
                "oracle": f"HC2L+router(shards={num_shards},boundaries={mode})",
                "num_queries": len(pairs),
                "num_shards": num_shards,
                "boundaries": mode,
                **router.stats.as_dict(),
            }
        )
    return rows


def _timed(oracle, pairs: Sequence[QueryPair]) -> float:
    start = time.perf_counter()
    oracle.distances(pairs)
    return time.perf_counter() - start

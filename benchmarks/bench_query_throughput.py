#!/usr/bin/env python3
"""Query throughput benchmark across every DistanceOracle plus serving paths.

Builds each selected oracle (HC2L and the baselines) on one generated
road-like graph and times the same random query workload through

* the per-pair scalar ``distance`` loop,
* the batch ``distances`` protocol call (vectorised where the method's
  structure allows - ``supports_batch`` is recorded per row), and
* for HC2L additionally the serving layer: an LRU :class:`CachingOracle`
  on a Zipf-skewed workload (with hit-rate), the :class:`ShardRouter` over a
  sharded on-disk layout swept across shard counts {1, 2, 4} (one row
  per count, with the router-overhead ratio vs. the monolithic engine),
  and the multi-process shard fleet in closed loop - concurrent TCP
  clients replaying locality batches and dispatch-style distance
  matrices, one row per (worker count, wire mode) with p50/p99 latency
  and the majority-placement hit rate, plus Zipf rows comparing the
  cross-worker shared cache on vs off (cold and hot passes), and a
  dynamic-update replay - clustered weight changes scoped-relabelled,
  written as a new index generation and hot-swapped into the live fleet
  under concurrent clients, one row per epoch plus a scoped-vs-full
  relabel speedup row.

Scalar/batch results are verified identical before anything is written,
and a sweep method that raises aborts the whole run (no partial record is
ever written), so the per-oracle BENCH trajectory can never silently drop
an oracle.  The rows land in ``BENCH_query.json`` (uploaded by CI) so the
performance trajectory is tracked across PRs.

Run with::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py \
        [--vertices 3000] [--queries 10000] [--oracles HC2L,H2H,...] \
        [--shard-counts 1,2,4] [--output BENCH_query.json]
"""

from __future__ import annotations

import argparse
import json
import random
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import HC2LIndex, RoadNetworkSpec, synthetic_road_network
from repro.baselines import (
    BidirectionalDijkstra,
    ContractionHierarchy,
    DijkstraOracle,
    H2HIndex,
    HubLabelling,
    PrunedHighwayLabelling,
    PrunedLandmarkLabelling,
)
from repro.experiments.dynamic import update_latency_rows
from repro.experiments.fleet import fleet_latency_rows
from repro.experiments.sharding import boundary_locality_rows, router_overhead_rows
from repro.experiments.workloads import neighborhood_pairs, skewed_pairs
from repro.serving import CachingOracle

ORACLE_BUILDERS = {
    "HC2L": lambda graph: HC2LIndex.build(graph),
    "H2H": lambda graph: H2HIndex.build(graph),
    "PHL": lambda graph: PrunedHighwayLabelling.build(graph),
    "HL": lambda graph: HubLabelling.build(graph),
    "PLL": lambda graph: PrunedLandmarkLabelling.build(graph),
    "CH": lambda graph: ContractionHierarchy.build(graph),
    "BiDijkstra": lambda graph: BidirectionalDijkstra.build(graph),
    "Dijkstra": lambda graph: DijkstraOracle.build(graph),
}

#: default sweep; the slow search-based scalar loops run a reduced workload
DEFAULT_ORACLES = list(ORACLE_BUILDERS)
REDUCED_WORKLOAD = {"BiDijkstra", "CH", "Dijkstra"}


def bench_oracle(
    name: str,
    oracle,
    pairs: List[Tuple[int, int]],
    build_seconds: float,
) -> Dict[str, object]:
    """Time the scalar loop and the batch call; verify they agree."""
    oracle.distances(pairs[:1])  # warm lazy state outside the timed regions

    single_start = time.perf_counter()
    single = [oracle.distance(s, t) for s, t in pairs]
    single_seconds = time.perf_counter() - single_start

    batch_start = time.perf_counter()
    batch = oracle.distances(pairs)
    batch_seconds = time.perf_counter() - batch_start

    if single != batch.tolist():
        raise AssertionError(f"{name}: batch results diverged from the scalar path")

    return {
        "oracle": name,
        "num_queries": len(pairs),
        "build_seconds": round(build_seconds, 4),
        "supports_batch": bool(oracle.supports_batch),
        "index_size_bytes": int(oracle.index_size_bytes),
        "single_queries_per_second": round(len(pairs) / single_seconds, 1),
        "batch_queries_per_second": round(len(pairs) / batch_seconds, 1),
        "single_microseconds_per_query": round(single_seconds / len(pairs) * 1e6, 3),
        "batch_microseconds_per_query": round(batch_seconds / len(pairs) * 1e6, 3),
        "batch_speedup": round(single_seconds / batch_seconds, 2),
    }


def bench_cache_row(index: HC2LIndex, graph, num_queries: int, seed: int) -> Dict[str, object]:
    """The row for the cached serving path over HC2L (Zipf-skewed pairs)."""
    skewed = skewed_pairs(graph, num_queries, seed=seed, exponent=1.2)
    cached = CachingOracle(index)
    baseline = index.distances(skewed)
    cache_start = time.perf_counter()
    cached_result = cached.distances(skewed)
    cache_seconds = time.perf_counter() - cache_start
    if cached_result.tolist() != baseline.tolist():
        raise AssertionError("cached results diverged from the engine")
    return {
        "oracle": "HC2L+cache",
        "num_queries": len(skewed),
        "workload": "skewed(zipf=1.2)",
        "batch_queries_per_second": round(len(skewed) / cache_seconds, 1),
        "batch_microseconds_per_query": round(cache_seconds / len(skewed) * 1e6, 3),
        **cached.stats.as_dict(),
    }


def run_benchmark(
    num_vertices: int,
    num_queries: int,
    seed: int = 2024,
    oracles: List[str] | None = None,
    shard_counts: List[int] | None = None,
    fleet_workers: List[int] | None = None,
    dynamic_updates: bool = True,
) -> dict:
    """Build every selected oracle, sweep the workload, return the record."""
    selected = oracles or DEFAULT_ORACLES
    if fleet_workers is None:
        fleet_workers = [2, 3]
    unknown = [name for name in selected if name not in ORACLE_BUILDERS]
    if unknown:
        raise SystemExit(f"unknown oracles {unknown}; available: {list(ORACLE_BUILDERS)}")

    network = synthetic_road_network(
        RoadNetworkSpec("bench-query", num_vertices=num_vertices, seed=seed)
    )
    graph = network.distance_graph

    rng = random.Random(seed)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(num_queries)]

    rows: List[Dict[str, object]] = []
    hc2l_index = None
    for name in selected:
        # a sweep method that raises must kill the whole run with the
        # method's name attached - quietly skipping it (or emitting a
        # partial row) would silently drop the oracle from the BENCH
        # trajectory and read as a removal instead of a failure
        try:
            build_start = time.perf_counter()
            oracle = ORACLE_BUILDERS[name](graph)
            build_seconds = time.perf_counter() - build_start
            workload = pairs[: max(200, num_queries // 10)] if name in REDUCED_WORKLOAD else pairs
            print(f"  {name}: built in {build_seconds:.2f}s, timing {len(workload)} queries ...")
            row = bench_oracle(name, oracle, workload, build_seconds)
        except Exception as error:
            raise SystemExit(
                f"oracle {name!r} failed during the sweep ({error!r}); "
                f"refusing to write a BENCH_query.json without it"
            ) from error
        rows.append(row)
        if name == "HC2L":
            hc2l_index = oracle

    if hc2l_index is not None:
        try:
            rows.append(bench_cache_row(hc2l_index, graph, num_queries, seed))
            counts = shard_counts if shard_counts is not None else [1, 2, 4]
            if counts:
                print(f"  HC2L+router: sweeping shard counts {counts} ...")
                with tempfile.TemporaryDirectory() as workdir:
                    rows.extend(
                        router_overhead_rows(
                            hc2l_index, pairs, workdir, shard_counts=counts
                        )
                    )
                # shard-boundary locality: the same neighbourhood workload
                # through even vs hierarchy-aligned boundaries, one row per
                # mode with the cross-shard pair fraction (tracked across
                # PRs like the throughput rows)
                local = neighborhood_pairs(graph, min(num_queries, 4000), seed=seed)
                if local:
                    print("  HC2L+router: comparing shard-boundary layouts ...")
                    with tempfile.TemporaryDirectory() as workdir:
                        rows.extend(
                            boundary_locality_rows(
                                hc2l_index, local, workdir, num_shards=4
                            )
                        )
                if fleet_workers:
                    print(f"  HC2L+fleet: closed-loop sweep at {fleet_workers} workers ...")
                    with tempfile.TemporaryDirectory() as workdir:
                        rows.extend(
                            fleet_latency_rows(
                                hc2l_index,
                                graph,
                                workdir,
                                worker_counts=fleet_workers,
                                seed=seed,
                            )
                        )
                if dynamic_updates:
                    print("  HC2L+fleet: dynamic-update replay (generation hot-swap) ...")
                    with tempfile.TemporaryDirectory() as workdir:
                        rows.extend(
                            update_latency_rows(
                                hc2l_index,
                                graph,
                                workdir,
                                num_workers=2,
                                seed=seed,
                            )
                        )
        except Exception as error:
            raise SystemExit(
                f"HC2L serving-path sweep failed ({error!r}); "
                f"refusing to write a BENCH_query.json without those rows"
            ) from error

    missing = [name for name in selected if not any(r["oracle"] == name for r in rows)]
    if missing:
        raise SystemExit(f"sweep finished without rows for {missing}; not writing a partial record")

    hc2l_row = next((row for row in rows if row["oracle"] == "HC2L"), {})
    return {
        "benchmark": "query_throughput",
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_queries": num_queries,
        # headline HC2L numbers kept top-level for cross-PR continuity
        "build_seconds": hc2l_row.get("build_seconds"),
        "single_queries_per_second": hc2l_row.get("single_queries_per_second"),
        "batch_queries_per_second": hc2l_row.get("batch_queries_per_second"),
        "batch_speedup": hc2l_row.get("batch_speedup"),
        "label_size_bytes": hc2l_row.get("index_size_bytes"),
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=3000)
    parser.add_argument("--queries", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--oracles",
        default=",".join(DEFAULT_ORACLES),
        help=f"comma separated subset of {list(ORACLE_BUILDERS)}",
    )
    parser.add_argument(
        "--shard-counts",
        default="1,2,4",
        help="comma separated shard counts for the router sweep (empty disables it)",
    )
    parser.add_argument(
        "--fleet-workers",
        default="2,3",
        help="comma separated worker counts for the fleet sweep (empty disables it)",
    )
    parser.add_argument(
        "--no-dynamic-updates",
        action="store_true",
        help="skip the dynamic-update replay (generation hot-swap) rows",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_query.json",
    )
    args = parser.parse_args()

    names = [name.strip() for name in args.oracles.split(",") if name.strip()]
    counts = [int(c) for c in args.shard_counts.split(",") if c.strip()]
    workers = [int(w) for w in args.fleet_workers.split(",") if w.strip()]
    record = run_benchmark(
        args.vertices,
        args.queries,
        args.seed,
        names,
        counts,
        workers,
        dynamic_updates=not args.no_dynamic_updates,
    )
    # write-then-rename so an interrupted run never leaves a torn record
    payload = json.dumps(record, indent=2) + "\n"
    tmp = args.output.with_name(args.output.name + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    tmp.replace(args.output)

    print(json.dumps(record, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()

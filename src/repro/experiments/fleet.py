"""Closed-loop fleet benchmark (serving-scale experiment).

The shard fleet buys process-level parallelism and crash isolation at
the cost of placement, IPC and serialisation per batch.  This workload
quantifies the trade under realistic conditions: a
:class:`~repro.serving.fleet.FleetOracle` is started per
``(worker count, wire mode)`` combination, and ``num_clients``
concurrent TCP clients replay locality-skewed traffic in closed loop -
each client fires its next request the moment the previous answer
returns - recording per-request latency.  Every answer is verified
bit-identical to the monolithic engine before anything is timed.

Three phases per fleet configuration land in ``BENCH_query.json``:

* ``neighborhood-batches`` - the pair-batch workload of PR 7, now with
  a ``wire`` dimension (JSON list frames vs raw binary ndarray frames);
* ``many_to_many-neighborhood`` - dispatch-tick distance matrices
  (``matrix_size ** 2`` floats per reply), the serialization-bound
  shape where the binary wire shows its largest win.  One fleet serves
  every wire here and the wires take turns, :data:`MATRIX_REPEATS` runs
  each, so host-load drift hits every wire alike; each row carries every
  run's p50 (``p50_batch_ms_runs``) and their median
  (``median_p50_batch_ms``), the figure to compare wires by;
* ``zipf-pairs`` - Zipf-skewed pair batches replayed twice (cold then
  hot) against fleets with the shared cross-worker cache on and off,
  so the cache-hot win and the cache's bookkeeping overhead on the
  cold pass are both visible.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.index import HC2LIndex
from repro.experiments.workloads import (
    neighborhood_batches,
    neighborhood_matrices,
    skewed_pairs,
)
from repro.graph.graph import Graph
from repro.serving.fleet import FleetClient, FleetOracle

QueryPair = Tuple[int, int]

#: wire modes swept by default (order = row order in the bench output)
DEFAULT_WIRES = ("json", "binary")

#: closed-loop many_to_many runs per wire mode; single runs of the two
#: wires read within a few percent of each other on a loaded host, so the
#: rows compare medians of several alternating runs
MATRIX_REPEATS = 5


def fleet_latency_rows(
    index: HC2LIndex,
    graph: Graph,
    workdir: Union[str, Path],
    worker_counts: Sequence[int] = (2, 3),
    num_shards: int = 4,
    num_clients: int = 4,
    num_batches: int = 48,
    batch_size: int = 32,
    seed: int = 17,
    wires: Sequence[str] = DEFAULT_WIRES,
    shared_cache_slots: int = 4096,
    num_matrices: int = 24,
    matrix_size: int = 24,
) -> List[Dict[str, object]]:
    """Measure fleet serving latency per worker count and wire mode.

    Shards ``index`` once under ``workdir`` with hierarchy-aligned
    boundaries, then for each ``(worker count, wire)`` combination
    starts a fleet, verifies every answer against the monolithic engine
    (raises ``AssertionError`` on the first divergence - bit-identical
    or bust), and runs the closed-loop TCP harness over the pair-batch
    and distance-matrix workloads.  A final sweep replays Zipf-skewed
    batches against shared-cache-on and shared-cache-off fleets (cold
    pass then hot pass).  Raises ``ValueError`` if the graph cannot
    produce the requested workload, so a silent empty bench can never
    look like a passing one.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if not wires:
        raise ValueError("wires must name at least one wire mode")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "fleet-bench.npz"
    index.save_sharded(path, num_shards=num_shards, boundaries="hierarchy")

    batches = neighborhood_batches(graph, num_batches, batch_size, seed=seed)
    if len(batches) < num_batches:
        raise ValueError(
            f"workload generation produced {len(batches)}/{num_batches} "
            f"batches; the graph is too small or too disconnected for the "
            f"fleet bench"
        )
    baselines = [index.distances(batch) for batch in batches]

    matrices = neighborhood_matrices(graph, num_matrices, matrix_size, seed=seed + 1)
    if len(matrices) < num_matrices:
        raise ValueError(
            f"workload generation produced {len(matrices)}/{num_matrices} "
            f"matrices; the graph is too small for the many_to_many bench"
        )
    matrix_baselines = [
        index.many_to_many(sources, targets) for sources, targets in matrices
    ]

    rows: List[Dict[str, object]] = []
    for num_workers in worker_counts:
        for wire in wires:
            rows.extend(
                _wire_phase_rows(
                    path,
                    index,
                    num_workers=num_workers,
                    wire=wire,
                    num_shards=num_shards,
                    num_clients=num_clients,
                    shared_cache_slots=shared_cache_slots,
                    batches=batches,
                    baselines=baselines,
                    batch_size=batch_size,
                )
            )
        rows.extend(
            _matrix_rows(
                path,
                num_workers=num_workers,
                wires=wires,
                num_shards=num_shards,
                num_clients=num_clients,
                shared_cache_slots=shared_cache_slots,
                matrices=matrices,
                matrix_baselines=matrix_baselines,
                matrix_size=matrix_size,
            )
        )

    rows.extend(
        _shared_cache_rows(
            path,
            index,
            graph,
            num_workers=worker_counts[0],
            wire="binary" if "binary" in wires else wires[0],
            num_shards=num_shards,
            num_clients=num_clients,
            shared_cache_slots=shared_cache_slots,
            num_batches=num_batches,
            batch_size=batch_size,
            seed=seed + 2,
        )
    )
    return rows


def _wire_phase_rows(
    path: Path,
    index: HC2LIndex,
    *,
    num_workers: int,
    wire: str,
    num_shards: int,
    num_clients: int,
    shared_cache_slots: int,
    batches: Sequence[Sequence[QueryPair]],
    baselines: Sequence[np.ndarray],
    batch_size: int,
) -> List[Dict[str, object]]:
    """The pair-batch phase of one fleet configuration."""
    with FleetOracle(
        path,
        num_workers=num_workers,
        shared_cache_slots=shared_cache_slots,
    ) as fleet:
        # bit-identity wall before anything is timed (also warms the
        # shared cache identically for every wire, keeping the wire
        # comparison apples-to-apples)
        for batch, baseline in zip(batches, baselines):
            if fleet.distances(batch).tolist() != baseline.tolist():
                raise AssertionError(
                    f"fleet answers diverged from the engine at "
                    f"{num_workers} workers (wire={wire})"
                )
        host, port = fleet.start_tcp()

        fleet.reset_stats()
        latencies, elapsed = asyncio.run(
            _pair_loop(host, port, batches, baselines, num_clients, wire)
        )
        batch_stats = fleet.stats()

    total_queries = sum(len(batch) for batch in batches)
    return [
        {
            "oracle": f"HC2L+fleet(workers={num_workers},wire={wire})",
            "workload": "neighborhood-batches",
            **_fleet_fields(num_workers, wire, num_shards, num_clients, shared_cache_slots),
            "num_batches": len(batches),
            "batch_size": batch_size,
            "num_queries": total_queries,
            **_latency_fields(latencies, len(batches), total_queries, elapsed),
            **_placement_fields(batch_stats),
        }
    ]


def _matrix_rows(
    path: Path,
    *,
    num_workers: int,
    wires: Sequence[str],
    num_shards: int,
    num_clients: int,
    shared_cache_slots: int,
    matrices: Sequence[Tuple[List[int], List[int]]],
    matrix_baselines: Sequence[np.ndarray],
    matrix_size: int,
) -> List[Dict[str, object]]:
    """The many_to_many phase of one worker count, one row per wire.

    One fleet answers every wire (the front door replies in each
    request's own framing), and the wires take turns for
    :data:`MATRIX_REPEATS` closed-loop runs each.  A row's latency fields
    pool all of its runs; ``p50_batch_ms_runs`` lists each run's p50 and
    ``median_p50_batch_ms`` is their median.
    """
    with FleetOracle(
        path,
        num_workers=num_workers,
        shared_cache_slots=shared_cache_slots,
    ) as fleet:
        for (sources, targets), baseline in zip(matrices, matrix_baselines):
            if fleet.many_to_many(sources, targets).tolist() != baseline.tolist():
                raise AssertionError(
                    f"fleet many_to_many diverged from the engine at {num_workers} workers"
                )
        host, port = fleet.start_tcp()
        fleet.reset_stats()
        runs: Dict[str, List[Tuple[List[float], float]]] = {wire: [] for wire in wires}
        for _ in range(MATRIX_REPEATS):
            for wire in wires:
                runs[wire].append(
                    asyncio.run(
                        _matrix_loop(host, port, matrices, matrix_baselines, num_clients, wire)
                    )
                )
        stats = fleet.stats()

    num_queries = len(matrices) * matrix_size * matrix_size
    rows = []
    for wire in wires:
        p50s = [_p50_ms(latencies) for latencies, _ in runs[wire]]
        rows.append(
            {
                "oracle": f"HC2L+fleet(workers={num_workers},wire={wire})",
                "workload": "many_to_many-neighborhood",
                **_fleet_fields(num_workers, wire, num_shards, num_clients, shared_cache_slots),
                "num_batches": len(matrices),
                "matrix_size": matrix_size,
                "num_queries": num_queries,
                "repeats": MATRIX_REPEATS,
                **_latency_fields(
                    [latency for latencies, _ in runs[wire] for latency in latencies],
                    MATRIX_REPEATS * len(matrices),
                    MATRIX_REPEATS * num_queries,
                    sum(elapsed for _, elapsed in runs[wire]),
                ),
                "p50_batch_ms_runs": p50s,
                "median_p50_batch_ms": round(float(np.median(p50s)), 3),
                **_placement_fields(stats),
            }
        )
    return rows


def _shared_cache_rows(
    path: Path,
    index: HC2LIndex,
    graph: Graph,
    *,
    num_workers: int,
    wire: str,
    num_shards: int,
    num_clients: int,
    shared_cache_slots: int,
    num_batches: int,
    batch_size: int,
    seed: int,
    exponent: float = 1.3,
) -> List[Dict[str, object]]:
    """Cache-on vs cache-off on Zipf traffic, cold pass then hot pass."""
    pairs = skewed_pairs(graph, num_batches * batch_size, seed=seed, exponent=exponent)
    if len(pairs) < num_batches * batch_size:
        raise ValueError(
            f"workload generation produced {len(pairs)} Zipf pairs, need "
            f"{num_batches * batch_size}"
        )
    batches = [
        pairs[at : at + batch_size] for at in range(0, len(pairs), batch_size)
    ]
    baselines = [index.distances(batch) for batch in batches]

    rows: List[Dict[str, object]] = []
    # dict.fromkeys dedupes while keeping order, so a sweep launched with
    # the cache disabled measures the off-fleet once instead of twice
    for slots in dict.fromkeys((shared_cache_slots, 0)):
        with FleetOracle(
            path, num_workers=num_workers, shared_cache_slots=slots
        ) as fleet:
            for batch, baseline in zip(batches, baselines):
                if fleet.distances(batch).tolist() != baseline.tolist():
                    raise AssertionError(
                        f"fleet answers diverged on the Zipf workload "
                        f"(shared_cache_slots={slots})"
                    )
            host, port = fleet.start_tcp()
            # the verification pass above already warmed the cache, so
            # "cold" here means first timed TCP replay; the cache-off
            # fleet is the true no-cache reference either way
            fleet.reset_stats()
            cold_latencies, _ = asyncio.run(
                _pair_loop(host, port, batches, baselines, num_clients, wire)
            )
            fleet.reset_stats()
            hot_latencies, hot_elapsed = asyncio.run(
                _pair_loop(host, port, batches, baselines, num_clients, wire)
            )
            stats = fleet.stats()
        total_queries = sum(len(batch) for batch in batches)
        row = {
            "oracle": f"HC2L+fleet(workers={num_workers},wire={wire})",
            "workload": "zipf-pairs",
            "num_workers": num_workers,
            "wire": wire,
            "num_shards": num_shards,
            "num_clients": num_clients,
            "shared_cache": bool(slots),
            "shared_cache_slots": slots,
            "zipf_exponent": exponent,
            "num_batches": len(batches),
            "batch_size": batch_size,
            "num_queries": total_queries,
            **_latency_fields(hot_latencies, len(batches), total_queries, hot_elapsed),
            "cold_p50_batch_ms": _p50_ms(cold_latencies),
            **_placement_fields(stats),
        }
        if stats["shared_cache"].get("enabled"):
            cache = stats["shared_cache"]
            row["shared_cache_hit_rate"] = cache["hit_rate"]
            row["shared_cache_hits"] = cache["hits"]
            row["shared_cache_evictions"] = cache["evictions"]
        rows.append(row)
    return rows


def _fleet_fields(
    num_workers: int, wire: str, num_shards: int, num_clients: int, shared_cache_slots: int
) -> Dict[str, object]:
    return {
        "num_workers": num_workers,
        "wire": wire,
        "num_shards": num_shards,
        "num_clients": num_clients,
        "shared_cache": bool(shared_cache_slots),
    }


def _p50_ms(latencies: Sequence[float]) -> float:
    return round(float(np.percentile(np.asarray(latencies) * 1e3, 50)), 3)


def _latency_fields(
    latencies: Sequence[float], num_requests: int, num_queries: int, elapsed: float
) -> Dict[str, float]:
    latency_ms = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "p50_batch_ms": round(float(np.percentile(latency_ms, 50)), 3),
        "p99_batch_ms": round(float(np.percentile(latency_ms, 99)), 3),
        "mean_batch_ms": round(float(latency_ms.mean()), 3),
        "batches_per_second": round(num_requests / elapsed, 1),
        "queries_per_second": round(num_queries / elapsed, 1),
    }


def _placement_fields(stats: Dict[str, object]) -> Dict[str, object]:
    return {
        "majority_hit_rate": stats["majority_hit_rate"],
        "whole_batches": stats["whole_batches"],
        "split_batches": stats["split_batches"],
        "retries": stats["retries"],
        "restarts": stats["restarts"],
    }


async def _pair_loop(
    host: str,
    port: int,
    batches: Sequence[Sequence[QueryPair]],
    baselines: Sequence[np.ndarray],
    num_clients: int,
    wire: str,
) -> Tuple[List[float], float]:
    """Drive pair batches through ``num_clients`` concurrent TCP clients.

    Client ``c`` owns batches ``c, c + num_clients, ...`` and sends them
    back-to-back (closed loop: the next request leaves when the previous
    response lands).  Answers are re-verified against the baselines - a
    placement or marshalling bug must fail the bench, not skew it.
    Returns the per-request latencies and the wall-clock of the whole
    run.
    """

    async def run_client(client_id: int, client: FleetClient) -> List[float]:
        latencies: List[float] = []
        for i in range(client_id, len(batches), num_clients):
            start = time.perf_counter()
            answers = await client.distances(batches[i])
            latencies.append(time.perf_counter() - start)
            if answers.tolist() != baselines[i].tolist():
                raise AssertionError(f"fleet TCP answer diverged on batch {i}")
        return latencies

    return await _drive_clients(host, port, num_clients, wire, run_client)


async def _matrix_loop(
    host: str,
    port: int,
    matrices: Sequence[Tuple[List[int], List[int]]],
    baselines: Sequence[np.ndarray],
    num_clients: int,
    wire: str,
) -> Tuple[List[float], float]:
    """Closed-loop ``many_to_many`` requests (see :func:`_pair_loop`)."""

    async def run_client(client_id: int, client: FleetClient) -> List[float]:
        latencies: List[float] = []
        for i in range(client_id, len(matrices), num_clients):
            sources, targets = matrices[i]
            start = time.perf_counter()
            answers = await client.many_to_many(sources, targets)
            latencies.append(time.perf_counter() - start)
            if answers.tolist() != baselines[i].tolist():
                raise AssertionError(f"fleet TCP matrix diverged on request {i}")
        return latencies

    return await _drive_clients(host, port, num_clients, wire, run_client)


async def _drive_clients(
    host: str, port: int, num_clients: int, wire: str, run_client
) -> Tuple[List[float], float]:
    clients = [
        await FleetClient.connect(host, port, wire=wire) for _ in range(num_clients)
    ]
    try:
        start = time.perf_counter()
        per_client = await asyncio.gather(
            *(run_client(c, client) for c, client in enumerate(clients))
        )
        elapsed = time.perf_counter() - start
    finally:
        for client in clients:
            await client.aclose()
    return [latency for latencies in per_client for latency in latencies], elapsed

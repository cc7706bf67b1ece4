#!/usr/bin/env python3
"""Construction benchmark across shortest-path backends.

Builds the HC2L index for one generated road-like graph once per selected
:mod:`repro.core.backends` backend and records the per-phase wall-clock
breakdown:

* ``contraction`` - the degree-one contraction of the input graph,
* ``snapshot`` - the root CSR snapshot plus each node's induced,
  shortcut-overlaid child snapshots (shared by every construction search),
* ``hierarchy`` - balanced cuts (Algorithms 1-2: seed searches, max-flow
  vertex cuts and component re-assignment, all on the backend seam),
* ``labelling`` - ranking + pruneability-tracking searches,
* ``shortcuts`` - border searches + redundancy filtering (Algorithm 3),
* ``flatten`` - assembling the process-parallel label fragments into one
  flat labelling (serial builds pack their labels inside the recursion,
  so the phase is absent there).

Backends are compared per phase (``speedup_vs_heap_<phase>`` on the csr
row) as well as in total, so a single-phase regression or win - e.g. the
hierarchy phase since the balanced cuts moved onto the seam - stays
visible across PRs.

The labellings produced by every backend are verified **bit-identical**
before anything is written, so a speed-up can never hide a wrong label.
The rows land in ``BENCH_build.json`` (uploaded by CI next to
``BENCH_query.json``) so build-time regressions are tracked across PRs
the same way query regressions are.

``--scaling`` additionally sweeps a scaling curve: one graph per size in
``--sizes``, built once per construction *mode* (``serial``/``process``
x ``heap``/``csr``), with every mode's labels verified bit-identical
against the first before any row is recorded.  Each mode row carries the
same per-phase breakdown plus ``speedup_vs_heap[_phase]`` against the
same-size ``serial-heap`` row and - on ``process-csr`` -
``speedup_vs_serial_csr`` against the same-size ``serial-csr`` row.
Every row also lists its five slowest hierarchy
nodes (``slowest_nodes``), so a pathological cut shows up with its depth
and vertex count rather than hiding inside a phase total.

``--crossover`` records where the stacked rounds of
:func:`repro.core.flat_build.build_subtree` stop paying: it collects
every node of one csr build of the benchmark graph (snapshot, cut and
partitions), groups the nodes by snapshot size, and per size bucket times
(best of 3) two pairs of routes.  The balanced cuts: one
:func:`~repro.partition.cut.balanced_cut` per node against one
:func:`~repro.core.flat_build.stacked_cuts` pass over the bucket (plus
the per-node cuts of the blocks it leaves alone).  The label and shortcut
passes: the per-node passes (:func:`~repro.core.flat_build.label_node`
and one :func:`~repro.core.flat_build.shortcut_child` per side, node
after node) against one stacked pass over the whole bucket
(:func:`~repro.core.flat_build.stacked_labels` and
:func:`~repro.core.flat_build.stacked_children`).  The two cut routes'
cuts and parts, and the two pass routes' ranked cuts, levels, child
snapshots and relabel records, are compared with ``==`` before a row is
written.

Run with::

    PYTHONPATH=src python benchmarks/bench_build.py \
        [--vertices 3000] [--backends heap,csr] [--output BENCH_build.json] \
        [--scaling] [--sizes 1000,10000,100000] \
        [--modes serial-heap,...,process-csr] [--scaling-workers 2] \
        [--crossover]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.core.flat_build as flat_build
from repro import RoadNetworkSpec, synthetic_road_network
from repro.core.backends import BACKEND_NAMES, resolve_backend
from repro.core.construction import ConstructionStats, HC2LBuilder
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.labelling import level_piece
from repro.core.parallel import ParallelHC2LBuilder
from repro.graph.contraction import contract_degree_one
from repro.partition.cut import balanced_cut
from repro.utils.timer import Timer

PHASES = ("contraction", "snapshot", "hierarchy", "labelling", "shortcuts", "flatten")

#: Scaling-curve construction modes: name -> (worker processes?, backend).
#: Serial modes run the plain :class:`HC2LBuilder`.
SCALING_MODES: Dict[str, Tuple[bool, str]] = {
    "serial-heap": (False, "heap"),
    "serial-csr": (False, "csr"),
    "process-heap": (True, "heap"),
    "process-csr": (True, "csr"),
}


def _top_nodes(stats: ConstructionStats, k: int = 5) -> List[Dict[str, object]]:
    """The ``k`` slowest hierarchy nodes, with the cut-vs-label time split.

    ``seconds`` is the node's full wall time (cut + labelling + shortcut
    derivation); ``seconds_cut`` is the balanced-cut share, so a node that
    is slow because of its max-flow cut is distinguishable from one that
    is slow because of its labelling searches.
    """
    slowest = sorted(stats.node_timings, key=lambda t: t[2], reverse=True)[:k]
    return [
        {
            "depth": depth,
            "vertices": vertices,
            "seconds": round(seconds, 4),
            "seconds_cut": round(seconds_cut, 4),
        }
        for depth, vertices, seconds, seconds_cut in slowest
    ]


def bench_backend(name: str, graph, leaf_size: int):
    """One full construction under ``name``, with the per-phase breakdown."""
    backend = resolve_backend(name)
    total_start = time.perf_counter()

    contract_start = time.perf_counter()
    contraction = contract_degree_one(graph)
    contraction_seconds = time.perf_counter() - contract_start

    builder = HC2LBuilder(leaf_size=leaf_size, backend=backend)
    hierarchy, flat, stats = builder.build(contraction.core)
    total_seconds = time.perf_counter() - total_start

    row: Dict[str, object] = {
        "backend": name,
        "resolved_backend": backend.name,
        "total_seconds": round(total_seconds, 4),
        "seconds_contraction": round(contraction_seconds, 4),
        "num_nodes": stats.num_nodes,
        "num_shortcuts": stats.num_shortcuts,
        "tree_height": hierarchy.height(),
        "label_entries": flat.total_entries(),
    }
    for phase, seconds in stats.timer.durations.items():
        row[f"seconds_{phase}"] = round(seconds, 4)
    row["slowest_nodes"] = _top_nodes(stats)
    return row, flat


def bench_mode(mode: str, graph, leaf_size: int, workers: int):
    """One full construction under a scaling mode, with the phase breakdown.

    Serial modes run :class:`HC2LBuilder` directly; process modes run
    :class:`ParallelHC2LBuilder` with ``workers`` worker processes.  Both
    return the flat labelling; the process modes' fragment assembly is
    the ``flatten`` phase of the builder's timer.
    """
    parallel, backend_name = SCALING_MODES[mode]
    backend = resolve_backend(backend_name)
    total_start = time.perf_counter()

    contract_start = time.perf_counter()
    contraction = contract_degree_one(graph)
    contraction_seconds = time.perf_counter() - contract_start

    if parallel:
        builder = ParallelHC2LBuilder(leaf_size=leaf_size, backend=backend, num_workers=workers)
    else:
        builder = HC2LBuilder(leaf_size=leaf_size, backend=backend)
    hierarchy, flat, stats = builder.build(contraction.core)
    total_seconds = time.perf_counter() - total_start

    row: Dict[str, object] = {
        "mode": mode,
        "backend": backend_name,
        "workers": workers if parallel else 1,
        "total_seconds": round(total_seconds, 4),
        "seconds_contraction": round(contraction_seconds, 4),
        "num_nodes": stats.num_nodes,
        "num_shortcuts": stats.num_shortcuts,
        "num_tasks": stats.num_tasks,
        "tree_height": hierarchy.height(),
        "label_entries": flat.total_entries(),
    }
    for phase, seconds in stats.timer.durations.items():
        row[f"seconds_{phase}"] = round(seconds, 4)
    row["slowest_nodes"] = _top_nodes(stats)
    return row, flat


def run_scaling(
    sizes: List[int],
    modes: List[str] | None = None,
    workers: int = 2,
    seed: int = 2024,
    leaf_size: int = 12,
) -> dict:
    """Scaling curve: one graph per size, one build per mode, rows per size.

    Every mode's labels are verified bit-identical against the first
    selected mode **before** the size's rows are composed - a faster mode
    with different labels aborts the whole benchmark.
    """
    selected = modes or list(SCALING_MODES)
    unknown = [mode for mode in selected if mode not in SCALING_MODES]
    if unknown:
        raise SystemExit(f"unknown modes {unknown}; available: {list(SCALING_MODES)}")

    size_records: List[Dict[str, object]] = []
    for num_vertices in sizes:
        network = synthetic_road_network(
            RoadNetworkSpec("bench-scaling", num_vertices=num_vertices, seed=seed)
        )
        graph = network.distance_graph
        rows: Dict[str, Dict[str, object]] = {}
        flats: Dict[str, FlatLabelling] = {}
        for mode in selected:
            print(f"  [{num_vertices}] {mode}: building ...", flush=True)
            row, flat = bench_mode(mode, graph, leaf_size, workers)
            rows[mode] = row
            flats[mode] = flat
            print(f"  [{num_vertices}] {mode}: {row['total_seconds']}s total", flush=True)

        reference_mode = selected[0]
        for mode in selected[1:]:
            if flats[mode] != flats[reference_mode]:
                raise AssertionError(
                    f"mode {mode!r} produced labels different from "
                    f"{reference_mode!r} at {num_vertices} vertices"
                )

        heap_row = rows.get("serial-heap")
        if heap_row is not None:
            for mode in selected:
                if mode == "serial-heap":
                    continue
                row = rows[mode]
                row["speedup_vs_heap"] = round(
                    float(heap_row["total_seconds"])
                    / max(float(row["total_seconds"]), 1e-9),
                    2,
                )
                for phase in PHASES:
                    key = f"seconds_{phase}"
                    if key in heap_row and key in row:
                        row[f"speedup_vs_heap_{phase}"] = round(
                            float(heap_row[key]) / max(float(row[key]), 1e-9), 2
                        )
        serial_row = rows.get("serial-csr")
        process_row = rows.get("process-csr")
        if serial_row is not None and process_row is not None:
            process_row["speedup_vs_serial_csr"] = round(
                float(serial_row["total_seconds"])
                / max(float(process_row["total_seconds"]), 1e-9),
                2,
            )

        size_records.append(
            {
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "rows": [rows[mode] for mode in selected],
            }
        )
    return {
        "workers": workers,
        "leaf_size": leaf_size,
        "seed": seed,
        "modes": selected,
        "sizes": size_records,
    }


#: snapshots of this many vertices and more share the crossover's last bucket
CROSSOVER_TOP_BUCKET = 2048
#: timed repetitions per crossover bucket and route; the best is kept
CROSSOVER_REPEATS = 3
#: the balance parameter of the crossover's build and cuts (the builder's default)
CROSSOVER_BETA = 0.2


def _fresh(flat: FlatWorkingGraph) -> FlatWorkingGraph:
    """The same snapshot with an empty cache (no distance rows to reuse)."""
    return FlatWorkingGraph(flat.vertices, *flat.csr_arrays())


def _collect_nodes(graph, leaf_size: int) -> List[Tuple[FlatWorkingGraph, int, list, object]]:
    """``(snapshot, depth, cut, parts)`` of every node of one csr build.

    A node the build cut has ``parts``; a leaf has ``None``, and a leaf
    whose cut came out one-sided keeps the snapshot's vertices as its cut.
    """
    nodes = []
    shipped = flat_build._cut_node

    def cut_node(flat, depth, **kwargs):
        snapshot = _fresh(flat)
        result, seconds = shipped(flat, depth, **kwargs)
        if result is None:
            nodes.append((snapshot, depth, list(flat.vertices), None))
        else:
            nodes.append((snapshot, depth, result.cut, (result.part_a, result.part_b)))
        return result, seconds

    flat_build._cut_node = cut_node
    try:
        HC2LBuilder(leaf_size=leaf_size, backend="csr").build(contract_degree_one(graph).core)
    finally:
        flat_build._cut_node = shipped
    return nodes


def _per_node_cuts(nodes, backend):
    """One balanced cut per node, node after node."""
    return [balanced_cut(flat, CROSSOVER_BETA, backend=backend) for flat, _, _, _ in nodes]


def _stacked_cuts(nodes, backend):
    """One stacked cut pass over ``nodes``, then the cuts it leaves alone."""
    flats = [flat for flat, _, _, _ in nodes]
    stacked = flat_build.stacked_cuts(
        flat_build.SnapshotStack.of(flats), np.ones(len(flats), dtype=bool), CROSSOVER_BETA
    )
    return [
        balanced_cut(flat, CROSSOVER_BETA, backend=backend) if result is None else result
        for flat, result in zip(flats, stacked)
    ]


def _same_cuts(a, b) -> bool:
    return [(r.part_a, r.cut, r.part_b) for r in a] == [(r.part_a, r.cut, r.part_b) for r in b]


def _per_node(nodes, backend):
    """The per-node label + shortcut passes, node after node."""
    timer = Timer()
    out = []
    for flat, depth, cut, parts in nodes:
        ranking, lengths, block = flat_build.label_node(
            flat, cut, tail_pruning=True, backend=backend, timer=timer
        )
        children = [
            flat_build.shortcut_child(
                flat, ranking.ordered, part, block, backend=backend, timer=timer
            )
            for part in parts or ()
        ]
        out.append((ranking.ordered, level_piece(flat.vertices, depth, lengths, block), children))
    return out


def _stacked(nodes):
    """One stacked label pass and one stacked shortcut pass over ``nodes``."""
    stack = flat_build.SnapshotStack.of([flat for flat, _, _, _ in nodes])
    levels = flat_build.stacked_labels(
        stack, [cut for _, _, cut, _ in nodes], [depth for _, depth, _, _ in nodes], True
    )
    children, _ = flat_build.stacked_children(
        stack, levels, [parts for _, _, _, parts in nodes], Timer()
    )
    return [
        (ordered, piece, [(child, record) for child, _, _, record in kids])
        for ordered, piece, kids in zip(levels.ordered, levels.pieces, children)
    ]


def _same_outputs(a, b) -> bool:
    """Whether two routes' ranked cuts, levels, children and records agree."""
    for (ordered_a, piece_a, kids_a), (ordered_b, piece_b, kids_b) in zip(a, b):
        if ordered_a != ordered_b or piece_a.depth != piece_b.depth or len(kids_a) != len(kids_b):
            return False
        if not all(
            np.array_equal(getattr(piece_a, name), getattr(piece_b, name))
            for name in ("vertices", "lengths", "values")
        ):
            return False
        for (child_a, record_a), (child_b, record_b) in zip(kids_a, kids_b):
            if child_a.vertices != child_b.vertices or not all(
                np.array_equal(x, y) and x.dtype == y.dtype
                for x, y in zip(child_a.csr_arrays(), child_b.csr_arrays())
            ):
                return False
            if (
                record_a.borders != record_b.borders
                or record_a.shortcuts != record_b.shortcuts
                or not np.array_equal(record_a.distances, record_b.distances)
            ):
                return False
    return len(a) == len(b)


def _best_of(nodes, run) -> Tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(CROSSOVER_REPEATS):
        fresh = [(_fresh(flat), depth, cut, parts) for flat, depth, cut, parts in nodes]
        started = time.perf_counter()
        result = run(fresh)
        best = min(best, time.perf_counter() - started)
    return best, result


def run_crossover(graph, leaf_size: int = 12) -> dict:
    """Stacked vs per-node label + shortcut passes per snapshot-size bucket.

    Every node of one csr build joins the bucket of its snapshot size
    (powers of two); each bucket is timed both ways on fresh snapshots
    and the two routes' outputs are compared before its row is written.
    """
    backend = resolve_backend("csr")
    buckets: Dict[int, list] = {}
    for node in _collect_nodes(graph, leaf_size):
        size = len(node[0].vertices)
        buckets.setdefault(min(1 << (size.bit_length() - 1), CROSSOVER_TOP_BUCKET), []).append(node)
    rows = []
    for lo in sorted(buckets):
        nodes = buckets[lo]
        # the nodes that reach the balanced cut (leaves by size never do)
        cut = [node for node in nodes if len(node[0].vertices) > leaf_size]
        cut_s = stacked_cut_s = 0.0
        if cut:
            cut_s, per_node_cuts = _best_of(cut, lambda fresh: _per_node_cuts(fresh, backend))
            stacked_cut_s, stacked_cuts = _best_of(
                cut, lambda fresh: _stacked_cuts(fresh, backend)
            )
            if not _same_cuts(per_node_cuts, stacked_cuts):
                raise AssertionError(
                    f"stacked and per-node cuts disagree on the {lo}-vertex bucket"
                )
        per_node_s, per_node = _best_of(nodes, lambda fresh: _per_node(fresh, backend))
        stacked_s, stacked = _best_of(nodes, _stacked)
        if not _same_outputs(per_node, stacked):
            raise AssertionError(
                f"stacked and per-node passes disagree on the {lo}-vertex bucket"
            )
        rows.append(
            {
                "vertices": f">= {lo}" if lo == CROSSOVER_TOP_BUCKET else f"{lo}-{2 * lo - 1}",
                "nodes": len(nodes),
                "per_node_seconds": round(per_node_s, 4),
                "stacked_seconds": round(stacked_s, 4),
                "stacked_speedup": round(per_node_s / max(stacked_s, 1e-9), 2),
                "cut_nodes": len(cut),
                "per_node_cut_seconds": round(cut_s, 4),
                "stacked_cut_seconds": round(stacked_cut_s, 4),
                "stacked_cut_speedup": round(cut_s / stacked_cut_s, 2) if cut else None,
            }
        )
    return {
        "threshold": flat_build._STACKED_MAX_VERTICES,
        "repeats": CROSSOVER_REPEATS,
        "rows": rows,
    }


def run_benchmark(
    num_vertices: int,
    seed: int = 2024,
    backends: List[str] | None = None,
    leaf_size: int = 12,
) -> dict:
    """Build once under every selected backend, verify labels match.

    *All* resulting labellings must be bit-identical before anything is
    recorded - a faster backend with different labels aborts the run.
    """
    selected = backends or ["heap", "csr"]
    unknown = [name for name in selected if name not in BACKEND_NAMES]
    if unknown:
        raise SystemExit(f"unknown backends {unknown}; available: {list(BACKEND_NAMES)}")

    network = synthetic_road_network(
        RoadNetworkSpec("bench-build", num_vertices=num_vertices, seed=seed)
    )
    graph = network.distance_graph

    rows: Dict[str, Dict[str, object]] = {}
    flats: Dict[str, FlatLabelling] = {}
    for name in selected:
        print(f"  {name}: building on {graph.num_vertices} vertices ...")
        row, flat = bench_backend(name, graph, leaf_size)
        rows[name] = row
        flats[name] = flat
        print(f"  {name}: {row['total_seconds']}s total")

    # a faster backend that builds different labels is a bug, not a win
    reference_name = selected[0]
    for name, flat in flats.items():
        if flat != flats[reference_name]:
            raise AssertionError(
                f"backend {name!r} produced labels different from {reference_name!r}"
            )

    heap_row = rows.get("heap")
    csr_row = rows.get("csr")
    speedup = None
    if heap_row and csr_row:
        speedup = round(
            float(heap_row["total_seconds"]) / max(float(csr_row["total_seconds"]), 1e-9), 2
        )
        csr_row["speedup_vs_heap"] = speedup
        # per-phase speedups so a single phase regressing (or winning, as
        # the hierarchy phase does since the balanced cuts moved onto the
        # backend seam) is visible in the BENCH trajectory, not hidden
        # inside the total
        for phase in PHASES:
            key = f"seconds_{phase}"
            if key in heap_row and key in csr_row:
                csr_row[f"speedup_vs_heap_{phase}"] = round(
                    float(heap_row[key]) / max(float(csr_row[key]), 1e-9), 2
                )

    return {
        "benchmark": "build",
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "leaf_size": leaf_size,
        # headline numbers kept top-level for cross-PR continuity
        "heap_total_seconds": heap_row["total_seconds"] if heap_row else None,
        "csr_total_seconds": csr_row["total_seconds"] if csr_row else None,
        "csr_speedup_vs_heap": speedup,
        "rows": [rows[name] for name in selected],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--leaf-size", type=int, default=12)
    parser.add_argument(
        "--backends",
        default="heap,csr",
        help=f"comma separated subset of {list(BACKEND_NAMES)}",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_build.json",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="also sweep the construction-mode scaling curve over --sizes",
    )
    parser.add_argument(
        "--sizes",
        default="1000,10000,100000",
        help="comma separated scaling-curve graph sizes",
    )
    parser.add_argument(
        "--modes",
        default=",".join(SCALING_MODES),
        help=f"comma separated subset of {list(SCALING_MODES)}",
    )
    parser.add_argument(
        "--scaling-workers",
        type=int,
        default=2,
        help="worker count for the process scaling modes",
    )
    parser.add_argument(
        "--crossover",
        action="store_true",
        help="also time stacked vs per-node label + shortcut passes per snapshot size",
    )
    args = parser.parse_args()

    names = [name.strip() for name in args.backends.split(",") if name.strip()]
    record = run_benchmark(args.vertices, args.seed, names, args.leaf_size)
    if args.scaling:
        sizes = [int(size) for size in args.sizes.split(",") if size.strip()]
        modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
        record["scaling"] = run_scaling(
            sizes, modes, args.scaling_workers, args.seed, args.leaf_size
        )
    if args.crossover:
        network = synthetic_road_network(
            RoadNetworkSpec("bench-build", num_vertices=args.vertices, seed=args.seed)
        )
        record["stacked_crossover"] = run_crossover(network.distance_graph, args.leaf_size)
    payload = json.dumps(record, indent=2) + "\n"
    # write-then-rename so an interrupted run never leaves a torn record
    tmp = args.output.with_name(args.output.name + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    tmp.replace(args.output)

    print(payload)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

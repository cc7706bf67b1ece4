"""The HC2L construction recursion over CSR snapshots.

Every construction node - serial or process-parallel - runs through this
module, and so does every node a dynamic relabel recomputes.  The
recursion is expressed entirely over
:class:`~repro.core.flat.FlatWorkingGraph` CSR snapshots (numpy arrays),
so a subtree of it is also a self-contained, cheap-to-pickle work unit
for the process-parallel builder:

* :func:`label_node` and :func:`shortcut_child` - the per-node sequence
  rank -> label -> induce -> shortcuts -> overlay, over a snapshot and a
  given cut and partitions.  :func:`repro.core.dynamic.relabel` runs the
  same two functions on the inherited cuts when edge weights change.
  Each child also yields a :class:`ChildRecord` (its borders, the hubs'
  distances there, and its shortcuts), from which a later relabel
  rebuilds the child's snapshot instead of searching the old weights.
* :func:`node_step` - one node of the interleaved construction: the
  balanced cut, then :func:`label_node` and one :func:`shortcut_child`
  per side.
* :func:`build_subtree` - the full recursion below one node, returning a
  picklable :class:`SubtreeResult`: the preorder node records needed to
  graft the subtree into the global hierarchy
  (:func:`repro.core.construction.graft_subtree`), their
  :class:`ChildRecord` entries, and one
  :class:`~repro.core.flat.FlatLabelling` fragment holding the subtree's
  label levels in the snapshot's vertex order, packed in one gather from
  the nodes' :class:`~repro.core.labelling.LevelPiece` levels.
  :meth:`HC2LBuilder.build <repro.core.construction.HC2LBuilder.build>`
  is a single call of it on the root snapshot.
* :func:`build_subtree_payload` - the process-pool entry point; rebuilds
  the snapshot from a plain-arrays payload dict.

Vertex orderings, edge orderings and tie-breaks are deterministic, so a
subtree built in a worker process is bit-identical to the same subtree
built in-process (``tests/test_process_parallel.py`` asserts this on whole
graphs, ``tests/test_differential_fuzz.py`` across graph families, and
``tests/test_golden_labels.py`` pins the labels themselves).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.labelling import LevelPiece, level_piece, node_distance_arrays, pack_levels
from repro.core.ranking import CutRanking, rank_cut_vertices
from repro.partition.cut import balanced_cut
from repro.partition.shortcuts import (
    Shortcut,
    border_vertices,
    child_adjacency,
    compute_shortcuts,
)
from repro.utils.timer import Timer


@dataclass(slots=True)
class ChildRecord:
    """How one child's snapshot derives from its parent node's snapshot.

    Algorithm 3 reads nothing of the parent but the child's region, its
    border vertices and the hubs' distances at those borders, so these
    plus the shortcuts it emitted let a relabel rebuild the child snapshot
    exactly (``parent.induce(part).overlay_shortcuts(shortcuts)``) and
    test whether new weights change it, without searching the old weights
    again.  ``distances`` rows follow the parent's hub order (its ranked
    cut, then any crossing-extension hubs of a relabelled node).
    """

    #: border vertices of the child's region (ascending original ids)
    borders: List[int]
    #: ``(hubs x borders)`` float64 distances, ``inf`` where unreached
    distances: np.ndarray
    #: the shortcuts overlaid on the induced region, in emission order
    shortcuts: List[Shortcut]


#: one :class:`ChildRecord` per hierarchy node, by node index; ``None`` for
#: a root, whose snapshot is the core graph's own
RelabelRecord = List[Optional[ChildRecord]]


@dataclass
class NodeStep:
    """Everything one construction node produces, before recursing.

    ``children`` lists ``(child_snapshot, side, bit, record)`` for the
    non-empty children (empty partitions are skipped).
    """

    ranking: CutRanking
    #: the node's label level over every snapshot vertex
    level: LevelPiece
    is_leaf: bool
    children: List[Tuple[FlatWorkingGraph, str, int, ChildRecord]]
    #: wall-clock seconds the balanced cut took (0.0 for leaves); feeds
    #: the per-node cut-vs-label timing split in ConstructionStats
    seconds_cut: float = 0.0


def label_node(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    *,
    tail_pruning: bool,
    backend: ShortestPathBackend,
    timer: Timer,
) -> Tuple[CutRanking, np.ndarray, np.ndarray]:
    """Rank ``cut`` (Equation 6) and compute the node's distance arrays.

    Returns the ranking, every snapshot vertex's array length and the
    ``(ranked cut x snapshot)`` distance block whose leading rows those
    arrays are (:func:`~repro.core.labelling.node_distance_arrays`); the
    block is also the input of Algorithm 3.
    """
    with timer.measure("labelling"):
        ranking = rank_cut_vertices(flat, cut, backend=backend)
        lengths, cut_distances = node_distance_arrays(
            flat, ranking, tail_pruning, backend=backend
        )
    return ranking, lengths, cut_distances


def shortcut_child(
    flat: FlatWorkingGraph,
    hubs: Sequence[int],
    part: Sequence[int],
    hub_distances: np.ndarray,
    *,
    backend: ShortestPathBackend,
    timer: Timer,
    within: Optional[FlatWorkingGraph] = None,
    borders: Optional[List[int]] = None,
) -> Tuple[FlatWorkingGraph, ChildRecord]:
    """One child's shortcut-enhanced snapshot and its :class:`ChildRecord`.

    Induces ``part`` once (or takes the caller's ``within``), searches it
    for the shortcuts between ``hubs``' borders (Algorithm 3), then
    overlays them on the same snapshot (Definition 4.9).
    ``hub_distances`` is the ``(hubs x snapshot)`` distance block;
    ``borders`` may be passed when the caller already holds them.
    """
    with timer.measure("snapshot"):
        if within is None:
            within = flat.induce(part)
    with timer.measure("shortcuts"):
        if borders is None:
            borders = border_vertices(flat, part, hubs)
        shortcuts = compute_shortcuts(
            flat, hubs, part, hub_distances, backend=backend, within=within, borders=borders
        )
        record = ChildRecord(
            borders, hub_distances[:, flat.dense_ids(borders)], shortcuts
        )
    with timer.measure("snapshot"):
        child = child_adjacency(flat, part, shortcuts, within=within)
    return child, record


def node_step(
    flat: FlatWorkingGraph,
    depth: int,
    *,
    beta: float,
    leaf_size: int,
    tail_pruning: bool,
    max_depth: int,
    backend: ShortestPathBackend,
    timer: Timer,
) -> NodeStep:
    """Run one node of the interleaved construction over a CSR snapshot.

    Cut the subgraph, then :func:`label_node` and, unless the node is a
    leaf, one :func:`shortcut_child` per side - no recursion.  The node's
    distance block dies here; its level leaves as a compact piece.
    """
    n = len(flat.vertices)
    force_leaf = n <= leaf_size or depth >= max_depth
    cut_result = None
    seconds_cut = 0.0
    if not force_leaf:
        cut_started = time.perf_counter()
        with timer.measure("hierarchy"):
            cut_result = balanced_cut(flat, beta, backend=backend)
        seconds_cut = time.perf_counter() - cut_started
        if not cut_result.part_a or not cut_result.part_b:
            force_leaf = True

    cut = list(flat.vertices) if force_leaf else cut_result.cut
    ranking, lengths, cut_distances = label_node(
        flat, cut, tail_pruning=tail_pruning, backend=backend, timer=timer
    )
    children: List[Tuple[FlatWorkingGraph, str, int, ChildRecord]] = []
    if not force_leaf:
        for part, side, bit in ((cut_result.part_a, "left", 0), (cut_result.part_b, "right", 1)):
            child, record = shortcut_child(
                flat, ranking.ordered, part, cut_distances, backend=backend, timer=timer
            )
            children.append((child, side, bit, record))
    return NodeStep(
        ranking=ranking,
        level=level_piece(flat.vertices, depth, lengths, cut_distances),
        is_leaf=force_leaf,
        children=children,
        seconds_cut=seconds_cut,
    )


@dataclass
class SubtreeResult:
    """A completed subtree, in picklable plain-array form.

    The node records are in preorder (node, then left subtree, then right
    subtree) with parents referenced by *local* preorder index (-1 for the
    subtree root, whose parent lives in the caller's hierarchy).
    ``labels`` holds every subtree vertex's levels from the subtree root's
    depth down, in the order of the input snapshot's ``vertices``.
    ``records`` holds each node's :class:`ChildRecord` in the same
    preorder; the subtree root's is ``None`` (its parent's step made it,
    and the caller holds it).
    """

    depths: List[int]
    bits: List[int]
    parents: List[int]
    sides: List[Optional[str]]
    leaf_flags: List[bool]
    sizes: List[int]
    cuts: List[List[int]]
    labels: FlatLabelling
    records: RelabelRecord
    num_leaves: int
    num_empty_cuts: int
    num_shortcuts: int
    max_depth: int
    durations: Dict[str, float]
    node_timings: List[Tuple[int, int, float, float]]


def build_subtree(
    flat: FlatWorkingGraph,
    depth: int,
    bits: int,
    *,
    beta: float,
    leaf_size: int,
    tail_pruning: bool,
    max_depth: int,
    backend: BackendSpec = None,
) -> SubtreeResult:
    """Build the whole hierarchy subtree rooted at ``flat``.

    Accumulates node records and the nodes' level pieces locally; the
    caller (the serial builder, a worker process or the parallel
    builder's inline path) grafts the returned :class:`SubtreeResult`
    into the global hierarchy.
    """
    search = resolve_backend(backend)
    timer = Timer()
    records: List[Tuple[int, int, int, Optional[str], bool, int, List[int]]] = []
    child_records: RelabelRecord = []
    levels: List[LevelPiece] = []
    counters = {
        "num_leaves": 0,
        "num_empty_cuts": 0,
        "num_shortcuts": 0,
        "max_depth": depth,
    }
    node_timings: List[Tuple[int, int, float, float]] = []

    def _build(
        flat: FlatWorkingGraph,
        depth: int,
        bits: int,
        parent: int,
        side: Optional[str],
        record: Optional[ChildRecord],
    ) -> None:
        n = len(flat.vertices)
        if n == 0:
            return
        node_started = time.perf_counter()
        counters["max_depth"] = max(counters["max_depth"], depth)
        step = node_step(
            flat,
            depth,
            beta=beta,
            leaf_size=leaf_size,
            tail_pruning=tail_pruning,
            max_depth=max_depth,
            backend=search,
            timer=timer,
        )
        local = len(records)
        records.append((depth, bits, parent, side, step.is_leaf, n, step.ranking.ordered))
        child_records.append(record)
        if step.is_leaf:
            counters["num_leaves"] += 1
        elif not step.ranking.ordered:
            counters["num_empty_cuts"] += 1
        levels.append(step.level)
        counters["num_shortcuts"] += sum(len(child[3].shortcuts) for child in step.children)
        node_timings.append(
            (depth, n, time.perf_counter() - node_started, step.seconds_cut)
        )
        for child_flat, child_side, child_bit, child_record in step.children:
            _build(
                child_flat, depth + 1, (bits << 1) | child_bit, local, child_side, child_record
            )

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        _build(flat, depth, bits, -1, None, None)
    finally:
        sys.setrecursionlimit(limit)

    covered = sum(len(record[6]) for record in records)
    if covered != len(flat.vertices):
        raise AssertionError(
            f"subtree cuts cover {covered} of {len(flat.vertices)} vertices"
        )
    fragment = pack_levels(levels, len(flat.vertices), flat.vertex_array)
    return SubtreeResult(
        depths=[r[0] for r in records],
        bits=[r[1] for r in records],
        parents=[r[2] for r in records],
        sides=[r[3] for r in records],
        leaf_flags=[r[4] for r in records],
        sizes=[r[5] for r in records],
        cuts=[r[6] for r in records],
        labels=fragment,
        records=child_records,
        num_leaves=counters["num_leaves"],
        num_empty_cuts=counters["num_empty_cuts"],
        num_shortcuts=counters["num_shortcuts"],
        max_depth=counters["max_depth"],
        durations=dict(timer.durations),
        node_timings=node_timings,
    )


def build_subtree_payload(payload: Dict[str, object]) -> SubtreeResult:
    """Process-pool entry point: rebuild the snapshot and run the subtree.

    ``payload`` carries the CSR triple as numpy arrays (cheap to pickle),
    the vertex-id map, the node position (``depth``, ``bits``) and the
    builder parameters.  The backend travels by *name*; a custom backend
    instance cannot cross a process boundary, so the coordinator only
    ships named backends to workers (see
    :class:`~repro.core.parallel.ParallelHC2LBuilder`).
    """
    vertices = np.asarray(payload["vertices"], dtype=np.int64)
    flat = FlatWorkingGraph(
        vertices.tolist(), payload["indptr"], payload["indices"], payload["weights"]
    )
    return build_subtree(
        flat,
        int(payload["depth"]),
        payload["bits"],  # python int; may exceed 64 bits at deep levels
        beta=float(payload["beta"]),
        leaf_size=int(payload["leaf_size"]),
        tail_pruning=bool(payload["tail_pruning"]),
        max_depth=int(payload["max_depth"]),
        backend=payload["backend"],
    )

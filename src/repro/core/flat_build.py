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
* :func:`stacked_cuts`, :func:`stacked_labels` and
  :func:`stacked_children` - the same balanced cut, label and shortcut
  passes for many small snapshots at once.  A :class:`SnapshotStack`
  lays the snapshots side by side as the disconnected blocks of one CSR
  graph, so each distance round is one scipy call for all of them
  (:func:`~repro.core.backends.distance_rounds`: three seed rounds for
  the cuts, one per cut vertex for the labels, one per border for the
  shortcuts), every block's flow region goes into one max-flow
  (:func:`~repro.flow.vertex_cut.minimum_vertex_cut_regions`), the
  components left by every block's cut are one scipy scan, the ranking
  and labelling flags are one DAG search each
  (:func:`~repro.core.pruned_dijkstra.dag_reach`), the via-cut and
  Lemma 4.11 tests are one array pass per border count, and seeds,
  partitions, ranks, tail-pruned lengths, levels, borders, induced
  children and shortcut overlays are segment operations over the
  blocks.
* :func:`build_subtree` - the full recursion below one node, returning a
  picklable :class:`SubtreeResult`: the preorder node records needed to
  graft the subtree into the global hierarchy
  (:func:`repro.core.construction.graft_subtree`), their
  :class:`ChildRecord` entries, and one
  :class:`~repro.core.flat.FlatLabelling` fragment holding the subtree's
  label levels in the snapshot's vertex order, packed in one gather from
  the nodes' :class:`~repro.core.labelling.LevelPiece` levels.
  :meth:`HC2LBuilder.build <repro.core.construction.HC2LBuilder.build>`
  is a single call of it on the root snapshot.  Snapshots of at least
  ``_STACKED_MAX_VERTICES`` vertices go node by node, depth first; under
  a ``csr`` backend the smaller ones are built level by level, each level
  one stacked cut pass, one stacked label pass and one stacked shortcut
  pass.  Disconnected snapshots and bottleneck ties are cut alone inside
  their round; zero-weight snapshots, ``heap``/``dial`` builds and
  relabels keep the per-node path.
* :func:`build_subtree_payload` - the process-pool entry point; rebuilds
  the snapshot from a plain-arrays payload dict.

Vertex orderings, edge orderings and tie-breaks are deterministic, so a
subtree built in a worker process is bit-identical to the same subtree
built in-process (``tests/test_process_parallel.py`` asserts this on whole
graphs, ``tests/test_differential_fuzz.py`` across graph families, and
``tests/test_golden_labels.py`` pins the labels themselves), and a
stacked node is bit-identical to the same node built alone, down to its
child snapshots' CSR arrays and its :class:`ChildRecord`
(``tests/test_differential_fuzz.py``'s stack-route wall).
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components

from repro.core.backends import (
    BackendSpec,
    CSRBackend,
    ShortestPathBackend,
    distance_rounds,
    resolve_backend,
)
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.labelling import LevelPiece, level_piece, node_distance_arrays, pack_levels
from repro.core.pruned_dijkstra import dag_reach, has_zero_weight
from repro.core.ranking import CutRanking, rank_cut_vertices
from repro.flow.vertex_cut import minimum_vertex_cut_regions
from repro.partition.cut import (
    BalancedCutResult,
    assign_components,
    balanced_cut,
    flow_region_masks,
    side_balance,
)
from repro.partition.partition import boundary_weights, farthest_in_blocks, initial_sizes
from repro.partition.shortcuts import (
    Shortcut,
    border_vertices,
    child_adjacency,
    compute_shortcuts,
    nonredundant_pairs_batch,
)
from repro.utils.timer import Timer

#: Under a ``csr`` backend, snapshots of fewer vertices are built level by
#: level in stacked rounds (:func:`build_subtree`) instead of one node at a
#: time.  ``benchmarks/bench_build.py --crossover`` times both routes per
#: snapshot-size bucket.
_STACKED_MAX_VERTICES = 256

#: Cells of ``(children x k x k)`` scratch one Lemma 4.11 pass of the
#: stacked shortcut pass may hold (:func:`_stacked_pairs`).
_STACKED_PAIR_CELLS = 1 << 20


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
    cut_result, seconds_cut = _cut_node(
        flat, depth, beta=beta, leaf_size=leaf_size, max_depth=max_depth,
        backend=backend, timer=timer,
    )
    cut = list(flat.vertices) if cut_result is None else cut_result.cut
    ranking, lengths, cut_distances = label_node(
        flat, cut, tail_pruning=tail_pruning, backend=backend, timer=timer
    )
    children: List[Tuple[FlatWorkingGraph, str, int, ChildRecord]] = []
    if cut_result is not None:
        for part, side, bit in ((cut_result.part_a, "left", 0), (cut_result.part_b, "right", 1)):
            child, record = shortcut_child(
                flat, ranking.ordered, part, cut_distances, backend=backend, timer=timer
            )
            children.append((child, side, bit, record))
    return NodeStep(
        ranking=ranking,
        level=level_piece(flat.vertices, depth, lengths, cut_distances),
        is_leaf=cut_result is None,
        children=children,
        seconds_cut=seconds_cut,
    )


def _cut_node(
    flat: FlatWorkingGraph,
    depth: int,
    *,
    beta: float,
    leaf_size: int,
    max_depth: int,
    backend: ShortestPathBackend,
    timer: Timer,
    stacked: Optional[Tuple[BalancedCutResult, float]] = None,
) -> Tuple[Optional[BalancedCutResult], float]:
    """A node's balanced cut (``None`` for a leaf) and the seconds it took.

    ``stacked`` is the cut a round's :func:`stacked_cuts` pass already
    made for this node, with the node's share of the pass's seconds;
    without it the cut runs here, alone.
    """
    if len(flat.vertices) <= leaf_size or depth >= max_depth:
        return None, 0.0
    if stacked is None:
        started = time.perf_counter()
        with timer.measure("hierarchy"):
            result = balanced_cut(flat, beta, backend=backend)
        seconds = time.perf_counter() - started
    else:
        result, seconds = stacked
    if not result.part_a or not result.part_b:
        return None, seconds
    return result, seconds


# --------------------------------------------------------------------- #
# stacked rounds: many small snapshots per scipy call
# --------------------------------------------------------------------- #
class SnapshotStack(NamedTuple):
    """Snapshots side by side, as the disconnected blocks of one CSR graph.

    Block ``i`` holds stacked vertices ``offsets[i] .. offsets[i + 1] - 1``
    in its snapshot's dense order, and its arcs in the snapshot's CSR
    order, so a search over the stack relaxes every block's arcs as a
    search over the snapshot would.
    """

    offsets: np.ndarray
    #: original vertex id of every stacked vertex (ascending per block)
    vertex_ids: np.ndarray
    indptr: np.ndarray
    #: arc heads, as stacked vertex ids
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, flats: Sequence[FlatWorkingGraph]) -> "SnapshotStack":
        csr = [flat.csr_arrays() for flat in flats]
        offsets = np.zeros(len(flats) + 1, dtype=np.int64)
        np.cumsum([len(flat.vertices) for flat in flats], out=offsets[1:])
        arc_offsets = np.cumsum([0] + [len(indices) for _, indices, _ in csr])
        return cls(
            offsets,
            np.concatenate([np.asarray(flat.vertices, dtype=np.int64) for flat in flats]),
            np.concatenate(
                [indptr[:-1] + base for (indptr, _, _), base in zip(csr, arc_offsets)]
                + [arc_offsets[-1:]]
            ),
            np.concatenate(
                [indices + base for (_, indices, _), base in zip(csr, offsets)]
            ),
            np.concatenate([weights for _, _, weights in csr]),
        )

    def block_of(self) -> np.ndarray:
        """The block of every stacked vertex."""
        return np.repeat(np.arange(len(self.offsets) - 1, dtype=np.int64), np.diff(self.offsets))

    def tails(self) -> np.ndarray:
        """The stacked tail of every arc."""
        return np.repeat(
            np.arange(len(self.vertex_ids), dtype=np.int64), np.diff(self.indptr)
        )

    def positions(self, blocks: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
        """Stacked ids of ``vertex_ids[j]`` in block ``blocks[j]``.

        Block-major keys ascend over the whole stack (ids ascend within a
        block), so one binary search maps every query.
        """
        scale = int(self.vertex_ids.max()) + 1 if len(self.vertex_ids) else 1
        keys = self.block_of() * scale + self.vertex_ids
        return np.searchsorted(keys, blocks * scale + vertex_ids)


def stacked_cuts(
    stack: SnapshotStack, cutting: np.ndarray, beta: float
) -> List[Optional[BalancedCutResult]]:
    """The balanced cut (Algorithms 1 and 2) of every ``cutting`` block at once.

    Each result is :func:`~repro.partition.cut.balanced_cut` of that
    block's snapshot alone, bit for bit; ``None`` marks a block that is
    not ``cutting`` or that this pass leaves to the per-node cut: a
    disconnected snapshot (lines 2-10 of Algorithm 1) or a bottleneck tie
    ``w_a == w_b`` (lines 16-22).

    * Seeds (lines 11-13): three one-round
      :func:`~repro.core.backends.distance_rounds` searches, from every
      block's dense 0, then its ``v_A``, then its ``v_B``
      (:func:`~repro.partition.partition.farthest_in_blocks`), and one
      block-major sort for the boundary weights
      (:func:`~repro.partition.partition.boundary_weights`).
    * Flow (lines 3-12): the masks of
      :func:`~repro.partition.cut.flow_region_masks` over the stacked
      arcs, and one :func:`~repro.flow.vertex_cut.minimum_vertex_cut_regions`
      solve over every block's flow region.
    * Components (lines 13-15): one ``connected_components`` scan with
      the source-side cuts removed and one with the sink-side cuts
      removed where they differ;
      :func:`~repro.partition.cut.assign_components` assigns them, and a
      block keeps its sink-side cut only where that is strictly more
      balanced (:func:`~repro.partition.cut.side_balance`).
    """
    m = len(stack.offsets) - 1
    offsets, starts = stack.offsets, stack.offsets[:-1]
    block_of = stack.block_of()
    tails, heads = stack.tails(), stack.indices
    live = np.asarray(cutting, dtype=bool).copy()

    def search(sources: np.ndarray) -> np.ndarray:
        if not live.any():
            return np.full(len(block_of), np.inf)
        rounds = [starts[live] + sources[live]]
        return distance_rounds(stack.indptr, heads, stack.weights, rounds)[0]

    # Algorithm 1, lines 11-13; a block not reached whole from dense 0 is
    # disconnected and is cut alone
    dense_zero = np.zeros(m, dtype=np.int64)
    from_zero = search(dense_zero)
    live &= np.logical_and.reduceat(np.isfinite(from_zero), starts)
    seed_a = farthest_in_blocks(from_zero, offsets, dense_zero)
    dist_a = search(seed_a)
    seed_b = farthest_in_blocks(dist_a, offsets, seed_a)
    dist_b = search(seed_b)
    in_live = live[block_of]
    pw = np.zeros(len(block_of))
    pw[in_live] = dist_a[in_live] - dist_b[in_live]
    w_a, w_b = boundary_weights(pw, offsets, initial_sizes(beta, offsets))
    live &= w_a != w_b
    in_live = live[block_of]
    if not live.any():
        return [None] * m

    # Algorithm 2, lines 3-12: one flow over every block's region
    side = np.full(len(block_of), 3, dtype=np.int8)
    side[in_live] = 2
    side[in_live & (pw <= w_a[block_of])] = 0
    side[in_live & (pw >= w_b[block_of])] = 1
    flow_mask, attach_s, attach_t = flow_region_masks(side, tails, heads)
    region = np.flatnonzero(flow_mask)
    local = np.full(len(block_of), -1, dtype=np.int64)
    local[region] = np.arange(len(region), dtype=np.int64)
    arcs = flow_mask[tails] & flow_mask[heads]
    near_source, near_sink = minimum_vertex_cut_regions(
        len(region),
        local[tails[arcs]],
        local[heads[arcs]],
        local[np.flatnonzero(attach_s)],
        local[np.flatnonzero(attach_t)],
    )
    cut_source = np.zeros(len(block_of), dtype=bool)
    cut_source[region[near_source]] = True
    cut_sink = np.zeros(len(block_of), dtype=bool)
    cut_sink[region[near_sink]] = True

    # lines 13-15 for each canonical cut; the sink-side one only where
    # it differs, and kept only where it is strictly more balanced
    differ = live & np.logical_or.reduceat(cut_source != cut_sink, starts)
    parts, size_a, size_b = _component_sides(stack, block_of, tails, live, cut_source)
    if differ.any():
        sink_parts, sink_a, sink_b = _component_sides(stack, block_of, tails, differ, cut_sink)
        use_sink = differ & (side_balance(sink_a, sink_b) < side_balance(size_a, size_b))
        parts = np.where(use_sink[block_of], sink_parts, parts)

    results: List[Optional[BalancedCutResult]] = [None] * m
    by_side = [
        np.split(stack.vertex_ids[at], np.searchsorted(block_of[at], np.arange(1, m)))
        for at in (np.flatnonzero(parts == code) for code in (0, 2, 1))
    ]
    for i in np.flatnonzero(live).tolist():
        results[i] = BalancedCutResult(*(pieces[i].tolist() for pieces in by_side))
    return results


def _component_sides(
    stack: SnapshotStack,
    block_of: np.ndarray,
    tails: np.ndarray,
    blocks: np.ndarray,
    cut: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines 13-15 of Algorithm 2 for the ``blocks`` with ``cut`` removed.

    Returns every stacked vertex's side (0 = ``A``, 1 = ``B``, 2 = cut or
    outside ``blocks``) and the two sides' sizes per block.
    """
    n = len(block_of)
    keep = blocks[block_of] & ~cut
    arcs = keep[tails] & keep[stack.indices]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails[arcs], minlength=n), out=indptr[1:])
    matrix = _scipy_csr_matrix(
        (np.ones(int(arcs.sum()), dtype=np.int8), stack.indices[arcs], indptr), shape=(n, n)
    )
    _, labels = _scipy_components(matrix, directed=False)
    kept = np.flatnonzero(keep)
    # each component's smallest member is its first kept id
    _, first, component = np.unique(labels[kept], return_index=True, return_inverse=True)
    sides, size_a, size_b = assign_components(
        block_of[kept[first]], np.bincount(component), kept[first], len(blocks)
    )
    parts = np.full(n, 2, dtype=np.int8)
    parts[kept] = sides[component]
    return parts, size_a, size_b


class StackedLevels(NamedTuple):
    """What the stacked label pass hands the stacked shortcut pass."""

    #: each snapshot's ranked cut (Equation 6 order)
    ordered: List[List[int]]
    #: each snapshot's label level
    pieces: List[LevelPiece]
    #: ``(rounds x stacked vertices)`` distance rows: round ``r`` searched
    #: from the ``r``-th vertex of every block's cut
    block: np.ndarray
    #: per snapshot, its rows of ``block`` in rank order
    hub_rows: List[np.ndarray]
    #: stacked ids of every cut vertex
    cut_positions: np.ndarray


def _segment_pairs(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(a, b)`` of entries in the same segment.

    Entries are numbered segment by segment (``sizes[i]`` in segment ``i``).
    """
    starts = np.cumsum(sizes) - sizes
    segment = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    per_entry = sizes[segment]
    first = np.repeat(np.arange(len(segment), dtype=np.int64), per_entry)
    within = np.arange(len(first), dtype=np.int64) - np.repeat(
        np.cumsum(per_entry) - per_entry, per_entry
    )
    return first, starts[segment[first]] + within


def stacked_labels(
    stack: SnapshotStack,
    cuts: Sequence[Sequence[int]],
    depths: Sequence[int],
    tail_pruning: bool,
) -> StackedLevels:
    """Rank every snapshot's cut and label its level, all blocks at once.

    ``cuts[i]`` is block ``i``'s cut; the result equals
    :func:`label_node` plus :func:`~repro.core.labelling.level_piece` per
    block, bit for bit.  Round ``r`` of
    :func:`~repro.core.backends.distance_rounds` searches from the
    ``r``-th cut vertex of every block, so the rows number the largest
    cut, not the cut vertices.  The ranking flags (prune set: the block's
    other cut vertices) and the labelling flags (prune set: the cut
    vertices ranked earlier) each come from one
    :func:`~repro.core.pruned_dijkstra.dag_reach`; coverage, rank order
    ``(coverage, id)``, tail-pruned lengths and the level values are
    segment operations over the blocks.
    """
    m = len(cuts)
    n = len(stack.vertex_ids)
    block_of = stack.block_of()
    k = np.fromiter((len(cut) for cut in cuts), dtype=np.int64, count=m)
    num_entries = int(k.sum())
    entry_block = np.repeat(np.arange(m, dtype=np.int64), k)
    entry_vid = np.fromiter(itertools.chain.from_iterable(cuts), dtype=np.int64, count=num_entries)
    entry_pos = stack.positions(entry_block, entry_vid)
    entry_start = np.cumsum(k) - k
    entry_row = np.arange(num_entries, dtype=np.int64) - np.repeat(entry_start, k)
    num_rows = int(k.max()) if num_entries else 0
    by_row = np.argsort(entry_row, kind="stable")
    rounds = np.split(entry_pos[by_row], np.cumsum(np.bincount(entry_row, minlength=num_rows))[:-1])
    block = distance_rounds(stack.indptr, stack.indices, stack.weights, rounds[:num_rows])

    tails = stack.tails()
    first, second = _segment_pairs(k)
    # most of a row is blocks with no source that round: as nan rather
    # than inf their arcs are never tight, so the DAG search skips them
    reached = np.where(np.isfinite(block), block, np.nan)

    def reach(pairs: np.ndarray) -> np.ndarray:
        seeds = np.zeros((num_rows, n), dtype=bool)
        seeds[entry_row[first[pairs]], entry_pos[second[pairs]]] = True
        return dag_reach(tails, stack.indices, stack.weights, reached, seeds)

    # Equation 6: coverage of a cut vertex = vertices flagged against the
    # block's other cut vertices; rank by (coverage, id)
    rank = np.zeros(num_entries, dtype=np.int64)
    if num_entries:
        flags = reach(first != second)
        coverage = np.add.reduceat(flags, stack.offsets[:-1], axis=1, dtype=np.int64)[
            entry_row, entry_block
        ]
        order = np.lexsort((entry_vid, coverage, entry_block))
        rank[order] = np.arange(num_entries, dtype=np.int64) - entry_start[entry_block[order]]
        ranked_vids = entry_vid[order].tolist()
    else:
        ranked_vids = []
    row_of_rank = np.zeros((m, max(num_rows, 1)), dtype=np.int64)
    row_of_rank[entry_block, rank] = entry_row

    # Algorithm 5: each vertex keeps the prefix up to its last rank whose
    # search is not pruned by an earlier-ranked cut vertex (at least one)
    per_vertex = k[block_of]
    if not tail_pruning or not num_entries:
        lengths = per_vertex.copy()
    else:
        flags = reach(rank[second] < rank[first])
        rank_of_row = np.full((num_rows, m), -1, dtype=np.int64)
        rank_of_row[entry_row, entry_block] = rank
        ranks = rank_of_row[:, block_of]
        lengths = np.where(~flags & (ranks >= 0), ranks + 1, 1).max(axis=0)
        lengths[per_vertex == 0] = 0
    value_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=value_starts[1:])
    columns = np.repeat(np.arange(n, dtype=np.int64), lengths)
    ranks = np.arange(len(columns), dtype=np.int64) - np.repeat(value_starts[:-1], lengths)
    values = block[row_of_rank[block_of[columns], ranks], columns]

    offsets = stack.offsets
    value_offsets = value_starts[offsets]
    ordered = [ranked_vids[s : s + c] for s, c in zip(entry_start.tolist(), k.tolist())]
    pieces = [
        LevelPiece(
            stack.vertex_ids[offsets[i] : offsets[i + 1]],
            depths[i],
            lengths[offsets[i] : offsets[i + 1]],
            values[value_offsets[i] : value_offsets[i + 1]],
        )
        for i in range(m)
    ]
    hub_rows = [row_of_rank[i, : k[i]] for i in range(m)]
    return StackedLevels(ordered, pieces, block, hub_rows, entry_pos)


def stacked_children(
    stack: SnapshotStack,
    levels: StackedLevels,
    parts: Sequence[Optional[Tuple[Sequence[int], Sequence[int]]]],
    timer: Timer,
) -> Tuple[List[List[Tuple[FlatWorkingGraph, str, int, ChildRecord]]], SnapshotStack]:
    """Every block's children (Algorithm 3 and Definition 4.9) at once.

    ``parts[i]`` is block ``i``'s ``(part_a, part_b)``, ``None`` for a
    leaf.  Returns, per block, the ``(snapshot, side, bit, record)``
    children :func:`shortcut_child` would make - snapshots byte-identical
    to ``flat.induce(part).overlay_shortcuts(record.shortcuts)`` - and the
    children stacked in that order, which is the next round's stack.

    One mask induces every child from the stack and one arc scan finds
    every border; the border searches run as
    :func:`~repro.core.backends.distance_rounds` over the stacked induced
    children; the via-cut and Lemma 4.11 tests run once per border count
    (:func:`_stacked_pairs`); one sort overlays every child's shortcuts.
    """
    m = len(parts)
    n = len(stack.vertex_ids)
    # child 2 * i + bit is side ``bit`` of block i
    child_parts = [
        (2 * i + bit, part)
        for i, pair in enumerate(parts) if pair is not None
        for bit, part in enumerate(pair)
    ]
    with timer.measure("snapshot"):
        part_child = np.repeat(
            np.array([child for child, _ in child_parts], dtype=np.int64),
            [len(part) for _, part in child_parts],
        )
        part_vid = np.fromiter(
            itertools.chain.from_iterable(part for _, part in child_parts),
            dtype=np.int64, count=len(part_child),
        )
        child_of = np.full(n, -1, dtype=np.int64)
        child_of[stack.positions(part_child // 2, part_vid)] = part_child
        members = np.flatnonzero(child_of >= 0)
        order = members[np.argsort(child_of[members], kind="stable")]
        size = len(order)
        local = np.full(n, -1, dtype=np.int64)
        local[order] = np.arange(size, dtype=np.int64)
        counts = np.bincount(child_of[members], minlength=2 * m)
        present = np.flatnonzero(counts)
        child_offsets = np.zeros(len(present) + 1, dtype=np.int64)
        np.cumsum(counts[present], out=child_offsets[1:])

        # the children induced from the stack, arcs in the parents' order
        tails, heads, weights = stack.tails(), stack.indices, stack.weights
        tail_child = child_of[tails]
        kept = np.flatnonzero((tail_child >= 0) & (tail_child == child_of[heads]))
        kept = kept[np.argsort(tail_child[kept], kind="stable")]
        arc_tail, arc_head, arc_weight = local[tails[kept]], local[heads[kept]], weights[kept]
        induced_indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(arc_tail, minlength=size), out=induced_indptr[1:])

    with timer.measure("shortcuts"):
        # borders: child vertices with an arc to a cut vertex of their block
        is_cut = np.zeros(n, dtype=bool)
        is_cut[levels.cut_positions] = True
        border = np.zeros(n, dtype=bool)
        border[tails[(tail_child >= 0) & is_cut[heads]]] = True
        border_local = np.flatnonzero(border[order])
        border_child = np.searchsorted(child_offsets, border_local, side="right") - 1
        num_borders = np.bincount(border_child, minlength=len(present))
        border_start = np.cumsum(num_borders) - num_borders
        border_row = np.arange(len(border_local), dtype=np.int64) - border_start[border_child]
        searched = num_borders[border_child] >= 2
        num_rows = int(num_borders.max()) if searched.any() else 0
        rounds = [border_local[searched & (border_row == r)] for r in range(num_rows)]
        in_child = distance_rounds(induced_indptr, arc_head, arc_weight, rounds)

        pair_c, pair_i, pair_j, pair_w = _stacked_pairs(
            levels, present // 2, order, in_child, border_local, border_start, num_borders
        )
        pair_starts = np.searchsorted(pair_c, np.arange(len(present) + 1)).tolist()
        pairs = list(zip(pair_i.tolist(), pair_j.tolist(), pair_w.tolist()))
        records: List[ChildRecord] = []
        for c, child in enumerate(present.tolist()):
            at = order[border_local[border_start[c] : border_start[c] + num_borders[c]]]
            borders = stack.vertex_ids[at].tolist()
            records.append(ChildRecord(
                borders,
                levels.block[np.ix_(levels.hub_rows[child // 2], at)],
                [
                    Shortcut(borders[i], borders[j], weight)
                    for i, j, weight in pairs[pair_starts[c] : pair_starts[c + 1]]
                ],
            ))

    with timer.measure("snapshot"):
        indptr, indices, weights = _overlay_stacked(
            induced_indptr, arc_tail, arc_head, arc_weight,
            border_local[border_start[pair_c] + pair_i],
            border_local[border_start[pair_c] + pair_j],
            pair_w,
        )
        vertex_ids = stack.vertex_ids[order]
        children: List[List[Tuple[FlatWorkingGraph, str, int, ChildRecord]]] = [
            [] for _ in range(m)
        ]
        for c, child in enumerate(present.tolist()):
            lo, hi = int(child_offsets[c]), int(child_offsets[c + 1])
            first, last = int(indptr[lo]), int(indptr[hi])
            snapshot = FlatWorkingGraph(
                vertex_ids[lo:hi].tolist(),
                indptr[lo : hi + 1] - first,
                indices[first:last] - lo,
                weights[first:last],
            )
            block, bit = divmod(child, 2)
            children[block].append((snapshot, ("left", "right")[bit], bit, records[c]))
    return children, SnapshotStack(child_offsets, vertex_ids, indptr, indices, weights)


def _stacked_pairs(
    levels: StackedLevels,
    child_block: np.ndarray,
    order: np.ndarray,
    in_child: np.ndarray,
    border_local: np.ndarray,
    border_start: np.ndarray,
    num_borders: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The via-cut and Lemma 4.11 tests of every child, one pass per border count.

    Child ``c`` (of block ``child_block[c]``) has ``num_borders[c]``
    borders, the induced-stack ids ``border_local[border_start[c]:]``;
    ``in_child[r]`` holds every child's distances from its ``r``-th
    border.  Children with the same border count ``k`` go through
    :func:`~repro.partition.shortcuts.nonredundant_pairs_batch` together,
    their cut distances padded to the largest cut with ``inf`` rows.
    Returns ``(child, i, j, weight)`` arrays sorted by child, each child's
    stretch equal to :func:`~repro.partition.shortcuts.nonredundant_pairs`
    over that child alone.
    """
    hub_counts = np.array([len(rows) for rows in levels.hub_rows], dtype=np.int64)
    has_hub = np.arange(max(1, int(hub_counts.max()))) < hub_counts[:, None]
    hub_rows = np.zeros(has_hub.shape, dtype=np.int64)
    hub_rows[has_hub] = np.concatenate(levels.hub_rows)
    found: List[Tuple[np.ndarray, ...]] = []
    for k in np.unique(num_borders[num_borders >= 2]).tolist():
        group = np.flatnonzero(num_borders == k)
        # bound each pass's (children x k x k) scratch
        for chunk in np.array_split(group, -(-len(group) * k * k // _STACKED_PAIR_CELLS)):
            columns = border_local[border_start[chunk][:, None] + np.arange(k)]
            inside = in_child[np.arange(k)[None, :, None], columns[:, None, :]]
            blocks = child_block[chunk]
            at_borders = levels.block[hub_rows[blocks][:, :, None], order[columns][:, None, :]]
            at_borders[~has_hub[blocks]] = np.inf
            part, pair_i, pair_j, weights = nonredundant_pairs_batch(inside, at_borders)
            found.append((chunk[part], pair_i, pair_j, weights))
    if not found:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0)
    child, pair_i, pair_j, weights = (np.concatenate(parts) for parts in zip(*found))
    by_child = np.argsort(child, kind="stable")
    return child[by_child], pair_i[by_child], pair_j[by_child], weights[by_child]


def _overlay_stacked(
    indptr: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts` over a stack.

    ``(u, v, w)`` lists every child's shortcuts as stacked endpoints and
    weights, child by child in emission order.  A shortcut over an
    existing arc lowers its weight in place, both directions; any other is
    appended after its endpoints' arcs, in shortcut order.
    """
    if not len(u):
        return indptr, heads, weights
    size = len(indptr) - 1
    keys = tails * size + heads
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]

    def arc(tail: np.ndarray, head: np.ndarray) -> np.ndarray:
        if not len(sorted_keys):
            return np.full(len(tail), -1, dtype=np.int64)
        wanted = tail * size + head
        at = np.minimum(np.searchsorted(sorted_keys, wanted), len(sorted_keys) - 1)
        return np.where(sorted_keys[at] == wanted, by_key[at], -1)

    forward, backward = arc(u, v), arc(v, u)
    existing = forward >= 0
    weights = weights.copy()
    lower = existing.copy()
    lower[existing] = w[existing] < weights[forward[existing]]
    weights[forward[lower]] = w[lower]
    weights[backward[lower & (backward >= 0)]] = w[lower & (backward >= 0)]
    added = np.flatnonzero(~existing)
    if not len(added):
        return indptr, heads, weights
    all_tails = np.concatenate([tails, u[added], v[added]])
    sequence = np.concatenate([np.arange(len(tails), dtype=np.int64), added, added])
    appended = np.concatenate(
        [np.zeros(len(tails), dtype=np.int8), np.ones(2 * len(added), dtype=np.int8)]
    )
    order = np.lexsort((sequence, appended, all_tails))
    new_indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_tails, minlength=size), out=new_indptr[1:])
    new_heads = np.concatenate([heads, v[added], u[added]])[order]
    new_weights = np.concatenate([weights, w[added], w[added]])[order]
    return new_indptr, new_heads, new_weights


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


@dataclass(slots=True)
class _Node:
    """One node of a subtree under construction (see :func:`build_subtree`)."""

    depth: int
    bits: int
    #: creation index of the parent node, -1 for the subtree root
    parent: int
    side: Optional[str]
    record: Optional[ChildRecord]
    size: int
    is_leaf: bool = False
    cut: List[int] = field(default_factory=list)
    level: Optional[LevelPiece] = None
    #: ``(seconds, seconds_cut)`` of the node's own work
    timing: Tuple[float, float] = (0.0, 0.0)
    children: List[int] = field(default_factory=list)


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

    Snapshots of at least ``_STACKED_MAX_VERTICES`` vertices run
    :func:`node_step` depth first.  Under a ``csr`` backend every smaller
    one (bar zero-weight snapshots, whose flags depend on the heap's
    settle order) joins a frontier that is built in rounds: each round
    cuts its snapshots in one :func:`stacked_cuts` pass (the snapshots it
    leaves alone are cut by :func:`_cut_node` in the same round), labels
    them all in one :func:`stacked_labels` pass and derives all their
    children in one :func:`stacked_children` pass; the children form the
    next round.  Either way each node's records, :class:`ChildRecord` and
    level come out bit-identical, and they are put back in preorder.

    Accumulates node records and the nodes' level pieces locally; the
    caller (the serial builder, a worker process or the parallel
    builder's inline path) grafts the returned :class:`SubtreeResult`
    into the global hierarchy.
    """
    search = resolve_backend(backend)
    stacks = isinstance(search, CSRBackend)
    timer = Timer()
    nodes: List[_Node] = []
    frontier: List[Tuple[FlatWorkingGraph, int]] = []

    def _add(
        flat: FlatWorkingGraph, depth: int, bits: int, parent: int, side: Optional[str],
        record: Optional[ChildRecord],
    ) -> int:
        index = len(nodes)
        nodes.append(_Node(depth, bits, parent, side, record, len(flat.vertices)))
        if parent >= 0:
            nodes[parent].children.append(index)
        return index

    def _build(flat: FlatWorkingGraph, index: int) -> None:
        node = nodes[index]
        if stacks and node.size < _STACKED_MAX_VERTICES and not has_zero_weight(flat):
            frontier.append((flat, index))
            return
        node_started = time.perf_counter()
        step = node_step(
            flat,
            node.depth,
            beta=beta,
            leaf_size=leaf_size,
            tail_pruning=tail_pruning,
            max_depth=max_depth,
            backend=search,
            timer=timer,
        )
        node.is_leaf, node.cut, node.level = step.is_leaf, step.ranking.ordered, step.level
        node.timing = (time.perf_counter() - node_started, step.seconds_cut)
        for child_flat, child_side, child_bit, child_record in step.children:
            _build(
                child_flat,
                _add(
                    child_flat, node.depth + 1, (node.bits << 1) | child_bit, index,
                    child_side, child_record,
                ),
            )

    if len(flat.vertices):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            _build(flat, _add(flat, depth, bits, -1, None, None))
        finally:
            sys.setrecursionlimit(limit)
    stack: Optional[SnapshotStack] = None
    while frontier:
        members = frontier
        frontier = []
        if stack is None:
            with timer.measure("snapshot"):
                stack = SnapshotStack.of([member for member, _ in members])
        cuts: List[Sequence[int]] = []
        parts: List[Optional[Tuple[List[int], List[int]]]] = []
        cut_started = time.perf_counter()
        with timer.measure("hierarchy"):
            stacked = stacked_cuts(
                stack,
                np.array([
                    len(member.vertices) > leaf_size and nodes[index].depth < max_depth
                    for member, index in members
                ], dtype=bool),
                beta,
            )
        # each stacked cut takes a share of the pass by size
        per_vertex = (time.perf_counter() - cut_started) / max(1, sum(
            nodes[index].size for (_, index), result in zip(members, stacked)
            if result is not None
        ))
        for (member, index), result in zip(members, stacked):
            node = nodes[index]
            cut_result, seconds_cut = _cut_node(
                member, node.depth, beta=beta, leaf_size=leaf_size, max_depth=max_depth,
                backend=search, timer=timer,
                stacked=None if result is None else (result, per_vertex * node.size),
            )
            node.is_leaf = cut_result is None
            node.timing = (seconds_cut, seconds_cut)
            cuts.append(member.vertices if cut_result is None else cut_result.cut)
            parts.append(None if cut_result is None else (cut_result.part_a, cut_result.part_b))
        passes_started = time.perf_counter()
        with timer.measure("labelling"):
            levels = stacked_labels(
                stack, cuts, [nodes[index].depth for _, index in members], tail_pruning
            )
        children, stack = stacked_children(stack, levels, parts, timer)
        # each node's timing takes a share of the stacked passes by size
        per_vertex = (time.perf_counter() - passes_started) / max(
            1, sum(nodes[index].size for _, index in members)
        )
        for (member, index), ordered, piece, kids in zip(
            members, levels.ordered, levels.pieces, children
        ):
            node = nodes[index]
            node.cut, node.level = ordered, piece
            node.timing = (node.timing[0] + per_vertex * node.size, node.timing[1])
            for child_flat, child_side, child_bit, child_record in kids:
                frontier.append((
                    child_flat,
                    _add(
                        child_flat, node.depth + 1, (node.bits << 1) | child_bit, index,
                        child_side, child_record,
                    ),
                ))

    preorder: List[int] = []
    pending = [0] if nodes else []
    while pending:
        index = pending.pop()
        preorder.append(index)
        pending.extend(reversed(nodes[index].children))
    position = {index: i for i, index in enumerate(preorder)}
    ordered_nodes = [nodes[index] for index in preorder]

    covered = sum(len(node.cut) for node in ordered_nodes)
    if covered != len(flat.vertices):
        raise AssertionError(
            f"subtree cuts cover {covered} of {len(flat.vertices)} vertices"
        )
    fragment = pack_levels(
        [node.level for node in ordered_nodes], len(flat.vertices), flat.vertex_array
    )
    return SubtreeResult(
        depths=[node.depth for node in ordered_nodes],
        bits=[node.bits for node in ordered_nodes],
        parents=[position[node.parent] if node.parent >= 0 else -1 for node in ordered_nodes],
        sides=[node.side for node in ordered_nodes],
        leaf_flags=[node.is_leaf for node in ordered_nodes],
        sizes=[node.size for node in ordered_nodes],
        cuts=[node.cut for node in ordered_nodes],
        labels=fragment,
        records=[node.record for node in ordered_nodes],
        num_leaves=sum(node.is_leaf for node in ordered_nodes),
        num_empty_cuts=sum(not node.is_leaf and not node.cut for node in ordered_nodes),
        num_shortcuts=sum(
            len(node.record.shortcuts) for node in ordered_nodes if node.record is not None
        ),
        max_depth=max([depth] + [node.depth for node in ordered_nodes]),
        durations=dict(timer.durations),
        node_timings=[(node.depth, node.size, *node.timing) for node in ordered_nodes],
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

"""Dynamic edge-weight updates (Section 5.4 of the paper).

The paper's closing remarks observe that the balanced tree hierarchy does
not depend on edge weights - only the shortcut weights and the distance
values do - so when travel times change (road closures, congestion) the
hierarchy can be preserved and only the labels need refreshing.  This
module implements exactly that: :func:`relabel` walks the *existing*
hierarchy over CSR snapshots of the reweighted core graph, skipping the
expensive balanced-cut computations entirely.

Each recomputed node runs the construction's own per-node sequence
(:func:`repro.core.flat_build.label_node` and
:func:`repro.core.flat_build.shortcut_child`) on the inherited cut and
partitions, and the labels are packed straight into a
:class:`~repro.core.flat.FlatLabelling`.

A scoped relabel splices the old levels of every subtree whose snapshot
did not change.  It reads the old side from the index's
:attr:`~repro.core.index.HC2LIndex.relabel_record`: for every hierarchy
node, the :class:`~repro.core.flat_build.ChildRecord` its parent's step
wrote - the node's border vertices, the parent's ranked-cut distances at
them, and the shortcuts overlaid on its region.  The old snapshots are
rebuilt from it exactly (``induce`` plus ``overlay_shortcuts``, starting
at the old core's root snapshot), so no search ever runs on the old
weights.  On the 10k-vertex perfbench ``query-float`` graph (1,861
hierarchy nodes) the record holds 65,540 distances and 3,792 shortcuts
(0.6 MB of values, about 2.8 MB as Python objects).  It lives in memory
only - it is not label storage, is not counted in ``index_size_bytes``
and is never archived - so an index loaded from disk has none, and its
first relabel runs the full pass, which writes one.

Topology changes (adding or removing edges/vertices) are out of scope, as
in the paper; :class:`DynamicHC2LIndex` raises for them and a full rebuild
is required.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.backends import ShortestPathBackend, resolve_backend
from repro.core.construction import ConstructionStats, root_snapshot
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.flat_build import (
    ChildRecord,
    RelabelRecord,
    fragment_from_levels,
    label_node,
    shortcut_child,
)
from repro.core.index import HC2LIndex, HC2LParameters, _identity_contraction
from repro.graph.contraction import ContractedGraph
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy, TreeNode
from repro.partition.shortcuts import border_vertices

INF = float("inf")


#: edge keys accepted by :func:`relabel`'s ``changed_edges``: a mapping or
#: iterable of ``(u, v)`` pairs in original vertex ids, any orientation
ChangedEdges = Union[Mapping[Tuple[int, int], float], Iterable[Tuple[int, int]]]


def relabel(
    index: HC2LIndex,
    new_graph: Graph,
    changed_edges: Optional[ChangedEdges] = None,
) -> HC2LIndex:
    """Rebuild the labels of ``index`` for ``new_graph`` reusing its hierarchy.

    ``new_graph`` must have exactly the same vertices and edges as the
    graph the index was built from - only edge weights may differ (the
    edges may have been inserted in another order).  The balanced tree
    hierarchy (which cuts exist and which subtree every vertex belongs
    to) is preserved; cut-vertex ranks, shortcuts and all distance arrays
    are recomputed under the new weights, over snapshots that keep the
    old core graph's edge order.

    ``changed_edges`` optionally declares which edges changed (a mapping
    or iterable of ``(u, v)`` pairs, any orientation).  When given, the
    relabelling is *scoped*: only hierarchy subtrees whose working
    subgraph actually changed under the new weights are recomputed, and
    the label levels of untouched subtrees are spliced over from the old
    index bit-for-bit.  The old side comes from the index's
    :attr:`~repro.core.index.HC2LIndex.relabel_record` (see the module
    docstring), never from a search on the old weights.  The declaration
    is validated against the real weight diff between the two graphs - an
    undeclared change raises rather than silently serving stale
    distances.  When the touched region is large enough that scoping
    would not pay, or the index has no record (it was loaded from disk),
    the full pass runs instead (same result either way).  Every relabel
    returns an index with a fresh record, so the next one can be scoped.
    """
    start = time.perf_counter()

    diff = _topology_checked_diff(index.graph, new_graph)
    if changed_edges is not None:
        _check_declared_changes(diff, changed_edges)

    old = index.contraction
    original_to_core = np.asarray(old.original_to_core, dtype=np.int64)
    core_u, core_v = original_to_core[diff.us], original_to_core[diff.vs]
    in_core = (core_u >= 0) & (core_v >= 0)
    core_changes = list(
        zip(core_u[in_core].tolist(), core_v[in_core].tolist(), diff.weights[in_core].tolist())
    )
    if index.parameters.contract:
        contraction = _reweighted_contraction(
            old,
            core_changes,
            zip(diff.us[~in_core].tolist(), diff.vs[~in_core].tolist(), diff.weights[~in_core].tolist()),
        )
    else:
        # the identity contraction's core is the graph itself, unless the
        # new graph's edges come in another order than the core's, which
        # the labels were computed in: the core then keeps its own order
        same_order = old.core is index.graph and diff.same_order
        core = new_graph if same_order else _reweighted_core(old.core, core_changes)
        contraction = _identity_contraction(core)

    hierarchy = index.hierarchy
    scoped = (
        changed_edges is not None
        and index.relabel_record is not None
        and _scoping_pays(hierarchy, core_changes)
    )
    walk = _RelabelWalk(index, resolve_backend(getattr(index.parameters, "backend", "auto")), scoped)
    with walk.stats.timer.measure("snapshot"):
        old_root = root_snapshot(old.core)
        new_root = _patched_snapshot(old_root, core_changes)
    for root in hierarchy.nodes:
        if root.parent is None:
            walk.visit(root, new_root, old_root if scoped else None)

    extra: Dict[str, float] = {}
    if scoped:
        extra = {
            "relabel_scoped": 1.0,
            "relabel_nodes_recomputed": float(walk.recomputed),
            "relabel_nodes_spliced": float(walk.spliced),
        }
    return HC2LIndex(
        graph=new_graph,
        parameters=index.parameters,
        contraction=contraction,
        hierarchy=walk.hierarchy,
        flat=walk.labels(),
        stats=walk.stats,
        construction_seconds=time.perf_counter() - start,
        extra=extra,
        relabel_record=walk.record,
    )


class _WeightDiff(NamedTuple):
    """The edges whose weight changed, as ``u < v`` original-id arrays."""

    us: np.ndarray
    vs: np.ndarray
    #: the new weights
    weights: np.ndarray
    #: whether the two graphs list every vertex's edges in the same order
    same_order: bool


def _topology_checked_diff(old: Graph, new: Graph) -> _WeightDiff:
    """The weight diff of two graphs, enforcing identical topology.

    Compares the graphs' CSR arrays in numpy.  Graphs whose adjacency
    lists follow the same order (any graph derived by
    :meth:`~repro.graph.graph.Graph.reweighted`) compare arc by arc; the
    arcs of graphs built in different insertion orders are sorted by
    ``(tail, head)`` first.
    """
    if old.num_vertices != new.num_vertices:
        raise ValueError(
            f"relabel requires identical topology; vertex counts differ "
            f"({old.num_vertices} vs {new.num_vertices})"
        )
    if old.num_edges != new.num_edges:
        raise ValueError(
            f"relabel requires identical topology; edge counts differ "
            f"({old.num_edges} vs {new.num_edges})"
        )
    a, b = old.csr(cache=False), new.csr(cache=False)
    tails = np.repeat(np.arange(old.num_vertices, dtype=np.int64), np.diff(a.indptr))
    heads, old_weights, new_weights = a.indices, a.weights, b.weights
    same_order = np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    if not same_order:
        new_tails = np.repeat(np.arange(new.num_vertices, dtype=np.int64), np.diff(b.indptr))
        old_order = np.lexsort((heads, tails))
        new_order = np.lexsort((b.indices, new_tails))
        tails, heads, old_weights = tails[old_order], heads[old_order], old_weights[old_order]
        new_tails, new_heads = new_tails[new_order], b.indices[new_order]
        new_weights = new_weights[new_order]
        moved = (tails != new_tails) | (heads != new_heads)
        if moved.any():
            # sorted arc lists agree up to here: the smaller arc of the
            # first mismatch is in one graph only
            p = int(np.argmax(moved))
            old_arc, new_arc = (int(tails[p]), int(heads[p])), (int(new_tails[p]), int(new_heads[p]))
            arc, which = (old_arc, "is missing") if old_arc < new_arc else (new_arc, "is new")
            raise ValueError(
                f"relabel requires identical topology; edge ({min(arc)}, {max(arc)}) {which}"
            )
    changed = (old_weights != new_weights) & (tails < heads)
    return _WeightDiff(tails[changed], heads[changed], new_weights[changed], same_order)


def _check_declared_changes(diff: _WeightDiff, changed_edges: ChangedEdges) -> None:
    """Every actually-changed edge must be declared; anything else is a lie."""
    declared = {(min(u, v), max(u, v)) for u, v in changed_edges}
    undeclared = [
        edge for edge in zip(diff.us.tolist(), diff.vs.tolist()) if edge not in declared
    ]
    if undeclared:
        raise ValueError(
            f"changed_edges omits {len(undeclared)} edge(s) whose weight actually "
            f"changed (scoped relabel would serve stale distances): {undeclared[:5]}"
        )


def _reweighted_core(core: Graph, changes: Sequence[Tuple[int, int, float]]) -> Graph:
    """``core`` with the changed core edges' new weights, in its edge order."""
    return core.reweighted({(min(u, v), max(u, v)): w for u, v, w in changes})


def _reweighted_contraction(
    contraction: ContractedGraph,
    core_changes: Sequence[Tuple[int, int, float]],
    pendant_changes: Iterable[Tuple[int, int, float]],
) -> ContractedGraph:
    """The contraction of the reweighted graph, without re-running it.

    The degree-one contraction is purely topological and ``relabel``
    requires identical topology, so the structure (which vertices
    contract, attachment trees, depths) always carries over: the core
    graph takes its changed edges' new weights, and a changed edge with a
    contracted endpoint - always the edge from a vertex to its attachment
    parent - refreshes the distance arrays of its attachment tree only.
    Those are recomputed as :func:`~repro.graph.contraction.contract_degree_one`
    computes them, ``dist_to_root[parent] + dist_to_parent[vertex]`` in
    depth order, so they come out bit-identical.
    """
    parent = contraction.parent
    dist_to_parent = contraction.dist_to_parent
    dist_to_root = contraction.dist_to_root
    pendant = list(pendant_changes)
    if pendant:
        dist_to_parent, dist_to_root = list(dist_to_parent), list(dist_to_root)
        roots: Set[int] = set()
        for u, v, weight in pendant:
            child = u if parent[u] == v else v
            dist_to_parent[child] = weight
            roots.add(contraction.root[child])
        depth = np.asarray(contraction.depth, dtype=np.int64)
        tree = np.isin(np.asarray(contraction.root, dtype=np.int64), list(roots)) & (depth > 0)
        members = np.flatnonzero(tree)
        for vertex in members[np.argsort(depth[members], kind="stable")].tolist():
            dist_to_root[vertex] = dist_to_root[parent[vertex]] + dist_to_parent[vertex]
    return ContractedGraph(
        core=_reweighted_core(contraction.core, core_changes),
        core_to_original=contraction.core_to_original,
        original_to_core=contraction.original_to_core,
        root=contraction.root,
        parent=parent,
        dist_to_parent=dist_to_parent,
        dist_to_root=dist_to_root,
        depth=contraction.depth,
        num_original=contraction.num_original,
    )


def _patched_snapshot(
    root: FlatWorkingGraph, changes: Sequence[Tuple[int, int, float]]
) -> FlatWorkingGraph:
    """``root`` with both arcs of every changed core edge reweighted.

    The reweighted core graph keeps the old one's edge order, so this is
    exactly its root snapshot, made without a second CSR build.
    """
    if not changes:
        return root
    indptr, indices, weights = root.csr_arrays()
    weights = weights.copy()
    for u, v, weight in changes:
        for tail, head in ((u, v), (v, u)):
            lo = int(indptr[tail])
            weights[lo + int(np.flatnonzero(indices[lo : indptr[tail + 1]] == head)[0])] = weight
    return FlatWorkingGraph(root.vertices, indptr, indices, weights)


def _scoping_pays(
    hierarchy: BalancedTreeHierarchy, core_changes: Sequence[Tuple[int, int, float]]
) -> bool:
    """Estimate whether the scoped walk beats the full pass.

    A changed core edge ``(a, b)`` dirties exactly the nodes on the
    root-to-LCA(a, b) chain (the nodes whose working subgraph contains
    both endpoints); descendants are only touched if their inherited
    shortcuts shift, which the walk detects by snapshot equality.
    Scoping pays when twice the dirty cost is below the whole-tree cost.
    The factor dates from when a dirty node also searched the old
    weights; it is kept so the choice between the two passes (which
    ``tests/test_golden_labels.py`` pins) does not move.
    """
    if not hierarchy.nodes:
        return True
    dirty: Set[int] = set()
    for a, b, _ in core_changes:
        node: Optional[TreeNode] = hierarchy.lca_node(a, b)
        while node is not None:
            if node.index in dirty:
                break
            dirty.add(node.index)
            node = hierarchy.nodes[node.parent] if node.parent is not None else None

    def cost(node: TreeNode) -> int:
        return max(1, node.subtree_size) * max(1, len(node.cut))

    dirty_cost = sum(cost(hierarchy.nodes[i]) for i in dirty)
    total_cost = sum(cost(node) for node in hierarchy.nodes)
    return 2 * dirty_cost < total_cost


class _RelabelWalk:
    """One relabelling pass over an existing hierarchy.

    :meth:`visit` walks a node with its snapshot under the new weights
    and, in a scoped pass, the snapshot the old index was built from,
    rebuilt from the old :class:`~repro.core.flat_build.ChildRecord`
    entries.  Labels are a deterministic function of a node's snapshot
    *content* (edges and weights, including inherited shortcuts) and its
    cut vertex set - ranking and tail pruning derive from the same
    searches - so when the two snapshots hold the same edges the old
    levels of the whole subtree are exactly what recomputing would
    produce, and they are spliced over instead.  Without an old-side
    snapshot (the full pass, or below a crossing shortcut) every node is
    recomputed.

    Recomputed levels collect in per-vertex lists; a vertex of a spliced
    subtree keeps its old levels below them.  :attr:`record` starts as
    the old record (a spliced subtree keeps its entries) and every
    recomputed node writes its children's entries.
    """

    def __init__(self, index: HC2LIndex, backend: ShortestPathBackend, scoped: bool) -> None:
        self.old_hierarchy = index.hierarchy
        self.old_labels = index.flat_labelling()
        self.old_record: Optional[RelabelRecord] = index.relabel_record if scoped else None
        self.record: RelabelRecord = (
            list(self.old_record) if self.old_record is not None
            else [None] * len(index.hierarchy.nodes)
        )
        self.hierarchy = _copy_hierarchy_structure(index.hierarchy)
        self.tail_pruning = index.parameters.tail_pruning
        self.backend = backend
        self.stats = ConstructionStats()
        #: recomputed levels per core vertex, from depth 0 down; a vertex
        #: keeps its old levels below the recomputed ones
        self.levels: List[List[List[float]]] = [
            [] for _ in range(self.old_labels.num_vertices)
        ]
        self.recomputed = 0
        self.spliced = 0

    def labels(self) -> FlatLabelling:
        """The relabelled flat labels: recomputed levels, then spliced ones."""
        labels = fragment_from_levels(self.levels)
        if self.spliced:
            labels = self.old_labels.replace_leading_levels(labels)
        return labels

    def visit(
        self, node: TreeNode, new: FlatWorkingGraph, old: Optional[FlatWorkingGraph]
    ) -> None:
        """Relabel the subtree rooted at ``node``."""
        if old is not None:
            if _same_edges(old, new):
                self._splice(node)
                return
            self.recomputed += 1
        for child_node, child, old_child in self._recompute(node, new, old):
            self.visit(child_node, child, old_child)

    def _recompute(
        self, node: TreeNode, new: FlatWorkingGraph, old: Optional[FlatWorkingGraph]
    ) -> List[Tuple[TreeNode, FlatWorkingGraph, Optional[FlatWorkingGraph]]]:
        """Recompute ``node``'s level and derive its children's snapshots.

        Returns ``(child, new snapshot, old snapshot or None)`` for every
        child still to walk; children found unchanged are spliced here.
        The node's distance block dies on return, before the walk descends.
        """
        stats, backend = self.stats, self.backend
        children = [
            (self.old_hierarchy.nodes[i], self.old_hierarchy.subtree_vertices(i))
            for i in (node.left, node.right)
            if i is not None
        ]
        extension = _crossing_extension(new, children)
        # Cut-crossing shortcuts void the premise of the splice test - the
        # child snapshots then also depend on the extension hubs'
        # distances - so the whole subtree is recomputed.  The old side is
        # checked too: an earlier relabel may have left crossing edges, and
        # its record rows then include extension hubs the test would not
        # compare.
        if old is not None and (extension or _crossing_extension(old, children)):
            old = None
        # Tail truncation would give the extension entries (appended below)
        # different positions in different vertices' arrays, breaking the
        # min-plus prefix alignment, so it is disabled on affected nodes.
        ranking, arrays, hub_distances = label_node(
            new,
            node.cut,
            tail_pruning=self.tail_pruning and not extension,
            backend=backend,
            timer=stats.timer,
        )
        if extension:
            with stats.timer.measure("labelling"):
                rows = np.asarray(
                    backend.sssp_many(new, new.dense_ids(extension)), dtype=np.float64
                )
                for j, vertex in enumerate(new.vertices):
                    arrays[vertex].extend(rows[:, j].tolist())
                hub_distances = np.vstack([hub_distances, rows])
        self.hierarchy.nodes[node.index].cut = list(ranking.ordered)
        for vertex in new.vertices:
            self.levels[vertex].append(arrays[vertex])
        stats.num_nodes += 1
        if node.is_leaf:
            stats.num_leaves += 1
            return []

        hubs = ranking.ordered + extension
        if old is not None:
            # the old record's rows follow the old ranking (node.cut)
            rank = {v: i for i, v in enumerate(ranking.ordered)}
            old_rows = [rank[v] for v in node.cut]
        walk = []
        for child_node, part in children:
            within = new.induce(part)
            borders = border_vertices(new, part, hubs)
            old_child = None
            if old is not None:
                entry = self.old_record[child_node.index]
                at_borders = hub_distances[:, new.dense_ids(borders)]
                old_within = old.induce(part)
                # The child snapshot is a pure function of the restricted
                # region, the border set and the cut distances *at the
                # borders* (Algorithm 3 consults nothing else): when all
                # three are unchanged, splice without a single shortcut
                # search.  The kept entry takes the new row order.
                if (
                    entry.borders == borders
                    and np.array_equal(entry.distances, at_borders[old_rows])
                    and _same_edges(old_within, within)
                ):
                    self.record[child_node.index] = ChildRecord(
                        borders, at_borders, entry.shortcuts
                    )
                    self._splice(child_node)
                    continue
                old_child = old_within.overlay_shortcuts(entry.shortcuts)
            child, record = shortcut_child(
                new,
                hubs,
                part,
                hub_distances,
                backend=backend,
                timer=stats.timer,
                within=within,
                borders=borders,
            )
            self.record[child_node.index] = record
            stats.num_shortcuts += len(record.shortcuts)
            walk.append((child_node, child, old_child))
        return walk

    def _splice(self, node: TreeNode) -> None:
        """Keep the old levels of the subtree rooted at ``node`` verbatim.

        Every vertex of the region owns one level per ancestor depth from
        ``node.depth`` down to its own node; the ancestors above ``node``
        were recomputed, so the vertex holds ``node.depth`` recomputed
        levels and :meth:`labels` keeps its old levels from there on.
        Only the statistics are updated here; the subtree's record
        entries carry over from the old record.
        """
        stack = [node.index]
        while stack:
            current = self.old_hierarchy.nodes[stack.pop()]
            self.spliced += 1
            self.stats.num_nodes += 1
            if current.is_leaf:
                self.stats.num_leaves += 1
            for child_index in (current.left, current.right):
                if child_index is not None:
                    stack.append(child_index)


def _same_edges(a: FlatWorkingGraph, b: FlatWorkingGraph) -> bool:
    """Whether two snapshots over the same vertices have identical CSR arrays.

    Exact float equality in the same edge order.  Snapshots holding the
    same edges in another order count as different, and the subtree is
    then recomputed as the full pass would.
    """
    return all(np.array_equal(x, y) for x, y in zip(a.csr_arrays(), b.csr_arrays()))


def _crossing_extension(
    flat: FlatWorkingGraph, children: Sequence[Tuple[TreeNode, List[int]]]
) -> List[int]:
    """Endpoints of snapshot edges that cross between a node's two children.

    The construction can never produce such edges: the balanced cut is
    computed *on* the node's snapshot, so no edge - original or shortcut -
    connects the two partitions.  A relabel inherits the cut but
    recomputes the shortcuts under new weights, and a new shortcut may
    connect the two (inherited) child regions directly.  The cut is then
    no longer a separator of the snapshot, and both the single-depth query
    (Equation 7) and the via-cut shortcut formula (Algorithm 3) would miss
    paths running over the crossing edge.  Every such path passes through
    the edge's endpoints, so promoting the endpoints to additional hubs of
    the node restores coverage.  ``children`` pairs each child node with
    its subtree's vertices; the scan is one vectorised edge mask.
    """
    if len(children) < 2:
        return []
    side = np.zeros(len(flat.vertices), dtype=np.int8)
    side[flat.dense_ids(children[0][1])] = 1
    side[flat.dense_ids(children[1][1])] = 2
    tails, heads = flat.tails(), flat.csr_arrays()[1]
    crossing = (side[tails] == 1) & (side[heads] == 2)
    if not crossing.any():
        return []
    ends = np.union1d(tails[crossing], heads[crossing])
    return [flat.vertices[i] for i in ends.tolist()]


def _copy_hierarchy_structure(hierarchy: BalancedTreeHierarchy) -> BalancedTreeHierarchy:
    """Clone the tree skeleton (nodes, bits, parent/child links) without labels."""
    clone = BalancedTreeHierarchy(hierarchy.num_vertices)
    clone.vertex_node = list(hierarchy.vertex_node)
    clone.vertex_depth = list(hierarchy.vertex_depth)
    clone.vertex_bits = list(hierarchy.vertex_bits)
    for node in hierarchy.nodes:
        clone.nodes.append(
            TreeNode(
                index=node.index,
                depth=node.depth,
                bits=node.bits,
                cut=list(node.cut),
                parent=node.parent,
                left=node.left,
                right=node.right,
                subtree_size=node.subtree_size,
                is_leaf=node.is_leaf,
            )
        )
    return clone


class DynamicHC2LIndex:
    """An HC2L index that supports edge-weight updates without full rebuilds.

    Weight updates are buffered and applied lazily: queries trigger a
    relabelling pass (hierarchy preserved) when pending updates exist.
    This mirrors the strategy sketched in Section 5.4: construction of the
    hierarchy is weight-independent, so only distance values are refreshed.

    The flush path never mutates label storage in place: the relabelling
    pass builds fresh flat buffers and swaps the whole index, so the
    buffers and the query engine over them change together instead of
    silently desyncing.

    Implements the batch-first :class:`repro.core.oracle.DistanceOracle`
    protocol by flushing and delegating to the underlying index.
    """

    def __init__(self, graph: Graph, parameters: Optional[HC2LParameters] = None, **overrides: object) -> None:
        self._graph = graph.copy()
        self._index = HC2LIndex.build(self._graph, parameters, **overrides)
        self._pending: Dict[Tuple[int, int], float] = {}
        self.relabel_count = 0
        #: guards ``_pending`` (updates may land while a flush is running)
        self._pending_lock = threading.Lock()
        #: serialises relabelling passes; two racing queries flush once
        self._flush_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def index(self) -> HC2LIndex:
        """The current (possibly stale) underlying index."""
        return self._index

    def update_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Schedule a weight change for the existing edge ``(u, v)``."""
        if not self._graph.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) does not exist; topology changes require a rebuild")
        weight = float(weight)
        if not math.isfinite(weight) or weight <= 0:
            raise ValueError(f"edge weights must be finite and positive, got {weight}")
        with self._pending_lock:
            self._pending[(min(u, v), max(u, v))] = weight

    def pending_updates(self) -> int:
        """Number of buffered weight changes not yet applied."""
        with self._pending_lock:
            return len(self._pending)

    def flush(self) -> None:
        """Apply all pending weight changes by relabelling over the old hierarchy.

        Concurrent callers serialise on the flush lock, so racing queries
        trigger one relabel, not two.  Updates that land *while* the
        relabel runs are not lost: only the snapshot actually applied is
        cleared from the pending map (and an entry rescheduled with a
        different weight mid-flush survives to the next flush).
        """
        with self._flush_lock:
            with self._pending_lock:
                if not self._pending:
                    return
                applied = dict(self._pending)
            new_graph = self._graph.reweighted(applied)
            new_index = relabel(self._index, new_graph, changed_edges=applied)
            self._graph = new_graph
            self._index = new_index
            self.relabel_count += 1
            with self._pending_lock:
                for key, value in applied.items():
                    if self._pending.get(key) == value:
                        del self._pending[key]

    def distance(self, s: int, t: int) -> float:
        """Exact distance under the most recent weights (flushes lazily)."""
        self.flush()
        return self._index.distance(s, t)

    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Batched exact distances under the most recent weights."""
        self.flush()
        return self._index.distances(pairs)

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every target under the most recent weights."""
        self.flush()
        return self._index.one_to_many(s, targets)

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Distance matrix under the most recent weights."""
        self.flush()
        return self._index.many_to_many(sources, targets)

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus hubs scanned under the most recent weights."""
        self.flush()
        return self._index.distance_with_hub_count(s, t)

    @property
    def construction_seconds(self) -> float:
        """Build time of the most recent (re)labelling pass."""
        return self._index.construction_seconds

    @property
    def supports_batch(self) -> bool:
        """Batch queries are vectorised by the underlying engine."""
        return True

    @property
    def index_size_bytes(self) -> int:
        """Size of the current labelling (protocol metadata)."""
        return self.label_size_bytes()

    def label_size_bytes(self) -> int:
        """Size of the current labelling."""
        return self._index.label_size_bytes()


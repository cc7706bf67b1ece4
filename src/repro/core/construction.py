"""HC2L construction.

:class:`HC2LBuilder` interleaves the construction of the balanced tree
hierarchy (Section 4.1) with the tail-pruned labelling (Section 4.2): for
each tree node it

1. computes a balanced cut of the current working subgraph (Algorithms 1
   and 2),
2. ranks the cut vertices (Equation 6) and runs the pruneability-tracking
   Dijkstra searches that yield both the distance arrays of the labelling
   and the cut-to-border distances,
3. derives the distance-preserving shortcuts for each side (Algorithm 3),
   and
4. recurses on the two shortcut-enhanced child subgraphs.

Interleaving avoids re-running the per-cut-vertex searches, which is also
how the reference implementation described in the paper organises the work
(the labelling searches "account for the majority" of construction time).

The recursion itself is :func:`repro.core.flat_build.build_subtree`, which
runs over CSR snapshots only.  A serial build is one call of it on a root
snapshot taken straight from the graph's CSR arrays; the parallel builder
(:class:`repro.core.parallel.ParallelHC2LBuilder`) fans the same recursion
out over worker processes.  Both graft the returned subtree records into
the hierarchy with :func:`graft_subtree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.flat_build import (
    ChildRecord,
    KeptRows,
    RelabelRecord,
    SubtreeResult,
    build_subtree,
)
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.utils.timer import Timer
from repro.utils.validation import check_balance_parameter


@dataclass
class ConstructionStats:
    """Counters and timings collected while building an HC2L index."""

    timer: Timer = field(default_factory=Timer)
    num_nodes: int = 0
    num_leaves: int = 0
    num_shortcuts: int = 0
    num_empty_cuts: int = 0
    max_depth: int = 0
    #: work units handed to a worker pool (0 for serial builds and for
    #: parallel builds that fell back to the serial path)
    num_tasks: int = 0
    #: per-node ``(depth, num_vertices, seconds, seconds_cut)`` records,
    #: where seconds covers the node's own cut + ranking + labelling +
    #: child-derivation work (recursion excluded) and seconds_cut is the
    #: balanced-cut share of it (0.0 for leaves, which compute no cut);
    #: a node built in a stacked round (see
    #: :func:`~repro.core.flat_build.build_subtree`) has as seconds_cut its
    #: vertex-count share of the round's stacked cut pass (or its own cut
    #: time, when the pass left it to the per-node cut), and adds its
    #: vertex-count share of the round's stacked label and shortcut
    #: passes to seconds; feeds the bench's construction-skew view and
    #: its cut-vs-label split
    node_timings: List[Tuple[int, int, float, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a plain dict for reporting."""
        result: Dict[str, float] = {
            "num_nodes": float(self.num_nodes),
            "num_leaves": float(self.num_leaves),
            "num_shortcuts": float(self.num_shortcuts),
            "num_empty_cuts": float(self.num_empty_cuts),
            "max_depth": float(self.max_depth),
            "num_tasks": float(self.num_tasks),
            "total_seconds": self.timer.total(),
        }
        for name, seconds in self.timer.durations.items():
            result[f"seconds_{name}"] = seconds
        return result


def root_snapshot(graph: Graph) -> FlatWorkingGraph:
    """The root snapshot of ``graph``, built from the graph's CSR arrays.

    Vertex ``v`` keeps dense id ``v`` and its edges keep the graph's
    adjacency order.  Construction and relabelling start every walk here;
    every other snapshot is derived from a root with
    :meth:`~repro.core.flat.FlatWorkingGraph.induce` and
    :meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`.
    """
    csr = graph.csr(cache=False)
    return FlatWorkingGraph(range(graph.num_vertices), csr.indptr, csr.indices, csr.weights)


def graft_subtree(
    hierarchy: BalancedTreeHierarchy,
    stats: ConstructionStats,
    result: SubtreeResult,
    parent: Optional[int],
    side: Optional[str],
    record: Optional[RelabelRecord] = None,
    entry: Optional[ChildRecord] = None,
    rows: Optional[KeptRows] = None,
) -> None:
    """Append a built subtree's nodes to ``hierarchy`` and fold in its stats.

    The records are in preorder, so appending them in order gives every
    node the index the recursion would have assigned had it written into
    ``hierarchy`` directly.  ``parent`` / ``side`` place the subtree root
    (``None`` for the hierarchy root).  When ``record`` is given (one
    entry per node already in ``hierarchy``) it is extended the same way,
    with ``entry`` as the subtree root's :class:`ChildRecord`.  ``rows``,
    when given, takes the subtree's kept rows under the global indices.
    """
    local_to_global: List[int] = []
    for i in range(len(result.depths)):
        parent_local = result.parents[i]
        if parent_local < 0:
            parent_idx, side_i = parent, side
        else:
            parent_idx, side_i = local_to_global[parent_local], result.sides[i]
        node = hierarchy.add_node(
            result.depths[i],
            result.bits[i],
            result.cuts[i],
            parent_idx,
            side_i,
            is_leaf=result.leaf_flags[i],
        )
        hierarchy.set_subtree_size(node.index, result.sizes[i])
        local_to_global.append(node.index)
    if record is not None:
        record.append(entry)
        record.extend(result.records[1:])
    if rows is not None:
        for kept, found in ((rows.labels, result.rows.labels), (rows.borders, result.rows.borders)):
            kept.update((local_to_global[i], block) for i, block in found.items())
    stats.num_nodes += len(result.depths)
    stats.num_leaves += result.num_leaves
    stats.num_empty_cuts += result.num_empty_cuts
    stats.num_shortcuts += result.num_shortcuts
    stats.max_depth = max(stats.max_depth, result.max_depth)
    stats.node_timings.extend(result.node_timings)
    for name, seconds in result.durations.items():
        stats.timer.durations[name] = stats.timer.get(name) + seconds


class HC2LBuilder:
    """Builds the balanced tree hierarchy and HC2L labelling of a graph.

    Parameters
    ----------
    beta:
        Balance parameter of Definition 4.1 (the paper uses 0.2).
    leaf_size:
        Subgraphs with at most this many vertices become leaf nodes whose
        "cut" is the whole subgraph.
    tail_pruning:
        Disable to build the naive (upper-bound) labelling of
        Section 4.2.1; used by the ablation benchmark.
    max_depth:
        Hard recursion limit; deeper subgraphs become leaves.  Mostly a
        safety net for adversarial inputs.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        construction searches (``"auto"``, ``"heap"``, ``"csr"``,
        ``"dial"``, or an instance); ``"auto"`` picks the CSR backend,
        and ``"dial"`` runs only when named.  Labels are bit-identical
        across backends.  The balanced cuts' max-flow route does not
        depend on the backend: it is chosen per region by
        :func:`repro.flow.vertex_cut.minimum_vertex_cut_region`.
    """

    def __init__(
        self,
        beta: float = 0.2,
        leaf_size: int = 12,
        tail_pruning: bool = True,
        max_depth: int = 60,
        backend: BackendSpec = "auto",
    ) -> None:
        self.beta = check_balance_parameter(beta)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be at least 1, got {leaf_size}")
        self.leaf_size = leaf_size
        self.tail_pruning = tail_pruning
        self.max_depth = max_depth
        self.backend: ShortestPathBackend = resolve_backend(backend)

    # ------------------------------------------------------------------ #
    def build(
        self,
        graph: Graph,
        record: Optional[RelabelRecord] = None,
        rows: Optional[KeptRows] = None,
    ) -> Tuple[BalancedTreeHierarchy, FlatLabelling, ConstructionStats]:
        """Build hierarchy + labelling for ``graph`` (over all its vertices).

        The labels come back as a :class:`~repro.core.flat.FlatLabelling`
        in vertex-id order.  An empty ``record`` list, when given, receives
        every hierarchy node's :class:`~repro.core.flat_build.ChildRecord`
        (what :func:`repro.core.dynamic.relabel` reads its old side from),
        and an empty ``rows`` the top nodes' distance rows a ``csr``
        build kept (untrimmed; see :meth:`~repro.core.flat_build.KeptRows.trim`).
        """
        stats = ConstructionStats()
        hierarchy = BalancedTreeHierarchy(graph.num_vertices)
        if graph.num_vertices == 0:
            return hierarchy, FlatLabelling.concat([]), stats
        with stats.timer.measure("snapshot"):
            root = root_snapshot(graph)
        result = self._build_subtree(root, 0, 0, keep_rows=rows is not None)
        graft_subtree(hierarchy, stats, result, None, None, record, rows=rows)
        return hierarchy, result.labels, stats

    def _build_subtree(
        self, flat: FlatWorkingGraph, depth: int, bits: int, keep_rows: bool = False
    ) -> SubtreeResult:
        """Run the construction recursion below ``flat`` in this process."""
        return build_subtree(
            flat,
            depth,
            bits,
            beta=self.beta,
            leaf_size=self.leaf_size,
            tail_pruning=self.tail_pruning,
            max_depth=self.max_depth,
            backend=self.backend,
            keep_rows=keep_rows,
        )

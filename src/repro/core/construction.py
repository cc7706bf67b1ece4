"""Sequential HC2L construction.

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
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.flow.vertex_cut import check_flow_method
from repro.core.flat import FlatWorkingGraph
from repro.core.labelling import HC2LLabelling, node_distance_arrays
from repro.core.ranking import CutRanking, rank_cut_vertices
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.partition.cut import BalancedCutResult, balanced_cut
from repro.partition.shortcuts import child_adjacency, compute_shortcuts
from repro.partition.working_graph import WorkingAdjacency, working_graph_from
from repro.utils.timer import Timer
from repro.utils.validation import check_balance_parameter


#: execution modes of the parallel builder: ``thread`` fans the recursion
#: out over a thread pool (the reference parallel path), ``process`` ships
#: self-contained subtree work units to a process pool.
PARALLEL_MODES = ("thread", "process")


def check_parallel_mode(name: str) -> str:
    """Validate a parallel-mode name, loudly."""
    if name not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel_mode {name!r}; expected one of {list(PARALLEL_MODES)}"
        )
    return name


@dataclass
class ConstructionStats:
    """Counters and timings collected while building an HC2L index."""

    timer: Timer = field(default_factory=Timer)
    num_nodes: int = 0
    num_leaves: int = 0
    num_shortcuts: int = 0
    num_empty_cuts: int = 0
    max_depth: int = 0
    #: work units handed to a worker pool (0 for sequential builds and for
    #: process-mode builds that fell back to the serial path)
    num_tasks: int = 0
    #: per-node ``(depth, num_vertices, seconds, seconds_cut)`` records,
    #: where seconds covers the node's own cut + ranking + labelling +
    #: child-derivation work (recursion excluded) and seconds_cut is the
    #: balanced-cut share of it (0.0 for leaves, which compute no cut);
    #: feeds the bench's construction-skew view and its cut-vs-label split
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
        ``"dial"``, or an instance); ``"auto"`` picks the CSR backend
        when scipy is available and the heap backend otherwise, and
        ``"dial"`` runs only when named.  Labels are bit-identical
        across backends.
    flow_method:
        Max-flow solver for the balanced cuts - a name from
        :data:`repro.flow.vertex_cut.FLOW_METHODS`, or ``"auto"`` to use
        the backend's default.  Cuts (and therefore labels) are
        bit-identical across methods.
    """

    def __init__(
        self,
        beta: float = 0.2,
        leaf_size: int = 12,
        tail_pruning: bool = True,
        max_depth: int = 60,
        backend: BackendSpec = "auto",
        flow_method: str = "auto",
    ) -> None:
        self.beta = check_balance_parameter(beta)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be at least 1, got {leaf_size}")
        self.leaf_size = leaf_size
        self.tail_pruning = tail_pruning
        self.max_depth = max_depth
        self.backend: ShortestPathBackend = resolve_backend(backend)
        self.flow_method = check_flow_method(flow_method)

    # ------------------------------------------------------------------ #
    def build(self, graph: Graph) -> Tuple[BalancedTreeHierarchy, HC2LLabelling, ConstructionStats]:
        """Build hierarchy + labelling for ``graph`` (over all its vertices)."""
        stats = ConstructionStats()
        hierarchy = BalancedTreeHierarchy(graph.num_vertices)
        labelling = HC2LLabelling(graph.num_vertices)
        if graph.num_vertices == 0:
            return hierarchy, labelling, stats
        adjacency = working_graph_from(graph)
        # the recursion is bounded by max_depth but pathological partition
        # recursions inside Algorithm 1 can still nest; raise the limit for
        # the duration of the build and restore it afterwards
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            self._build_node(
                adjacency,
                depth=0,
                bits=0,
                parent=None,
                side=None,
                hierarchy=hierarchy,
                labelling=labelling,
                stats=stats,
            )
        finally:
            sys.setrecursionlimit(limit)
        return hierarchy, labelling, stats

    # ------------------------------------------------------------------ #
    def _build_node(
        self,
        adjacency: WorkingAdjacency,
        depth: int,
        bits: int,
        parent: Optional[int],
        side: Optional[str],
        hierarchy: BalancedTreeHierarchy,
        labelling: HC2LLabelling,
        stats: ConstructionStats,
    ) -> Optional[int]:
        vertices = sorted(adjacency)
        n = len(vertices)
        if n == 0:
            return None
        node_started = time.perf_counter()
        stats.max_depth = max(stats.max_depth, depth)

        cut_result: Optional[BalancedCutResult] = None
        force_leaf = n <= self.leaf_size or depth >= self.max_depth
        flat: Optional[FlatWorkingGraph] = None
        if not force_leaf:
            # one CSR snapshot per node, shared by the hierarchy phase
            # (seed searches, component scans) and the labelling passes
            # (which also share the csr backend's distance-row cache)
            with stats.timer.measure("snapshot"):
                flat = FlatWorkingGraph(adjacency)
            cut_started = time.perf_counter()
            with stats.timer.measure("hierarchy"):
                cut_result = balanced_cut(
                    beta=self.beta,
                    flat=flat,
                    backend=self.backend,
                    flow_method=self.flow_method,
                )
            seconds_cut = time.perf_counter() - cut_started
            if not cut_result.part_a or not cut_result.part_b:
                force_leaf = True

        if force_leaf:
            return self._build_leaf(
                adjacency, vertices, depth, bits, parent, side, hierarchy, labelling, stats
            )

        assert cut_result is not None and flat is not None
        with stats.timer.measure("labelling"):
            ranking = rank_cut_vertices(
                adjacency, cut_result.cut, flat=flat, backend=self.backend
            )
            arrays, cut_distances = node_distance_arrays(
                adjacency, ranking, self.tail_pruning, flat=flat, backend=self.backend
            )
        node = hierarchy.add_node(depth, bits, ranking.ordered, parent, side, is_leaf=False)
        hierarchy.set_subtree_size(node.index, n)
        stats.num_nodes += 1
        if not ranking.ordered:
            stats.num_empty_cuts += 1
        for v in vertices:
            labelling.append_level(v, arrays[v])

        children = (
            (cut_result.part_a, "left", 0),
            (cut_result.part_b, "right", 1),
        )
        # derive both child graphs before recursing so the per-node timing
        # below covers exactly this node's own work (no recursion inside)
        pending = []
        for child_vertices, child_side, child_bit in children:
            if not child_vertices:
                continue
            with stats.timer.measure("shortcuts"):
                shortcuts = compute_shortcuts(
                    adjacency,
                    ranking.ordered,
                    child_vertices,
                    cut_distances,
                    backend=self.backend,
                )
                child = child_adjacency(adjacency, child_vertices, shortcuts)
            stats.num_shortcuts += len(shortcuts)
            pending.append((child, child_side, child_bit))
        stats.node_timings.append((depth, n, time.perf_counter() - node_started, seconds_cut))
        for child, child_side, child_bit in pending:
            self._build_node(
                child,
                depth + 1,
                (bits << 1) | child_bit,
                node.index,
                child_side,
                hierarchy,
                labelling,
                stats,
            )
        return node.index

    # ------------------------------------------------------------------ #
    def _build_leaf(
        self,
        adjacency: WorkingAdjacency,
        vertices: list,
        depth: int,
        bits: int,
        parent: Optional[int],
        side: Optional[str],
        hierarchy: BalancedTreeHierarchy,
        labelling: HC2LLabelling,
        stats: ConstructionStats,
    ) -> int:
        """Terminate the recursion: every remaining vertex joins the node's cut."""
        node_started = time.perf_counter()
        with stats.timer.measure("labelling"):
            flat = FlatWorkingGraph(adjacency)
            ranking: CutRanking = rank_cut_vertices(
                adjacency, vertices, flat=flat, backend=self.backend
            )
            arrays, _ = node_distance_arrays(
                adjacency, ranking, self.tail_pruning, flat=flat, backend=self.backend
            )
        node = hierarchy.add_node(depth, bits, ranking.ordered, parent, side, is_leaf=True)
        hierarchy.set_subtree_size(node.index, len(vertices))
        stats.num_nodes += 1
        stats.num_leaves += 1
        for v in vertices:
            labelling.append_level(v, arrays[v])
        stats.node_timings.append((depth, len(vertices), time.perf_counter() - node_started, 0.0))
        return node.index

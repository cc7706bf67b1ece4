"""Reference oracles over plain dict adjacencies (test-only).

Production code searches CSR snapshots only
(:class:`~repro.core.flat.FlatWorkingGraph`, made by
:func:`repro.core.construction.root_snapshot` and derived with
``induce`` / ``overlay_shortcuts``).  The checkers here are deliberately
independent of that machinery: they rebuild a ``dict[vertex, dict[neighbour,
weight]]`` adjacency from a snapshot (:func:`adjacency_of`) and run
textbook searches over it, so a test can hold the snapshot paths against
code that shares none of their arrays.

The same goes for the minimum vertex cuts: :func:`minimum_st_vertex_cut`
solves the split-vertex reduction with a textbook Dinitz max-flow
(:class:`DinitzMaxFlow`) over a dict adjacency, and
:func:`ek_vertex_cut_region` with a compact Edmonds-Karp over paired edge
lists; the production scipy solve
(:func:`repro.flow.vertex_cut.minimum_vertex_cut_regions` and its
one-region call) is held against both.

For queries, :func:`min_plus_prefix` is Equation 7's per-pair scan over
two plain level lists, the reference the engine's scalar and batch scans
(and their hub counts) are held against; :func:`hub_vertices_for_query`
names the cut vertices such a scan ranges over.

For label storage, :func:`fragment_from_levels` packs per-vertex level
lists one value at a time, the reference the production level packer
(:func:`repro.core.labelling.pack_levels`) is held against.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.flow.vertex_cut import MinVertexCutResult
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.partition.cut import BalancedCutResult

INF = float("inf")

#: dict-of-dicts adjacency keyed by original vertex ids
Adjacency = Dict[int, Dict[int, float]]


def adjacency_of(snapshot: FlatWorkingGraph) -> Adjacency:
    """The dict adjacency of a snapshot, neighbours in CSR edge order."""
    vertices = snapshot.vertices
    indptr, indices, weights = snapshot.indptr, snapshot.indices, snapshot.weights
    adjacency: Adjacency = {v: {} for v in vertices}
    for dense, v in enumerate(vertices):
        neighbours = adjacency[v]
        for i in range(indptr[dense], indptr[dense + 1]):
            neighbours[vertices[indices[i]]] = weights[i]
    return adjacency


def adjacency_dict(graph: Graph, vertices: Optional[Iterable[int]] = None) -> Adjacency:
    """A dict adjacency of ``graph``, restricted to ``vertices`` when given.

    Neighbours keep the graph's adjacency order; the result is a copy.
    """
    members = None if vertices is None else set(vertices)
    source = graph.vertices() if members is None else members
    return {
        v: {w: weight for w, weight in graph.neighbors(v) if members is None or w in members}
        for v in source
    }


def components_of_adjacency(adjacency: Adjacency) -> List[List[int]]:
    """Connected components of a dict adjacency, each sorted, by smallest member."""
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    component.append(w)
                    stack.append(w)
        components.append(sorted(component))
    return components


def cut_distance_block(snapshot: FlatWorkingGraph, cut: Sequence[int]) -> np.ndarray:
    """The ``(cut x snapshot)`` distance block ``compute_shortcuts`` reads.

    Row ``i`` holds :func:`dijkstra_adjacency` from ``cut[i]`` over the
    snapshot's dict adjacency, in dense vertex order, ``inf`` where
    unreached.
    """
    adjacency = adjacency_of(snapshot)
    block = np.full((len(cut), len(snapshot.vertices)), INF)
    for row, c in zip(block, cut):
        reached = dijkstra_adjacency(adjacency, c)
        row[:] = [reached.get(v, INF) for v in snapshot.vertices]
    return block


def dijkstra_adjacency(
    adjacency: Adjacency,
    source: int,
    allowed: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """Dijkstra on a dict adjacency; returns a dict of reached distances.

    Vertices not present in the result are unreachable.  ``allowed``
    restricts the search to a vertex subset (the source must belong to it).
    """
    allowed_set = None if allowed is None else set(allowed)
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        for w, weight in adjacency[v].items():
            if allowed_set is not None and w not in allowed_set:
                continue
            nd = d + weight
            if nd < dist.get(w, INF):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


@dataclass
class PrunedDistances:
    """Result of one DistAndPrune search.

    ``distance`` maps every reached vertex to its shortest-path distance
    from the root; ``through_prune_set`` records, per reached vertex,
    whether a shortest path from the root passes through the prune set.
    Unreached vertices are simply absent (callers treat them as infinity
    and not pruneable).
    """

    root: int
    distance: Dict[int, float]
    through_prune_set: Dict[int, bool]

    def get(self, vertex: int) -> Tuple[float, bool]:
        """``(distance, pruneable)`` for ``vertex`` (``(inf, False)`` if unreached)."""
        return self.distance.get(vertex, INF), self.through_prune_set.get(vertex, False)


def dist_and_prune(
    adjacency: Adjacency,
    root: int,
    prune_set: Iterable[int],
) -> PrunedDistances:
    """Run Algorithm 4 from ``root`` over a dict adjacency.

    The dict counterpart of :func:`repro.core.pruned_dijkstra.dist_and_prune_dense`.

    Parameters
    ----------
    adjacency:
        Adjacency of the (distance-preserving) subgraph.
    root:
        The cut vertex the search starts from.
    prune_set:
        Vertices whose presence on a shortest path makes the target
        pruneable (the lower-ranked cut vertices in Algorithm 5).  The
        root itself is ignored if present.

    Returns
    -------
    PrunedDistances
        Distances and pruneability flags for every reachable vertex.
    """
    prune: Set[int] = set(prune_set)
    prune.discard(root)

    distance: Dict[int, float] = {}
    through: Dict[int, bool] = {}
    # Heap entries are (distance, not_pruneable, counter, vertex): among
    # equal distances the flagged (pruneable) entry pops first, so the flag
    # recorded at settle time is True as soon as any tied shortest path
    # passes through the prune set.
    heap: list[Tuple[float, int, int, int]] = [(0.0, 1, 0, root)]
    counter = 1
    while heap:
        dist, not_pruneable, _, vertex = heapq.heappop(heap)
        if vertex in distance:
            continue
        pruneable = not_pruneable == 0
        distance[vertex] = dist
        through[vertex] = pruneable
        for neighbour, weight in adjacency[vertex].items():
            if neighbour in distance:
                continue
            if vertex in prune:
                child_flag = True
            else:
                child_flag = pruneable
            heapq.heappush(
                heap,
                (dist + weight, 0 if child_flag else 1, counter, neighbour),
            )
            counter += 1
    return PrunedDistances(root=root, distance=distance, through_prune_set=through)


def is_distance_preserving(
    parent_snapshot: FlatWorkingGraph,
    child_snapshot: FlatWorkingGraph,
    sample_vertices: Sequence[int] | None = None,
    tolerance: float = 1e-6,
) -> bool:
    """Check Definition 4.5 on a child snapshot.

    For every (sampled) vertex, distances inside the child must match the
    distances in the parent working graph restricted to child vertices.
    """
    parent, child = adjacency_of(parent_snapshot), adjacency_of(child_snapshot)
    vertices = sorted(child)
    sources = vertices if sample_vertices is None else [v for v in sample_vertices if v in child]
    for source in sources:
        in_child = dijkstra_adjacency(child, source)
        in_parent = dijkstra_adjacency(parent, source)
        for v in vertices:
            dc = in_child.get(v, INF)
            dp = in_parent.get(v, INF)
            if dp == INF and dc == INF:
                continue
            if abs(dc - dp) > tolerance * max(1.0, abs(dp)):
                return False
    return True


def separates(snapshot: FlatWorkingGraph, result: BalancedCutResult) -> bool:
    """Whether ``result.cut`` disconnects ``part_a`` from ``part_b``."""
    adjacency = adjacency_of(snapshot)
    cut_set = set(result.cut)
    target = set(result.part_b)
    if not result.part_a or not target:
        return True
    seen = set(result.part_a)
    stack = list(result.part_a)
    while stack:
        v = stack.pop()
        if v in target:
            return False
        for w in adjacency[v]:
            if w in cut_set or w in seen:
                continue
            seen.add(w)
            stack.append(w)
    return True


def shortcuts_loop(
    snapshot: FlatWorkingGraph,
    cut: Sequence[int],
    partition: Sequence[int],
    cut_distances: np.ndarray,
) -> List[Tuple[int, int, float]]:
    """Algorithm 3 with Lemma 4.11's redundancy test, pair by pair.

    The per-pair loop the vectorised ``compute_shortcuts`` replaced, over
    dict distance maps: the dict adjacency's Dijkstra inside the partition,
    ``min`` over the cut of ``d(c, b1) + d(c, b2)`` through it, and a
    third border within ``1e-9`` relative tolerance making a pair
    redundant.  Returns ``(u, v, weight)`` triples in emission order.
    """
    adjacency = adjacency_of(snapshot)
    members = set(partition)
    cut_set = set(cut)
    borders = sorted(v for v in members if any(w in cut_set for w in adjacency[v]))
    maps = [
        {v: d for v, d in zip(snapshot.vertices, row.tolist()) if d != INF}
        for row in cut_distances
    ]
    inside = {b: dijkstra_adjacency(adjacency, b, allowed=members) for b in borders}
    true_distance: Dict[Tuple[int, int], float] = {}
    for i, b1 in enumerate(borders):
        for b2 in borders[i + 1 :]:
            via_cut = INF
            for dist_c in maps:
                via_cut = min(via_cut, dist_c.get(b1, INF) + dist_c.get(b2, INF))
            true_distance[(b1, b2)] = min(inside[b1].get(b2, INF), via_cut)

    def lookup(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return true_distance[(a, b)] if a < b else true_distance[(b, a)]

    shortcuts = []
    for (b1, b2), d_true in true_distance.items():
        if d_true == INF or d_true >= inside[b1].get(b2, INF):
            continue
        tolerance = 1e-9 * max(1.0, d_true)
        if not any(
            lookup(b1, b3) + lookup(b3, b2) <= d_true + tolerance
            for b3 in borders
            if b3 != b1 and b3 != b2
        ):
            shortcuts.append((b1, b2, d_true))
    return shortcuts


# --------------------------------------------------------------------- #
# minimum vertex cuts: Dinitz over the split-vertex network
# --------------------------------------------------------------------- #
class FlowNetwork:
    """A directed flow network stored as paired residual edges.

    Edges are appended in pairs: the forward edge at an even index and its
    residual (reverse) edge at the following odd index, so ``index ^ 1``
    addresses the partner edge.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.edge_to: List[int] = []
        self.edge_cap: List[float] = []
        self.adjacency: List[List[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge ``u -> v`` with ``capacity``; return its index."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        index = len(self.edge_to)
        self.edge_to.append(v)
        self.edge_cap.append(capacity)
        self.adjacency[u].append(index)
        self.edge_to.append(u)
        self.edge_cap.append(0.0)
        self.adjacency[v].append(index + 1)
        return index

    def residual_capacity(self, edge_index: int) -> float:
        """Remaining capacity on edge ``edge_index``."""
        return self.edge_cap[edge_index]


class DinitzMaxFlow:
    """Maximum s-t flow via Dinitz's algorithm (level graph + blocking flow)."""

    def __init__(self, network: FlowNetwork, source: int, sink: int) -> None:
        if source == sink:
            raise ValueError("source and sink must differ")
        self.network = network
        self.source = source
        self.sink = sink
        self.max_flow_value: Optional[float] = None

    # ------------------------------------------------------------------ #
    def solve(self, flow_limit: float = INF) -> float:
        """Compute and return the maximum flow value (capped at ``flow_limit``)."""
        total = 0.0
        while total < flow_limit:
            level = self._bfs_levels()
            if level[self.sink] < 0:
                break
            iter_ptr = [0] * self.network.num_nodes
            while total < flow_limit:
                pushed = self._dfs_blocking(self.source, flow_limit - total, level, iter_ptr)
                if pushed <= 0:
                    break
                total += pushed
        self.max_flow_value = total
        return total

    def _bfs_levels(self) -> List[int]:
        """Breadth-first levels in the residual graph (-1 = unreachable)."""
        net = self.network
        level = [-1] * net.num_nodes
        level[self.source] = 0
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            for edge_index in net.adjacency[v]:
                if net.edge_cap[edge_index] > 0:
                    w = net.edge_to[edge_index]
                    if level[w] < 0:
                        level[w] = level[v] + 1
                        queue.append(w)
        return level

    def _dfs_blocking(self, v: int, pushed: float, level: List[int], iter_ptr: List[int]) -> float:
        """Push flow along one augmenting path of the level graph."""
        if v == self.sink:
            return pushed
        net = self.network
        adjacency = net.adjacency[v]
        while iter_ptr[v] < len(adjacency):
            edge_index = adjacency[iter_ptr[v]]
            w = net.edge_to[edge_index]
            cap = net.edge_cap[edge_index]
            if cap > 0 and level[w] == level[v] + 1:
                flow = self._dfs_blocking(w, min(pushed, cap), level, iter_ptr)
                if flow > 0:
                    net.edge_cap[edge_index] -= flow
                    net.edge_cap[edge_index ^ 1] += flow
                    return flow
            iter_ptr[v] += 1
        return 0.0

    # ------------------------------------------------------------------ #
    def source_side(self) -> Set[int]:
        """Nodes reachable from the source in the residual graph (after solve)."""
        net = self.network
        seen = {self.source}
        stack = [self.source]
        while stack:
            v = stack.pop()
            for edge_index in net.adjacency[v]:
                if net.edge_cap[edge_index] > 0:
                    w = net.edge_to[edge_index]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen

    def sink_side(self) -> Set[int]:
        """Nodes that can reach the sink in the residual graph (after solve)."""
        net = self.network
        seen = {self.sink}
        stack = [self.sink]
        while stack:
            v = stack.pop()
            # traverse edges backwards: an edge u -> v is usable towards the
            # sink iff it still has residual capacity, so scan v's incident
            # residual (odd/even partner) edges.
            for edge_index in net.adjacency[v]:
                partner = edge_index ^ 1
                if net.edge_cap[partner] > 0:
                    w = net.edge_to[edge_index]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen


def flow_region(
    adjacency: Adjacency,
    source_attached: Iterable[int],
    sink_attached: Iterable[int],
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """A dict adjacency as the edge arrays ``minimum_vertex_cut_region`` takes.

    Returns ``(vertices, tails, heads, attach_s, attach_t)``: local ids are
    positions in the sorted vertex list, every undirected edge appears once
    per direction, and neighbours outside ``adjacency`` are dropped.
    """
    vertices = sorted(adjacency)
    index = {v: i for i, v in enumerate(vertices)}
    tails: List[int] = []
    heads: List[int] = []
    for v in vertices:
        for w in adjacency[v]:
            if w in index:
                tails.append(index[v])
                heads.append(index[w])
    attach_s = sorted(index[v] for v in set(source_attached) if v in index)
    attach_t = sorted(index[v] for v in set(sink_attached) if v in index)
    return vertices, tails, heads, attach_s, attach_t


def dinitz_vertex_cut_region(
    vertices: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> MinVertexCutResult:
    """Dinitz drop-in for :func:`repro.flow.vertex_cut.minimum_vertex_cut_region`.

    Same arguments and result.  Vertex ``i`` (local id) splits into nodes
    ``2i`` (in) and ``2i + 1`` (out) joined by a unit edge; a cut vertex's
    in-node is on one side of the residual-reachability boundary and its
    out-node on the other.
    """
    k = len(vertices)
    source_node, sink_node = 2 * k, 2 * k + 1
    network = FlowNetwork(2 * k + 2)
    for i in range(k):
        network.add_edge(2 * i, 2 * i + 1, 1.0)
    for vi, wi in zip(tails, heads):
        network.add_edge(2 * int(vi) + 1, 2 * int(wi), INF)
    for vi in attach_s:
        network.add_edge(source_node, 2 * int(vi), INF)
    for vi in attach_t:
        network.add_edge(2 * int(vi) + 1, sink_node, INF)
    solver = DinitzMaxFlow(network, source_node, sink_node)
    flow_value = solver.solve(flow_limit=float(k) + 1.0)
    reach_source = solver.source_side()
    reach_sink = solver.sink_side()
    return MinVertexCutResult(
        cut_size=int(round(flow_value)),
        cut_closest_to_source=sorted(
            vertices[i]
            for i in range(k)
            if 2 * i in reach_source and 2 * i + 1 not in reach_source
        ),
        cut_closest_to_sink=sorted(
            vertices[i]
            for i in range(k)
            if 2 * i + 1 in reach_sink and 2 * i not in reach_sink
        ),
    )


def minimum_st_vertex_cut(
    adjacency: Adjacency,
    source_attached: Iterable[int],
    sink_attached: Iterable[int],
) -> MinVertexCutResult:
    """Minimum vertex cut separating the virtual terminals S and T, via Dinitz.

    Every vertex of ``adjacency`` may become a cut vertex; S feeds the
    ``source_attached`` vertices and T drains the ``sink_attached`` ones.
    """
    return dinitz_vertex_cut_region(*flow_region(adjacency, source_attached, sink_attached))


def ek_vertex_cut_region(
    vertices: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> MinVertexCutResult:
    """Edmonds-Karp drop-in for :func:`repro.flow.vertex_cut.minimum_vertex_cut_region`.

    Same arguments, result and split network as
    :func:`dinitz_vertex_cut_region`, solved by one shortest augmenting
    path (a BFS) per unit of flow over flat ``edge_to`` / ``edge_cap``
    lists with ``index ^ 1`` partner addressing.  The final failing BFS
    labels the source side; a reverse scan over positive residuals labels
    the sink side.
    """
    k = len(vertices)
    num_nodes, source, sink = 2 * k + 2, 2 * k, 2 * k + 1
    edge_to: List[int] = []
    edge_cap: List[int] = []
    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]

    def add_edge(u: int, v: int, capacity: int) -> None:
        adjacency[u].append(len(edge_to))
        edge_to.append(v)
        edge_cap.append(capacity)
        adjacency[v].append(len(edge_to))
        edge_to.append(u)
        edge_cap.append(0)

    big = k + 1  # no edge carries more than k units, so this never saturates
    for i in range(k):
        add_edge(2 * i, 2 * i + 1, 1)
    for vi, wi in zip(tails, heads):
        add_edge(2 * int(vi) + 1, 2 * int(wi), big)
    for vi in attach_s:
        add_edge(source, 2 * int(vi), big)
    for vi in attach_t:
        add_edge(2 * int(vi) + 1, sink, big)

    total = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = -2
        queue = deque([source])
        while queue and parent[sink] == -1:
            v = queue.popleft()
            for edge in adjacency[v]:
                w = edge_to[edge]
                if edge_cap[edge] > 0 and parent[w] == -1:
                    parent[w] = edge
                    queue.append(w)
        if parent[sink] == -1:
            break
        path: List[int] = []
        node = sink
        while node != source:
            path.append(parent[node])
            node = edge_to[parent[node] ^ 1]
        bottleneck = min(edge_cap[edge] for edge in path)
        for edge in path:
            edge_cap[edge] -= bottleneck
            edge_cap[edge ^ 1] += bottleneck
        total += bottleneck

    source_side = {v for v in range(num_nodes) if parent[v] != -1}
    sink_side = {sink}
    stack = [sink]
    while stack:
        v = stack.pop()
        for edge in adjacency[v]:
            # edge v -> w is usable towards the sink iff its partner w -> v
            # has residual capacity
            w = edge_to[edge]
            if edge_cap[edge ^ 1] > 0 and w not in sink_side:
                sink_side.add(w)
                stack.append(w)
    near_source = [vertices[i] for i in range(k) if 2 * i in source_side and 2 * i + 1 not in source_side]
    near_sink = [vertices[i] for i in range(k) if 2 * i + 1 in sink_side and 2 * i not in sink_side]
    return MinVertexCutResult(total, sorted(near_source), sorted(near_sink))


def is_vertex_cut(
    adjacency: Adjacency,
    cut: Sequence[int],
    side_a: Iterable[int],
    side_b: Iterable[int],
) -> bool:
    """Whether removing ``cut`` disconnects every ``side_a`` vertex from ``side_b``."""
    cut_set = set(cut)
    targets = {v for v in side_b if v not in cut_set}
    if not targets:
        return True
    seen: Set[int] = set()
    stack = [v for v in side_a if v not in cut_set]
    seen.update(stack)
    while stack:
        v = stack.pop()
        if v in targets:
            return False
        for w in adjacency.get(v, ()):
            if w in cut_set or w in seen or w not in adjacency:
                continue
            seen.add(w)
            stack.append(w)
    return True


def min_plus_prefix(array_s: Sequence[float], array_t: Sequence[float]) -> Tuple[float, int]:
    """Minimum of ``array_s[i] + array_t[i]`` over the shared prefix.

    Returns ``(value, positions_scanned)``; the value is ``inf`` when the
    shared prefix is empty (the two vertices are separated by an empty cut,
    i.e. disconnected).
    """
    length = min(len(array_s), len(array_t))
    best = INF
    for i in range(length):
        candidate = array_s[i] + array_t[i]
        if candidate < best:
            best = candidate
    return best, length


def hub_vertices_for_query(hierarchy: BalancedTreeHierarchy, s: int, t: int) -> List[int]:
    """The cut vertices a query between core vertices ``s`` and ``t`` scans."""
    if s == t:
        return []
    depth = hierarchy.lca_depth(s, t)
    node = hierarchy.node_of(s)
    while node.depth > depth:
        assert node.parent is not None
        node = hierarchy.nodes[node.parent]
    return list(node.cut)


def fragment_from_levels(levels_per_vertex: Sequence[List[List[float]]]) -> FlatLabelling:
    """Pack per-vertex level lists into a :class:`FlatLabelling`.

    Position ``p`` holds the levels of ``levels_per_vertex[p]``; empty
    level arrays survive as zero-length levels (a vertex below an empty
    cut still records that depth).
    """
    n = len(levels_per_vertex)
    level_counts = np.fromiter(
        (len(levels) for levels in levels_per_vertex), dtype=np.int64, count=n
    )
    vertex_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(level_counts, out=vertex_indptr[1:])
    all_arrays = [array for levels in levels_per_vertex for array in levels]
    lengths = np.fromiter(map(len, all_arrays), dtype=np.int64, count=len(all_arrays))
    level_indptr = np.zeros(len(all_arrays) + 1, dtype=np.int64)
    np.cumsum(lengths, out=level_indptr[1:])
    total = int(level_indptr[-1])
    values = np.fromiter(chain.from_iterable(all_arrays), dtype=np.float64, count=total)
    return FlatLabelling(n, values, level_indptr, vertex_indptr)

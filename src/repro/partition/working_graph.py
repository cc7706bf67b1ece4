"""Working subgraphs used during hierarchy construction.

The recursive bisection repeatedly (a) restricts the graph to one side of a
cut and (b) adds shortcut edges to keep it distance preserving.  Two
representations cooperate:

* the *mutable* ``dict[vertex, dict[neighbour, weight]]`` adjacency maps
  keyed by original vertex ids (``WorkingAdjacency``) remain the format
  the dynamic relabelling pass (:func:`repro.core.dynamic.relabel`)
  assembles child subgraphs in - shortcut edges are added in place - and
  the reference the dict-based helpers here operate on;
* the *search* side runs on an immutable CSR snapshot
  (:class:`~repro.core.flat.FlatWorkingGraph`, re-exported here as
  :data:`CSRSnapshot`): construction works on snapshots only (see
  :mod:`repro.core.flat_build`), and the partition, ranking, labelling
  and shortcut passes all search the node's snapshot through the pluggable
  :class:`~repro.core.backends.ShortestPathBackend` seam.  Snapshots
  restrict with numpy array operations
  (:meth:`~repro.core.flat.FlatWorkingGraph.induce`) instead of dict
  comprehensions.

The dict-based searches below are kept as the bit-identical reference
(and for callers that hold plain adjacency maps); the snapshot paths
perform the same float64 relaxations, so distances agree exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.flat import FlatWorkingGraph
from repro.graph.graph import Graph

WorkingAdjacency = Dict[int, Dict[int, float]]

#: The CSR-snapshot representation of a working subgraph (see module docs).
CSRSnapshot = FlatWorkingGraph

INF = float("inf")


def working_graph_from(graph: Graph, vertices: Optional[Iterable[int]] = None) -> WorkingAdjacency:
    """Build a working adjacency map from a :class:`Graph` (optionally induced)."""
    return graph.adjacency_dict(vertices)


def adjacency_from_csr(snapshot: FlatWorkingGraph) -> WorkingAdjacency:
    """Rebuild a mutable working adjacency from a CSR snapshot.

    The inverse of flattening: per-vertex neighbour dicts are populated in
    CSR edge order, so re-flattening the result reproduces the snapshot
    exactly (dict insertion order is the edge order).  Lets dict-based
    helpers and tests consume subgraphs produced by the dict-free paths
    (:meth:`~repro.core.flat.FlatWorkingGraph.induce` /
    :meth:`~repro.core.flat.FlatWorkingGraph.induce_with_shortcuts`).
    """
    vertices = snapshot.vertices
    indptr, indices, weights = snapshot.indptr, snapshot.indices, snapshot.weights
    adjacency: WorkingAdjacency = {v: {} for v in vertices}
    for dense, v in enumerate(vertices):
        neighbours = adjacency[v]
        for i in range(indptr[dense], indptr[dense + 1]):
            neighbours[vertices[indices[i]]] = weights[i]
    return adjacency


def restrict_adjacency(adjacency: WorkingAdjacency, vertices: Iterable[int]) -> WorkingAdjacency:
    """Induce a working adjacency on ``vertices`` (new dicts, originals untouched)."""
    member = set(vertices)
    return {
        v: {w: weight for w, weight in adjacency[v].items() if w in member}
        for v in member
        if v in adjacency
    }


def add_edge(adjacency: WorkingAdjacency, u: int, v: int, weight: float) -> None:
    """Add an undirected edge to a working adjacency, keeping the minimum weight."""
    if u == v:
        return
    current = adjacency[u].get(v)
    if current is None or weight < current:
        adjacency[u][v] = weight
        adjacency[v][u] = weight


def num_edges(adjacency: WorkingAdjacency) -> int:
    """Number of undirected edges in a working adjacency."""
    return sum(len(nbrs) for nbrs in adjacency.values()) // 2


def dijkstra_adjacency(
    adjacency: WorkingAdjacency,
    source: int,
    allowed: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """Dijkstra on a working adjacency; returns a dict of reached distances.

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


def farthest_vertex_adjacency(
    adjacency: WorkingAdjacency, source: int
) -> Tuple[int, float, Dict[int, float]]:
    """Vertex farthest from ``source`` within the working adjacency.

    Ties break on the smaller vertex id for determinism.  Unreachable
    vertices are ignored.  Returns ``(vertex, distance, dist_map)``.
    """
    dist = dijkstra_adjacency(adjacency, source)
    best_v, best_d = source, 0.0
    for v, d in dist.items():
        if d > best_d or (d == best_d and d > 0 and v < best_v):
            best_v, best_d = v, d
    return best_v, best_d, dist

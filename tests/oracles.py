"""Reference oracles over plain dict adjacencies (test-only).

Production code searches CSR snapshots only
(:class:`~repro.core.flat.FlatWorkingGraph`, made by
:func:`repro.core.construction.root_snapshot` and derived with
``induce`` / ``overlay_shortcuts``).  The checkers here are deliberately
independent of that machinery: they rebuild a ``dict[vertex, dict[neighbour,
weight]]`` adjacency from a snapshot (:func:`adjacency_of`) and run
textbook searches over it, so a test can hold the snapshot paths against
code that shares none of their arrays.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.flat import FlatWorkingGraph
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

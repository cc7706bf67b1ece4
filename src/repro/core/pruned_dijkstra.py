"""Algorithm 4 - Dijkstra with pruneability tracking (DistAndPrune).

A standard Dijkstra from a cut vertex, augmented with a boolean flag per
settled vertex recording whether *some* shortest path from the root passes
through a member of a given prune set ``P`` (the lower-ranked cut
vertices).  The priority queue orders ties on distance so that flagged
entries win, which makes the flag mean "there exists a shortest path
through P" rather than "the particular tree path found goes through P" -
exactly the semantics required by the tail-pruning rule (Definition 4.18).

Two implementations of that semantics live here:

* :func:`dist_and_prune_dense` - the heap-based search computing
  distances and flags in one pass (the classic form), and
* :func:`prune_flags_from_distances` - the flag half alone, derived from an
  *already computed* distance array by one pass over the shortest-path DAG
  in ascending distance order.  This is what lets the CSR backend
  (:mod:`repro.core.backends`) obtain the distances from a heap-free
  vectorised search (one batched ``scipy.sparse.csgraph`` call for all of
  a node's cut vertices) and still produce flags - and therefore labels -
  bit-identical to the heap search.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.flat import FlatWorkingGraph

INF = float("inf")


def dist_and_prune_dense(
    flat: FlatWorkingGraph,
    root: int,
    prune_ids: Sequence[int],
) -> Tuple[List[float], List[bool]]:
    """Algorithm 4 over a :class:`FlatWorkingGraph` (dense local ids).

    Iterates the CSR arrays of the node's snapshot, so the ranking and
    labelling passes - which run one search per cut vertex over the *same*
    subgraph - never hash original vertex ids on a relaxation.

    Parameters are dense ids (``flat.dense_id`` order); returns full dense
    ``(distance, pruneable)`` arrays with ``inf`` / ``False`` for
    unreached vertices.
    """
    n = len(flat.vertices)
    indptr, indices, weights = flat.indptr, flat.indices, flat.weights
    in_prune = bytearray(n)
    for p in prune_ids:
        in_prune[p] = 1
    in_prune[root] = 0

    dist: List[float] = [INF] * n
    through: List[bool] = [False] * n
    settled = bytearray(n)
    # Heap entries are (distance, not_pruneable, counter, vertex): among
    # equal distances the flagged (pruneable) entry pops first, making the
    # settled flag mean "some shortest path passes through the prune set".
    heap: List[Tuple[float, int, int, int]] = [(0.0, 1, 0, root)]
    counter = 1
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, not_pruneable, _, v = pop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        pruneable = not_pruneable == 0
        dist[v] = d
        through[v] = pruneable
        child_not_pruneable = 0 if (in_prune[v] or pruneable) else 1
        for i in range(indptr[v], indptr[v + 1]):
            neighbour = indices[i]
            if settled[neighbour]:
                continue
            push(heap, (d + weights[i], child_not_pruneable, counter, neighbour))
            counter += 1
    return dist, through


def prune_flags_from_distances(
    flat: FlatWorkingGraph,
    root: int,
    prune_ids: Sequence[int],
    dist: Sequence[float],
) -> List[bool]:
    """Recover Algorithm 4's pruneability flags from a finished SSSP.

    ``dist`` must be the exact single-source distance array from ``root``
    over ``flat`` (``inf`` for unreached vertices).  A vertex ``v`` is
    flagged iff some shortest path from the root to ``v`` passes through
    the prune set, i.e. iff it has a shortest-path-DAG parent ``u``
    (``dist[u] + w(u, v) == dist[v]``) that is in the prune set or flagged
    itself.  Unrolling the recursion, ``v`` is flagged iff the DAG
    contains a path of one or more edges from a prune vertex to ``v`` -
    plain reachability, which a worklist propagation seeded at the prune
    set computes touching only the out-edges of prune/flagged vertices.
    With strictly positive edge weights the DAG is acyclic and the root
    can never be flagged, so the fixpoint is order-independent and
    bit-identical to the ``through`` half of
    :func:`dist_and_prune_dense`; unlike the full search it costs nothing
    when the prune set is small or upstream of few vertices (the labelling
    pass's first sources prune almost nothing).

    Zero-weight edges are **rejected**: they tie parent and child
    distances, where the heap search's flags depend on its settle order
    and no distance-derived pass can reproduce them.  Callers (the
    ``csr`` backend) route zero-weight snapshots to the heap search
    instead.
    """
    n = len(flat.vertices)
    indptr, indices, weights = flat.indptr, flat.indices, flat.weights
    # cached on the snapshot (same key the csr backend's delegation check
    # writes), so the O(E) scan runs once per node, not once per cut vertex
    has_zero_weight = flat.cache.get("has_zero_weight")
    if has_zero_weight is None:
        has_zero_weight = bool(weights) and min(weights) == 0.0
        flat.cache["has_zero_weight"] = has_zero_weight
    if has_zero_weight:
        raise ValueError(
            "prune_flags_from_distances requires strictly positive edge "
            "weights (zero-weight ties make the heap search's flags "
            "order-dependent); run dist_and_prune_dense instead"
        )
    dist_list: List[float] = (
        dist if isinstance(dist, list) else np.asarray(dist, dtype=np.float64).tolist()
    )
    through = [False] * n
    stack: List[int] = []
    # Seed: every DAG child of a prune vertex is flagged.  The snapshot
    # stores both directions of each undirected edge, so a vertex's CSR
    # row enumerates its DAG out-edges directly (dist[v] + w == dist[c]).
    for p in prune_ids:
        if p == root:
            continue
        d_p = dist_list[p]
        if d_p == INF:
            continue
        for i in range(indptr[p], indptr[p + 1]):
            c = indices[i]
            if not through[c] and d_p + weights[i] == dist_list[c]:
                through[c] = True
                stack.append(c)
    # Propagate: flagged vertices flag their own DAG children.  Each
    # vertex enters the stack at most once (marked before pushing), so
    # the whole pass is linear in the edges leaving flagged vertices.
    while stack:
        v = stack.pop()
        d_v = dist_list[v]
        for i in range(indptr[v], indptr[v + 1]):
            c = indices[i]
            if not through[c] and d_v + weights[i] == dist_list[c]:
                through[c] = True
                stack.append(c)
    return through

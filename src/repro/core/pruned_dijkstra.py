"""Algorithm 4 - Dijkstra with pruneability tracking (DistAndPrune).

A standard Dijkstra from a cut vertex, augmented with a boolean flag per
settled vertex recording whether *some* shortest path from the root passes
through a member of a given prune set ``P`` (the lower-ranked cut
vertices).  The priority queue orders ties on distance so that flagged
entries win, which makes the flag mean "there exists a shortest path
through P" rather than "the particular tree path found goes through P" -
exactly the semantics required by the tail-pruning rule (Definition 4.18).

Three implementations of that semantics live here:

* :func:`dist_and_prune_dense` - the heap-based search computing
  distances and flags in one pass (the classic form);
* :func:`prune_flags_from_distances` - the flag half alone for one root,
  derived from an *already computed* distance array by a worklist over
  the shortest-path DAG; and
* :func:`prune_flags_batch` - the same flags for *all* of a node's roots
  at once: the per-root DAGs are stacked into one scipy graph and a
  single breadth-first search from a super-source reaches exactly the
  flagged (root, vertex) pairs (:func:`dag_reach`, which the stacked
  label pass of :mod:`repro.core.flat_build` also runs over the rows of
  many snapshots at once).

The last two are what let the CSR backend (:mod:`repro.core.backends`)
obtain the distances from one batched ``scipy.sparse.csgraph`` call for
all of a node's cut vertices and still produce flags - and therefore
labels - bit-identical to the heap search.  The backend picks the
worklist on small snapshots and the batched pass on large ones.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.core.flat import FlatWorkingGraph

INF = float("inf")


def has_zero_weight(flat: FlatWorkingGraph) -> bool:
    """Whether the snapshot carries a zero-weight edge (cached on it).

    The csr backend's delegation check and both distance-derived flag
    passes read the same cache entry, so the O(E) scan runs once per
    node, not once per cut vertex.
    """
    found = flat.cache.get("has_zero_weight")
    if found is None:
        weights = flat.csr_arrays()[2]
        found = bool(weights.size) and float(weights.min()) == 0.0
        flat.cache["has_zero_weight"] = found
    return bool(found)


def _reject_zero_weight(flat: FlatWorkingGraph, name: str) -> None:
    if has_zero_weight(flat):
        raise ValueError(
            f"{name} requires strictly positive edge weights (zero-weight "
            f"ties make the heap search's flags order-dependent); run "
            f"dist_and_prune_dense instead"
        )


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
    _reject_zero_weight(flat, "prune_flags_from_distances")
    n = len(flat.vertices)
    indptr, indices, weights = flat.indptr, flat.indices, flat.weights
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


def prune_flags_batch(
    flat: FlatWorkingGraph,
    roots: Sequence[int],
    prune_sets: Sequence[Sequence[int]],
    block: np.ndarray,
) -> np.ndarray:
    """:func:`prune_flags_from_distances` for every root in one pass.

    ``block`` is the ``(k, n)`` float64 array of exact distance rows,
    row ``i`` from ``roots[i]``; ``prune_sets[i]`` is that root's prune
    set.  Returns the ``(k, n)`` bool flag block, row ``i`` equal to
    ``prune_flags_from_distances(flat, roots[i], prune_sets[i],
    block[i])``: one :func:`dag_reach` over the snapshot's arcs, seeded
    at every root's prune vertices (the root itself excepted).
    Zero-weight snapshots are rejected like the worklist rejects them.
    """
    _reject_zero_weight(flat, "prune_flags_batch")
    k, n = len(roots), len(flat.vertices)
    _, heads, weights = flat.csr_arrays()
    seeds = np.zeros((k, n), dtype=bool)
    for i, prune_ids in enumerate(prune_sets):
        seeds[i, np.asarray(prune_ids, dtype=np.int64)] = True
    seeds[np.arange(k), np.asarray(roots, dtype=np.int64)] = False
    return dag_reach(flat.tails(), heads, weights, block, seeds)


def dag_reach(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    block: np.ndarray,
    seeds: np.ndarray,
) -> np.ndarray:
    """Reachability in the shortest-path DAGs of a ``(k, n)`` distance block.

    ``tails``/``heads``/``weights`` list the arcs of a graph on ``n``
    vertices (strictly positive weights); row ``i`` of ``block`` holds
    exact distances over it, and row ``i`` of the bool ``seeds`` marks
    that row's seed vertices.  ``(i, v)`` comes back flagged iff row
    ``i``'s DAG (the tight arcs ``block[i, u] + w == block[i, v]``)
    holds a path of one or more arcs from a reached seed to ``v`` - the
    Algorithm 4 flag when the seeds are the prune set.  The rows may come
    from different roots, or from disconnected blocks of one stacked
    graph, as the stacked label pass of :mod:`repro.core.flat_build`
    uses it.  Unreached entries may be ``inf`` (``inf + w == inf`` makes
    their arcs tight, but no seed reaches them) or ``nan`` (no arc of
    theirs is tight, which keeps mostly-unreached rows small).

    The ``k`` DAGs become one directed graph on ``k * n + 1`` vertices:
    vertex ``i * n + v`` is ``v`` in row ``i``'s DAG, and the extra last
    vertex is a super-source with an arc to every tight child of every
    reached seed.  One scipy breadth-first search from the super-source
    then reaches exactly the flagged pairs, whatever the traversal order.
    """
    k, n = block.shape
    num_arcs = len(heads)
    # tight[i, e]: arc e lies in row i's shortest-path DAG.  Built one
    # row at a time into reused buffers; three (k, E) float gathers at
    # once would dominate the pass's peak memory on the largest nodes.
    tight = np.empty((k, num_arcs), dtype=bool)
    via = np.empty(num_arcs, dtype=np.float64)
    reached = np.empty(num_arcs, dtype=np.float64)
    for i in range(k):
        row = block[i]
        np.take(row, tails, out=via)
        np.add(via, weights, out=via)
        np.take(row, heads, out=reached)
        np.equal(via, reached, out=tight[i])
    # row-major order of the (k, E) mask is (row, tail) order, i.e. the
    # stacked graph's CSR order: no sort needed
    flat_arcs = np.flatnonzero(tight)
    arc_row = np.repeat(np.arange(k, dtype=np.int64), np.count_nonzero(tight, axis=1))
    del tight
    arc = flat_arcs - arc_row * num_arcs
    stacked_tail = arc_row * n + tails[arc]
    stacked_head = arc_row * n + heads[arc]
    source = k * n
    stacked_indptr = np.zeros(source + 2, dtype=np.int64)
    np.cumsum(np.bincount(stacked_tail, minlength=source), out=stacked_indptr[1:-1])
    # the super-source's row: the stacked rows of every reached seed
    seed_rows = np.flatnonzero(seeds & np.isfinite(block))
    starts = stacked_indptr[seed_rows]
    lengths = stacked_indptr[seed_rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
    stacked_indptr[-1] = stacked_indptr[-2] + len(positions)
    columns = np.concatenate([stacked_head, stacked_head[positions]])
    graph = csr_matrix(
        (np.ones(len(columns)), columns, stacked_indptr), shape=(source + 1, source + 1)
    )
    order = breadth_first_order(graph, source, directed=True, return_predecessors=False)
    flags = np.zeros(source + 1, dtype=bool)
    flags[order] = True
    return flags[:source].reshape(k, n)

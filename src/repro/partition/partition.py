"""Algorithm 1 - BalancedPartition.

Splits a (sub)graph into two initial partitions ``P'_A`` and ``P'_B`` and a
*cut region* ``C`` such that the initial partitions each hold roughly a
``beta`` fraction of the vertices and are as far apart as possible.  The
actual minimum vertex cut is found inside the cut region by Algorithm 2
(:mod:`repro.partition.cut`).

The implementation follows the paper's pseudo-code closely:

1. Disconnected inputs are handled first: if the largest component is small
   enough the split is already balanced with an empty cut; otherwise the
   partitioning happens inside the largest component and every other
   component joins the cut region.
2. Two seed vertices ``v_A`` (far from an arbitrary vertex) and ``v_B``
   (far from ``v_A``) are chosen; every vertex receives a partition weight
   ``pw(v) = d(v_A, v) - d(v_B, v)``.
3. The ``beta * |V|`` vertices with the smallest / largest partition
   weights seed ``P'_A`` / ``P'_B``.  When the two boundary weights
   coincide a *bottleneck* vertex funnels too many equivalence classes
   through itself; it is removed temporarily, the partition recomputed on
   the remainder and the bottleneck finally added to the cut region.
4. Otherwise each initial partition is closed under its boundary weight so
   whole equivalence classes stay together.

All searches run over a CSR snapshot
(:class:`~repro.core.flat.FlatWorkingGraph`) through the pluggable
:class:`~repro.core.backends.ShortestPathBackend` seam - the same seam the
labelling and shortcut passes use - so the seed selection is one batched
scipy call per source under the ``csr`` backend and the reference heap
Dijkstra under ``heap``, with bit-identical distances either way.  The
seed searches share a per-call memo of distance rows: the third search
(from ``v_B``) frequently lands back on the arbitrary start vertex, in
which case the first search's distance array is reused instead of being
recomputed.  Connected components never go through the backend: they
come from one scipy scan (:func:`component_labels`), which the per-node
and stacked cuts of Algorithm 2 share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatWorkingGraph
from repro.utils.validation import check_balance_parameter

INF = float("inf")


@dataclass
class BalancedPartitionResult:
    """Outcome of Algorithm 1.

    ``initial_a`` and ``initial_b`` are the two initial partitions
    (``P'_A`` / ``P'_B``); ``cut_region`` is the set of vertices between
    them inside which Algorithm 2 searches for a minimum vertex cut.
    The three lists partition the vertex set of the input subgraph.
    """

    initial_a: List[int]
    cut_region: List[int]
    initial_b: List[int]

    def sizes(self) -> Tuple[int, int, int]:
        """Sizes ``(|P'_A|, |C|, |P'_B|)``."""
        return len(self.initial_a), len(self.cut_region), len(self.initial_b)


def balanced_partition(
    flat: FlatWorkingGraph,
    beta: float = 0.2,
    _depth: int = 0,
    backend: BackendSpec = None,
) -> BalancedPartitionResult:
    """Compute a balanced partition of a snapshot (Algorithm 1).

    Parameters
    ----------
    flat:
        Snapshot of the subgraph to split (not modified); the hierarchy
        builder passes the per-node snapshot it shares with the labelling
        pass.
    beta:
        Balance parameter from Definition 4.1, ``0 < beta <= 0.5``.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        seed searches (name, instance, or ``None`` for the default).

    Returns
    -------
    BalancedPartitionResult
        The two initial partitions and the cut region.
    """
    check_balance_parameter(beta)
    search = resolve_backend(backend)

    vertices = flat.vertices  # sorted ascending, dense id == rank
    n = len(vertices)
    if n == 0:
        return BalancedPartitionResult([], [], [])
    if n == 1:
        return BalancedPartitionResult([], list(vertices), [])

    # Lines 11-12: pick seeds as far apart as possible.  Distance rows are
    # memoised by source so the third search can reuse the first one when
    # the farthest vertex from v_A turns out to be the arbitrary start.
    rows: Dict[int, np.ndarray] = {}

    def distance_row(source: int) -> np.ndarray:
        row = rows.get(source)
        if row is None:
            row = search.sssp_array(flat, source)
            rows[source] = row
        return row

    # connectivity falls out of the first seed search for free (every
    # vertex reached from the arbitrary start == one component), so the
    # common connected case never pays for a separate component scan
    if np.isinf(distance_row(0).max()):
        return _partition_disconnected(flat, beta, n, _depth, search)

    # --- connected case ----------------------------------------------- #
    seed_a = _farthest_dense(distance_row(0), 0)
    dist_a = distance_row(seed_a)
    seed_b = _farthest_dense(dist_a, seed_a)
    dist_b = distance_row(seed_b)

    # Line 13: partition weights (dense order == ascending vertex id; the
    # subgraph is connected here, so every entry is finite).
    pw = dist_a - dist_b

    # Lines 14-15: initial partitions of size beta * |V|.
    whole = np.array([0, n], dtype=np.int64)
    w_a, w_b = (float(w[0]) for w in boundary_weights(pw, whole, initial_sizes(beta, whole)))

    if w_a == w_b:
        # Lines 16-22: bottleneck handling - one equivalence class spans
        # both boundaries; remove its member closest to seed_a and retry.
        equivalence_class = np.nonzero(pw == w_a)[0]
        # np.argmin keeps the first minimum, i.e. the smallest vertex id
        bottleneck = int(equivalence_class[np.argmin(dist_a[equivalence_class])])
        keep = np.ones(n, dtype=bool)
        keep[bottleneck] = False
        remaining = [vertices[i] for i in np.nonzero(keep)[0].tolist()]
        reduced = flat.induce(remaining)
        inner = balanced_partition(reduced, beta=beta, _depth=_depth + 1, backend=search)
        return BalancedPartitionResult(
            initial_a=inner.initial_a,
            cut_region=sorted(inner.cut_region + [vertices[bottleneck]]),
            initial_b=inner.initial_b,
        )

    # Lines 23-25: close the initial partitions under their boundary weight
    # so equivalence classes are never split.
    mask_a = pw <= w_a
    mask_b = pw >= w_b
    initial_a = [vertices[i] for i in np.nonzero(mask_a)[0].tolist()]
    initial_b = [vertices[i] for i in np.nonzero(mask_b)[0].tolist()]
    cut_region = [vertices[i] for i in np.nonzero(~mask_a & ~mask_b)[0].tolist()]
    return BalancedPartitionResult(initial_a, cut_region, initial_b)


def _farthest_dense(row: np.ndarray, source: int) -> int:
    """Dense id of the vertex farthest from ``source`` in a distance row.

    :func:`farthest_in_blocks` over one block.
    """
    whole = np.array([0, len(row)], dtype=np.int64)
    return int(farthest_in_blocks(row, whole, np.array([source], dtype=np.int64))[0])


def farthest_in_blocks(row: np.ndarray, offsets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Per block, the vertex farthest from the block's source (lines 11-12).

    Block ``i`` is ``row[offsets[i] : offsets[i + 1]]`` (non-empty), the
    distances from its source ``sources[i]``; the result is block-local
    dense ids.  Ties break on the smaller vertex id (dense ids are
    ascending original ids); unreachable vertices are ignored, and a
    source with no reached vertex at a positive distance is its own
    farthest vertex.
    """
    starts = offsets[:-1]
    block = np.repeat(np.arange(len(starts), dtype=np.int64), np.diff(offsets))
    reached = np.where(np.isfinite(row), row, -INF)
    best = np.maximum.reduceat(reached, starts)[block]
    hits = np.flatnonzero((reached == best) & (best > 0.0))
    farthest = np.asarray(sources, dtype=np.int64).copy()
    found, first = np.unique(block[hits], return_index=True)
    farthest[found] = hits[first] - starts[found]
    return farthest


def initial_sizes(beta: float, offsets: np.ndarray) -> np.ndarray:
    """``k = max(1, int(beta * |V|))`` per block: the initial partitions' size."""
    return np.maximum(1, (beta * np.diff(offsets).astype(np.float64)).astype(np.int64))


def boundary_weights(
    pw: np.ndarray, offsets: np.ndarray, k: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per block, the boundary weights ``(w_a, w_b)`` of lines 14-15.

    ``w_a`` is the ``k``-th smallest partition weight of the block and
    ``w_b`` the ``k``-th largest: the largest weight among the ``k``
    vertices that seed ``P'_A`` and the smallest among those seeding
    ``P'_B``.  One block-major sort orders every block.
    """
    block = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    ordered = pw[np.lexsort((pw, block))]
    return ordered[offsets[:-1] + k - 1], ordered[offsets[1:] - k]


def component_labels(
    tails: np.ndarray, heads: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Connected components of the ``keep`` vertices: the one component scan.

    ``(tails, heads)`` are the arcs of a graph on ``len(keep)`` vertices
    in CSR order (tails ascending), as a snapshot or a stack of them
    lists them.  Returns ``(labels, first)``: ``labels[v]`` numbers the
    component of a kept ``v`` (``-1`` for the rest) in order of smallest
    member, and ``first[c]`` is component ``c``'s smallest member.  The
    scipy matrix holds int8 ones, not the weights, so a zero-weight edge
    is a stored nonzero and connects even where scipy prunes explicit
    zeros (``eliminate_zeros``, sparse arithmetic, dense round-trips).
    """
    n = len(keep)
    arcs = keep[tails] & keep[heads]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails[arcs], minlength=n), out=indptr[1:])
    matrix = csr_matrix(
        (np.ones(int(arcs.sum()), dtype=np.int8), heads[arcs], indptr), shape=(n, n)
    )
    _, scan = connected_components(matrix, directed=False)
    kept = np.flatnonzero(keep)
    # each component's smallest member is its first kept id
    _, first, component = np.unique(scan[kept], return_index=True, return_inverse=True)
    # renumber by smallest member, whatever order scipy labels in
    order = np.argsort(first)
    labels = np.full(n, -1, dtype=np.int64)
    labels[kept] = np.argsort(order)[component]
    return labels, kept[first[order]]


def _partition_disconnected(
    flat: FlatWorkingGraph,
    beta: float,
    n: int,
    depth: int,
    search: ShortestPathBackend,
) -> BalancedPartitionResult:
    """Lines 2-10 of Algorithm 1: the input graph is disconnected."""
    labels, _ = component_labels(flat.tails(), flat.csr_arrays()[1], np.ones(n, dtype=bool))
    # largest first; ties keep the smaller smallest member
    by_size = np.argsort(-np.bincount(labels), kind="stable")
    largest = labels == by_size[0]
    vertices = flat.vertices

    def members(mask: np.ndarray) -> List[int]:
        return [vertices[i] for i in np.flatnonzero(mask).tolist()]

    if np.count_nonzero(largest) > (1.0 - beta) * n:
        # Partition inside the largest component; all other components join
        # the cut region (they are cheap to separate later).
        sub = flat.induce(members(largest))
        inner = balanced_partition(sub, beta=beta, _depth=depth + 1, backend=search)
        return BalancedPartitionResult(
            initial_a=inner.initial_a,
            cut_region=sorted(inner.cut_region + members(~largest)),
            initial_b=inner.initial_b,
        )
    # disconnected, so a second component exists
    second = labels == by_size[1]
    return BalancedPartitionResult(
        initial_a=members(largest),
        cut_region=members(~largest & ~second),
        initial_b=members(second),
    )

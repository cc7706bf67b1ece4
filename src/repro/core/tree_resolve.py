"""Batched LCA distances inside the degree-one attachment trees.

The contraction resolve step of a pair batch (``BatchResolver.resolve``)
has to answer pairs whose endpoints hang off the *same* attachment tree:
``d(u, v) = d(u, root) + d(v, root) - 2 * d(lca(u, v), root)``
(Section 4.2.2).  The original implementation walked each such pair to its
lowest common ancestor one at a time
(:meth:`~repro.graph.contraction.ContractedGraph.tree_lca_distance`),
which turns tree-heavy batches - caterpillar road appendices, whole tree
components - into a scalar Python loop.

:class:`TreeDistanceResolver` replaces that loop with the classic Euler
tour + range-minimum reduction: at build time it derives, from the
contraction's parent/depth arrays,

* one Euler tour over every non-trivial attachment tree (a forest tour;
  ``2T - R`` entries for ``T`` member vertices in ``R`` trees),
* the first-occurrence index of each member vertex, and
* a sparse table of argmin positions over the tour's depth sequence,

after which a whole batch of same-root pairs is answered with two sparse
table gathers (the RMQ) and three ``dist_to_root`` gathers.  The final
arithmetic performs exactly the float64 operations of the scalar walk -
``dist_to_root[u] + dist_to_root[v] - 2.0 * dist_to_root[lca]`` - so the
results are bit-identical (the regression suite asserts ``==``).

The structure is never persisted: each process derives it from the
contraction arrays it already loaded, on the first batch that needs it
(:attr:`~repro.core.engine.BatchResolver.tree_resolver`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["TreeDistanceResolver"]


class TreeDistanceResolver:
    """Vectorised same-attachment-tree distances via Euler-tour RMQ.

    Parameters
    ----------
    parent / depth / root / dist_to_root:
        The per-original-vertex bookkeeping arrays of a
        :class:`~repro.graph.contraction.ContractedGraph` (core vertices
        are their own parent/root at depth 0).

    Only vertices belonging to a non-trivial attachment tree (a contracted
    vertex, or a core root with at least one contracted child) become tour
    members; :meth:`distances` may only be called with pairs that share an
    attachment root, which guarantees both endpoints are members.
    """

    __slots__ = (
        "_dist_to_root",
        "_members",
        "_local",
        "_euler",
        "_euler_depth",
        "_first",
        "_table",
    )

    def __init__(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        root: np.ndarray,
        dist_to_root: np.ndarray,
    ) -> None:
        parent = np.asarray(parent, dtype=np.int64)
        depth = np.asarray(depth, dtype=np.int64)
        root = np.asarray(root, dtype=np.int64)
        self._dist_to_root = np.asarray(dist_to_root, dtype=np.float64)
        n = len(parent)

        contracted = np.nonzero(root != np.arange(n, dtype=np.int64))[0]
        members = np.unique(np.concatenate([contracted, root[contracted]]))
        self._members = members
        num_members = len(members)
        local = np.full(n, -1, dtype=np.int64)
        local[members] = np.arange(num_members, dtype=np.int64)
        self._local = local

        if num_members == 0:
            self._euler = np.empty(0, dtype=np.int64)
            self._euler_depth = np.empty(0, dtype=np.int64)
            self._first = np.empty(0, dtype=np.int64)
            self._table = np.empty((1, 0), dtype=np.int64)
            return

        # children of each member, grouped CSR-style; ordering by (parent,
        # child id) keeps the tour - and therefore the structure - fully
        # deterministic for a given contraction
        child_local = local[contracted]
        parent_local = local[parent[contracted]]
        order = np.lexsort((child_local, parent_local))
        children = child_local[order]
        child_indptr = np.zeros(num_members + 1, dtype=np.int64)
        np.add.at(child_indptr[1:], parent_local, 1)
        np.cumsum(child_indptr, out=child_indptr)

        local_depth = depth[members].astype(np.int64)
        roots_local = local[members[depth[members] == 0]]

        tour_length = 2 * num_members - len(roots_local)
        euler = np.empty(tour_length, dtype=np.int64)
        euler_depth = np.empty(tour_length, dtype=np.int64)
        first = np.full(num_members, -1, dtype=np.int64)

        # iterative DFS emitting the Euler tour: a vertex is appended on
        # first entry and again after each child subtree returns
        indptr_list = child_indptr.tolist()
        children_list = children.tolist()
        depth_list = local_depth.tolist()
        position = 0
        for tree_root in roots_local.tolist():
            stack = [(tree_root, indptr_list[tree_root])]
            first[tree_root] = position
            euler[position] = tree_root
            euler_depth[position] = depth_list[tree_root]
            position += 1
            while stack:
                vertex, cursor = stack[-1]
                if cursor < indptr_list[vertex + 1]:
                    stack[-1] = (vertex, cursor + 1)
                    child = children_list[cursor]
                    stack.append((child, indptr_list[child]))
                    first[child] = position
                    euler[position] = child
                    euler_depth[position] = depth_list[child]
                    position += 1
                else:
                    stack.pop()
                    if stack:
                        parent_vertex = stack[-1][0]
                        euler[position] = parent_vertex
                        euler_depth[position] = depth_list[parent_vertex]
                        position += 1
        assert position == tour_length

        self._euler = euler
        self._euler_depth = euler_depth
        self._first = first
        self._table = _build_sparse_table(euler_depth)

    @property
    def num_members(self) -> int:
        """Number of vertices covered by the tour (members of non-trivial trees)."""
        return len(self._members)

    def lca(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Lowest common ancestors (original ids) of same-root vertex pairs."""
        left = self._first[self._local[u]]
        right = self._first[self._local[v]]
        lo = np.minimum(left, right)
        hi = np.maximum(left, right)
        span = hi - lo + 1
        level = _floor_log2(span)
        table = self._table
        depth = self._euler_depth
        a = table[level, lo]
        b = table[level, hi - (np.int64(1) << level) + 1]
        position = np.where(depth[b] < depth[a], b, a)
        return self._members[self._euler[position]]

    def distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tree distances for a batch of pairs sharing an attachment root.

        Bit-identical to
        :meth:`~repro.graph.contraction.ContractedGraph.tree_lca_distance`
        per pair: the same three ``dist_to_root`` values enter the same
        float64 expression in the same order.
        """
        lca = self.lca(u, v)
        dist_to_root = self._dist_to_root
        return dist_to_root[u] + dist_to_root[v] - 2.0 * dist_to_root[lca]


def _build_sparse_table(depth: np.ndarray) -> np.ndarray:
    """Argmin sparse table over ``depth``: ``table[k, i]`` is the position
    of the minimum in ``depth[i : i + 2**k]`` (ties keep the leftmost, so
    results are deterministic; for an Euler tour any occurrence of the
    minimum maps to the same vertex anyway).
    """
    m = len(depth)
    if m == 0:
        return np.empty((1, 0), dtype=np.int64)
    levels = int(m).bit_length()  # 2**(levels-1) <= m
    table = np.empty((levels, m), dtype=np.int64)
    table[0] = np.arange(m, dtype=np.int64)
    for k in range(1, levels):
        half = 1 << (k - 1)
        width = m - (1 << k) + 1
        left = table[k - 1, :width]
        right = table[k - 1, half : half + width]
        table[k, :width] = np.where(depth[right] < depth[left], right, left)
        # positions past `width` would index out of range; they are never
        # queried (the query clamps the level to the span), fill for safety
        table[k, width:] = table[k - 1, width:]
    return table


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """Element-wise ``floor(log2(x))`` for positive int64 arrays."""
    # bit_length - 1 without leaving integer arithmetic: smear + popcount
    # is overkill for the small spans here; use the float exponent, which
    # is exact for x < 2**53 (tour positions are far below that)
    return (np.frexp(x.astype(np.float64))[1] - 1).astype(np.int64)

"""Patch single-source distance rows after arc weights change.

A scoped relabel (:mod:`repro.core.dynamic`) recomputes a hierarchy node
over a snapshot that differs from the one it was built on only in the
weights of a few arcs.  Its distance rows - one per cut vertex, and one
per border of each child's region - then differ from the old rows in a
few entries, so :func:`patch_rows` updates the old rows in place instead
of searching again (the dynamic single-source problem of Ramalingam and
Reps, 1996):

* **Increases** first, over the snapshot with every arc at
  ``max(old, new)``: the heads of increased arcs that were *tight*
  (``d[u] + w_old == d[v]``) and everything below them in the old
  shortest-path DAG lose their distances, and a Dijkstra over that
  region alone settles them again from their in-neighbours outside it.
* **Decreases** second, at the new weights: a Dijkstra seeded at the
  heads that a decreased arc improves.

Every distance a Dijkstra settles is the minimum over its in-arcs of
``d[u] + w`` in float64 (with positive weights an in-neighbour settled
later never lowers it), and both phases keep that invariant, so a
patched row equals the row a fresh search returns, bit for bit.  A row
whose patch settles more than its budget of vertices is left for one
fresh search instead.

The kernel relies on what every snapshot holds: both arcs of an edge
carry its weight (so a vertex's in-arcs are its out-arcs reversed), the
old and new snapshots share ``indptr``/``indices``, and every weight is
strictly positive.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.flat import FlatWorkingGraph

INF = float("inf")

#: A row is patched while it settles at most this fraction of its
#: snapshot's vertices; past that one scipy search costs less.  Measured
#: by ``benchmarks/bench_patch_crossover.py`` (6.5% to 7.4% on the three
#: kept snapshot sizes of a 10k-vertex road graph); the record is
#: ``benchmarks/patch_crossover.json``.
SETTLE_FRACTION = 0.06


def patch_rows(
    old: FlatWorkingGraph, new_weights: np.ndarray, rows: Sequence[np.ndarray]
) -> np.ndarray:
    """Rewrite ``rows`` in place from ``old``'s weights to ``new_weights``.

    Each of ``rows`` is a finished single-source distance row over
    ``old``; ``new_weights`` are the new weights of ``old``'s arcs, in
    its CSR order.  Returns how many vertices each row's patch settled,
    ``-1`` for a row that would settle more than ``SETTLE_FRACTION`` of
    the snapshot's vertices: such a row may have been partly written and
    must be searched again.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    patcher = RowPatcher(old, new_weights)
    return np.fromiter((patcher.patch(row) for row in rows), dtype=np.int64, count=len(rows))


class RowPatcher:
    """:func:`patch_rows` for one snapshot's weight change, one row at a time.

    The changed arcs are found once, and every vertex a row's patch
    visits has its arcs read once for all rows: ``(head, old weight,
    max(old, new), new weight)`` lists, built on first visit.  Nothing
    is built per arc of the whole snapshot.
    """

    def __init__(self, old: FlatWorkingGraph, new_weights: np.ndarray) -> None:
        indptr, indices, old_weights = old.csr_arrays()
        new_weights = np.asarray(new_weights, dtype=np.float64)
        changed = np.flatnonzero(old_weights != new_weights)
        self.budget = SETTLE_FRACTION * len(old.vertices)
        tails, heads = old.tails()[changed], indices[changed]
        up = new_weights[changed] > old_weights[changed]
        self.up = tails[up], heads[up], old_weights[changed[up]]
        self.down = tails[~up], heads[~up], new_weights[changed[~up]]
        self._csr = indptr, indices, old_weights, new_weights
        self._arcs: Dict[int, List[Tuple[int, float, float, float]]] = {}

    def _out(self, v: int) -> List[Tuple[int, float, float, float]]:
        """``v``'s out-arcs as ``(head, old, max(old, new), new)`` weights."""
        arcs = self._arcs.get(v)
        if arcs is None:
            indptr, indices, old, new = self._csr
            lo, hi = indptr.item(v), indptr.item(v + 1)
            before, after = old[lo:hi], new[lo:hi]
            arcs = self._arcs[v] = list(zip(
                indices[lo:hi].tolist(),
                before.tolist(),
                np.maximum(before, after).tolist(),
                after.tolist(),
            ))
        return arcs

    def patch(self, row: np.ndarray) -> int:
        """Patch one row in place; the vertices settled, or -1 past the budget."""
        count = 0
        up_tails, up_heads, up_old = self.up
        if len(up_tails):
            before = row[up_tails]
            tight = np.isfinite(before) & (before + up_old == row[up_heads])
            if tight.any():
                count = self._raise(row, np.unique(up_heads[tight]).tolist())
                if count < 0:
                    return -1
        down_tails, down_heads, down_new = self.down
        if len(down_tails):
            gain = row[down_tails] + down_new
            better = gain < row[down_heads]
            if better.any():
                seeds = zip(gain[better].tolist(), down_heads[better].tolist())
                lowered = self._lower(row, seeds, self.budget - count)
                count = -1 if lowered < 0 else count + lowered
        return count

    def _raise(self, row: np.ndarray, roots: List[int]) -> int:
        """The increase phase: reset the tight-DAG region below ``roots``, settle it again.

        The region is found at the old weights and settled with every
        arc at ``max(old, new)``.  Returns the region's size, or -1
        without writing when it exceeds the budget.
        """
        budget, out, at = self.budget, self._out, row.item
        if len(roots) > budget:
            return -1
        region = set(roots)
        queue = list(roots)
        for v in queue:
            dv = at(v)
            for x, w, _, _ in out(v):
                if x not in region and dv + w == at(x):
                    region.add(x)
                    queue.append(x)
            if len(region) > budget:
                return -1
        # a region vertex's in-arcs are its out-arcs reversed; in-neighbours
        # outside the region keep their distances
        best: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for v in queue:
            low = INF
            for u, _, w, _ in out(v):
                if u not in region:
                    candidate = at(u) + w
                    if candidate < low:
                        low = candidate
            best[v] = low
            if low < INF:
                heap.append((low, v))
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            dv, v = pop(heap)
            if dv > best[v]:
                continue
            for x, _, w, _ in out(v):
                if x in region:
                    candidate = dv + w
                    if candidate < best[x]:
                        best[x] = candidate
                        push(heap, (candidate, x))
        row[queue] = [best[v] for v in queue]
        return len(queue)

    def _lower(self, row: np.ndarray, seeds, budget: float) -> int:
        """The decrease phase: a Dijkstra from the improved heads at the new weights.

        ``seeds`` pairs each improved distance with its head.  Returns
        how many vertices settled, or -1 without writing once that
        exceeds ``budget``.
        """
        out, at = self._out, row.item
        best: Dict[int, float] = {}
        for dv, v in seeds:
            if dv < best.get(v, INF):
                best[v] = dv
        heap = [(dv, v) for v, dv in best.items()]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        settled = 0
        while heap:
            dv, v = pop(heap)
            if dv > best[v]:
                continue
            settled += 1
            if settled > budget:
                return -1
            for x, _, _, w in out(v):
                candidate = dv + w
                if candidate < best.get(x, INF) and candidate < at(x):
                    best[x] = candidate
                    push(heap, (candidate, x))
        row[list(best)] = list(best.values())
        return settled

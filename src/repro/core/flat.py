"""Flat, contiguous storage for HC2L labels and working subgraphs.

The paper's C++ implementation owes much of its query speed to the label
layout: per-vertex distance arrays are contiguous ``double`` buffers with
no hub identifiers, so a query is a linear scan over two cache-resident
slabs.  This module provides that layout and its graph-side counterpart:

* :class:`FlatLabelling` - all per-vertex, per-level distance arrays
  packed into a single ``float64`` buffer plus two integer index arrays.
  It is the one label store: construction and relabelling write it, the
  :class:`~repro.core.engine.QueryEngine` reads it, it carries the size
  metrics of Tables 2-4, and it is the payload of the versioned on-disk
  format.
  A labelling is also a *composable partition*: :meth:`FlatLabelling.slice_vertices`
  carves out a self-contained labelling for a contiguous vertex range
  (re-based index arrays, same dtype contracts), :meth:`FlatLabelling.partition`
  splits along a boundary sequence, and :meth:`FlatLabelling.concat` is the
  lossless inverse - the basis of the sharded on-disk layout
  (:func:`repro.core.persistence.save_index_sharded`) and the
  :class:`~repro.serving.shards.ShardRouter`.
* :class:`FlatWorkingGraph` - a CSR snapshot of a working subgraph with
  dense local ids: the only graph form construction and relabelling
  search.  Child subgraphs are derived from their parent's arrays with
  :meth:`FlatWorkingGraph.induce` and
  :meth:`FlatWorkingGraph.overlay_shortcuts`.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

INF = float("inf")

#: Snapshots of at least this many vertices map original ids to dense ids
#: by one binary search over their sorted vertex array (whole partitions at
#: once) and never build the :attr:`FlatWorkingGraph.dense_id` dict for it;
#: smaller ones, the bulk of a build's snapshots, keep the dict, whose
#: lookups beat numpy's per-call overhead there.
_SEARCHED_IDS_MIN_VERTICES = 256


def _as_contiguous(array, dtype) -> np.ndarray:
    """A C-contiguous array of ``dtype``, preserving conforming inputs.

    Unlike ``np.ascontiguousarray`` this keeps ndarray subclasses - in
    particular the read-only ``np.memmap`` buffers of an mmap-loaded index
    (see :func:`repro.core.persistence.mmap_label_arrays`) - instead of
    silently reboxing them.
    """
    result = np.asanyarray(array)
    if result.dtype != dtype or not result.flags.c_contiguous:
        result = np.ascontiguousarray(result, dtype=dtype)
    return result


class FlatLabelling:
    """HC2L labels packed into one contiguous distance buffer.

    Layout
    ------
    ``values``
        One ``float64`` array holding every stored distance.  The arrays of
        one vertex are contiguous, ordered by hierarchy depth.
    ``level_indptr``
        ``int64`` array; the distance array of *global level* ``k`` (see
        below) is ``values[level_indptr[k]:level_indptr[k + 1]]``.
    ``vertex_indptr``
        ``int64`` array of length ``num_vertices + 1``; vertex ``v`` owns
        global levels ``vertex_indptr[v] .. vertex_indptr[v + 1] - 1``, one
        per hierarchy depth starting at depth 0.

    The array of ``(v, depth)`` therefore starts at
    ``level_indptr[vertex_indptr[v] + depth]``.  This mirrors the storage
    model the paper costs out in Section 4.2.2 (values + per-array length
    + per-vertex offset, no hub ids).
    """

    __slots__ = ("num_vertices", "values", "level_indptr", "vertex_indptr")

    def __init__(
        self,
        num_vertices: int,
        values: np.ndarray,
        level_indptr: np.ndarray,
        vertex_indptr: np.ndarray,
    ) -> None:
        if len(vertex_indptr) != num_vertices + 1:
            raise ValueError(
                f"vertex_indptr must have num_vertices + 1 entries, "
                f"got {len(vertex_indptr)} for {num_vertices} vertices"
            )
        self.num_vertices = num_vertices
        self.values = _as_contiguous(values, np.float64)
        self.level_indptr = _as_contiguous(level_indptr, np.int64)
        self.vertex_indptr = _as_contiguous(vertex_indptr, np.int64)
        for name in ("values", "level_indptr", "vertex_indptr"):
            buffer = getattr(self, name)
            if isinstance(buffer, np.memmap) and buffer.flags.writeable:
                raise ValueError(
                    f"{name} is a writable memory map; label buffers shared "
                    f"between serving processes must be mapped read-only "
                    f"(mmap_mode='r') so no shard can mutate shared pages"
                )

    # ------------------------------------------------------------------ #
    # partitioning (the basis of the sharded store)
    # ------------------------------------------------------------------ #
    def slice_vertices(self, lo: int, hi: int) -> "FlatLabelling":
        """A self-contained labelling for the vertex range ``[lo, hi)``.

        The returned labelling owns vertices ``0 .. hi - lo - 1`` (local
        ids ``v - lo``) with *re-based* ``vertex_indptr`` / ``level_indptr``
        and the same dtype contracts as the parent, so it round-trips
        through :meth:`concat` and serves as an independent shard payload.
        ``values`` is a zero-copy view of the parent buffer (still a
        read-only memmap when the parent is mmap-loaded); the index arrays
        are small re-based copies.
        """
        if not 0 <= lo <= hi <= self.num_vertices:
            raise ValueError(
                f"invalid vertex range [{lo}, {hi}) for a labelling over "
                f"{self.num_vertices} vertices"
            )
        k_lo = int(self.vertex_indptr[lo])
        k_hi = int(self.vertex_indptr[hi])
        value_lo = int(self.level_indptr[k_lo])
        value_hi = int(self.level_indptr[k_hi])
        # np.asarray drops any (fake) memmap wrapper the subtraction would
        # otherwise produce; the re-based indptrs are plain owned arrays
        vertex_indptr = np.asarray(self.vertex_indptr[lo : hi + 1], dtype=np.int64) - k_lo
        level_indptr = np.asarray(self.level_indptr[k_lo : k_hi + 1], dtype=np.int64) - value_lo
        return FlatLabelling(
            num_vertices=hi - lo,
            values=self.values[value_lo:value_hi],
            level_indptr=level_indptr,
            vertex_indptr=vertex_indptr,
        )

    def partition(self, boundaries: Sequence[int]) -> List["FlatLabelling"]:
        """Split into per-range labellings along ``boundaries``.

        ``boundaries`` is the full monotone edge sequence
        ``[0, b_1, ..., num_vertices]`` (``len(boundaries) - 1`` shards);
        shard ``k`` covers vertices ``boundaries[k] .. boundaries[k+1] - 1``.
        ``concat(partition(boundaries))`` reproduces the labelling exactly.
        """
        edges = [int(b) for b in boundaries]
        if len(edges) < 2 or edges[0] != 0 or edges[-1] != self.num_vertices:
            raise ValueError(
                f"boundaries must run from 0 to num_vertices "
                f"({self.num_vertices}), got {edges}"
            )
        if any(a > b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"boundaries must be non-decreasing, got {edges}")
        return [self.slice_vertices(lo, hi) for lo, hi in zip(edges, edges[1:])]

    @classmethod
    def concat(cls, parts: Sequence["FlatLabelling"]) -> "FlatLabelling":
        """Concatenate per-range labellings back into one (inverse of
        :meth:`partition`; lossless for any partition of the vertex range).
        """
        if not parts:
            return cls(0, np.empty(0, np.float64), np.zeros(1, np.int64), np.zeros(1, np.int64))
        num_vertices = sum(part.num_vertices for part in parts)
        values = np.concatenate([part.values for part in parts])
        vertex_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        total_levels = sum(len(part.level_indptr) - 1 for part in parts)
        level_indptr = np.zeros(total_levels + 1, dtype=np.int64)
        vertex_at = 0
        level_at = 0
        value_base = 0
        for part in parts:
            num_local = part.num_vertices
            vertex_indptr[vertex_at + 1 : vertex_at + num_local + 1] = (
                part.vertex_indptr[1:] + level_at
            )
            num_levels = len(part.level_indptr) - 1
            level_indptr[level_at + 1 : level_at + num_levels + 1] = (
                part.level_indptr[1:] + value_base
            )
            vertex_at += num_local
            level_at += num_levels
            value_base += int(part.level_indptr[-1])
        return cls(num_vertices, values, level_indptr, vertex_indptr)

    def merge_levels(self, other: "FlatLabelling") -> "FlatLabelling":
        """Concatenate two labellings *per vertex*: my levels, then ``other``'s.

        Both labellings must cover the same vertices in the same order; the
        result stores, for every vertex, first all levels of ``self`` and
        then all levels of ``other``.  This is how the process-parallel
        construction combines the ancestor-level prefix a subtree inherited
        from the nodes above it with the label fragment the subtree worker
        produced - entirely with vectorised gathers, level arrays stay
        byte-identical.
        """
        if self.num_vertices != other.num_vertices:
            raise ValueError(
                f"cannot merge labellings over {self.num_vertices} and "
                f"{other.num_vertices} vertices"
            )
        n = self.num_vertices
        counts_a = self.vertex_indptr[1:] - self.vertex_indptr[:-1]
        counts_b = other.vertex_indptr[1:] - other.vertex_indptr[:-1]
        new_vertex_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts_a + counts_b, out=new_vertex_indptr[1:])
        total_a = int(self.vertex_indptr[-1])
        total_b = int(other.vertex_indptr[-1])
        total_levels = total_a + total_b
        # destination of every source level: a-levels lead, b-levels follow
        dst_a = np.repeat(new_vertex_indptr[:-1], counts_a) + (
            np.arange(total_a, dtype=np.int64) - np.repeat(self.vertex_indptr[:-1], counts_a)
        )
        dst_b = np.repeat(new_vertex_indptr[:-1] + counts_a, counts_b) + (
            np.arange(total_b, dtype=np.int64) - np.repeat(other.vertex_indptr[:-1], counts_b)
        )
        src = np.empty(total_levels, dtype=np.int64)
        src[dst_a] = np.arange(total_a, dtype=np.int64)
        src[dst_b] = total_a + np.arange(total_b, dtype=np.int64)
        # gather lengths/starts from the virtual [self.values, other.values] buffer
        lengths = np.concatenate([np.diff(self.level_indptr), np.diff(other.level_indptr)])[src]
        starts = np.concatenate(
            [self.level_indptr[:-1], other.level_indptr[:-1] + self.values.shape[0]]
        )[src]
        new_level_indptr = np.zeros(total_levels + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_level_indptr[1:])
        total_values = int(new_level_indptr[-1])
        value_within = np.arange(total_values, dtype=np.int64) - np.repeat(
            new_level_indptr[:-1], lengths
        )
        values = np.concatenate([self.values, other.values])[
            np.repeat(starts, lengths) + value_within
        ]
        return FlatLabelling(
            num_vertices=n,
            values=values,
            level_indptr=new_level_indptr,
            vertex_indptr=new_vertex_indptr,
        )

    def replace_leading_levels(self, prefix: "FlatLabelling") -> "FlatLabelling":
        """A labelling whose vertices lead with ``prefix``'s levels.

        Vertex ``v`` holds ``prefix``'s levels of ``v``, then this
        labelling's levels of ``v`` from depth ``prefix.num_levels(v)`` on;
        both cover the same vertices, and ``prefix`` holds no more levels
        of a vertex than this labelling.  Level arrays stay byte-identical.
        This is how a relabel keeps the levels of the subtrees it did not
        recompute (:func:`repro.core.dynamic.relabel`).
        """
        counts = self.vertex_indptr[1:] - self.vertex_indptr[:-1]
        total_levels = int(self.vertex_indptr[-1])
        depth = np.arange(total_levels, dtype=np.int64) - np.repeat(
            self.vertex_indptr[:-1], counts
        )
        leading = depth < np.repeat(prefix.vertex_indptr[1:] - prefix.vertex_indptr[:-1], counts)
        lengths = self.level_indptr[1:] - self.level_indptr[:-1]
        kept_values = np.repeat(~leading, lengths)
        lengths[leading] = prefix.level_indptr[1:] - prefix.level_indptr[:-1]
        level_indptr = np.zeros(total_levels + 1, dtype=np.int64)
        np.cumsum(lengths, out=level_indptr[1:])
        values = np.empty(int(level_indptr[-1]), dtype=np.float64)
        leading_values = np.repeat(leading, lengths)
        values[leading_values] = prefix.values
        values[~leading_values] = self.values[kept_values]
        vertex_indptr = np.array(self.vertex_indptr, dtype=np.int64)
        return FlatLabelling(self.num_vertices, values, level_indptr, vertex_indptr)

    @staticmethod
    def even_boundaries(num_vertices: int, num_shards: int) -> List[int]:
        """The edge sequence of an (almost) even ``num_shards``-way split."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        return [round(k * num_vertices / num_shards) for k in range(num_shards + 1)]

    def reorder(self, order: Sequence[int]) -> "FlatLabelling":
        """A labelling whose position ``p`` holds the labels of vertex ``order[p]``.

        ``order`` must be a permutation of ``0 .. num_vertices - 1``.  The
        per-vertex level arrays are byte-identical, only their placement in
        the buffers changes - this is how the hierarchy-aligned sharded
        layout stores labels in subtree (DFS) order so that shard ranges
        follow the hierarchy's top cuts.  ``reorder(order)`` followed by
        ``reorder(inverse)`` round-trips exactly.
        """
        order_array = np.asarray(order, dtype=np.int64)
        n = self.num_vertices
        if len(order_array) != n or not np.array_equal(
            np.sort(order_array), np.arange(n, dtype=np.int64)
        ):
            raise ValueError(
                f"order must be a permutation of 0..{n - 1}, got {len(order_array)} entries"
            )
        vertex_indptr = self.vertex_indptr
        level_indptr = self.level_indptr
        # per-vertex level counts and value counts, gathered in target order
        level_counts = (vertex_indptr[1:] - vertex_indptr[:-1])[order_array]
        new_vertex_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(level_counts, out=new_vertex_indptr[1:])
        # flat index of every (vertex, depth) level in target order
        total_levels = int(new_vertex_indptr[-1])
        starts = vertex_indptr[order_array]
        within = np.arange(total_levels, dtype=np.int64) - np.repeat(
            new_vertex_indptr[:-1], level_counts
        )
        old_levels = np.repeat(starts, level_counts) + within
        lengths = level_indptr[old_levels + 1] - level_indptr[old_levels]
        new_level_indptr = np.zeros(total_levels + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_level_indptr[1:])
        total_values = int(new_level_indptr[-1])
        value_within = np.arange(total_values, dtype=np.int64) - np.repeat(
            new_level_indptr[:-1], lengths
        )
        values = self.values[np.repeat(level_indptr[old_levels], lengths) + value_within]
        return FlatLabelling(
            num_vertices=n,
            values=values,
            level_indptr=new_level_indptr,
            vertex_indptr=new_vertex_indptr,
        )

    # ------------------------------------------------------------------ #
    # element access
    # ------------------------------------------------------------------ #
    def num_levels(self, vertex: int) -> int:
        """Number of levels stored for ``vertex`` (= node depth + 1)."""
        return int(self.vertex_indptr[vertex + 1] - self.vertex_indptr[vertex])

    def level_array(self, vertex: int, depth: int) -> List[float]:
        """Distance array of ``vertex`` at hierarchy depth ``depth`` (a copy)."""
        return self.level_view(vertex, depth).tolist()

    def level_view(self, vertex: int, depth: int) -> np.ndarray:
        """Zero-copy view of the distance array of ``(vertex, depth)``."""
        k = int(self.vertex_indptr[vertex]) + depth
        if k >= self.vertex_indptr[vertex + 1]:
            raise IndexError(f"vertex {vertex} has no level {depth}")
        return self.values[int(self.level_indptr[k]) : int(self.level_indptr[k + 1])]

    # ------------------------------------------------------------------ #
    # size metrics (Tables 2-4)
    # ------------------------------------------------------------------ #
    def total_entries(self) -> int:
        """Total number of stored distance values."""
        return int(self.values.shape[0])

    def entries_of(self, vertex: int) -> int:
        """Number of distance values stored for one vertex."""
        start = self.level_indptr[self.vertex_indptr[vertex]]
        end = self.level_indptr[self.vertex_indptr[vertex + 1]]
        return int(end - start)

    def size_bytes(self) -> int:
        """Approximate labelling size in bytes.

        Each distance value costs 8 bytes; each per-level array carries a
        2-byte length prefix; each vertex carries an 8-byte offset into the
        label storage.  Hub identifiers are *not* stored (Section 4.2.2).
        """
        level_overhead = 2 * (len(self.level_indptr) - 1)
        return self.total_entries() * 8 + level_overhead + 8 * self.num_vertices

    def average_label_entries(self) -> float:
        """Mean number of stored distance values per vertex."""
        if self.num_vertices == 0:
            return 0.0
        return self.total_entries() / self.num_vertices

    def max_label_entries(self) -> int:
        """Largest per-vertex label, in distance values."""
        if self.num_vertices == 0:
            return 0
        starts = self.level_indptr[self.vertex_indptr[:-1]]
        ends = self.level_indptr[self.vertex_indptr[1:]]
        return int((ends - starts).max())

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the label buffers, closing any backing memory maps.

        Serving processes that recycle workers (the shard fleet) must not
        rely on GC timing to unmap label files; ``close`` drops this
        labelling's references and closes each backing ``mmap`` handle
        eagerly.  A map still exported by another live view (e.g. a
        :meth:`slice_vertices` shard of the same buffer) survives until
        that view is released - closing is best-effort per buffer, never
        an error.  The labelling is unusable afterwards.
        """
        for name in ("values", "level_indptr", "vertex_indptr"):
            buffer = getattr(self, name, None)
            if buffer is None:
                continue
            backing = getattr(buffer, "_mmap", None)
            # drop our reference first so the buffer no longer counts as
            # an exporter of the map
            setattr(self, name, np.empty(0, dtype=buffer.dtype))
            del buffer
            if backing is not None:
                try:
                    backing.close()
                except BufferError:
                    pass  # another live view still exports this map

    def __enter__(self) -> "FlatLabelling":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatLabelling):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.vertex_indptr, other.vertex_indptr)
            and np.array_equal(self.level_indptr, other.level_indptr)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"FlatLabelling(num_vertices={self.num_vertices}, "
            f"entries={self.total_entries()})"
        )


class FlatWorkingGraph:
    """CSR snapshot of a working subgraph with dense local ids.

    Every construction search runs over a snapshot: the balanced cut, the
    ranking and labelling passes (one Dijkstra per cut vertex over the
    *same* subgraph) and the shortcut searches.  Snapshots are made from a
    graph's CSR arrays (:func:`repro.core.construction.root_snapshot`) and
    restricted or extended with numpy array operations (:meth:`induce`,
    :meth:`overlay_shortcuts`), never from a dict adjacency.

    The typed numpy triple is the snapshot's storage; :attr:`cache` is a
    scratch dict whose lifetime matches the snapshot (per-source distance
    rows, the scipy matrix) - it dies with the node, so nothing
    accumulates across the recursion.
    """

    __slots__ = (
        "vertices", "_dense_id", "_vertex_array", "_indptr", "_indices", "_weights", "cache",
        "_np_csr",
    )

    def __init__(
        self,
        vertices: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Wrap a CSR triple; ``indices`` holds dense ids.

        ``vertices`` maps dense ids to original ids and must be sorted
        ascending (the invariant every snapshot maintains), so dense order
        is original-id order.
        """
        #: dense id -> original vertex id, in sorted original-id order
        self.vertices: List[int] = list(vertices)
        self._dense_id: Optional[Dict[int, int]] = None
        self._vertex_array: Optional[np.ndarray] = None
        self._indptr: Optional[List[int]] = None
        self._indices: Optional[List[int]] = None
        self._weights: Optional[List[float]] = None
        #: backend scratch space (distance-row cache, scipy matrix, ...)
        self.cache: Dict[str, object] = {}
        self._np_csr: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=np.float64),
        )

    # The python-list CSR views materialise lazily: backends that
    # vectorise over the numpy triple (csr) never pay for per-edge python
    # objects, while the list-walking searches (heap backend,
    # flat.dijkstra) get plain lists built on first access.
    @property
    def indptr(self) -> List[int]:
        if self._indptr is None:
            self._indptr = self._np_csr[0].tolist()
        return self._indptr

    @property
    def indices(self) -> List[int]:
        if self._indices is None:
            self._indices = self._np_csr[1].tolist()
        return self._indices

    @property
    def weights(self) -> List[float]:
        if self._weights is None:
            self._weights = self._np_csr[2].tolist()
        return self._weights

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def dense_id(self) -> Dict[int, int]:
        """Original vertex id -> dense id (built on first use)."""
        if self._dense_id is None:
            self._dense_id = {v: i for i, v in enumerate(self.vertices)}
        return self._dense_id

    @property
    def vertex_array(self) -> np.ndarray:
        """:attr:`vertices` as an ascending int64 array (built on first use)."""
        if self._vertex_array is None:
            array = np.asarray(self.vertices, dtype=np.int64)
            if (array[1:] <= array[:-1]).any():
                raise ValueError("snapshot vertices must be sorted ascending")
            self._vertex_array = array
        return self._vertex_array

    def induce(self, members: Sequence[int]) -> "FlatWorkingGraph":
        """The snapshot induced on ``members`` (original vertex ids).

        The restriction runs entirely on the numpy CSR arrays.  Edge (and
        therefore relaxation) order is preserved, so a search over the
        induced snapshot relaxes edges in the parent's order.
        """
        indptr, indices, weights = self.csr_arrays()
        n = len(self.vertices)
        keep = np.zeros(n, dtype=bool)
        member_dense = np.asarray(self.dense_ids(members), dtype=np.int64)
        keep[member_dense] = True
        member_dense = np.nonzero(keep)[0]  # sorted dense ids = sorted originals
        new_id = np.full(n, -1, dtype=np.int64)
        new_id[member_dense] = np.arange(len(member_dense), dtype=np.int64)

        tails = self.tails()
        edge_keep = keep[tails] & keep[indices]
        new_tails = new_id[tails[edge_keep]]
        new_indptr = np.zeros(len(member_dense) + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_tails, minlength=len(member_dense)), out=new_indptr[1:])
        new_indices = new_id[indices[edge_keep]]
        new_weights = weights[edge_keep]
        if n >= _SEARCHED_IDS_MIN_VERTICES:
            vertex_list = self.vertex_array[member_dense].tolist()
        else:
            vertex_list = [self.vertices[i] for i in member_dense.tolist()]
        return FlatWorkingGraph(vertex_list, new_indptr, new_indices, new_weights)

    def overlay_shortcuts(self, shortcuts: Sequence) -> "FlatWorkingGraph":
        """A snapshot with ``shortcuts`` overlaid on this one's edges.

        A shortcut that improves an existing edge updates its weight *in
        place* (position unchanged); a new shortcut edge is appended
        *after* the vertex's existing edges, in shortcut order.  Keeping
        the minimum weight per edge is Definition 4.9's ``G<P>``.  Returns
        ``self`` unchanged when there are no shortcuts.
        """
        snapshot = self
        if not shortcuts:
            return snapshot
        indptr, indices, weights = snapshot.csr_arrays()
        weights = weights.copy()
        ends = snapshot._dense_or_missing([end for sc in shortcuts for end in (sc.u, sc.v)])

        def edge_position(tail: int, head: int) -> int:
            for i in range(int(indptr[tail]), int(indptr[tail + 1])):
                if indices[i] == head:
                    return i
            return -1

        #: per dense vertex, the (head, weight) edges appended by shortcuts
        extras: Dict[int, List[Tuple[int, float]]] = {}
        for k, shortcut in enumerate(shortcuts):
            du, dv = ends[2 * k], ends[2 * k + 1]
            if du < 0 or dv < 0:
                continue
            position = edge_position(du, dv)
            if position >= 0:
                if shortcut.weight < weights[position]:
                    weights[position] = shortcut.weight
                    weights[edge_position(dv, du)] = shortcut.weight
            else:
                extras.setdefault(du, []).append((dv, shortcut.weight))
                extras.setdefault(dv, []).append((du, shortcut.weight))

        if extras:
            n = len(snapshot.vertices)
            extra_counts = np.zeros(n, dtype=np.int64)
            for tail, added in extras.items():
                extra_counts[tail] = len(added)
            old_degrees = np.diff(indptr)
            new_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(old_degrees + extra_counts, out=new_indptr[1:])
            total = int(new_indptr[-1])
            new_indices = np.empty(total, dtype=np.int64)
            new_weights = np.empty(total, dtype=np.float64)
            # existing edges keep their relative order, shifted by the
            # appended edges of all earlier vertices
            destinations = np.arange(len(indices), dtype=np.int64) + np.repeat(
                new_indptr[:-1] - indptr[:-1], old_degrees
            )
            new_indices[destinations] = indices
            new_weights[destinations] = weights
            for tail, added in extras.items():
                base = int(new_indptr[tail + 1]) - len(added)
                for offset, (head, weight) in enumerate(added):
                    new_indices[base + offset] = head
                    new_weights[base + offset] = weight
            indptr, indices, weights = new_indptr, new_indices, new_weights

        overlaid = FlatWorkingGraph(snapshot.vertices, indptr, indices, weights)
        overlaid._dense_id = snapshot._dense_id
        overlaid._vertex_array = snapshot._vertex_array
        return overlaid

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(indptr, indices, weights)`` triple as typed numpy arrays."""
        return self._np_csr

    def dense_ids(self, vertices: Sequence[int]) -> Union[List[int], np.ndarray]:
        """Dense ids of a collection of original vertex ids.

        Small snapshots look each id up in :attr:`dense_id` and return a
        list; snapshots of at least ``_SEARCHED_IDS_MIN_VERTICES`` vertices
        map the whole collection with one ``np.searchsorted`` and return an
        int64 array (cheapest when ``vertices`` already is one).  Either
        result indexes numpy arrays alike.  A non-member raises
        ``KeyError``.
        """
        if len(self.vertices) < _SEARCHED_IDS_MIN_VERTICES:
            dense_id = self.dense_id
            if isinstance(vertices, np.ndarray):
                vertices = vertices.tolist()
            return [dense_id[v] for v in vertices]
        dense = self._searched_ids(vertices)
        if (dense < 0).any():
            raise KeyError(int(np.asarray(list(vertices))[np.argmax(dense < 0)]))
        return dense

    def _dense_or_missing(self, vertices: Sequence[int]) -> List[int]:
        """Dense ids of ``vertices`` as a list, ``-1`` for non-members."""
        if len(self.vertices) < _SEARCHED_IDS_MIN_VERTICES:
            get = self.dense_id.get
            return [get(v, -1) for v in vertices]
        return self._searched_ids(vertices).tolist()

    def _searched_ids(self, vertices: Sequence[int]) -> np.ndarray:
        """Dense ids by binary search over :attr:`vertex_array`, ``-1`` for non-members."""
        if isinstance(vertices, np.ndarray):
            ids = vertices.astype(np.int64, copy=False)
        else:
            ids = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
        array = self.vertex_array
        dense = np.searchsorted(array, ids)
        found = dense < len(array)
        found[found] = array[dense[found]] == ids[found]
        dense[~found] = -1
        return dense

    def tails(self) -> np.ndarray:
        """Dense tail id of every CSR edge, cached on the snapshot.

        Pairs with ``indices`` (the heads) to give the snapshot's edge
        list in CSR order; the partition layer's vectorised edge scans
        (border masks, flow-region carving, component masking) all need
        it, so one ``np.repeat`` per snapshot serves them all.
        """
        tails = self.cache.get("csr_tails")
        if tails is None:
            indptr, _, _ = self.csr_arrays()
            tails = np.repeat(
                np.arange(len(self.vertices), dtype=np.int64), np.diff(indptr)
            )
            self.cache["csr_tails"] = tails
        return tails

    def dijkstra(self, source: int) -> List[float]:
        """Single-source distances over the CSR arrays (dense ids).

        Returns the full dense distance array with ``inf`` for unreached
        vertices.
        """
        import heapq

        indptr, indices, weights = self.indptr, self.indices, self.weights
        dist = [INF] * len(self.vertices)
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            for i in range(indptr[v], indptr[v + 1]):
                w = indices[i]
                nd = d + weights[i]
                if nd < dist[w]:
                    dist[w] = nd
                    push(heap, (nd, w))
        return dist

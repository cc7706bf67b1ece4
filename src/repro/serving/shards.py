"""Shard-routed serving over a partitioned label store.

A monolithic :class:`~repro.core.flat.FlatLabelling` caps a deployment at
one process and one memory budget.  The sharded on-disk layout
(:func:`repro.core.persistence.save_index_sharded`) partitions the label
buffers by core vertex range; :class:`ShardRouter` serves queries over
that layout:

* every shard of the adopted generation is **mapped read-only** when the
  router adopts it, so co-located workers mapping the same shard share
  one physical copy through the page cache, and a damaged shard fails
  the open rather than a query;
* batches are **split by the shard owning each source vertex**, fanned
  out as one vectorised min-plus call per source shard (targets are
  gathered per-shard inside the call), and re-assembled in input order;
* the graph-level half of a query - contraction bookkeeping and the
  bitstring LCA - reuses the engine's
  :class:`~repro.core.engine.BatchResolver` unchanged.

The router implements the full :class:`~repro.core.oracle.DistanceOracle`
protocol and returns **bit-identical** answers to the monolithic
:class:`~repro.core.engine.QueryEngine`: the fan-out performs exactly the
same float64 additions and minima, only gathered from per-shard buffers.
It therefore composes under :class:`~repro.serving.cache.CachingOracle`
and the fleet's workers with zero changes to either.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.engine import BatchResolver
from repro.core.flat import FlatLabelling
from repro.core.oracle import BatchMixin, as_pair_array, pairs_from_source
from repro.core.persistence import load_manifest, load_shard, load_sharded_components
from repro.utils.validation import check_vertex

INF = float("inf")


@dataclass
class RouterStats:
    """Routing accounting for one :class:`ShardRouter`."""

    batches: int = 0
    core_pairs: int = 0
    cross_shard_pairs: int = 0
    fanout_calls: int = 0
    reloads: int = 0
    pairs_per_shard: Dict[int, int] = field(default_factory=dict)

    def cross_shard_fraction(self) -> float:
        """Fraction of core pairs whose endpoints live in different shards.

        The locality metric the shard layouts compete on: hierarchy-aligned
        boundaries exist to push this down for subtree-local traffic.
        """
        if self.core_pairs == 0:
            return 0.0
        return self.cross_shard_pairs / self.core_pairs

    def as_dict(self) -> Dict[str, float]:
        """Flatten for benchmark/report rows."""
        return {
            "batches": self.batches,
            "core_pairs": self.core_pairs,
            "cross_shard_pairs": self.cross_shard_pairs,
            "cross_shard_fraction": round(self.cross_shard_fraction(), 4),
            "fanout_calls": self.fanout_calls,
            "reloads": self.reloads,
        }


class ShardRouter(BatchMixin):
    """A :class:`DistanceOracle` over a sharded on-disk label layout.

    Parameters
    ----------
    path:
        The index path, its ``<path>.shards/`` layout directory, or the
        ``manifest.json`` inside it.

    The router maps every shard of a generation read-only (from ``.npy``
    sidecars, so co-located workers share pages) when it adopts that
    generation: at construction and in :meth:`reload_generation`.  A
    damaged shard therefore fails the open, never a later query.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        components, manifest, shard_dir = load_sharded_components(path)
        self.path = shard_dir
        self.stats = RouterStats()
        # guards hot swaps and the stats counters: distances() is safe for
        # concurrent callers, which must not lose counter increments (the
        # numpy reads themselves are safe)
        self._lock = threading.Lock()
        # hot-swap coordination: queries register in _active between
        # _begin_query/_end_query; reload_generation raises _reloading,
        # waits on _swap for the in-flight count to drain, flips every
        # generation-dependent field, then wakes the queries queued behind
        # the swap - no request is ever dropped, only briefly delayed
        self._swap = threading.Condition(self._lock)
        self._active = 0
        self._reloading = False
        self._closed = False
        self._adopt(components, manifest, self._map_shards(manifest))

    def _map_shards(self, manifest: dict) -> List[FlatLabelling]:
        """Map every shard of ``manifest``'s generation read-only.

        Shard files keep their names across generations, so a generation
        published while the maps were made may have replaced some of them:
        the manifest is read once more afterwards, and a moved generation
        fails loudly instead of serving a mix of two.
        """
        shards: List[FlatLabelling] = []
        try:
            for shard_id in range(len(manifest["shards"])):
                shards.append(load_shard(self.path, shard_id, mmap=True))
            _, current = load_manifest(self.path)
            if current["generation"] != manifest["generation"]:
                raise RuntimeError(
                    f"{self.path} moved to generation {current['generation']} "
                    f"while this router mapped generation {manifest['generation']}; "
                    f"call reload_generation() to adopt the new one"
                )
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        return shards

    def _adopt(self, components: dict, manifest: dict, shards: List[FlatLabelling]) -> None:
        """Point the router at one generation's components and mapped shards
        (caller holds the lock when swapping a live router; construction
        runs unlocked)."""
        self.manifest = manifest
        self.graph = components["graph"]
        self.parameters = components["parameters"]
        self.contraction = components["contraction"]
        self.hierarchy = components["hierarchy"]
        self.construction_seconds = components["construction_seconds"]
        self.resolver = BatchResolver(self.contraction, self.hierarchy)
        #: how label rows are ordered on disk: "identity" (classic core-id
        #: ranges) or "hierarchy" (DFS subtree ranges)
        self.vertex_order: str = manifest["vertex_order"]
        if self.vertex_order == "hierarchy":
            # storage position of each core vertex; the base archive of a
            # hierarchy layout persists the DFS walk, so these are exactly
            # the positions the labels were reordered by at save time
            self._position: Optional[np.ndarray] = np.asarray(
                self.hierarchy.subtree_ranges(), dtype=np.int64
            )
        else:
            self._position = None
        #: shard edge sequence over storage positions ([0, b1, ..., m])
        self._edges = np.asarray(manifest["boundaries"], dtype=np.int64)
        self._shards = shards

    # ------------------------------------------------------------------ #
    # shard management
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards in the layout."""
        return len(self._edges) - 1

    @property
    def generation(self) -> int:
        """Generation of the layout this router is currently serving."""
        return self.manifest["generation"]

    def reload_generation(self) -> int:
        """Hot-swap onto the generation currently on disk; returns it.

        Reads the new manifest and base components and maps every new
        shard *outside* the router lock (the slow part), then drains
        in-flight batches off the old mmaps and flips every
        generation-dependent field - graph, contraction, hierarchy,
        resolver, boundaries, shard table - atomically behind the lock.
        Queries arriving during the flip queue behind it instead of
        erroring; the old shard mappings are closed only after the swap,
        so the drained batches finished on a consistent snapshot.
        Concurrent reloads serialise; a reload that lost the race to a
        newer generation is a no-op.
        """
        components, manifest, _ = load_sharded_components(self.path)
        shards = self._map_shards(manifest)
        with self._swap:
            while self._reloading:
                self._swap.wait()
            closed = self._closed
            if closed or manifest["generation"] < self.generation:
                unused = shards  # closed, or raced with a newer reload
            else:
                self._reloading = True
                try:
                    while self._active > 0:  # drain in-flight batches
                        self._swap.wait()
                    unused = self._shards
                    self._adopt(components, manifest, shards)
                    self.stats.reloads += 1
                finally:
                    self._reloading = False
                    self._swap.notify_all()
        for shard in unused:
            shard.close()
        if closed:
            raise RuntimeError(f"ShardRouter over {self.path} is closed")
        return self.generation

    def _begin_query(self) -> None:
        with self._swap:
            while self._reloading:
                self._swap.wait()
            if self._closed:
                raise RuntimeError(f"ShardRouter over {self.path} is closed")
            self._active += 1

    def _end_query(self) -> None:
        with self._swap:
            self._active -= 1
            if self._active == 0:
                self._swap.notify_all()

    def close(self) -> None:
        """Release every mapped shard, closing mmap handles deterministically.

        Fleet workers recycle routers on restart; waiting for GC to drop
        the last reference keeps label files mapped (and on some platforms
        their descriptors open) for an unbounded time.  Batches already in
        flight finish first; after ``close`` the router raises
        ``RuntimeError`` on any further query.
        """
        with self._swap:
            if self._closed:
                return
            self._closed = True
            while self._active > 0:  # drain in-flight batches
                self._swap.wait()
            shards, self._shards = self._shards, []
        for shard in shards:
            shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def positions_of(self, core_vertices: np.ndarray) -> np.ndarray:
        """Storage position of each core vertex (identity unless the layout
        stores labels in hierarchy DFS order)."""
        if self._position is None:
            return core_vertices
        return self._position[core_vertices]

    def _shards_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Shard id owning each storage position (single home of the
        ``side='right'`` boundary convention)."""
        return np.searchsorted(self._edges, positions, side="right") - 1

    def shard_of(self, core_vertices: np.ndarray) -> np.ndarray:
        """Shard id owning each core vertex (vectorised range lookup)."""
        return self._shards_of_positions(self.positions_of(core_vertices))

    # ------------------------------------------------------------------ #
    # protocol metadata
    # ------------------------------------------------------------------ #
    @property
    def supports_batch(self) -> bool:
        """The fan-out performs the engine's vectorised min-plus per shard."""
        return True

    @property
    def index_size_bytes(self) -> int:
        """Total label bytes across shards plus contracted-vertex records.

        Computed from the manifest's per-shard sizes, so it matches the
        monolithic index without loading a single shard.
        """
        total = 0
        for shard in self.manifest["shards"]:
            total += (
                int(shard["num_entries"]) * 8
                + 2 * int(shard["num_levels"])
                + 8 * int(shard["num_vertices"])
            )
        return total + self.contraction.num_contracted * 16

    def label_size_bytes(self) -> int:
        """Alias for :attr:`index_size_bytes` (harness compatibility)."""
        return self.index_size_bytes

    # ------------------------------------------------------------------ #
    # scalar path
    # ------------------------------------------------------------------ #
    def distance(self, s: int, t: int) -> float:
        """Exact distance between ``s`` and ``t`` (original ids)."""
        self._begin_query()
        try:
            n = self.contraction.num_original
            check_vertex(s, n, "s")
            check_vertex(t, n, "t")
            resolved, core_s, core_t, offset = self.contraction.resolve_query(s, t)
            if resolved is not None:
                return resolved
            return offset + self._core_scalar(core_s, core_t)[0]
        finally:
            self._end_query()

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus the number of label entries inspected."""
        self._begin_query()
        try:
            n = self.contraction.num_original
            check_vertex(s, n, "s")
            check_vertex(t, n, "t")
            resolved, core_s, core_t, offset = self.contraction.resolve_query(s, t)
            if resolved is not None:
                return resolved, 0
            value, hubs = self._core_scalar(core_s, core_t)
            return offset + value, hubs
        finally:
            self._end_query()

    def _core_scalar(self, core_s: int, core_t: int) -> Tuple[float, int]:
        """Min-plus over the (possibly distinct) shards of two core vertices.

        Returns ``(distance, shared prefix length)`` like the engine's
        scalar scan, bit for bit: the same float64 sums, and their minimum
        does not depend on the order they are compared in.
        """
        depth = self.hierarchy.lca_depth(core_s, core_t)
        view_s = self._level_view(core_s, depth)
        view_t = self._level_view(core_t, depth)
        length = min(len(view_s), len(view_t))
        if length == 0:
            return INF, 0
        return float((view_s[:length] + view_t[:length]).min()), length

    def _level_view(self, core_vertex: int, depth: int) -> np.ndarray:
        position = self.positions_of(np.asarray([core_vertex], dtype=np.int64))
        shard_id = int(self._shards_of_positions(position)[0])
        local = int(position[0]) - int(self._edges[shard_id])
        return self._shards[shard_id].level_view(local, depth)

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #
    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Exact distances for a batch of ``(s, t)`` pairs, fanned out by
        the shard owning each source vertex and re-assembled in input
        order; bit-identical to the monolithic engine.
        """
        self._begin_query()
        try:
            pair_array = as_pair_array(pairs)
            if pair_array.size == 0:
                return np.empty(0, dtype=np.float64)
            s = np.ascontiguousarray(pair_array[:, 0])
            t = np.ascontiguousarray(pair_array[:, 1])
            self.resolver.validate_vertices(s, t)
            out, core_mask, cs, ct, offsets = self.resolver.resolve(s, t)
            with self._lock:
                self.stats.batches += 1
            if core_mask.any():
                out[core_mask] = offsets + self._core_distances(cs, ct)
            return out
        finally:
            self._end_query()

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex of ``targets`` (one source
        shard, targets gathered per shard).

        Overrides the mixin only to range-check the source up front (like
        the engine does), even when ``targets`` is empty.
        """
        if isinstance(s, np.integer):
            s = int(s)
        check_vertex(s, self.contraction.num_original, "s")
        return self.distances(pairs_from_source(s, targets))

    # many_to_many: inherited from BatchMixin, which builds the pair grid
    # and evaluates it through the routed ``distances`` above.

    # ------------------------------------------------------------------ #
    def _core_distances(self, cs: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """Route core pairs to per-source-shard fan-out calls."""
        result = np.full(len(cs), INF, dtype=np.float64)
        equal = cs == ct
        result[equal] = 0.0
        work = ~equal
        if not work.any():
            with self._lock:
                self.stats.core_pairs += len(cs)
            return result

        depth = self.resolver.lca_depths(cs, ct)
        # all storage arithmetic below runs on positions (== core ids for
        # the identity layout); the LCA above always uses core ids
        ps = self.positions_of(cs)
        pt = self.positions_of(ct)
        source_shard = self._shards_of_positions(ps)
        target_shard = self._shards_of_positions(pt)
        fanout_calls = 0
        pairs_per_shard: Dict[int, int] = {}
        for shard_id in np.unique(source_shard[work]).tolist():
            mask = work & (source_shard == shard_id)
            result[mask] = self._fanout(
                int(shard_id), ps[mask], pt[mask], target_shard[mask], depth[mask]
            )
            fanout_calls += 1
            pairs_per_shard[int(shard_id)] = int(mask.sum())
        with self._lock:
            stats = self.stats
            stats.core_pairs += len(cs)
            stats.cross_shard_pairs += int((source_shard[work] != target_shard[work]).sum())
            stats.fanout_calls += fanout_calls
            for shard_id, count in pairs_per_shard.items():
                stats.pairs_per_shard[shard_id] = (
                    stats.pairs_per_shard.get(shard_id, 0) + count
                )
        return result

    def _fanout(
        self,
        source_shard_id: int,
        ps: np.ndarray,
        pt: np.ndarray,
        target_shard: np.ndarray,
        depth: np.ndarray,
    ) -> np.ndarray:
        """One vectorised min-plus call for the pairs of one source shard.

        ``ps`` / ``pt`` are storage positions (core ids under the identity
        layout, DFS positions under the hierarchy layout).  The source
        side gathers from a single shard buffer; the target side is
        gathered per target shard (cross-shard pairs are the point of the
        router).  Performs exactly the engine's grouped gather +
        ``minimum.reduceat``, so results are bit-identical.
        """
        source = self._shards[source_shard_id]
        k_s = source.vertex_indptr[ps - self._edges[source_shard_id]] + depth
        start_s = source.level_indptr[k_s]
        len_s = source.level_indptr[k_s + 1] - start_s

        start_t = np.empty(len(pt), dtype=np.int64)
        len_t = np.empty(len(pt), dtype=np.int64)
        for shard_id in np.unique(target_shard).tolist():
            shard = self._shards[int(shard_id)]
            mask = target_shard == shard_id
            k_t = shard.vertex_indptr[pt[mask] - self._edges[shard_id]] + depth[mask]
            start_t[mask] = shard.level_indptr[k_t]
            len_t[mask] = shard.level_indptr[k_t + 1] - start_t[mask]

        lengths = np.minimum(len_s, len_t)
        result = np.full(len(ps), INF, dtype=np.float64)
        total = int(lengths.sum())
        if total == 0:
            return result

        group_starts = np.cumsum(lengths) - lengths
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, lengths)
        source_values = source.values[np.repeat(start_s, lengths) + within]
        idx_t = np.repeat(start_t, lengths) + within
        target_values = np.empty(total, dtype=np.float64)
        element_shard = np.repeat(target_shard, lengths)
        for shard_id in np.unique(target_shard).tolist():
            selection = element_shard == shard_id
            if selection.any():
                target_values[selection] = self._shards[int(shard_id)].values[idx_t[selection]]
        sums = source_values + target_values

        nonempty = lengths > 0
        result[nonempty] = np.minimum.reduceat(sums, group_starts[nonempty])
        return result

    def __repr__(self) -> str:
        return f"ShardRouter(path={str(self.path)!r}, num_shards={self.num_shards})"

"""Pluggable shortest-path backends for HC2L construction.

Construction cost is dominated by single-source searches: one
pruneability-tracking search per cut vertex for the ranking pass
(Equation 6) and again for the labelling pass (Algorithm 5), plus one
plain search per border vertex for the shortcut computation
(Algorithm 3).  The original implementation runs all of them through the
interpreted binary-heap Dijkstra of :mod:`repro.core.pruned_dijkstra` /
:meth:`~repro.core.flat.FlatWorkingGraph.dijkstra`.

:class:`ShortestPathBackend` is the seam between those passes and the
search implementation.  Three backends ship:

``heap``
    The existing pure-Python binary-heap searches, unchanged.  Always
    available; the reference for bit-identical comparisons.

``dial``
    Opt-in only (never picked by ``auto`` or by ``csr``'s delegation):
    heap-free monotone bucket-queue (Dial) searches for snapshots whose
    weights are integers after an exact power-of-two scaling.  Because
    float64 addition of such dyadic weights is exact while sums stay
    under ``2**53``, the bucket distances reproduce the heap Dijkstra's
    float sums *bit-identically*; non-eligible snapshots fall back to
    the ``csr`` searches.  Algorithm 4 pruneability flags are recovered
    by the same shortest-path-DAG pass the ``csr`` backend uses.  Each
    search allocates a ring of up to ``max_scaled_weight + 1`` buckets,
    which dwarfs the few dozen vertices of a typical recursion node: on
    the 3.2k integer bench graph a ``dial`` build is about 3x slower than
    a ``heap`` one.

``csr``
    Heap-free searches over the CSR snapshot: distances come from one
    *batched* ``scipy.sparse.csgraph.dijkstra`` call per node (all cut /
    border sources at once, C speed), and the pruneability flags are
    recovered from the finished distance arrays by reachability in the
    shortest-path DAG.  Snapshots of at least
    ``_BATCHED_FLAGS_MIN_VERTICES`` vertices get every cut vertex's flags
    from one scipy breadth-first search over the stacked per-root DAGs
    (:func:`~repro.core.pruned_dijkstra.prune_flags_batch`, distance rows
    kept as arrays); smaller ones run the per-root worklist of
    :func:`~repro.core.pruned_dijkstra.prune_flags_from_distances`.
    Because the ranking and labelling passes search from the same cut
    vertices, the per-source distance rows are cached on the node's
    :class:`~repro.core.flat.FlatWorkingGraph` snapshot as float64 arrays,
    halving the distance work per node; every caller gets its rows as
    one ``(sources x snapshot)`` array, never as lists.  Both Dijkstra variants perform the same
    ``dist[u] + w`` float64 relaxations, so distances - and therefore
    labels - are bit-identical to the heap backend (asserted by the
    backend-equivalence tests).

Tiny subgraphs (the bulk of the recursion's nodes by count, not by cost)
are delegated to the heap searches even under ``csr``: below a few
dozen vertices the per-call overhead of building a scipy matrix
outweighs the scalar loops.  Since all backends produce identical
results, mixing is safe.

A ``csr`` build does not search its small snapshots through this
interface at all: :func:`repro.core.flat_build.build_subtree` stacks the
snapshots of a hierarchy level into one block-diagonal graph and
searches them together with :func:`distance_rounds`, one ``min_only``
scipy call per round with one source per block, which leaves every
block's row equal to its single-source row.  The backend methods serve
the large snapshots, the balanced cuts' seed searches, and relabels.

``resolve_backend`` maps the ``"auto"`` / ``"heap"`` / ``"csr"`` /
``"dial"`` names used by :class:`~repro.core.index.HC2LParameters` and
the CLI's ``repro build --backend`` to backend instances; ``auto`` picks
``csr``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.core.flat import FlatWorkingGraph
from repro.core.pruned_dijkstra import (
    dist_and_prune_dense,
    has_zero_weight,
    prune_flags_batch,
    prune_flags_from_distances,
)

INF = float("inf")

#: Snapshots of at least this many vertices get their pruneability flags
#: from one batched pass over all roots (:func:`prune_flags_batch`);
#: smaller ones run the per-root worklist, whose fixed cost is lower.
#: ``benchmarks/bench_prune_flags.py`` records the crossover: on the
#: perfbench graphs the two tie at 128-255 vertices and the batched pass
#: is ahead from 256 up.
_BATCHED_FLAGS_MIN_VERTICES = 256

BACKEND_NAMES = ("auto", "heap", "csr", "dial")


class ShortestPathBackend:
    """Interface of a construction-side shortest-path implementation.

    All vertex ids are dense local ids of the ``flat`` snapshot; distance
    rows cover every vertex of the snapshot with ``inf`` for unreached
    ones.  Implementations must return distances bit-identical to the
    heap Dijkstra (same float64 relaxations), which makes backends freely
    interchangeable mid-build.
    """

    name: str = "abstract"

    def sssp_many(
        self, flat: FlatWorkingGraph, sources: Sequence[int]
    ) -> Sequence[Sequence[float]]:
        """Single-source distance rows for a batch of sources.

        Rows come as lists or, from array-native backends, as one
        ``(sources x snapshot)`` float64 array; callers read them through
        ``np.asarray``.
        """
        raise NotImplementedError

    def sssp_array(self, flat: FlatWorkingGraph, source: int) -> np.ndarray:
        """One distance row as a float64 numpy array.

        Convenience for numpy-side callers (the partition layer's seed
        searches do arithmetic on whole rows); same values as
        ``sssp_many`` bit for bit, implementations merely skip a
        list round-trip when they already hold the row as an array.
        """
        return np.asarray(self.sssp_many(flat, [source])[0], dtype=np.float64)

    def components_masked(
        self, flat: FlatWorkingGraph, keep: np.ndarray
    ) -> List[List[int]]:
        """Connected components of the snapshot restricted to ``keep``.

        ``keep`` is a boolean mask over dense ids; the result is in the
        same canonical form as :meth:`components` (sorted members,
        components ordered by smallest member).  The default walks the
        parent CSR lists directly, skipping excluded vertices - no
        induced snapshot; array-native backends override it with a
        vectorised carve for large leftovers.
        """
        return _components_python_masked(flat, keep)

    def components(self, flat: FlatWorkingGraph) -> List[List[int]]:
        """Connected components of a snapshot, in canonical form.

        Each component is a sorted list of *original* vertex ids and the
        components are ordered by their smallest member, so every backend
        hands the partition layer the same tie-breaks.
        """
        return _components_python(flat)

    def dist_and_prune_many(
        self,
        flat: FlatWorkingGraph,
        roots: Sequence[int],
        prune_sets: Sequence[Sequence[int]],
    ) -> Tuple[Sequence[Sequence[float]], Sequence[Sequence[bool]]]:
        """Distances + Algorithm 4 pruneability flags for a batch of roots.

        ``prune_sets[i]`` is the prune set of ``roots[i]`` (the ranking
        pass prunes against every other cut vertex, the labelling pass
        against the earlier-ranked prefix).
        """
        raise NotImplementedError


class HeapBackend(ShortestPathBackend):
    """The pure-Python binary-heap searches (always available)."""

    name = "heap"

    def sssp_many(self, flat: FlatWorkingGraph, sources: Sequence[int]) -> List[Sequence[float]]:
        return [flat.dijkstra(source) for source in sources]

    def dist_and_prune_many(
        self,
        flat: FlatWorkingGraph,
        roots: Sequence[int],
        prune_sets: Sequence[Sequence[int]],
    ) -> Tuple[Sequence[Sequence[float]], Sequence[Sequence[bool]]]:
        dists: List[Sequence[float]] = []
        prunes: List[Sequence[bool]] = []
        for root, prune_ids in zip(roots, prune_sets):
            d, p = dist_and_prune_dense(flat, root, prune_ids)
            dists.append(d)
            prunes.append(p)
        return dists, prunes


class DialBackend(ShortestPathBackend):
    """Monotone bucket-queue (Dial) searches for integer-scalable weights.

    A snapshot is *eligible* when every edge weight is strictly positive,
    finite, and an integer after multiplication by a single power of two
    ``2**exp`` (``exp <= max_scale_exp``) with the scaled weights bounded
    by ``max_scaled_weight``.  Dyadic weights make every float64 addition
    the heap Dijkstra performs exact (each partial sum is an integer
    multiple of ``2**-exp`` below ``2**53``), so integer bucket distances
    converted back through ``math.ldexp`` equal the heap's float
    distances **bit for bit** - asserted by the differential fuzz and
    partition-backend suites.

    Non-eligible snapshots (and snapshots above ``max_vertices``, where
    the batched C-speed scipy searches win regardless of weight shape)
    run on the fallback backend, ``csr`` unless another is injected; the
    distances are bit-identical anyway.  Algorithm 4
    pruneability flags go through the same size dispatch
    (``_prune_flags``) the ``csr`` backend uses, so no flag logic is
    duplicated.

    The eligibility verdict (and the scaled integer weights) is cached on
    the snapshot under :data:`_SCALE_CACHE`; the builder touches each
    node's snapshot many times, the detection sweep runs once.

    Only an explicit ``backend="dial"`` selects this class: ``auto``
    resolves to ``csr``, and ``csr`` delegates its tiny snapshots to the
    heap.
    """

    name = "dial"

    _SCALE_CACHE = "dial_scale"

    def __init__(
        self,
        fallback: Optional[ShortestPathBackend] = None,
        max_scaled_weight: int = 4096,
        max_scale_exp: int = 20,
        max_vertices: int = 4096,
    ) -> None:
        self.max_scaled_weight = max_scaled_weight
        self.max_scale_exp = max_scale_exp
        self.max_vertices = max_vertices
        self._fallback = fallback

    @property
    def fallback(self) -> ShortestPathBackend:
        """Backend for non-eligible snapshots (lazy to avoid ctor cycles)."""
        if self._fallback is None:
            self._fallback = CSRBackend()
        return self._fallback

    # ------------------------------------------------------------------ #
    def sssp_many(
        self, flat: FlatWorkingGraph, sources: Sequence[int]
    ) -> Sequence[Sequence[float]]:
        scale = self._scale(flat)
        if scale is None:
            return self.fallback.sssp_many(flat, sources)
        return [self._sssp(flat, scale, int(source)) for source in sources]

    def dist_and_prune_many(
        self,
        flat: FlatWorkingGraph,
        roots: Sequence[int],
        prune_sets: Sequence[Sequence[int]],
    ) -> Tuple[Sequence[Sequence[float]], Sequence[Sequence[bool]]]:
        scale = self._scale(flat)
        if scale is None:
            return self.fallback.dist_and_prune_many(flat, roots, prune_sets)
        dists = [self._sssp(flat, scale, int(root)) for root in roots]
        # eligibility guarantees strictly positive weights, so the
        # distance-derived flag passes apply
        return dists, _prune_flags(flat, roots, prune_sets, dists)

    # ------------------------------------------------------------------ #
    def _scale(self, flat: FlatWorkingGraph) -> Optional[Tuple[int, int, List[int]]]:
        """``(exp, max_scaled_weight, scaled_int_weights)`` or ``None``."""
        if self._SCALE_CACHE in flat.cache:
            return flat.cache[self._SCALE_CACHE]
        result: Optional[Tuple[int, int, List[int]]] = None
        n = len(flat.vertices)
        if 0 < n <= self.max_vertices:
            _, _, weights = flat.csr_arrays()
            if weights.size == 0:
                result = (0, 0, [])
            elif float(weights.min()) > 0.0 and np.isfinite(weights.max()):
                for exp in range(self.max_scale_exp + 1):
                    scaled = np.ldexp(weights, exp)
                    if float(scaled.max()) > self.max_scaled_weight:
                        break
                    if np.array_equal(scaled, np.floor(scaled)):
                        longest = (n - 1) * int(scaled.max())
                        if longest < (1 << 52):  # every float sum exact
                            result = (exp, int(scaled.max()), scaled.astype(np.int64).tolist())
                        break
        flat.cache[self._SCALE_CACHE] = result
        return result

    def _sssp(
        self, flat: FlatWorkingGraph, scale: Tuple[int, int, List[int]], source: int
    ) -> List[float]:
        """One Dial search; returns the float distance row (heap-identical)."""
        exp, bound, int_weights = scale
        indptr = flat.indptr
        indices = flat.indices
        n = len(flat.vertices)
        big = 1 << 62
        dist = [big] * n
        # ring of bound + 1 buckets: a tentative distance never exceeds
        # the current settled distance by more than the largest weight,
        # so slots can be reused modulo the ring size (Dial's invariant)
        size = bound + 1
        ring: List[List[int]] = [[] for _ in range(size)]
        dist[source] = 0
        ring[0].append(source)
        pending = 1
        d = 0
        while pending:
            bucket = ring[d % size]
            while bucket:
                v = bucket.pop()
                pending -= 1
                if dist[v] != d:
                    continue  # superseded by a shorter entry
                for i in range(indptr[v], indptr[v + 1]):
                    w = indices[i]
                    nd = d + int_weights[i]
                    if nd < dist[w]:
                        dist[w] = nd
                        ring[nd % size].append(w)
                        pending += 1
            d += 1
        inf = INF
        # ldexp is exact, so scaled-integer distances map onto the very
        # float64 values the heap Dijkstra accumulated
        return [math.ldexp(x, -exp) if x < big else inf for x in dist]


class CSRBackend(ShortestPathBackend):
    """Heap-free searches over the CSR snapshot (scipy csgraph).

    Parameters
    ----------
    min_vertices:
        Snapshots smaller than this (and snapshots with a zero-weight
        edge) are delegated to the heap backend - the fixed per-call cost
        of assembling a scipy matrix dominates on the recursion's many
        tiny leaf nodes.  Results are identical either way.
    """

    name = "csr"

    _ARRAY_CACHE = "csr_dist_arrays"
    _MATRIX_CACHE = "csr_matrix"

    def __init__(
        self,
        min_vertices: int = 32,
        components_min_vertices: int = 64,
        masked_min_vertices: int = 1024,
    ) -> None:
        self.min_vertices = min_vertices
        # below this, one O(E) python BFS beats the sparse-constructor
        # cost of the scipy scan; above it the weighted matrix is built
        # eagerly and cached for the seed searches - see components()
        self.components_min_vertices = components_min_vertices
        # components_masked carves a fresh (never reused) matrix, so its
        # python-walk crossover sits much higher than components()'s
        self.masked_min_vertices = masked_min_vertices
        self._heap = HeapBackend()

    # ------------------------------------------------------------------ #
    def sssp_many(
        self, flat: FlatWorkingGraph, sources: Sequence[int]
    ) -> Sequence[Sequence[float]]:
        if self._delegate(flat):
            return self._heap.sssp_many(flat, sources)
        return self._distance_block(flat, sources)

    def sssp_array(self, flat: FlatWorkingGraph, source: int) -> np.ndarray:
        if self._delegate(flat):
            return super().sssp_array(flat, source)
        source = int(source)
        cache: Dict[int, np.ndarray] = flat.cache.setdefault(self._ARRAY_CACHE, {})  # type: ignore[assignment]
        row = cache.get(source)
        if row is None:
            matrix = self._snapshot_matrix(flat)
            row = np.asarray(
                _scipy_dijkstra(matrix, directed=True, indices=[source]),
                dtype=np.float64,
            ).ravel()
            cache[source] = row
        return row

    def dist_and_prune_many(
        self,
        flat: FlatWorkingGraph,
        roots: Sequence[int],
        prune_sets: Sequence[Sequence[int]],
    ) -> Tuple[Sequence[Sequence[float]], Sequence[Sequence[bool]]]:
        if self._delegate(flat):
            return self._heap.dist_and_prune_many(flat, roots, prune_sets)
        dists = self._distance_block(flat, roots)
        return dists, _prune_flags(flat, roots, prune_sets, dists)

    def components(self, flat: FlatWorkingGraph) -> List[List[int]]:
        matrix = flat.cache.get(self._MATRIX_CACHE)
        if matrix is None:
            # delegated (tiny or zero-weight) snapshots never build a
            # matrix; just below that, one O(E) python walk still beats
            # the sparse-constructor cost even though the matrix would be
            # reused by the seed searches that follow
            if self._delegate(flat) or len(flat.vertices) < self.components_min_vertices:
                return _components_python(flat)
            # build (and cache) the weighted matrix the seed searches use:
            # weights play no role in connectivity, and sharing one matrix
            # means whichever of components()/seed SSSP runs first pays
            matrix = self._snapshot_matrix(flat)
        _, labels = _scipy_components(matrix, directed=False)
        return self._label_groups(flat.vertices, labels)

    def components_masked(
        self, flat: FlatWorkingGraph, keep: np.ndarray
    ) -> List[List[int]]:
        keep =np.asarray(keep, dtype=bool)
        sub_dense = np.nonzero(keep)[0]
        m = len(sub_dense)
        if m == 0:
            return []
        if m < self.masked_min_vertices:
            # the sparse constructor + C scan only amortise on large
            # leftovers; the masked python walk wins below (measured
            # crossover ~1k on the bench's region population)
            return _components_python_masked(flat, keep)
        # carve the kept subgraph straight out of the parent CSR arrays
        # (connectivity ignores weights, so int8 ones sidestep the
        # explicit-zero dropping that forces weighted matrices to the
        # python walk) - no induced snapshot, no dict rebuild
        indptr, indices, _ = flat.csr_arrays()
        n = len(flat.vertices)
        new_id = np.full(n, -1, dtype=np.int64)
        new_id[sub_dense] = np.arange(m, dtype=np.int64)
        tails = flat.tails()
        edge_keep = keep[tails] & keep[indices]
        new_tails = new_id[tails[edge_keep]]
        new_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_tails, minlength=m), out=new_indptr[1:])
        new_indices = new_id[indices[edge_keep]]
        matrix = _scipy_csr_matrix(
            (np.ones(len(new_indices), dtype=np.int8), new_indices, new_indptr),
            shape=(m, m),
        )
        _, labels = _scipy_components(matrix, directed=False)
        vertices = flat.vertices
        members = [vertices[i] for i in sub_dense.tolist()]
        return self._label_groups(members, labels)

    @staticmethod
    def _label_groups(vertices: Sequence[int], labels: np.ndarray) -> List[List[int]]:
        """Scipy component labels -> the canonical grouped form."""
        order = np.argsort(labels, kind="stable")  # ascending ids per label
        boundaries = np.nonzero(np.diff(labels[order]))[0] + 1
        groups = [
            [vertices[i] for i in block.tolist()]
            for block in np.split(order, boundaries)
        ]
        # canonical: each group is already sorted (stable sort over
        # ascending ids); order groups by their smallest member
        groups.sort(key=lambda component: component[0])
        return groups

    # ------------------------------------------------------------------ #
    def _delegate(self, flat: FlatWorkingGraph) -> bool:
        """Whether this snapshot should run on the scalar searches instead."""
        if len(flat.vertices) < self.min_vertices:
            return True
        # scipy's sparse matrices treat explicit zeros as missing edges;
        # zero-weight edges are legal in Graph, so route them to the
        # heap searches
        return has_zero_weight(flat)

    def _snapshot_matrix(self, flat: FlatWorkingGraph):
        """The snapshot's weighted scipy CSR matrix, cached on the snapshot."""
        matrix = flat.cache.get(self._MATRIX_CACHE)
        if matrix is None:
            indptr, indices, weights = flat.csr_arrays()
            n = len(flat.vertices)
            matrix = _scipy_csr_matrix((weights, indices, indptr), shape=(n, n))
            flat.cache[self._MATRIX_CACHE] = matrix
        return matrix

    def _distance_block(self, flat: FlatWorkingGraph, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(k, n)`` float64 array.

        Rows live in the snapshot's array cache (shared with
        :meth:`sssp_array`), so the ranking and labelling passes search
        once per cut vertex.
        """
        cache: Dict[int, np.ndarray] = flat.cache.setdefault(self._ARRAY_CACHE, {})  # type: ignore[assignment]
        missing = sorted({int(s) for s in sources if s not in cache})
        if missing:
            matrix = self._snapshot_matrix(flat)
            # the snapshot already stores both directions of every
            # undirected edge, so treat it as a (symmetric) digraph
            block = _scipy_dijkstra(matrix, directed=True, indices=missing)
            for source, row in zip(missing, np.atleast_2d(block)):
                cache[source] = row
        return np.array([cache[int(s)] for s in sources], dtype=np.float64).reshape(
            len(sources), len(flat.vertices)
        )


def distance_rounds(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    rounds: Sequence[np.ndarray],
) -> np.ndarray:
    """Distance rows over a graph of disconnected blocks, one row per round.

    ``rounds[r]`` holds at most one source per block; row ``r`` of the
    ``(rounds x vertices)`` float64 result is one
    ``scipy.sparse.csgraph.dijkstra(..., min_only=True)`` call from all of
    them.  No block reaches another, so each block's stretch of the row
    is its own source's single-source row, bit for bit: every distance is
    the minimum over in-arcs of ``d[u] + w``, whatever order the search
    settles vertices in (``inf`` in blocks with no source that round).
    The stacked label and shortcut passes of
    :mod:`repro.core.flat_build` search many small snapshots this way,
    one scipy call per round instead of one per snapshot.  Weights must
    be strictly positive (scipy drops explicit zeros).
    """
    n = len(indptr) - 1
    block = np.empty((len(rounds), n), dtype=np.float64)
    if len(rounds):
        matrix = _scipy_csr_matrix((weights, indices, indptr), shape=(n, n))
        for r, sources in enumerate(rounds):
            block[r] = _scipy_dijkstra(matrix, directed=True, indices=sources, min_only=True)
    return block


def _prune_flags(
    flat: FlatWorkingGraph,
    roots: Sequence[int],
    prune_sets: Sequence[Sequence[int]],
    dists: Sequence[Sequence[float]],
) -> Sequence[Sequence[bool]]:
    """Algorithm 4 flags from finished distance rows, ``dists[i]`` from ``roots[i]``.

    The one flag dispatch of the distance-first backends (``csr`` and
    ``dial``): large snapshots run :func:`prune_flags_batch` over all
    roots at once, small ones the per-root worklist.  Both compute the
    same shortest-path-DAG reachability, so the flags are identical.
    """
    if len(flat.vertices) >= _BATCHED_FLAGS_MIN_VERTICES:
        return prune_flags_batch(flat, roots, prune_sets, np.asarray(dists, dtype=np.float64))
    return [
        prune_flags_from_distances(flat, root, prune_ids, dist)
        for root, prune_ids, dist in zip(roots, prune_sets, dists)
    ]


def _components_python_masked(
    flat: FlatWorkingGraph, keep: np.ndarray
) -> List[List[int]]:
    """Masked reference component walk over the parent CSR lists.

    Same canonical output as ``_components_python`` over the induced
    subgraph, computed without building it: excluded vertices are simply
    never visited.
    """
    indptr, indices = flat.indptr, flat.indices
    vertices = flat.vertices
    open_ = np.asarray(keep, dtype=bool).tolist()
    n = len(vertices)
    components: List[List[int]] = []
    for start in range(n):  # ascending dense id == ascending original id
        if not open_[start]:
            continue
        open_[start] = False
        stack = [start]
        component = [start]
        while stack:
            v = stack.pop()
            for i in range(indptr[v], indptr[v + 1]):
                w = indices[i]
                if open_[w]:
                    open_[w] = False
                    component.append(w)
                    stack.append(w)
        component.sort()
        components.append([vertices[i] for i in component])
    return components


def _components_python(flat: FlatWorkingGraph) -> List[List[int]]:
    """Reference connected components over the CSR lists (canonical form)."""
    indptr, indices = flat.indptr, flat.indices
    vertices = flat.vertices
    n = len(vertices)
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):  # ascending dense id == ascending original id
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        component = [start]
        while stack:
            v = stack.pop()
            for i in range(indptr[v], indptr[v + 1]):
                w = indices[i]
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    stack.append(w)
        component.sort()
        components.append([vertices[i] for i in component])
    return components


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_INSTANCES: Dict[str, ShortestPathBackend] = {}

BackendSpec = Union[str, ShortestPathBackend, None]


_BACKEND_FACTORIES = {
    "heap": HeapBackend,
    "csr": CSRBackend,
    "dial": DialBackend,
}


def resolve_backend(spec: BackendSpec = "auto") -> ShortestPathBackend:
    """Map a backend name (or instance, or ``None``) to a backend instance.

    ``"auto"`` (and ``None``) pick ``csr``; ``"dial"`` is only ever an
    explicit choice.
    Instances pass through untouched, so callers can inject a tuned
    :class:`CSRBackend` directly.  Anything that is not a name, an
    instance, or ``None`` raises a :class:`TypeError` - a boolean or a
    number is always a caller bug, not a backend choice.
    """
    if isinstance(spec, ShortestPathBackend):
        return spec
    name = check_backend_name("auto" if spec is None else spec)
    if name == "auto":
        name = "csr"
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _BACKEND_FACTORIES[name]()
        _INSTANCES[name] = instance
    return instance


def check_backend_name(name: str) -> str:
    """Validate a backend name without instantiating it (parameter checks).

    Non-string specs (``True``, ``0``, a class, ...) raise a
    :class:`TypeError` naming the offending type instead of falling
    through to the generic unknown-name message.
    """
    if not isinstance(name, str):
        raise TypeError(
            f"shortest-path backend spec must be a string backend name, "
            f"got {type(name).__name__}: {name!r}"
        )
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown shortest-path backend {name!r}; expected one of {BACKEND_NAMES}")
    return name

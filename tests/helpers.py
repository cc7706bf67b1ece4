"""Shared helper functions for the test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as pytest collects more
than one directory containing a ``conftest.py`` (the ``benchmarks/``
conftest shadows this one on ``sys.path``).  Plain helpers therefore live
in this explicitly importable module; only fixtures stay in the conftest.
"""

from __future__ import annotations

import json
import random
from typing import List, Tuple

import numpy as np

import repro.core.backends as backends
from oracles import dinitz_vertex_cut_region, ek_vertex_cut_region, prune_flags_from_distances
from repro.core.flat import FlatLabelling
from repro.flow.vertex_cut import MinVertexCutResult, minimum_vertex_cut_regions
from repro.graph.graph import Graph
from repro.graph.search import dijkstra

INF = float("inf")


class ExactOracle:
    """Caches full Dijkstra distance arrays for exact comparisons."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._cache: dict[int, list[float]] = {}

    def distance(self, s: int, t: int) -> float:
        if s not in self._cache:
            self._cache[s] = dijkstra(self.graph, s)
        return self._cache[s][t]


def assert_distance_equal(expected: float, actual: float, rel: float = 1e-6) -> None:
    """Distances match up to floating-point path-recombination noise."""
    if expected == INF or actual == INF:
        assert expected == actual, f"expected {expected}, got {actual}"
        return
    assert abs(expected - actual) <= rel * max(1.0, abs(expected)), (
        f"expected {expected}, got {actual}"
    )


def random_query_pairs(graph: Graph, count: int, seed: int = 0) -> List[Tuple[int, int]]:
    """Deterministic random query pairs (self-pairs allowed)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


#: Every reference max-flow solver of ``oracles.py``, by route name; the
#: production scipy solve is held against each of them.
FLOW_ROUTES = {
    "dinitz": dinitz_vertex_cut_region,
    "edmonds-karp": ek_vertex_cut_region,
}


def force_flow_route(monkeypatch, route: str) -> None:
    """Send every balanced cut's max-flow - per node and stacked - to one
    :data:`FLOW_ROUTES` oracle instead of scipy.

    The oracle stands in for
    :func:`repro.flow.vertex_cut.minimum_vertex_cut_regions`: the same
    arguments and masks, from one oracle solve over the union of the
    regions.
    """
    import repro.core.flat_build as flat_build
    import repro.flow.vertex_cut as vertex_cut

    solve = FLOW_ROUTES[route]

    def cut_regions(num_vertices, tails, heads, attach_s, attach_t):
        result = solve(list(range(num_vertices)), tails, heads, attach_s, attach_t)
        near_source = np.zeros(num_vertices, dtype=bool)
        near_source[result.cut_closest_to_source] = True
        near_sink = np.zeros(num_vertices, dtype=bool)
        near_sink[result.cut_closest_to_sink] = True
        return near_source, near_sink

    monkeypatch.setattr(vertex_cut, "minimum_vertex_cut_regions", cut_regions)
    monkeypatch.setattr(flat_build, "minimum_vertex_cut_regions", cut_regions)


def solve_stacked(regions):
    """Each region's cuts from one production multi-region solve.

    ``regions`` lists ``minimum_vertex_cut_region`` argument tuples
    (``vertices, tails, heads, attach_s, attach_t``); they are stacked
    side by side into one :func:`repro.flow.vertex_cut.minimum_vertex_cut_regions`
    call, and its masks are split back into one ``MinVertexCutResult``
    per region.
    """
    sizes = [len(vertices) for vertices, *_ in regions]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    def shifted(position):
        return np.concatenate([
            np.asarray(region[position], dtype=np.int64) + base
            for region, base in zip(regions, offsets)
        ])

    near_source, near_sink = minimum_vertex_cut_regions(
        int(offsets[-1]), shifted(1), shifted(2), shifted(3), shifted(4)
    )
    results = []
    for (vertices, *_), lo, hi in zip(regions, offsets[:-1], offsets[1:]):
        source_cut = sorted(vertices[i] for i in np.flatnonzero(near_source[lo:hi]).tolist())
        sink_cut = sorted(vertices[i] for i in np.flatnonzero(near_sink[lo:hi]).tolist())
        results.append(MinVertexCutResult(len(source_cut), source_cut, sink_cut))
    return results


def _worklist_flags(flat, roots, prune_sets, dists):
    """The flags of every root from :func:`oracles.prune_flags_from_distances`."""
    return [
        prune_flags_from_distances(flat, root, prune_ids, dist)
        for root, prune_ids, dist in zip(roots, prune_sets, dists)
    ]


#: Every prune-flag route of the distance-first backends, as the function
#: they call for their flags: the production batched pass, and the
#: per-root worklist of ``oracles.py``.
PRUNE_ROUTES = {
    "batched": backends._prune_flags,
    "worklist": _worklist_flags,
}


def force_prune_route(monkeypatch, route: str) -> None:
    """Send every csr/dial flag pass to one :data:`PRUNE_ROUTES` entry."""
    monkeypatch.setattr(backends, "_prune_flags", PRUNE_ROUTES[route])


#: Every production construction route for a small snapshot as the
#: snapshot-size threshold below which csr builds stack snapshots:
#: 10**9 builds every node in stacked rounds, 0 builds every node alone.
STACK_ROUTES = {
    "stacked": 10**9,
    "per-node": 0,
}


def force_stack_route(monkeypatch, route: str) -> None:
    """Pin ``build_subtree`` to one :data:`STACK_ROUTES` entry."""
    import repro.core.flat_build as flat_build

    monkeypatch.setattr(flat_build, "_STACKED_MAX_VERTICES", STACK_ROUTES[route])


def label_levels(flat: FlatLabelling) -> List[List[List[float]]]:
    """The labels as per-vertex level lists: ``[v][depth]`` is a list of floats.

    The inverse of :func:`oracles.fragment_from_levels`, read
    straight off the three buffers so tests can compare labels as lists.
    """
    values = flat.values.tolist()
    level_indptr = flat.level_indptr.tolist()
    vertex_indptr = flat.vertex_indptr.tolist()
    return [
        [
            values[level_indptr[k] : level_indptr[k + 1]]
            for k in range(vertex_indptr[v], vertex_indptr[v + 1])
        ]
        for v in range(flat.num_vertices)
    ]


def rewrite_archive(path, drop=(), edit_header=None) -> None:
    """Rewrite the ``.npz`` archive at ``path`` without the ``drop`` members,
    its JSON header passed through ``edit_header(header)`` when given."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files if name not in drop}
    if edit_header is not None:
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
        edit_header(header)
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8).copy()
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)

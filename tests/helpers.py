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

from repro.core.flat import FlatLabelling
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


#: Every production max-flow route of ``minimum_vertex_cut_region`` as its
#: region-size threshold: 0 sends every region to scipy, 10**9 sends every
#: region to the Edmonds-Karp loop.
FLOW_ROUTES = {
    "scipy": 0,
    "python-ek": 10**9,
}


def force_flow_route(monkeypatch, route: str) -> None:
    """Pin ``minimum_vertex_cut_region`` to one :data:`FLOW_ROUTES` entry."""
    import repro.flow.vertex_cut as vertex_cut

    monkeypatch.setattr(vertex_cut, "_MATRIX_SMALL_REGION", FLOW_ROUTES[route])


#: Every production prune-flag route of the distance-first backends as its
#: snapshot-size threshold: 0 sends every snapshot to the batched pass,
#: 10**9 sends every snapshot to the per-root worklist.
PRUNE_ROUTES = {
    "batched": 0,
    "worklist": 10**9,
}


def force_prune_route(monkeypatch, route: str) -> None:
    """Pin the csr/dial flag dispatch to one :data:`PRUNE_ROUTES` entry."""
    import repro.core.backends as backends

    monkeypatch.setattr(backends, "_BATCHED_FLAGS_MIN_VERTICES", PRUNE_ROUTES[route])


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

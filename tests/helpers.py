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

from repro.graph.graph import Graph
from repro.graph.search import dijkstra

try:
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow
except ImportError:  # pragma: no cover - the scipy route then runs the loop
    _scipy_maximum_flow = None

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


#: Every production max-flow route of ``minimum_vertex_cut_region`` as
#: ``(size threshold, hide scipy's flow)``: a threshold of 0 sends every
#: region to scipy, 10**9 sends every region to the Edmonds-Karp loop,
#: and hiding scipy's flow sends every region to the loop whatever the
#: threshold says.
FLOW_ROUTES = {
    "scipy": (0, False),
    "python-ek": (10**9, False),
    "python-ek-no-scipy": (0, True),
    "python-ek-no-scipy-small": (10**9, True),
}


def force_flow_route(monkeypatch, route: str) -> None:
    """Pin ``minimum_vertex_cut_region`` to one :data:`FLOW_ROUTES` entry."""
    import repro.flow.vertex_cut as vertex_cut

    threshold, hide_scipy = FLOW_ROUTES[route]
    monkeypatch.setattr(vertex_cut, "_MATRIX_SMALL_REGION", threshold)
    monkeypatch.setattr(
        vertex_cut, "_scipy_maximum_flow", None if hide_scipy else _scipy_maximum_flow
    )


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

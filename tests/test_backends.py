"""Shortest-path backend seam: bit-identity, fallbacks and selection.

The construction backends (:mod:`repro.core.backends`) promise that the
labels they build are **bit-identical** regardless of which backend ran
the searches - that is what makes ``auto`` safe as a default and the
heap/csr split safe to mix mid-build.  These tests pin that promise on
random graphs, cover the scipy-free numpy fallback and the zero-weight
delegation guard, and check the selection plumbing end to end
(parameters, persistence header, CLI flag).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.backends as backends_module
from repro.core.backends import (
    CSRBackend,
    DialBackend,
    HeapBackend,
    check_backend_name,
    resolve_backend,
    scipy_available,
)
from repro.core.construction import HC2LBuilder
from repro.core.dynamic import DynamicHC2LIndex
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.pruned_dijkstra import dist_and_prune_dense, prune_flags_from_distances
from repro.experiments.dynamic import clustered_edge_changes, integerised
from repro.graph.builders import graph_from_edges
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph

INF = float("inf")


def _random_graph(seed: int, n_lo: int = 20, n_hi: int = 90) -> Graph:
    rng = random.Random(seed)
    n = rng.randrange(n_lo, n_hi)
    edges = [(rng.randrange(v), v, float(rng.randrange(1, 12))) for v in range(1, n)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randrange(1, 12))))
    return graph_from_edges(edges, num_vertices=n)


def _flat_for(graph: Graph) -> FlatWorkingGraph:
    return FlatWorkingGraph({v: dict(graph.neighbors(v)) for v in graph.vertices()})


class TestBackendBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_labels_identical_heap_vs_csr(self, seed):
        graph = _random_graph(seed)
        heap_index = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        # min_vertices=0 forces the batched searches even on leaf nodes
        builder = HC2LBuilder(leaf_size=4, backend=CSRBackend(min_vertices=0))
        _, labelling, _ = builder.build(heap_index.contraction.core)
        assert FlatLabelling.from_labelling(labelling) == heap_index.flat_labelling()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_numpy_fallback_matches_heap(self, seed, monkeypatch):
        """With scipy masked out, the Bellman-Ford fallback must agree too."""
        monkeypatch.setattr(backends_module, "_scipy_dijkstra", None)
        monkeypatch.setattr(backends_module, "_scipy_csr_matrix", None)
        graph = _random_graph(seed, n_lo=15, n_hi=40)
        heap_index = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        builder = HC2LBuilder(leaf_size=4, backend=CSRBackend(min_vertices=0))
        _, labelling, _ = builder.build(heap_index.contraction.core)
        assert FlatLabelling.from_labelling(labelling) == heap_index.flat_labelling()

    def test_zero_weight_edges_are_delegated_and_exact(self):
        """scipy drops explicit zeros; the csr backend must route around that."""
        edges = [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0), (3, 0, 2.0), (1, 3, 1.0), (2, 4, 1.0), (4, 0, 1.0)]
        graph = graph_from_edges(edges, num_vertices=5)
        flat = _flat_for(graph)
        csr = CSRBackend(min_vertices=0)
        assert csr._delegate(flat), "zero-weight snapshots must use the heap searches"
        heap_index = HC2LIndex.build(graph, leaf_size=2, backend="heap")
        csr_builder = HC2LBuilder(leaf_size=2, backend=csr)
        _, labelling, _ = csr_builder.build(heap_index.contraction.core)
        assert FlatLabelling.from_labelling(labelling) == heap_index.flat_labelling()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sssp_many_agrees_across_backends(self, seed):
        graph = _random_graph(seed, n_lo=10, n_hi=50)
        flat = _flat_for(graph)
        sources = list(range(0, len(flat.vertices), 3))
        heap_rows = HeapBackend().sssp_many(flat, sources)
        csr_rows = CSRBackend(min_vertices=0).sssp_many(_flat_for(graph), sources)
        for a, b in zip(heap_rows, csr_rows):
            assert list(a) == list(b)


class TestPruneFlagRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_flags_match_heap_search(self, seed):
        graph = _random_graph(seed, n_lo=10, n_hi=60)
        flat = _flat_for(graph)
        rng = random.Random(seed)
        n = len(flat.vertices)
        for _ in range(6):
            root = rng.randrange(n)
            prune_ids = [v for v in range(n) if rng.random() < 0.2 and v != root]
            dist, through = dist_and_prune_dense(flat, root, prune_ids)
            recovered = prune_flags_from_distances(flat, root, prune_ids, dist)
            assert recovered == through

    def test_zero_weight_ties_are_rejected(self):
        """Zero-weight ties make the heap's flags settle-order dependent, so
        the distance-derived recovery refuses them (the csr backend routes
        such snapshots to the heap search instead)."""
        edges = [
            (0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 0.0),
            (0, 5, 1.0), (5, 2, 0.0), (4, 6, 2.0), (0, 6, 3.0),
        ]
        graph = graph_from_edges(edges, num_vertices=7)
        flat = _flat_for(graph)
        dist, _ = dist_and_prune_dense(flat, 0, [5])
        with pytest.raises(ValueError, match="strictly positive"):
            prune_flags_from_distances(flat, 0, [5], dist)

    def test_unreachable_vertices_stay_unflagged(self):
        graph = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], num_vertices=4)
        flat = _flat_for(graph)
        dist, through = dist_and_prune_dense(flat, 0, [1])
        recovered = prune_flags_from_distances(flat, 0, [1], dist)
        assert recovered == through
        assert recovered[2] is False and recovered[3] is False


class TestBackendSelection:
    def test_resolve_names(self):
        assert resolve_backend("heap").name == "heap"
        assert resolve_backend("csr").name == "csr"
        assert resolve_backend("dial").name == "dial"
        expected_auto = "csr" if scipy_available() else "heap"
        assert resolve_backend("auto").name == expected_auto
        assert resolve_backend(None).name == expected_auto
        instance = CSRBackend(min_vertices=7)
        assert resolve_backend(instance) is instance

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown shortest-path backend"):
            resolve_backend("bogus")
        # "dial" is a first-class name, not a typo
        assert check_backend_name("dial") == "dial"
        with pytest.raises(ValueError, match="unknown shortest-path backend"):
            HC2LParameters(backend="bogus")

    def test_non_string_specs_rejected_with_typed_error(self):
        # bools/numbers/None-likes must not fall through to the generic
        # unknown-name ValueError: they are caller bugs, named as such
        for spec in (True, False, 0, 1.5, object(), b"csr", ["csr"]):
            with pytest.raises(TypeError, match="must be a string"):
                resolve_backend(spec)
            with pytest.raises(TypeError, match="must be a string"):
                check_backend_name(spec)
        # None stays the documented "pick for me" spelling
        assert resolve_backend(None).name in ("csr", "heap")

    def test_auto_without_scipy_resolves_to_heap(self, monkeypatch):
        monkeypatch.setattr(backends_module, "scipy_available", lambda: False)
        assert resolve_backend("auto").name == "heap"
        assert resolve_backend(None).name == "heap"

    def test_parameters_round_trip_through_archive(self, tmp_path):
        graph = _random_graph(9, n_lo=12, n_hi=20)
        index = HC2LIndex.build(graph, backend="heap")
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = HC2LIndex.load(path)
        assert loaded.parameters.backend == "heap"

    def test_cli_build_accepts_backend(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "cli-index.npz"
        code = main(
            [
                "build",
                "--synthetic", "60",
                "--seed", "3",
                "--output", str(output),
                "--backend", "csr",
            ]
        )
        assert code == 0
        assert output.exists()
        loaded = HC2LIndex.load(output)
        assert loaded.parameters.backend == "csr"
        # and the built index answers a sanity query (synthetic networks
        # are connected, so the distance must be finite)
        assert np.isfinite(loaded.distances([(0, 1)])).all()


class TestDefaultPathAvoidsDial:
    """Dial is opt-in: no default build or reweight epoch may reach it.

    Its bucket ring costs far more than the handful of vertices a tiny
    snapshot holds, so ``auto`` and ``csr``'s tiny-snapshot delegation
    run the heap instead.  Integer weights are exactly the input where
    Dial would be eligible, so a path that still reached it would raise.
    """

    def test_build_and_epoch_never_run_dial(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a default-backend path ran a Dial search")

        monkeypatch.setattr(DialBackend, "_sssp", forbidden)
        spec = RoadNetworkSpec("default-path", num_vertices=300, seed=11)
        road = integerised(synthetic_road_network(spec).distance_graph)
        default = HC2LIndex.build(road)
        heap = HC2LIndex.build(road, backend="heap")
        assert default.flat_labelling() == heap.flat_labelling()

        changes = clustered_edge_changes(road, 10, 2.5, seed=5)
        default_dynamic = DynamicHC2LIndex(road)
        heap_dynamic = DynamicHC2LIndex(road, backend="heap")
        for dynamic in (default_dynamic, heap_dynamic):
            for (u, v), weight in changes.items():
                dynamic.update_edge_weight(u, v, weight)
            dynamic.flush()
            assert dynamic.relabel_count == 1
        assert default_dynamic.index.flat_labelling() == heap_dynamic.index.flat_labelling()
        rng = random.Random(5)
        vertices = list(road.vertices())
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(500)]
        assert (
            default_dynamic.distances(pairs).tolist() == heap_dynamic.distances(pairs).tolist()
        )

"""Shortest-path backend seam: bit-identity, delegation and selection.

The construction backends (:mod:`repro.core.backends`) promise that the
labels they build are **bit-identical** regardless of which backend ran
the searches - that is what makes ``auto`` safe as a default and the
heap/csr split safe to mix mid-build.  These tests pin that promise on
random graphs, cover the zero-weight delegation guard, and check the
selection plumbing end to end (parameters, persistence header, CLI flag).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.backends import (
    CSRBackend,
    DialBackend,
    HeapBackend,
    check_backend_name,
    distance_rounds,
    resolve_backend,
)
from repro.core.construction import HC2LBuilder, root_snapshot
from repro.core.dynamic import DynamicHC2LIndex
from repro.core.flat import FlatWorkingGraph
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.dynamic import relabel
from repro.core.pruned_dijkstra import dist_and_prune_dense, prune_flags_batch
from repro.experiments.dynamic import clustered_edge_changes, integerised
from repro.graph.builders import graph_from_edges
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph
from test_golden_labels import (
    CASES,
    GOLDEN,
    GOLDEN_RELABEL,
    GRAPHS,
    RELABEL_CASES,
    RELABEL_GRAPHS,
    label_digest,
    relabel_digest,
)

from helpers import force_prune_route, force_stack_route
from oracles import prune_flags_from_distances

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
    return root_snapshot(graph)


class TestDistanceRounds:
    """Known answers for the stacked passes' search: one ``min_only``
    scipy call per round, at most one source per disconnected block."""

    def test_each_block_row_is_its_single_source_row(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        assert 0.1 + 0.2 != 0.3  # the tie below is a float tie, not an exact one
        edges = [
            (0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3), (2, 3, 0.7),
            (4, 5, 1.5), (5, 6, 2.25), (6, 7, 0.125), (4, 7, 4.0),
            (8, 9, 3.0),
        ]
        flat = _flat_for(graph_from_edges(edges, num_vertices=10))
        blocks = [range(0, 4), range(4, 8), range(8, 10)]
        rounds = [[0, 5, 9], [2, 7], [3]]
        indptr, indices, weights = flat.csr_arrays()
        rows = distance_rounds(
            indptr, indices, weights, [np.asarray(r, dtype=np.int64) for r in rounds]
        )
        assert rows.shape == (3, 10) and rows.dtype == np.float64
        # 0 -> 2 takes the 0.3 arc, not the 0.1 + 0.2 path that rounds above it
        assert rows[0, 2] == 0.3 and rows[1, 0] == 0.3
        matrix = csr_matrix((weights, indices, indptr), shape=(10, 10))
        for r, sources in enumerate(rounds):
            expected = np.full(10, INF)
            for source in sources:
                block = list(next(b for b in blocks if source in b))
                single = scipy_dijkstra(matrix, directed=True, indices=[source]).ravel()
                assert single.tolist() == flat.dijkstra(source)
                expected[block] = single[block]
            assert rows[r].tolist() == expected.tolist()

    def test_no_rounds(self):
        flat = _flat_for(graph_from_edges([(0, 1, 1.0)], num_vertices=2))
        assert distance_rounds(*flat.csr_arrays(), []).shape == (0, 2)


class TestBackendBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_labels_identical_heap_vs_csr(self, seed):
        graph = _random_graph(seed)
        heap_index = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        builder = HC2LBuilder(leaf_size=4, backend=CSRBackend())
        _, labelling, _ = builder.build(heap_index.contraction.core)
        assert labelling == heap_index.flat_labelling()

    def test_zero_weight_edges_are_delegated_and_exact(self):
        """Zero-weight ties make the flags depend on settle order, which only the
        heap search pins down: the csr backend hands such snapshots to it."""
        edges = [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0), (3, 0, 2.0), (1, 3, 1.0), (2, 4, 1.0), (4, 0, 1.0)]
        graph = graph_from_edges(edges, num_vertices=5)
        flat = _flat_for(graph)
        csr = CSRBackend()
        assert csr._delegate(flat), "zero-weight snapshots must use the heap searches"
        heap_index = HC2LIndex.build(graph, leaf_size=2, backend="heap")
        csr_builder = HC2LBuilder(leaf_size=2, backend=csr)
        _, labelling, _ = csr_builder.build(heap_index.contraction.core)
        assert labelling == heap_index.flat_labelling()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sssp_many_agrees_across_backends(self, seed):
        graph = _random_graph(seed, n_lo=10, n_hi=50)
        flat = _flat_for(graph)
        sources = list(range(0, len(flat.vertices), 3))
        heap_rows = HeapBackend().sssp_many(flat, sources)
        csr_rows = CSRBackend().sssp_many(_flat_for(graph), sources)
        for a, b in zip(heap_rows, csr_rows):
            assert list(a) == list(b)


class TestPruneFlagRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_flags_match_heap_search(self, seed):
        graph = _random_graph(seed, n_lo=10, n_hi=60)
        flat = _flat_for(graph)
        rng = random.Random(seed)
        n = len(flat.vertices)
        roots, prune_sets, rows, expected = [], [], [], []
        for _ in range(6):
            root = rng.randrange(n)
            prune_ids = [v for v in range(n) if rng.random() < 0.2 and v != root]
            dist, through = dist_and_prune_dense(flat, root, prune_ids)
            recovered = prune_flags_from_distances(flat, root, prune_ids, dist)
            assert recovered == through
            roots.append(root)
            prune_sets.append(prune_ids)
            rows.append(dist)
            expected.append(through)
        # all six roots in one batched pass, each with its own prune set
        batched = prune_flags_batch(flat, roots, prune_sets, np.asarray(rows))
        assert batched.tolist() == expected

    def test_zero_weight_ties_are_rejected(self):
        """Zero-weight ties make the heap's flags settle-order dependent, so
        the reference worklist refuses them (the csr backend routes such
        snapshots to the heap search instead)."""
        edges = [
            (0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 0.0),
            (0, 5, 1.0), (5, 2, 0.0), (4, 6, 2.0), (0, 6, 3.0),
        ]
        graph = graph_from_edges(edges, num_vertices=7)
        flat = _flat_for(graph)
        dist, _ = dist_and_prune_dense(flat, 0, [5])
        with pytest.raises(ValueError, match="strictly positive"):
            prune_flags_from_distances(flat, 0, [5], dist)

    def test_zero_weight_ties_are_rejected_by_the_batched_pass(self):
        """The batched pass refuses zero-weight snapshots exactly like the
        worklist: its flags are the same distance-derived reachability."""
        edges = [
            (0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 0.0),
            (0, 5, 1.0), (5, 2, 0.0), (4, 6, 2.0), (0, 6, 3.0),
        ]
        flat = _flat_for(graph_from_edges(edges, num_vertices=7))
        dist, _ = dist_and_prune_dense(flat, 0, [5])
        with pytest.raises(ValueError, match="strictly positive"):
            prune_flags_batch(flat, [0], [[5]], np.asarray([dist]))

    def test_unreachable_vertices_stay_unflagged(self):
        graph = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], num_vertices=4)
        flat = _flat_for(graph)
        dist, through = dist_and_prune_dense(flat, 0, [1])
        recovered = prune_flags_from_distances(flat, 0, [1], dist)
        assert recovered == through
        assert recovered[2] is False and recovered[3] is False


#: (name, edges, vertex count, root, prune set, expected flags).  The
#: weights are dyadic floats, so path sums are exact and a tie is a tie;
#: the non-dyadic row checks that a near-tie is not taken for one.
FLAG_TABLE = [
    # 3 is reached by two tied shortest paths; one runs through prune
    # vertex 1, which is enough to flag 3 and everything behind it
    ("diamond-tie", [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
     5, 0, [1], [False, False, False, True, True]),
    ("dyadic-tie", [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75), (2, 3, 1.0)],
     4, 0, [1], [False, False, True, True]),
    # 0.1 + 0.2 != 0.3 in float64: the detour through 1 is not a tie
    ("non-dyadic-near-tie", [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)],
     3, 0, [1], [False, False, False]),
    # prune vertex 2 lies behind prune vertex 1, so it is flagged itself
    ("prune-behind-prune", [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
     4, 0, [1, 2], [False, False, True, True]),
    # the root never seeds: every path starts at it
    ("root-in-prune-set", [(0, 1, 1.0), (1, 2, 1.0)],
     3, 0, [0], [False, False, False]),
    ("empty-prune-set", [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
     4, 0, [], [False, False, False, False]),
    # prune vertex 2 is unreachable: inf + w == inf must not seed 3 and 4
    ("unreached-prune-vertex", [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
     5, 0, [2], [False, False, False, False, False]),
]


class TestPruneFlagTable:
    """Known answers for the three flag computations, one row per rule."""

    @pytest.mark.parametrize(
        "edges, num_vertices, root, prune_ids, expected",
        [row[1:] for row in FLAG_TABLE],
        ids=[row[0] for row in FLAG_TABLE],
    )
    def test_flags(self, edges, num_vertices, root, prune_ids, expected):
        flat = _flat_for(graph_from_edges(edges, num_vertices=num_vertices))
        assert flat.vertices == list(range(num_vertices))
        dist, through = dist_and_prune_dense(flat, root, prune_ids)
        worklist = prune_flags_from_distances(flat, root, prune_ids, dist)
        batched = prune_flags_batch(flat, [root], [prune_ids], np.asarray([dist]))
        assert through == expected
        assert worklist == expected
        assert batched.tolist() == [expected]


class TestBatchedRouteGolden:
    """The batched flag pass, run on every snapshot the csr backend
    searches, reproduces the golden build and relabel digests.  Builds run
    every node alone, so no snapshot skips the flag pass for the stacked
    rounds."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_build_matches_golden(self, case, monkeypatch):
        force_prune_route(monkeypatch, "batched")
        force_stack_route(monkeypatch, "per-node")
        graph_name, overrides = CASES[case]
        index = HC2LIndex.build(GRAPHS[graph_name](), backend="csr", **overrides)
        assert label_digest(index) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(RELABEL_CASES))
    def test_relabel_matches_golden(self, case, monkeypatch):
        force_prune_route(monkeypatch, "batched")
        graph_name, overrides, change_set, scoped = RELABEL_CASES[case]
        graph = RELABEL_GRAPHS[graph_name]()
        index = HC2LIndex.build(graph, backend="csr", **overrides)
        changed = change_set(graph, index)
        result = relabel(index, graph.reweighted(changed), changed_edges=changed if scoped else None)
        extra = result.describe()
        observed = (
            relabel_digest(result),
            extra.get("relabel_scoped", 0.0),
            extra.get("relabel_nodes_recomputed", 0.0),
            extra.get("relabel_nodes_spliced", 0.0),
        )
        assert observed == GOLDEN_RELABEL[case]


class TestStackedRouteGolden:
    """Every node of a csr build in stacked rounds, the large ones too,
    reproduces the golden build digests and, through the records it
    leaves, the golden relabel digests."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_build_matches_golden(self, case, monkeypatch):
        force_stack_route(monkeypatch, "stacked")
        graph_name, overrides = CASES[case]
        index = HC2LIndex.build(GRAPHS[graph_name](), backend="csr", **overrides)
        assert label_digest(index) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(RELABEL_CASES))
    def test_relabel_matches_golden(self, case, monkeypatch):
        force_stack_route(monkeypatch, "stacked")
        graph_name, overrides, change_set, scoped = RELABEL_CASES[case]
        graph = RELABEL_GRAPHS[graph_name]()
        index = HC2LIndex.build(graph, backend="csr", **overrides)
        changed = change_set(graph, index)
        result = relabel(index, graph.reweighted(changed), changed_edges=changed if scoped else None)
        extra = result.describe()
        observed = (
            relabel_digest(result),
            extra.get("relabel_scoped", 0.0),
            extra.get("relabel_nodes_recomputed", 0.0),
            extra.get("relabel_nodes_spliced", 0.0),
        )
        assert observed == GOLDEN_RELABEL[case]


class TestBackendSelection:
    def test_resolve_names(self):
        assert resolve_backend("heap").name == "heap"
        assert resolve_backend("csr").name == "csr"
        assert resolve_backend("dial").name == "dial"
        assert resolve_backend("auto").name == "csr"
        assert resolve_backend(None).name == "csr"
        instance = CSRBackend()
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
        assert resolve_backend(None).name == "csr"

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

"""Integration tests for HC2L construction and querying (the core deliverable)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.construction import HC2LBuilder
from repro.core.index import HC2LIndex, HC2LParameters
from repro.graph.builders import graph_from_edges, grid_graph, path_graph, star_graph
from repro.graph.graph import Graph

from helpers import assert_distance_equal, label_levels, random_query_pairs
from oracles import hub_vertices_for_query, min_plus_prefix

INF = float("inf")


class TestParameters:
    def test_defaults(self):
        params = HC2LParameters()
        assert params.beta == 0.2
        assert params.tail_pruning and params.contract

    @pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"beta": 0.9}, {"leaf_size": 0}, {"num_workers": -1}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HC2LParameters(**kwargs)

    def test_build_rejects_mixed_parameter_styles(self, small_graph):
        with pytest.raises(ValueError):
            HC2LIndex.build(small_graph, HC2LParameters(), beta=0.3)

    def test_builder_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            HC2LBuilder(leaf_size=0)


class TestCorrectness:
    def test_exact_on_small_network(self, small_graph, small_oracle, query_pairs_small):
        index = HC2LIndex.build(small_graph)
        for s, t in query_pairs_small:
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))

    def test_exact_on_medium_network(self, medium_graph, medium_oracle, query_pairs_medium):
        index = HC2LIndex.build(medium_graph)
        for s, t in query_pairs_medium:
            assert_distance_equal(medium_oracle.distance(s, t), index.distance(s, t))

    def test_exact_on_uniform_grid(self, uniform_grid):
        from repro.graph.search import dijkstra

        index = HC2LIndex.build(uniform_grid)
        rng = random.Random(2)
        for _ in range(60):
            s = rng.randrange(uniform_grid.num_vertices)
            t = rng.randrange(uniform_grid.num_vertices)
            assert_distance_equal(dijkstra(uniform_grid, s)[t], index.distance(s, t))

    def test_exact_on_travel_time_weights(self, small_road_network):
        from repro.graph.search import dijkstra

        graph = small_road_network.travel_time_graph
        index = HC2LIndex.build(graph)
        rng = random.Random(4)
        for _ in range(60):
            s = rng.randrange(graph.num_vertices)
            t = rng.randrange(graph.num_vertices)
            assert_distance_equal(dijkstra(graph, s)[t], index.distance(s, t))

    def test_disconnected_pairs_are_infinite(self, disconnected_graph):
        index = HC2LIndex.build(disconnected_graph, leaf_size=2)
        assert math.isinf(index.distance(0, 5))
        assert math.isinf(index.distance(7, 0))
        assert index.distance(0, 2) == 3.0
        assert index.distance(4, 6) == pytest.approx(1.0)

    def test_self_queries_are_zero(self, small_graph):
        index = HC2LIndex.build(small_graph)
        for v in range(0, small_graph.num_vertices, 13):
            assert index.distance(v, v) == 0.0

    def test_symmetry(self, small_graph):
        index = HC2LIndex.build(small_graph)
        rng = random.Random(9)
        for _ in range(40):
            s = rng.randrange(small_graph.num_vertices)
            t = rng.randrange(small_graph.num_vertices)
            assert index.distance(s, t) == pytest.approx(index.distance(t, s))

    def test_out_of_range_vertices_rejected(self, small_graph):
        index = HC2LIndex.build(small_graph)
        with pytest.raises(ValueError):
            index.distance(-1, 0)
        with pytest.raises(ValueError):
            index.distance(0, small_graph.num_vertices)

    @pytest.mark.parametrize("beta", [0.15, 0.25, 0.35, 0.5])
    def test_exact_under_other_balance_parameters(self, small_graph, small_oracle, beta):
        index = HC2LIndex.build(small_graph, beta=beta)
        for s, t in random_query_pairs(small_graph, 50, seed=int(beta * 100)):
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))

    def test_exact_without_contraction(self, small_graph, small_oracle, query_pairs_small):
        index = HC2LIndex.build(small_graph, contract=False)
        for s, t in query_pairs_small:
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))

    def test_exact_without_tail_pruning(self, small_graph, small_oracle, query_pairs_small):
        index = HC2LIndex.build(small_graph, tail_pruning=False)
        for s, t in query_pairs_small:
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))

    def test_path_graph(self):
        graph = path_graph(40, weight=3.0)
        index = HC2LIndex.build(graph, leaf_size=4)
        assert index.distance(0, 39) == pytest.approx(39 * 3.0)
        assert index.distance(10, 20) == pytest.approx(30.0)

    def test_star_graph(self):
        index = HC2LIndex.build(star_graph(20), leaf_size=4)
        assert index.distance(3, 11) == 2.0
        assert index.distance(0, 5) == 1.0

    def test_single_vertex_and_empty_graphs(self):
        single = HC2LIndex.build(Graph(1))
        assert single.distance(0, 0) == 0.0
        empty = HC2LIndex.build(Graph(0))
        assert empty.tree_height() == 0

    def test_two_vertex_graph(self):
        graph = graph_from_edges([(0, 1, 4.2)])
        index = HC2LIndex.build(graph, leaf_size=1)
        assert index.distance(0, 1) == pytest.approx(4.2)


class TestTailPruningEffect:
    def test_tail_pruning_reduces_label_size(self, medium_graph):
        pruned = HC2LIndex.build(medium_graph, tail_pruning=True)
        naive = HC2LIndex.build(medium_graph, tail_pruning=False)
        assert (
            pruned.flat_labelling().total_entries() < naive.flat_labelling().total_entries()
        )

    def test_tail_pruning_keeps_answers(self, medium_graph, query_pairs_medium):
        pruned = HC2LIndex.build(medium_graph, tail_pruning=True)
        naive = HC2LIndex.build(medium_graph, tail_pruning=False)
        for s, t in query_pairs_medium:
            assert pruned.distance(s, t) == pytest.approx(naive.distance(s, t))


class TestContractionEffect:
    def test_contraction_reduces_core_size(self, small_graph):
        contracted = HC2LIndex.build(small_graph, contract=True)
        plain = HC2LIndex.build(small_graph, contract=False)
        assert contracted.contraction.core.num_vertices < plain.contraction.core.num_vertices
        assert plain.contraction_ratio() == 0.0
        assert contracted.contraction_ratio() > 0.0


class TestMetricsAndPersistence:
    def test_describe_contains_paper_metrics(self, small_graph):
        index = HC2LIndex.build(small_graph)
        summary = index.describe()
        for key in (
            "label_size_bytes",
            "lca_storage_bytes",
            "tree_height",
            "max_cut_size",
            "avg_cut_size",
            "construction_seconds",
            "contraction_ratio",
        ):
            assert key in summary

    def test_label_size_positive_and_consistent(self, small_graph):
        index = HC2LIndex.build(small_graph)
        assert index.label_size_bytes() > 0
        assert index.label_size_bytes() >= index.flat_labelling().size_bytes()
        assert index.lca_storage_bytes() == 8 * index.contraction.core.num_vertices

    def test_distance_with_hub_count(self, small_graph, small_oracle):
        index = HC2LIndex.build(small_graph)
        rng = random.Random(1)
        total_hubs = 0
        for _ in range(30):
            s = rng.randrange(small_graph.num_vertices)
            t = rng.randrange(small_graph.num_vertices)
            distance, hubs = index.distance_with_hub_count(s, t)
            assert_distance_equal(small_oracle.distance(s, t), distance)
            assert hubs <= index.max_cut_size() + 1
            total_hubs += hubs
        assert total_hubs > 0

    def test_save_and_load_round_trip(self, small_graph, tmp_path):
        index = HC2LIndex.build(small_graph)
        path = tmp_path / "index.pickle"
        index.save(path)
        loaded = HC2LIndex.load(path)
        for s, t in random_query_pairs(small_graph, 25, seed=3):
            assert loaded.distance(s, t) == pytest.approx(index.distance(s, t))

    def test_load_rejects_wrong_payload(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pickle"
        with open(path, "wb") as handle:
            pickle.dump({"not": "an index"}, handle)
        # not an .npz archive: refused, and there is no opt-in to unpickle it
        with pytest.raises(ValueError):
            HC2LIndex.load(path)
        with pytest.raises(TypeError):
            HC2LIndex.load(path, allow_pickle=True)

    def test_construction_stats_populated(self, small_graph):
        index = HC2LIndex.build(small_graph)
        stats = index.stats.as_dict()
        assert stats["num_nodes"] >= 1
        assert stats["num_leaves"] >= 1
        assert stats["total_seconds"] >= 0.0


class TestQueryHelpers:
    def test_min_plus_prefix(self):
        assert min_plus_prefix([1.0, 5.0], [2.0, 1.0]) == (3.0, 2)
        assert min_plus_prefix([1.0, 5.0, 9.0], [2.0]) == (3.0, 1)
        assert min_plus_prefix([], [1.0]) == (INF, 0)

    def test_hub_vertices_for_query_belong_to_lca_cut(self, medium_graph):
        index = HC2LIndex.build(medium_graph, contract=False)
        hierarchy = index.hierarchy
        rng = random.Random(8)
        for _ in range(20):
            s = rng.randrange(medium_graph.num_vertices)
            t = rng.randrange(medium_graph.num_vertices)
            if s == t:
                continue
            hubs = hub_vertices_for_query(hierarchy, s, t)
            assert hubs == hierarchy.lca_node(s, t).cut

    @pytest.mark.parametrize("tail_pruning", [True, False])
    def test_engine_hub_counts_match_reference(self, medium_graph, tail_pruning):
        """The engine's (distance, hub count) is the reference scan's, and
        the count never exceeds the LCA cut (equals it without pruning)."""
        index = HC2LIndex.build(medium_graph, contract=False, tail_pruning=tail_pruning)
        levels = label_levels(index.flat_labelling())
        hierarchy = index.hierarchy
        for s, t in random_query_pairs(medium_graph, 60, seed=4):
            value, hubs = index.distance_with_hub_count(s, t)
            assert value == index.distance(s, t)
            if s == t:
                assert (value, hubs) == (0.0, 0)
                continue
            depth = hierarchy.lca_depth(s, t)
            assert (value, hubs) == min_plus_prefix(levels[s][depth], levels[t][depth])
            cut_size = len(hub_vertices_for_query(hierarchy, s, t))
            assert hubs <= cut_size
            if not tail_pruning:
                assert hubs == cut_size


class TestGridStructure:
    def test_grid_cut_sizes_stay_small(self):
        graph, _ = grid_graph(16, 16, seed=6, weight_jitter=0.25)
        index = HC2LIndex.build(graph)
        # a 16x16 grid has vertex separators of at most ~17; the recursive
        # bisection should never need dramatically more
        assert index.max_cut_size() <= 24
        assert index.tree_height() <= 14

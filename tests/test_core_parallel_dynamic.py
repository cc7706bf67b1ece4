"""Tests for the parallel builder (HC2L_p) and dynamic weight updates."""

from __future__ import annotations

import random

import pytest

from repro.core.construction import HC2LBuilder
from repro.core.dynamic import DynamicHC2LIndex, relabel
from repro.core.index import HC2LIndex
from repro.core.parallel import ParallelHC2LBuilder
from repro.graph.search import dijkstra

from helpers import assert_distance_equal, random_query_pairs


class TestParallelBuilder:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelHC2LBuilder(num_workers=0)

    def test_parallel_build_is_exact(self, medium_graph, medium_oracle, query_pairs_medium):
        index = HC2LIndex.build(medium_graph, num_workers=4)
        for s, t in query_pairs_medium:
            assert_distance_equal(medium_oracle.distance(s, t), index.distance(s, t))

    def test_parallel_matches_sequential_metrics(self, medium_graph):
        sequential = HC2LIndex.build(medium_graph)
        parallel = HC2LIndex.build(medium_graph, num_workers=4)
        # the two builders process the same cuts, so structural metrics match
        assert parallel.tree_height() == sequential.tree_height()
        assert parallel.max_cut_size() == sequential.max_cut_size()
        assert parallel.flat_labelling().total_entries() == sequential.flat_labelling().total_entries()
        # worker processes run the serial recursion on subtrees: the labels
        # are the same bits, not merely the same size
        assert parallel.flat_labelling() == sequential.flat_labelling()

    def test_parallel_matches_sequential_answers(self, medium_graph):
        sequential = HC2LIndex.build(medium_graph)
        parallel = HC2LIndex.build(medium_graph, num_workers=3)
        for s, t in random_query_pairs(medium_graph, 60, seed=21):
            assert parallel.distance(s, t) == pytest.approx(sequential.distance(s, t))

    def test_two_workers_small_threshold(self, small_graph, small_oracle):
        builder = ParallelHC2LBuilder(num_workers=2, parallel_threshold=8)
        hierarchy, labelling, stats = builder.build(small_graph)
        assert hierarchy.check_vertex_assignment()
        assert stats.num_nodes == len(hierarchy.nodes)

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        hierarchy, labelling, stats = ParallelHC2LBuilder(num_workers=2).build(Graph(0))
        assert stats.num_nodes == 0


class TestRelabel:
    def _reweighted(self, graph, factor: float, seed: int = 5):
        rng = random.Random(seed)
        updates = {}
        for u, v, w in graph.edges():
            if rng.random() < 0.3:
                updates[(u, v)] = w * factor * rng.uniform(0.5, 1.5)
        return graph.reweighted(updates)

    def test_relabel_matches_fresh_build(self, small_graph):
        index = HC2LIndex.build(small_graph)
        new_graph = self._reweighted(small_graph, 2.0)
        updated = relabel(index, new_graph)
        for s, t in random_query_pairs(small_graph, 60, seed=31):
            expected = dijkstra(new_graph, s)[t]
            assert_distance_equal(expected, updated.distance(s, t))

    def test_relabel_preserves_hierarchy_shape(self, small_graph):
        index = HC2LIndex.build(small_graph)
        new_graph = self._reweighted(small_graph, 0.5)
        updated = relabel(index, new_graph)
        assert updated.tree_height() == index.tree_height()
        assert len(updated.hierarchy.nodes) == len(index.hierarchy.nodes)
        # node membership (which vertices live in which node) is preserved
        assert [sorted(n.cut) for n in updated.hierarchy.nodes] == [
            sorted(n.cut) for n in index.hierarchy.nodes
        ]

    def test_relabel_rejects_topology_changes(self, small_graph):
        index = HC2LIndex.build(small_graph)
        changed = small_graph.copy()
        changed.add_vertex()
        with pytest.raises(ValueError):
            relabel(index, changed)

    def test_relabel_rejects_missing_edge(self, small_graph):
        index = HC2LIndex.build(small_graph)
        from repro.graph.graph import Graph

        other = Graph(small_graph.num_vertices)
        edges = list(small_graph.edges())
        for u, v, w in edges[:-1]:
            other.add_edge(u, v, w)
        other.add_edge(edges[-1][0], (edges[-1][1] + 1) % small_graph.num_vertices, 1.0)
        with pytest.raises(ValueError):
            relabel(index, other)


class TestDynamicIndex:
    def test_updates_are_lazy_and_correct(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        u, v, w = next(iter(small_graph.edges()))
        baseline = dynamic.distance(u, v)
        assert baseline <= w + 1e-9

        dynamic.update_edge_weight(u, v, w * 10)
        assert dynamic.pending_updates() == 1
        updated_graph = small_graph.reweighted({(u, v): w * 10})
        expected = dijkstra(updated_graph, u)[v]
        assert dynamic.distance(u, v) == pytest.approx(expected, rel=1e-6)
        assert dynamic.pending_updates() == 0
        assert dynamic.relabel_count == 1

    def test_batched_updates_flush_once(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        edges = list(small_graph.edges())[:5]
        for u, v, w in edges:
            dynamic.update_edge_weight(u, v, w * 3)
        assert dynamic.pending_updates() == 5
        dynamic.flush()
        assert dynamic.relabel_count == 1
        new_graph = small_graph.reweighted({(u, v): w * 3 for u, v, w in edges})
        for s, t in random_query_pairs(small_graph, 40, seed=13):
            assert_distance_equal(dijkstra(new_graph, s)[t], dynamic.distance(s, t))

    def test_update_unknown_edge_rejected(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        with pytest.raises(KeyError):
            dynamic.update_edge_weight(0, 0, 1.0)

    def test_non_positive_weight_rejected(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        u, v, _ = next(iter(small_graph.edges()))
        with pytest.raises(ValueError):
            dynamic.update_edge_weight(u, v, 0.0)

    def test_label_size_accessible(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        assert dynamic.label_size_bytes() > 0
        assert dynamic.index.tree_height() >= 1


class TestDynamicBatchProtocol:
    """DynamicHC2LIndex under the batch DistanceOracle protocol.

    The relabelling pass swaps the whole underlying index; these tests pin
    that the *batch* entry points observe the refreshed labels (a stale
    engine would silently serve pre-update distances) and that the loud
    topology-change rejection survives the batch path.
    """

    def _updated(self, graph, factor: float = 4.0, count: int = 6):
        dynamic = DynamicHC2LIndex(graph)
        updates = {}
        for u, v, w in list(graph.edges())[:count]:
            dynamic.update_edge_weight(u, v, w * factor)
            updates[(u, v)] = w * factor
        return dynamic, graph.reweighted(updates)

    def test_relabel_then_distances_matches_fresh_build(self, small_graph):
        dynamic, new_graph = self._updated(small_graph)
        fresh = HC2LIndex.build(new_graph)
        pairs = random_query_pairs(small_graph, 80, seed=23)
        got = dynamic.distances(pairs)
        assert dynamic.pending_updates() == 0, "distances() must flush first"
        expected = fresh.distances(pairs)
        for (s, t), a, b in zip(pairs, got.tolist(), expected.tolist()):
            assert_distance_equal(b, a)
        # batch answers stay bit-identical to the dynamic index's own scalars
        for (s, t), value in zip(pairs, got.tolist()):
            assert dynamic.distance(s, t) == value

    def test_relabel_then_one_to_many_matches_fresh_build(self, small_graph):
        dynamic, new_graph = self._updated(small_graph, factor=0.25)
        fresh = HC2LIndex.build(new_graph)
        targets = list(range(0, small_graph.num_vertices, 3))
        got = dynamic.one_to_many(5, targets)
        expected = fresh.one_to_many(5, targets)
        for a, b in zip(got.tolist(), expected.tolist()):
            assert_distance_equal(b, a)
        matrix = dynamic.many_to_many([1, 5, 9], targets)
        expected_matrix = fresh.many_to_many([1, 5, 9], targets)
        assert matrix.shape == expected_matrix.shape
        for a, b in zip(matrix.ravel().tolist(), expected_matrix.ravel().tolist()):
            assert_distance_equal(b, a)

    def test_topology_rejection_stays_loud_under_batch_use(self, small_graph):
        dynamic = DynamicHC2LIndex(small_graph)
        pairs = random_query_pairs(small_graph, 10, seed=3)
        dynamic.distances(pairs)  # warm the engine through the batch path
        with pytest.raises(KeyError, match="topology changes require a rebuild"):
            dynamic.update_edge_weight(0, 0, 1.0)
        missing = next(
            (u, v)
            for u in range(small_graph.num_vertices)
            for v in range(u + 1, small_graph.num_vertices)
            if not small_graph.has_edge(u, v)
        )
        with pytest.raises(KeyError, match="topology changes require a rebuild"):
            dynamic.update_edge_weight(*missing, 2.0)
        # a buffered legal update still flushes on the next batch call
        u, v, w = next(iter(small_graph.edges()))
        dynamic.update_edge_weight(u, v, w * 2)
        assert dynamic.pending_updates() == 1
        dynamic.distances(pairs)
        assert dynamic.pending_updates() == 0

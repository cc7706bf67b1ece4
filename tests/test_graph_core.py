"""Unit tests for the Graph container."""

from __future__ import annotations

import pytest

from oracles import adjacency_dict
from repro.graph.graph import Graph


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_add_edge_and_lookup(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 2.5)
        assert graph.num_edges == 1
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.edge_weight(0, 1) == 2.5
        assert graph.edge_weight(1, 0) == 2.5
        assert not graph.has_edge(0, 2)

    def test_parallel_edges_keep_minimum(self):
        graph = Graph(2)
        graph.add_edge(0, 1, 5.0)
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(0, 1, 4.0)
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == 3.0

    def test_self_loops_ignored(self):
        graph = Graph(2)
        graph.add_edge(1, 1, 1.0)
        assert graph.num_edges == 0

    def test_invalid_vertices_rejected(self):
        graph = Graph(2)
        with pytest.raises(ValueError):
            graph.add_edge(0, 2, 1.0)
        with pytest.raises(ValueError):
            graph.add_edge(-1, 1, 1.0)

    def test_negative_weight_rejected(self):
        graph = Graph(2)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, -1.0)

    def test_degree_and_neighbors(self):
        graph = Graph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 2.0)
        assert graph.degree(0) == 2
        assert graph.degree(3) == 0
        assert dict(graph.neighbors(0)) == {1: 1.0, 2: 2.0}
        assert set(graph.neighbor_ids(0)) == {1, 2}

    def test_edges_listed_once(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        edges = sorted(graph.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_total_weight(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.5)
        assert graph.total_weight() == 3.5

    def test_add_vertex(self):
        graph = Graph(1)
        new_id = graph.add_vertex()
        assert new_id == 1
        assert graph.num_vertices == 2
        graph.add_edge(0, 1, 1.0)
        assert graph.has_edge(0, 1)

    def test_len_and_repr(self):
        graph = Graph(5)
        assert len(graph) == 5
        assert "num_vertices=5" in repr(graph)

    def test_memory_bytes_scales_with_edges(self):
        small = Graph(10)
        small.add_edge(0, 1, 1.0)
        big = Graph(10)
        for i in range(9):
            big.add_edge(i, i + 1, 1.0)
        assert big.memory_bytes() > small.memory_bytes()


class TestGraphDerived:
    def test_copy_is_independent(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        clone = graph.copy()
        clone.add_edge(1, 2, 2.0)
        assert graph.num_edges == 1
        assert clone.num_edges == 2

    def test_induced_subgraph(self):
        graph = Graph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(2, 3, 3.0)
        sub, mapping = graph.induced_subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert mapping == [1, 2, 3]
        assert sub.num_edges == 2
        assert sub.edge_weight(0, 1) == 2.0  # original (1, 2)

    def test_reweighted(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        updated = graph.reweighted({(0, 1): 9.0})
        assert updated.edge_weight(0, 1) == 9.0
        assert updated.edge_weight(1, 2) == 2.0
        assert graph.edge_weight(0, 1) == 1.0

    def test_adjacency_dict_full(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        adjacency = adjacency_dict(graph)
        assert adjacency == {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        # mutating the dict must not touch the graph
        adjacency[0][2] = 5.0
        assert not graph.has_edge(0, 2)

    def test_adjacency_dict_restricted(self):
        graph = Graph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(2, 3, 3.0)
        adjacency = adjacency_dict(graph, [1, 2])
        assert set(adjacency) == {1, 2}
        assert adjacency[1] == {2: 2.0}

    def test_uncached_csr_is_not_kept(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        one_shot = graph.csr(cache=False)
        assert one_shot is not graph.csr(cache=False)
        cached = graph.csr()
        assert cached is graph.csr() and cached is graph.csr(cache=False)
        for name in ("indptr", "indices", "weights"):
            assert getattr(one_shot, name).tolist() == getattr(cached, name).tolist()

    def test_build_leaves_core_graph_without_csr_copy(self, small_graph):
        # the construction reads the core graph's CSR once; keeping it would
        # hold a copy of every edge for the index's lifetime
        from repro.core.index import HC2LIndex

        core = HC2LIndex.build(small_graph).contraction.core
        assert core is not small_graph
        assert core._csr is None

    def test_networkx_round_trip(self):
        graph = Graph(4)
        graph.add_edge(0, 1, 1.5)
        graph.add_edge(2, 3, 2.5)
        back = Graph.from_networkx(graph.to_networkx())
        assert sorted(back.edges()) == sorted(graph.edges())

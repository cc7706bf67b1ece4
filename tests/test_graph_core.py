"""Unit tests for the Graph container."""

from __future__ import annotations

import pytest

from oracles import adjacency_dict
from repro.graph.graph import CSRAdjacency, Graph


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


def _cow_base() -> Graph:
    """A 6-cycle with two chords, edges inserted out of id order."""
    graph = Graph(6)
    for u, v, w in [(3, 4, 4.0), (0, 1, 1.0), (1, 2, 2.0), (5, 0, 6.0), (2, 3, 3.0),
                    (4, 5, 5.0), (0, 3, 7.0), (1, 4, 8.0)]:
        graph.add_edge(u, v, w)
    return graph


def _rows(graph: Graph) -> list:
    """Every row's ``(neighbour, weight)`` pairs in edge order."""
    return [list(graph.neighbors(v)) for v in graph.vertices()]


def _csr_lists(csr: CSRAdjacency) -> tuple:
    return csr.indptr.tolist(), csr.indices.tolist(), csr.weights.tolist()


def _rebuilt_csr(graph: Graph) -> tuple:
    """The CSR arrays a fresh build from the graph's rows gives."""
    return _csr_lists(CSRAdjacency.from_adjacency([dict(row) for row in _rows(graph)]))


#: (name, action on (g, h) after ``h = g.reweighted({(0, 1): 10.0})``,
#: which graph it must leave untouched).  Row 0 and 1 are copied by the
#: reweighting, every other row is shared.
COW_CASES = [
    ("add_edge_on_h_shared_rows", lambda g, h: h.add_edge(2, 5, 0.5), "g"),
    ("add_edge_on_h_lowers_shared_edge", lambda g, h: h.add_edge(3, 4, 0.25), "g"),
    ("add_edge_on_h_copied_row", lambda g, h: h.add_edge(0, 2, 0.5), "g"),
    ("add_edge_on_g_shared_rows", lambda g, h: g.add_edge(2, 5, 0.5), "h"),
    ("add_edge_on_g_lowers_shared_edge", lambda g, h: g.add_edge(4, 5, 0.25), "h"),
    ("add_edge_on_g_copied_row", lambda g, h: g.add_edge(1, 5, 0.5), "h"),
    ("add_vertex_then_edge_on_h", lambda g, h: h.add_edge(h.add_vertex(), 3, 1.0), "g"),
    ("second_reweighted_of_h", lambda g, h: h.reweighted({(2, 3): 0.5, (1, 4): 0.5}), "g"),
    ("second_reweighted_then_add_edge", lambda g, h: h.reweighted({(2, 3): 0.5}).add_edge(3, 5, 0.1), "g"),
    ("copy_of_h_then_add_edge", lambda g, h: h.copy().add_edge(2, 4, 0.1), "g"),
]


class TestCopyOnWrite:
    """Derived graphs share rows: no write through one may reach the other."""

    @pytest.mark.parametrize(
        "action, untouched", [case[1:] for case in COW_CASES], ids=[case[0] for case in COW_CASES]
    )
    def test_derived_graphs_never_see_each_others_writes(self, action, untouched):
        g = _cow_base()
        h = g.reweighted({(0, 1): 10.0})
        graphs = {"g": g, "h": h}
        for graph in graphs.values():  # cache both CSR views before the write
            graph.csr()
        before = {name: (_rows(graph), _csr_lists(graph.csr())) for name, graph in graphs.items()}
        action(g, h)
        for name in ("g", "h"):
            graph = graphs[name]
            if name == untouched:
                assert (_rows(graph), _csr_lists(graph.csr())) == before[name]
            assert _csr_lists(graph.csr()) == _rebuilt_csr(graph)
        # the reweighting itself holds whatever the later writes did
        assert g.edge_weight(0, 1) == 1.0
        assert h.edge_weight(0, 1) == 10.0

    @pytest.mark.parametrize("changes", [{}, {(0, 1): 10.0}, {(0, 3): 0.5, (1, 4): 9.0, (3, 4): 1.0}])
    def test_reweighted_csr_equals_a_rebuild(self, changes):
        g = _cow_base()
        h = g.reweighted(changes)
        assert h._csr is not None  # inherited, patched, never rebuilt
        assert _csr_lists(h.csr()) == _rebuilt_csr(h)
        # same edges in the same order; only the changed weights differ
        assert [[v for v, _ in row] for row in _rows(h)] == [[v for v, _ in row] for row in _rows(g)]
        for (u, v), weight in changes.items():
            assert h.edge_weight(u, v) == h.edge_weight(v, u) == weight
        assert h.num_edges == g.num_edges

    def test_copy_keeps_edge_order_and_independence(self):
        g = _cow_base()
        clone = g.copy()
        assert _rows(clone) == _rows(g)
        clone.add_edge(2, 4, 0.1)
        g.add_edge(1, 3, 0.2)
        assert not g.has_edge(2, 4) and not clone.has_edge(1, 3)
        assert g.num_edges == clone.num_edges == 9
        assert _csr_lists(g.csr()) == _rebuilt_csr(g)
        assert _csr_lists(clone.csr()) == _rebuilt_csr(clone)


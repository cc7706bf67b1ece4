"""Property-based tests (hypothesis) for the core data structures and invariants.

Strategy: generate small random weighted graphs (connected or not), then
check the invariants the paper's correctness arguments rely on:

* Dijkstra matches networkx,
* balanced cuts really separate the two sides and stay balanced,
* shortcut-enhanced children are distance preserving (Definition 4.5),
* the balanced tree hierarchy satisfies the LCA cut-cover condition
  (Definition 4.1) and the labelling answers every query exactly,
* every baseline labelling agrees with Dijkstra on every pair.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import cut_distance_block, is_distance_preserving, separates
from repro.baselines.h2h import H2HIndex
from repro.baselines.hub_labelling import HubLabelling
from repro.baselines.phl import PrunedHighwayLabelling
from repro.baselines.pll import PrunedLandmarkLabelling
from repro.core.construction import root_snapshot
from repro.core.index import HC2LIndex
from repro.graph.graph import Graph
from repro.graph.search import dijkstra
from repro.partition.cut import balanced_cut
from repro.partition.shortcuts import child_adjacency, compute_shortcuts

INF = float("inf")

# Keep the generated graphs small: every property re-solves all-pairs
# shortest paths, so size 25 keeps each example in the low milliseconds.
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def weighted_graphs(draw, min_vertices: int = 2, max_vertices: int = 25, connected: bool = False):
    """A random weighted graph, optionally forced to be connected."""
    n = draw(st.integers(min_vertices, max_vertices))
    graph = Graph(n)
    if connected and n > 1:
        # random spanning tree first
        for v in range(1, n):
            parent = draw(st.integers(0, v - 1))
            weight = draw(st.integers(1, 20))
            graph.add_edge(parent, v, float(weight))
    max_extra = min(3 * n, n * (n - 1) // 2)
    extra = draw(st.integers(0, max_extra))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        weight = draw(st.integers(1, 20))
        graph.add_edge(u, v, float(weight))
    return graph


def all_pairs(graph: Graph):
    return {s: dijkstra(graph, s) for s in graph.vertices()}


class TestGraphProperties:
    @SETTINGS
    @given(weighted_graphs())
    def test_dijkstra_matches_networkx(self, graph):
        nxg = graph.to_networkx()
        expected = dict(nx.all_pairs_dijkstra_path_length(nxg))
        for s in graph.vertices():
            dist = dijkstra(graph, s)
            for t in graph.vertices():
                reference = expected.get(s, {}).get(t, INF)
                assert dist[t] == pytest.approx(reference) or (
                    math.isinf(dist[t]) and math.isinf(reference)
                )

    @SETTINGS
    @given(weighted_graphs())
    def test_distance_is_a_metric_up_to_triangle_inequality(self, graph):
        distances = all_pairs(graph)
        vertices = list(graph.vertices())[:8]
        for s in vertices:
            assert distances[s][s] == 0.0
            for t in vertices:
                assert distances[s][t] == pytest.approx(distances[t][s])
                for via in vertices:
                    if distances[s][via] < INF and distances[via][t] < INF:
                        assert (
                            distances[s][t]
                            <= distances[s][via] + distances[via][t] + 1e-9
                        )


class TestPartitionProperties:
    @SETTINGS
    @given(weighted_graphs(min_vertices=6, max_vertices=30, connected=True), st.sampled_from([0.2, 0.3]))
    def test_balanced_cut_separates_and_covers(self, graph, beta):
        flat = root_snapshot(graph)
        result = balanced_cut(flat, beta)
        union = set(result.part_a) | set(result.cut) | set(result.part_b)
        assert union == set(flat.vertices)
        assert separates(flat, result)

    @SETTINGS
    @given(weighted_graphs(min_vertices=8, max_vertices=28, connected=True))
    def test_shortcut_children_are_distance_preserving(self, graph):
        flat = root_snapshot(graph)
        result = balanced_cut(flat, 0.25)
        if not result.part_a or not result.part_b:
            return
        cut_distances = cut_distance_block(flat, result.cut)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            child = child_adjacency(flat, part, shortcuts)
            assert is_distance_preserving(flat, child)


class TestHC2LProperties:
    @SETTINGS
    @given(weighted_graphs(min_vertices=2, max_vertices=30), st.sampled_from([2, 4, 8]))
    def test_hc2l_answers_every_pair_exactly(self, graph, leaf_size):
        index = HC2LIndex.build(graph, leaf_size=leaf_size)
        distances = all_pairs(graph)
        for s in graph.vertices():
            for t in graph.vertices():
                expected = distances[s][t]
                got = index.distance(s, t)
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-6)

    @SETTINGS
    @given(weighted_graphs(min_vertices=4, max_vertices=25, connected=True))
    def test_lca_cover_property(self, graph):
        index = HC2LIndex.build(graph, contract=False, leaf_size=2)
        hierarchy = index.hierarchy
        distances = all_pairs(graph)
        for s in graph.vertices():
            for t in graph.vertices():
                if s == t:
                    continue
                cut = hierarchy.lca_node(s, t).cut
                via = min(
                    (distances[s][c] + distances[c][t] for c in cut),
                    default=INF,
                )
                assert via == pytest.approx(distances[s][t], rel=1e-6)

    @SETTINGS
    @given(weighted_graphs(min_vertices=4, max_vertices=25))
    def test_tail_pruning_never_changes_answers(self, graph):
        pruned = HC2LIndex.build(graph, tail_pruning=True)
        naive = HC2LIndex.build(graph, tail_pruning=False)
        assert pruned.flat_labelling().total_entries() <= naive.flat_labelling().total_entries()
        for s in graph.vertices():
            for t in graph.vertices():
                a, b = pruned.distance(s, t), naive.distance(s, t)
                assert (math.isinf(a) and math.isinf(b)) or a == pytest.approx(b, rel=1e-9)

    @SETTINGS
    @given(weighted_graphs(min_vertices=3, max_vertices=22, connected=True))
    def test_hierarchy_height_bound(self, graph):
        index = HC2LIndex.build(graph, beta=0.25, leaf_size=2, contract=False)
        n = graph.num_vertices
        bound = math.log(max(n, 2)) / math.log(1 / 0.75) + 3
        assert index.tree_height() <= bound


class TestBaselineProperties:
    @SETTINGS
    @given(weighted_graphs(min_vertices=2, max_vertices=22))
    def test_all_labellings_agree_with_dijkstra(self, graph):
        distances = all_pairs(graph)
        indexes = [
            PrunedLandmarkLabelling.build(graph),
            PrunedHighwayLabelling.build(graph),
            H2HIndex.build(graph),
        ]
        for s in graph.vertices():
            for t in graph.vertices():
                expected = distances[s][t]
                for index in indexes:
                    got = index.distance(s, t)
                    if math.isinf(expected):
                        assert math.isinf(got)
                    else:
                        assert got == pytest.approx(expected, rel=1e-6)

    @SETTINGS
    @given(weighted_graphs(min_vertices=2, max_vertices=18, connected=True))
    def test_hub_labelling_with_ch_order(self, graph):
        hl = HubLabelling.build(graph)
        distances = all_pairs(graph)
        for s in graph.vertices():
            for t in graph.vertices():
                assert hl.distance(s, t) == pytest.approx(distances[s][t], rel=1e-6)

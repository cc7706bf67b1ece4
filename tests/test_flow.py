"""Unit tests for the reference max-flow oracles and the stacked production solve.

The production solve is held against the Dinitz and Edmonds-Karp oracles
on seeded instances in ``test_partition_backends.py``; here the Dinitz
oracle itself is checked against networkx and hand-made instances, and
:class:`TestStackedRegions` pins one multi-region production solve to a
known-answer table and to both oracles, region by region.
"""

from __future__ import annotations

import networkx as nx
import pytest

from helpers import FLOW_ROUTES, solve_stacked
from oracles import DinitzMaxFlow, FlowNetwork, flow_region, is_vertex_cut, minimum_st_vertex_cut
from repro.utils.rng import make_rng


class TestDinitz:
    def test_single_edge(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 3.0)
        assert DinitzMaxFlow(network, 0, 1).solve() == 3.0

    def test_series_edges_bottleneck(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5.0)
        network.add_edge(1, 2, 2.0)
        assert DinitzMaxFlow(network, 0, 2).solve() == 2.0

    def test_parallel_paths_sum(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1.0)
        network.add_edge(1, 3, 1.0)
        network.add_edge(0, 2, 2.0)
        network.add_edge(2, 3, 2.0)
        assert DinitzMaxFlow(network, 0, 3).solve() == 3.0

    def test_disconnected_is_zero(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1.0)
        network.add_edge(2, 3, 1.0)
        assert DinitzMaxFlow(network, 0, 3).solve() == 0.0

    def test_source_equals_sink_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError):
            DinitzMaxFlow(network, 1, 1)

    def test_negative_capacity_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError):
            network.add_edge(0, 1, -1.0)

    def test_flow_limit_caps_result(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 10.0)
        assert DinitzMaxFlow(network, 0, 1).solve(flow_limit=4.0) == 4.0

    def test_source_and_sink_sides_after_solve(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1.0)
        network.add_edge(1, 2, 1.0)
        network.add_edge(2, 3, 1.0)
        solver = DinitzMaxFlow(network, 0, 3)
        solver.solve()
        assert 0 in solver.source_side()
        assert 3 in solver.sink_side()
        # the graph is saturated, so the two residual sides never overlap
        assert not (solver.source_side() & solver.sink_side())

    def test_matches_networkx_on_random_networks(self):
        rng = make_rng(99)
        for trial in range(5):
            n = 12
            network = FlowNetwork(n)
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(n))
            for _ in range(36):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                capacity = rng.randint(1, 5)
                network.add_edge(u, v, float(capacity))
                if nxg.has_edge(u, v):
                    nxg[u][v]["capacity"] += capacity
                else:
                    nxg.add_edge(u, v, capacity=capacity)
            expected = nx.maximum_flow_value(nxg, 0, n - 1) if nxg.has_node(0) else 0
            assert DinitzMaxFlow(network, 0, n - 1).solve() == pytest.approx(expected)


class TestMinimumVertexCut:
    @staticmethod
    def _grid_adjacency(rows: int, cols: int):
        adjacency = {}
        def vid(r, c):
            return r * cols + c
        for r in range(rows):
            for c in range(cols):
                adjacency.setdefault(vid(r, c), {})
                if c + 1 < cols:
                    adjacency.setdefault(vid(r, c + 1), {})
                    adjacency[vid(r, c)][vid(r, c + 1)] = 1.0
                    adjacency[vid(r, c + 1)][vid(r, c)] = 1.0
                if r + 1 < rows:
                    adjacency.setdefault(vid(r + 1, c), {})
                    adjacency[vid(r, c)][vid(r + 1, c)] = 1.0
                    adjacency[vid(r + 1, c)][vid(r, c)] = 1.0
        return adjacency

    def test_path_cut_is_single_vertex(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {1: 1.0}}
        result = minimum_st_vertex_cut(adjacency, [0], [2])
        assert result.cut_size == 1
        # any single vertex of the path separates the virtual terminals;
        # both canonical cuts must be valid single-vertex cuts
        for cut in result.candidate_cuts():
            assert len(cut) == 1
            assert is_vertex_cut(adjacency, cut, [0], [2]) or cut[0] in (0, 2)

    def test_interior_cut_when_terminals_excluded(self):
        # exclude the endpoint vertices from the cut region: the only
        # remaining separator is the middle vertex
        adjacency = {1: {2: 1.0}, 2: {1: 1.0, 3: 1.0}, 3: {2: 1.0}}
        result = minimum_st_vertex_cut(adjacency, [1], [3])
        assert result.cut_size == 1

    def test_grid_cut_size_equals_width(self):
        # separating the left column from the right column of a 3-wide grid
        adjacency = self._grid_adjacency(3, 5)
        left = [r * 5 for r in range(3)]
        right = [r * 5 + 4 for r in range(3)]
        result = minimum_st_vertex_cut(adjacency, left, right)
        assert result.cut_size == 3
        for cut in result.candidate_cuts():
            assert is_vertex_cut(adjacency, cut, left, right)

    def test_direct_terminal_adjacency_forces_terminal_into_cut(self):
        # vertices 0 (attached to S) and 1 (attached to T) share an edge, so
        # one of them must be cut
        adjacency = {0: {1: 1.0}, 1: {0: 1.0}}
        result = minimum_st_vertex_cut(adjacency, [0], [1])
        assert result.cut_size == 1
        assert result.cut_closest_to_source in ([0], [1])

    def test_disconnected_terminals_need_no_cut(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0}, 2: {3: 1.0}, 3: {2: 1.0}}
        result = minimum_st_vertex_cut(adjacency, [0], [3])
        assert result.cut_size == 0
        assert result.cut_closest_to_source == []

    def test_cut_matches_networkx_min_node_cut(self):
        # networkx's minimum_node_cut(G, s, t) never removes the terminals,
        # so mirror that setup: the cut region excludes s and t, the virtual
        # terminals attach to their neighbourhoods.
        for trial in range(4):
            nxg = nx.connected_watts_strogatz_graph(18, 4, 0.3, seed=trial)
            s, t = 0, 9
            if nxg.has_edge(s, t):
                continue  # networkx requires non-adjacent terminals
            region = [v for v in nxg.nodes if v not in (s, t)]
            adjacency = {v: {} for v in region}
            for u, v in nxg.edges:
                if u in adjacency and v in adjacency:
                    adjacency[u][v] = 1.0
                    adjacency[v][u] = 1.0
            sources = [v for v in nxg.neighbors(s)]
            sinks = [v for v in nxg.neighbors(t)]
            result = minimum_st_vertex_cut(adjacency, sources, sinks)
            expected = len(nx.minimum_node_cut(nxg, s, t))
            assert result.cut_size == expected
            for cut in result.candidate_cuts():
                assert len(cut) == expected

    def test_both_candidate_cuts_are_valid(self):
        adjacency = self._grid_adjacency(4, 6)
        left = [r * 6 for r in range(4)]
        right = [r * 6 + 5 for r in range(4)]
        result = minimum_st_vertex_cut(adjacency, left, right)
        cuts = result.candidate_cuts()
        assert 1 <= len(cuts) <= 2
        for cut in cuts:
            assert len(cut) == result.cut_size
            assert is_vertex_cut(adjacency, cut, left, right)

    def test_is_vertex_cut_rejects_non_cut(self):
        adjacency = self._grid_adjacency(2, 3)
        assert not is_vertex_cut(adjacency, [], [0], [2])
        assert is_vertex_cut(adjacency, [1, 4], [0], [2])


#: ``(name, adjacency, attach_s, attach_t, cut_size, source-side cut,
#: sink-side cut)``: regions with hand-checked canonical cuts
_KNOWN_REGIONS = [
    # a 3 x 5 grid from its left column to its right column: both columns
    # are minimum cuts, the left one nearest S and the right one nearest T
    ("cuts-differ", TestMinimumVertexCut._grid_adjacency(3, 5), [0, 5, 10], [4, 9, 14], 3, [0, 5, 10], [4, 9, 14]),
    # S feeds one component and T drains the other: no flow, no cut
    (
        "already-disconnected",
        {0: {1: 1.0}, 1: {0: 1.0}, 2: {3: 1.0}, 3: {2: 1.0}},
        [0], [3], 0, [], [],
    ),
    # vertex 1 is attached to both terminals, so every cut holds it
    (
        "both-terminals",
        {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {1: 1.0}},
        [0, 1], [1, 2], 1, [1], [1],
    ),
    ("one-vertex", {7: {}}, [7], [7], 1, [7], [7]),
]


class TestStackedRegions:
    """One multi-region solve gives every region its own canonical cuts."""

    def test_known_answers(self):
        regions = [flow_region(adjacency, s, t) for _, adjacency, s, t, *_ in _KNOWN_REGIONS]
        for (name, _, _, _, size, near_source, near_sink), region, result in zip(
            _KNOWN_REGIONS, regions, solve_stacked(regions)
        ):
            assert (result.cut_size, result.cut_closest_to_source, result.cut_closest_to_sink) == (
                size, near_source, near_sink,
            ), name
            for route, solver in FLOW_ROUTES.items():
                reference = solver(*region)
                assert reference == result, (name, route)

    def test_region_order_does_not_matter(self):
        regions = [flow_region(adjacency, s, t) for _, adjacency, s, t, *_ in _KNOWN_REGIONS]
        forward = solve_stacked(regions)
        backward = solve_stacked(regions[::-1])
        assert forward == backward[::-1]

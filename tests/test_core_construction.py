"""Unit tests for the HC2L builder internals (recursion control, stats)."""

from __future__ import annotations

import pytest

from repro.core.construction import ConstructionStats, HC2LBuilder
from repro.graph.builders import complete_graph, graph_from_edges, grid_graph, star_graph
from repro.graph.graph import Graph


class TestBuilderRecursionControl:
    def test_leaf_size_larger_than_graph_gives_single_node(self, uniform_grid):
        builder = HC2LBuilder(leaf_size=uniform_grid.num_vertices)
        hierarchy, labelling, stats = builder.build(uniform_grid)
        assert len(hierarchy.nodes) == 1
        assert hierarchy.nodes[0].is_leaf
        assert stats.num_leaves == 1
        # a single leaf stores a full distance array per vertex (up to pruning)
        assert labelling.average_label_entries() > 1

    def test_smaller_leaf_size_gives_deeper_tree(self, uniform_grid):
        shallow = HC2LBuilder(leaf_size=50).build(uniform_grid)[0]
        deep = HC2LBuilder(leaf_size=4).build(uniform_grid)[0]
        assert deep.height() >= shallow.height()
        assert len(deep.nodes) > len(shallow.nodes)

    def test_max_depth_forces_leaves(self, uniform_grid):
        builder = HC2LBuilder(leaf_size=2, max_depth=2)
        hierarchy, _, stats = builder.build(uniform_grid)
        assert hierarchy.height() <= 3
        assert stats.max_depth <= 2

    def test_empty_graph(self):
        hierarchy, labelling, stats = HC2LBuilder().build(Graph(0))
        assert hierarchy.nodes == []
        assert labelling.total_entries() == 0
        assert stats.num_nodes == 0

    def test_single_vertex_graph(self):
        hierarchy, labelling, stats = HC2LBuilder().build(Graph(1))
        assert len(hierarchy.nodes) == 1
        assert hierarchy.nodes[0].cut == [0]
        assert labelling.num_levels(0) == 1
        assert labelling.level_array(0, 0) == [0.0]

    def test_complete_graph_terminates(self):
        # dense graphs have no small cuts; the builder must still terminate
        graph = complete_graph(12)
        hierarchy, labelling, _ = HC2LBuilder(leaf_size=4).build(graph)
        assert hierarchy.check_vertex_assignment()

    def test_star_graph_structure(self):
        hierarchy, _, _ = HC2LBuilder(leaf_size=3).build(star_graph(15))
        assert hierarchy.check_vertex_assignment()
        assert hierarchy.height() >= 1


class TestBuilderStats:
    def test_node_counts_are_consistent(self, medium_graph):
        builder = HC2LBuilder(leaf_size=10)
        hierarchy, _, stats = builder.build(medium_graph)
        assert stats.num_nodes == len(hierarchy.nodes)
        assert stats.num_leaves == sum(1 for node in hierarchy.nodes if node.is_leaf)
        assert stats.max_depth == hierarchy.height() - 1

    def test_timer_phases_recorded(self, small_graph):
        _, _, stats = HC2LBuilder().build(small_graph)
        phases = stats.timer.durations
        assert {"hierarchy", "labelling", "shortcuts"} <= set(phases)
        assert all(value >= 0 for value in phases.values())
        flattened = stats.as_dict()
        assert flattened["total_seconds"] == pytest.approx(stats.timer.total())

    def test_empty_cut_counted_for_disconnected_subgraphs(self):
        # two equally sized grids, not connected to each other: the root cut
        # is empty and the builder records it
        grid_a, _ = grid_graph(5, 5, seed=1)
        edges = list(grid_a.edges())
        offset = grid_a.num_vertices
        both = graph_from_edges(
            edges + [(u + offset, v + offset, w) for u, v, w in edges],
            num_vertices=2 * offset,
        )
        _, _, stats = HC2LBuilder(leaf_size=6).build(both)
        assert stats.num_empty_cuts >= 1

    def test_shortcut_counter_positive_on_grids(self, jittered_grid):
        _, _, stats = HC2LBuilder(leaf_size=8).build(jittered_grid)
        assert stats.num_shortcuts >= 0

    def test_construction_stats_default_factory(self):
        stats = ConstructionStats()
        assert stats.num_nodes == 0
        assert stats.timer.total() == 0.0

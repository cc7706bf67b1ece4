"""Unit tests for connected components and DIMACS I/O."""

from __future__ import annotations

import gzip

import pytest

from repro.graph.builders import graph_from_edges
from oracles import components_of_adjacency
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_component,
)
from repro.graph.io import (
    iter_query_pairs,
    read_coordinates,
    read_dimacs,
    write_coordinates,
    write_dimacs,
)


class TestComponents:
    def test_single_component(self, uniform_grid):
        assert is_connected(uniform_grid)
        assert len(connected_components(uniform_grid)) == 1
        assert len(largest_component(uniform_grid)) == uniform_grid.num_vertices

    def test_multiple_components(self, disconnected_graph):
        components = connected_components(disconnected_graph)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3, 4]
        assert not is_connected(disconnected_graph)
        assert len(largest_component(disconnected_graph)) == 4

    def test_components_respect_allowed_subset(self, disconnected_graph):
        components = connected_components(disconnected_graph, allowed=[0, 1, 4, 5])
        assert sorted(sorted(c) for c in components) == [[0, 1], [4, 5]]

    def test_components_of_adjacency(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}, 3: {4: 1.0}, 4: {3: 1.0}}
        components = components_of_adjacency(adjacency)
        assert sorted(sorted(c) for c in components) == [[0, 1], [2], [3, 4]]

    def test_empty_graph_is_connected(self):
        assert is_connected(graph_from_edges([], num_vertices=0))

    def test_component_vertices_are_sorted(self, disconnected_graph):
        for component in connected_components(disconnected_graph):
            assert component == sorted(component)


class TestDimacsIO:
    def test_round_trip(self, tmp_path, small_graph):
        path = tmp_path / "net.gr"
        write_dimacs(small_graph, path)
        loaded = read_dimacs(path)
        assert loaded.num_vertices == small_graph.num_vertices
        assert loaded.num_edges == small_graph.num_edges
        assert sorted(loaded.edges()) == pytest.approx(sorted(small_graph.edges()))

    def test_gzip_round_trip(self, tmp_path):
        graph = graph_from_edges([(0, 1, 3.0), (1, 2, 4.0)])
        path = tmp_path / "net.gr.gz"
        write_dimacs(graph, path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("c ")
        loaded = read_dimacs(path)
        assert sorted(loaded.edges()) == [(0, 1, 3.0), (1, 2, 4.0)]

    def test_directed_arcs_collapse_to_min(self, tmp_path):
        path = tmp_path / "asym.gr"
        path.write_text("p sp 2 2\na 1 2 10\na 2 1 4\n")
        graph = read_dimacs(path)
        assert graph.edge_weight(0, 1) == 4.0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.gr"
        path.write_text("c hello\n\np sp 3 2\nc more\na 1 2 1\na 2 3 2\n")
        graph = read_dimacs(path)
        assert graph.num_edges == 2

    def test_missing_problem_line_rejected(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("a 1 2 1\n")
        with pytest.raises(ValueError):
            read_dimacs(path)

    def test_malformed_arc_rejected(self, tmp_path):
        path = tmp_path / "bad2.gr"
        path.write_text("p sp 2 1\na 1 2\n")
        with pytest.raises(ValueError):
            read_dimacs(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad3.gr"
        path.write_text("p sp 2 1\nx 1 2 3\n")
        with pytest.raises(ValueError):
            read_dimacs(path)

    def test_coordinates_round_trip(self, tmp_path):
        coords = {0: (100.0, 200.0), 1: (-5.0, 40.0)}
        path = tmp_path / "net.co"
        write_coordinates(coords, path)
        loaded = read_coordinates(path)
        assert loaded == coords

    def test_malformed_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad.co"
        path.write_text("v 1 2\n")
        with pytest.raises(ValueError):
            read_coordinates(path)

    def test_iter_query_pairs(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("# comment\n1 2\n3 4\n\n")
        assert list(iter_query_pairs(path)) == [(1, 2), (3, 4)]

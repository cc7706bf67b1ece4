"""Unit tests for balanced partitioning, balanced cuts and shortcuts (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    adjacency_of,
    components_of_adjacency,
    cut_distance_block,
    dijkstra_adjacency,
    is_distance_preserving,
    separates,
)
from repro.core.backends import CSRBackend, HeapBackend
from repro.core.construction import root_snapshot
from repro.core.flat_build import SnapshotStack
from repro.graph.builders import graph_from_edges, grid_graph, path_graph
from repro.graph.graph import Graph
from repro.partition.cut import _assign_components, balanced_cut, component_sides
from repro.partition.partition import _farthest_dense, balanced_partition, component_labels
from repro.partition.shortcuts import (
    Shortcut,
    border_vertices,
    child_adjacency,
    compute_shortcuts,
)

INF = float("inf")


class TestWorkingGraph:
    """The snapshot operations the recursion derives working graphs with."""

    def test_working_graph_from_graph(self, uniform_grid):
        flat = root_snapshot(uniform_grid)
        assert flat.vertices == list(range(uniform_grid.num_vertices))
        assert len(flat.indices) == 2 * uniform_grid.num_edges

    def test_restrict_adjacency(self, uniform_grid):
        flat = root_snapshot(uniform_grid)
        sub = flat.induce(range(10))
        assert sub.vertices == list(range(10))
        assert all(sub.vertices[head] < 10 for head in sub.indices)
        # restriction must not alias the parent's arrays
        sub.csr_arrays()[2][:] = 99.0
        assert 99.0 not in flat.csr_arrays()[2]

    def test_add_edge_keeps_minimum(self):
        flat = root_snapshot(graph_from_edges([(0, 2, 1.0)], num_vertices=3))
        for weight in (5.0, 3.0, 7.0):
            flat = flat.overlay_shortcuts([Shortcut(0, 1, weight)])
        assert adjacency_of(flat) == {0: {2: 1.0, 1: 3.0}, 1: {0: 3.0}, 2: {0: 1.0}}

    def test_dijkstra_adjacency_matches_graph_dijkstra(self, jittered_grid):
        from repro.graph.search import dijkstra

        adjacency = adjacency_of(root_snapshot(jittered_grid))
        expected = dijkstra(jittered_grid, 0)
        result = dijkstra_adjacency(adjacency, 0)
        for v in jittered_grid.vertices():
            assert result.get(v, INF) == pytest.approx(expected[v])

    def test_dijkstra_adjacency_allowed(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {1: 1.0}}
        result = dijkstra_adjacency(adjacency, 0, allowed=[0, 1])
        assert 2 not in result

    def test_farthest_vertex_adjacency(self):
        flat = root_snapshot(path_graph(5, weight=2.0))
        row = HeapBackend().sssp_array(flat, 0)
        vertex = _farthest_dense(row, 0)
        assert vertex == 4
        assert row[vertex] == 8.0


class TestBalancedPartition:
    @pytest.mark.parametrize("beta", [0.15, 0.2, 0.3])
    def test_partitions_cover_all_vertices(self, medium_graph, beta):
        flat = root_snapshot(medium_graph)
        result = balanced_partition(flat, beta)
        union = set(result.initial_a) | set(result.cut_region) | set(result.initial_b)
        assert union == set(flat.vertices)
        assert not (set(result.initial_a) & set(result.initial_b))

    def test_initial_partitions_meet_minimum_size(self, medium_graph):
        flat = root_snapshot(medium_graph)
        beta = 0.2
        result = balanced_partition(flat, beta)
        minimum = int(beta * len(flat)) - 1
        assert len(result.initial_a) >= minimum
        assert len(result.initial_b) >= minimum

    def test_invalid_beta_rejected(self, uniform_grid):
        flat = root_snapshot(uniform_grid)
        with pytest.raises(ValueError):
            balanced_partition(flat, 0.0)
        with pytest.raises(ValueError):
            balanced_partition(flat, 0.7)

    def test_empty_and_singleton_graphs(self):
        assert balanced_partition(root_snapshot(Graph(0)), 0.2).sizes() == (0, 0, 0)
        result = balanced_partition(root_snapshot(Graph(6)).induce([5]), 0.2)
        assert result.sizes() == (0, 1, 0)
        assert result.cut_region == [5]

    def test_disconnected_small_components(self):
        # three small components, none exceeding (1 - beta) share
        graph = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        result = balanced_partition(root_snapshot(graph), 0.3)
        assert sorted(result.initial_a + result.cut_region + result.initial_b) == list(range(6))
        # with a dominant-free component structure the cut region gets a whole component
        assert len(result.initial_a) == 2
        assert len(result.initial_b) == 2

    def test_disconnected_dominant_component(self):
        grid, _ = grid_graph(5, 5, seed=1)
        # add two isolated vertices
        graph = graph_from_edges(list(grid.edges()), num_vertices=102)
        flat = root_snapshot(graph).induce(list(range(25)) + [100, 101])
        result = balanced_partition(flat, 0.2)
        # the isolated vertices always land in the cut region
        assert 100 in result.cut_region and 101 in result.cut_region

    def test_uniform_path_handles_bottlenecks(self):
        # a star-like bottleneck: all shortest paths from one side to the
        # other pass through the centre, creating one big equivalence class
        edges = [(i, 10, 1.0) for i in range(5)] + [(10, i, 1.0) for i in range(11, 16)]
        graph = graph_from_edges(edges, num_vertices=16)
        flat = root_snapshot(graph)
        result = balanced_partition(flat, 0.3)
        union = set(result.initial_a) | set(result.cut_region) | set(result.initial_b)
        assert union == set(flat.vertices)


class TestBalancedCut:
    @pytest.mark.parametrize("beta", [0.2, 0.3])
    def test_cut_separates_partitions(self, medium_graph, beta):
        flat = root_snapshot(medium_graph)
        result = balanced_cut(flat, beta)
        assert separates(flat, result)
        union = set(result.part_a) | set(result.cut) | set(result.part_b)
        assert union == set(flat.vertices)

    def test_cut_is_small_on_grid(self):
        grid, _ = grid_graph(12, 12, seed=2, weight_jitter=0.2)
        flat = root_snapshot(grid)
        result = balanced_cut(flat, 0.25)
        # a 12x12 grid has a vertex separator of at most 12 (one column/row)
        assert 0 < len(result.cut) <= 13
        assert separates(flat, result)

    def test_balance_bound_roughly_holds(self, medium_graph):
        flat = root_snapshot(medium_graph)
        beta = 0.2
        result = balanced_cut(flat, beta)
        larger = max(len(result.part_a), len(result.part_b))
        assert larger <= (1 - beta) * len(flat) + 1

    def test_disconnected_graph_gets_empty_cut(self):
        flat = root_snapshot(graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)]))
        result = balanced_cut(flat, 0.3)
        assert result.cut == []
        assert separates(flat, result)

    def test_path_graph_cut(self):
        flat = root_snapshot(path_graph(31))
        result = balanced_cut(flat, 0.2)
        assert len(result.cut) == 1
        assert separates(flat, result)

    def test_balance_metric(self):
        from repro.partition.cut import BalancedCutResult

        result = BalancedCutResult(part_a=[1, 2, 3], cut=[0], part_b=[4, 5, 6])
        assert result.balance() == pytest.approx(0.5)
        assert BalancedCutResult([], [], []).balance() == 1.0


#: (name, blocks): each block is ``(edges, vertex count, cut)``.  One
#: block is a single snapshot, two are a stack of them.
COMPONENT_TABLE = [
    # zero-weight edges connect: scipy would drop them as explicit zeros
    ("zero-weight-edges", [(
        [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 0.0), (4, 5, 2.0), (6, 7, 0.0)],
        8, [3],
    )]),
    # cutting a star's centre leaves every leaf alone; equal sizes
    # alternate sides by smallest member
    ("cut-leaves-singletons", [(
        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)], 5, [0],
    )]),
    ("empty-keep", [([(0, 1, 1.0), (1, 2, 1.0)], 3, [0, 1, 2])]),
    # no arc joins two blocks, so neither block's components leak
    ("two-block-stack", [
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], 5, [2]),
        ([(0, 1, 0.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0), (5, 6, 1.0)], 7, [4]),
    ]),
]


def _reference_sides(components):
    """Lines 13-15 of Algorithm 2, one component at a time."""
    part_a, part_b = [], []
    for component in sorted(components, key=lambda c: (-len(c), c[0])):
        (part_b if len(part_a) > len(part_b) else part_a).extend(component)
    return sorted(part_a), sorted(part_b)


class TestComponentScanTable:
    """Known answers for the one component scan (``component_labels``) and
    the sides it hands Algorithm 2, against ``components_of_adjacency``."""

    @pytest.mark.parametrize(
        "blocks", [row[1] for row in COMPONENT_TABLE], ids=[row[0] for row in COMPONENT_TABLE]
    )
    def test_scan(self, blocks):
        flats = [root_snapshot(graph_from_edges(edges, num_vertices=n)) for edges, n, _ in blocks]
        stack = SnapshotStack.of(flats)
        keep = np.ones(len(stack.vertex_ids), dtype=bool)
        expected, expected_sides = [], []
        for flat, (_, _, cut), base in zip(flats, blocks, stack.offsets.tolist()):
            keep[[base + flat.dense_id[v] for v in cut]] = False
            adjacency = {
                v: {w: x for w, x in neighbours.items() if w not in cut}
                for v, neighbours in adjacency_of(flat).items()
                if v not in cut
            }
            components = components_of_adjacency(adjacency)
            expected += [[base + flat.dense_id[v] for v in c] for c in components]
            expected_sides.append(_reference_sides(components))

        labels, first = component_labels(stack.tails(), stack.indices, keep)
        groups = [np.flatnonzero(labels == c).tolist() for c in range(len(first))]
        assert groups == expected
        assert first.tolist() == [c[0] for c in expected]
        assert (labels[~keep] == -1).all()

        parts, size_a, size_b = component_sides(
            stack.tails(), stack.indices, keep, stack.block_of(), len(flats)
        )
        for i, (part_a, part_b) in enumerate(expected_sides):
            ids = stack.vertex_ids[stack.offsets[i]:stack.offsets[i + 1]]
            block_parts = parts[stack.offsets[i]:stack.offsets[i + 1]]
            assert ids[block_parts == 0].tolist() == part_a
            assert ids[block_parts == 1].tolist() == part_b
            assert (size_a[i], size_b[i]) == (len(part_a), len(part_b))
        if len(flats) == 1:
            # the per-node cut: a stack of one block
            cut = blocks[0][2]
            result = _assign_components(flats[0], cut)
            assert (result.part_a, result.cut, result.part_b) == (
                expected_sides[0][0], sorted(cut), expected_sides[0][1]
            )

    @pytest.mark.parametrize("beta", [0.3, 0.4])
    def test_disconnected_partition(self, beta):
        # components {0..5} (0 hangs on a zero-weight edge), {6, 7}, {8}
        edges = [
            (0, 1, 0.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0),
            (6, 7, 1.0),
        ]
        flat = root_snapshot(graph_from_edges(edges, num_vertices=9))
        largest, second, third = components_of_adjacency(adjacency_of(flat))
        assert (largest, second, third) == ([0, 1, 2, 3, 4, 5], [6, 7], [8])
        heap = balanced_partition(flat, beta, backend=HeapBackend())
        csr = balanced_partition(flat, beta, backend=CSRBackend())
        assert (heap.initial_a, heap.cut_region, heap.initial_b) == (
            csr.initial_a, csr.cut_region, csr.initial_b
        )
        if len(largest) > (1.0 - beta) * 9:
            # beta 0.4: the largest is split inside, the rest join the cut
            inner = balanced_partition(flat.induce(largest), beta, backend=HeapBackend())
            assert (heap.initial_a, heap.cut_region, heap.initial_b) == (
                inner.initial_a, sorted(inner.cut_region + second + third), inner.initial_b
            )
        else:
            # beta 0.3: the two largest components are the initial partitions
            assert (heap.initial_a, heap.cut_region, heap.initial_b) == (largest, third, second)


class TestShortcuts:
    def _cut_setup(self, graph, beta=0.25):
        flat = root_snapshot(graph)
        result = balanced_cut(flat, beta)
        cut_distances = cut_distance_block(flat, result.cut)
        return flat, result, cut_distances

    def test_border_vertices_are_adjacent_to_cut(self, jittered_grid):
        flat, result, _ = self._cut_setup(jittered_grid)
        borders = border_vertices(flat, result.part_a, result.cut)
        adjacency = adjacency_of(flat)
        cut_set = set(result.cut)
        assert borders == sorted(
            v for v in result.part_a if any(w in cut_set for w in adjacency[v])
        )

    def test_children_are_distance_preserving(self, jittered_grid):
        flat, result, cut_distances = self._cut_setup(jittered_grid)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            child = child_adjacency(flat, part, shortcuts)
            sample = part[:: max(1, len(part) // 8)]
            assert is_distance_preserving(flat, child, sample_vertices=sample)

    def test_without_shortcuts_distances_can_grow(self, jittered_grid):
        flat, result, cut_distances = self._cut_setup(jittered_grid)
        adjacency = adjacency_of(flat)
        needed = []
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            needed.extend(shortcuts)
        if not needed:
            pytest.skip("this cut produced no non-redundant shortcuts")
        # every emitted shortcut must be strictly shorter than the
        # within-partition distance it replaces
        for shortcut in needed:
            for part in (result.part_a, result.part_b):
                if shortcut.u in part and shortcut.v in part:
                    part_set = set(part)
                    within = dijkstra_adjacency(adjacency, shortcut.u, allowed=part_set)
                    assert shortcut.weight < within.get(shortcut.v, INF)

    def test_shortcut_weights_are_true_distances(self, medium_graph, medium_oracle):
        flat, result, cut_distances = self._cut_setup(medium_graph, beta=0.2)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            for shortcut in shortcuts:
                expected = medium_oracle.distance(shortcut.u, shortcut.v)
                assert shortcut.weight == pytest.approx(expected, rel=1e-6)

    def test_small_partition_without_borders_needs_no_shortcuts(self):
        flat = root_snapshot(graph_from_edges([(0, 1, 1.0)], num_vertices=3))
        assert compute_shortcuts(flat, [], [0, 1], cut_distance_block(flat, [])) == []

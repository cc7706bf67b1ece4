"""Unit tests for the labelling building blocks (Algorithms 4-5, Equation 6)."""

from __future__ import annotations

import pytest

from oracles import adjacency_of, dijkstra_adjacency, dist_and_prune
from repro.core.construction import root_snapshot
from repro.core.flat_build import fragment_from_levels
from repro.core.labelling import node_distance_arrays
from repro.core.pruned_dijkstra import dist_and_prune_dense
from repro.core.ranking import rank_cut_vertices
from repro.graph.builders import graph_from_edges, path_graph

INF = float("inf")


@pytest.fixture()
def path_flat():
    # 0 - 1 - 2 - 3 - 4 with unit weights
    return root_snapshot(path_graph(5))


class TestDistAndPrune:
    """Algorithm 4 over a root snapshot, where dense ids are vertex ids."""

    def test_distances_match_dijkstra(self, jittered_grid):
        flat = root_snapshot(jittered_grid)
        dist, _ = dist_and_prune_dense(flat, 0, [])
        expected = dijkstra_adjacency(adjacency_of(flat), 0)
        for v, d in expected.items():
            assert dist[v] == pytest.approx(d)

    def test_empty_prune_set_never_flags(self, path_flat):
        _, through = dist_and_prune_dense(path_flat, 0, [])
        assert not any(through)

    def test_flag_set_beyond_prune_vertex(self, path_flat):
        _, through = dist_and_prune_dense(path_flat, 0, [2])
        # vertices strictly beyond 2 are reached through it
        assert through[3] is True
        assert through[4] is True
        # the prune vertex itself and everything before it are not flagged
        assert through[2] is False
        assert through[1] is False

    def test_root_in_prune_set_is_ignored(self, path_flat):
        _, through = dist_and_prune_dense(path_flat, 0, [0, 2])
        assert through[1] is False
        assert through[3] is True

    def test_tied_paths_prefer_flagged(self):
        # two equal-length paths 0->3: via 1 (in prune set) and via 2 (not)
        graph = graph_from_edges([(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        dist, through = dist_and_prune_dense(root_snapshot(graph), 0, [1])
        assert dist[3] == 2.0
        assert through[3] is True

    def test_unreachable_vertices_absent(self, disconnected_graph):
        dist, through = dist_and_prune_dense(root_snapshot(disconnected_graph), 0, [])
        assert dist[5] == INF
        assert through[5] is False

    @pytest.mark.parametrize("root, prune", [(0, []), (0, [7, 40]), (77, [0, 7, 140]), (140, [77])])
    def test_matches_dict_oracle(self, jittered_grid, root, prune):
        flat = root_snapshot(jittered_grid)
        dist, through = dist_and_prune_dense(flat, root, prune)
        expected = dist_and_prune(adjacency_of(flat), root, prune)
        for v in flat.vertices:
            assert (dist[v], through[v]) == expected.get(v)


class TestRanking:
    def test_single_cut_vertex(self, path_flat):
        ranking = rank_cut_vertices(path_flat, [2])
        assert ranking.ordered == [2]
        assert ranking.coverage == {2: 0}

    def test_empty_cut(self, path_flat):
        ranking = rank_cut_vertices(path_flat, [])
        assert ranking.ordered == []

    def test_covered_vertex_ranks_last(self):
        # line 0-1-2-3-4-5; cut {1, 3}: from 3, the far side (0) is covered
        # via 1; from 1, only vertices {4,5} are covered via 3 - symmetric,
        # but with an extra appendage on 1's side the coverage differs.
        graph = graph_from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (0, 6, 1.0), (6, 7, 1.0)]
        )
        ranking = rank_cut_vertices(root_snapshot(graph), [1, 3])
        # vertex 3 reaches {0, 6, 7} only through 1 => coverage(3) = 4 incl. 0-side
        # vertex 1 reaches {4, 5} only through 3 => coverage(1) = 2
        assert ranking.coverage[3] > ranking.coverage[1]
        assert ranking.ordered == [1, 3]

    def test_ordering_is_deterministic(self, medium_graph):
        flat = root_snapshot(medium_graph)
        cut = flat.vertices[:6]
        first = rank_cut_vertices(flat, cut).ordered
        second = rank_cut_vertices(flat, cut).ordered
        assert first == second


class TestNodeDistanceArrays:
    def test_arrays_store_exact_distances(self, jittered_grid):
        flat = root_snapshot(jittered_grid)
        adjacency = adjacency_of(flat)
        cut = [0, 7, 77]
        ranking = rank_cut_vertices(flat, cut)
        arrays, cut_distances = node_distance_arrays(flat, ranking, tail_pruning=False)
        assert cut_distances.shape == (len(cut), len(flat.vertices))
        for j, v in enumerate(flat.vertices):
            array = arrays[v]
            assert len(array) == len(cut)
            for i, c in enumerate(ranking.ordered):
                assert array[i] == pytest.approx(dijkstra_adjacency(adjacency, c).get(v, INF))
                assert cut_distances[i, j] == array[i]

    def test_tail_pruning_only_truncates(self, jittered_grid):
        flat = root_snapshot(jittered_grid)
        cut = [0, 7, 77, 140]
        ranking = rank_cut_vertices(flat, cut)
        full, _ = node_distance_arrays(flat, ranking, tail_pruning=False)
        pruned, _ = node_distance_arrays(flat, ranking, tail_pruning=True)
        for v in full:
            assert len(pruned[v]) <= len(full[v])
            assert pruned[v] == full[v][: len(pruned[v])]
            assert len(pruned[v]) >= 1

    def test_tail_pruning_shrinks_total_size(self, medium_graph):
        flat = root_snapshot(medium_graph)
        cut = flat.vertices[:8]
        ranking = rank_cut_vertices(flat, cut)
        full, _ = node_distance_arrays(flat, ranking, tail_pruning=False)
        pruned, _ = node_distance_arrays(flat, ranking, tail_pruning=True)
        assert sum(map(len, pruned.values())) < sum(map(len, full.values()))

    def test_empty_cut_produces_empty_arrays(self, path_flat):
        ranking = rank_cut_vertices(path_flat, [])
        arrays, cut_distances = node_distance_arrays(path_flat, ranking)
        assert cut_distances.shape == (0, len(path_flat.vertices))
        assert all(array == [] for array in arrays.values())


class TestLabellingContainer:
    """Level lists packed by ``fragment_from_levels`` read back per level."""

    def test_append_and_access(self):
        labelling = fragment_from_levels([[[1.0, 2.0], [3.0]], [[]], []])
        assert labelling.num_levels(0) == 2
        assert labelling.num_levels(1) == 1
        assert labelling.level_array(0, 1) == [3.0]
        assert labelling.level_array(1, 0) == []
        assert labelling.entries_of(0) == 3
        assert labelling.total_entries() == 3

    def test_size_accounting(self):
        labelling = fragment_from_levels([[[1.0, 2.0, 3.0]], [[4.0]]])
        assert labelling.size_bytes() == 4 * 8 + 2 * 2 + 2 * 8
        assert labelling.average_label_entries() == 2.0
        assert labelling.max_label_entries() == 3

    def test_empty_labelling(self):
        labelling = fragment_from_levels([])
        assert labelling.total_entries() == 0
        assert labelling.average_label_entries() == 0.0
        assert labelling.max_label_entries() == 0

"""Hierarchy-aligned shard boundaries and label reordering.

Covers the serving-side payoff of the hierarchy phase:

* the DFS linearisation (``subtree_ranges`` / ``core_order``) and the
  boundary derivation (:func:`derive_shard_boundaries`) - both layouts
  must exactly tile the core vertex range (no gap, no overlap),
* ``FlatLabelling.reorder`` round trips and the lossless
  ``partition``/``concat`` cycle under either layout,
* the sharded on-disk format: hierarchy layouts answer bit-identically,
  reassemble losslessly, version-1 manifests still load, and
* the fixture criterion: on neighbourhood-style traffic the hierarchy
  layout's cross-shard pair fraction is at most the even layout's.
"""

from __future__ import annotations

import json

import pytest

from helpers import random_query_pairs
from repro.core.flat import FlatLabelling
from repro.core.index import HC2LIndex
from repro.core.persistence import (
    load_index_sharded,
    load_manifest,
    save_index_sharded,
)
from repro.experiments.sharding import boundary_locality_rows
from repro.experiments.workloads import neighborhood_pairs
from repro.hierarchy.tree import derive_shard_boundaries
from repro.serving import ShardRouter


@pytest.fixture(scope="module")
def built_index(small_graph) -> HC2LIndex:
    return HC2LIndex.build(small_graph, leaf_size=6)


def _assert_tiles(edges, total):
    assert edges[0] == 0
    assert edges[-1] == total
    assert all(a <= b for a, b in zip(edges, edges[1:]))


class TestSubtreeRanges:
    def test_positions_are_a_permutation(self, built_index):
        hierarchy = built_index.hierarchy
        position = hierarchy.subtree_ranges()
        assert sorted(position) == list(range(hierarchy.num_vertices))
        order = hierarchy.core_order()
        assert [position[v] for v in order] == list(range(hierarchy.num_vertices))

    def test_every_subtree_is_contiguous(self, built_index):
        hierarchy = built_index.hierarchy
        position = hierarchy.subtree_ranges()
        for node in hierarchy.nodes:
            members = sorted(position[v] for v in hierarchy.subtree_vertices(node.index))
            assert members == list(range(node.range_lo, node.range_hi))

    def test_children_tile_their_parent(self, built_index):
        hierarchy = built_index.hierarchy
        hierarchy.subtree_ranges()
        for node in hierarchy.nodes:
            cursor = node.range_lo + len(node.cut)
            for child_index in (node.left, node.right):
                if child_index is None:
                    continue
                child = hierarchy.nodes[child_index]
                assert child.range_lo == cursor
                cursor = child.range_hi
            assert cursor == node.range_hi


class TestBoundaryDerivation:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 16])
    def test_hierarchy_boundaries_tile_the_range(self, built_index, num_shards):
        hierarchy = built_index.hierarchy
        edges, order = derive_shard_boundaries(hierarchy, num_shards)
        assert len(edges) == num_shards + 1
        _assert_tiles(edges, hierarchy.num_vertices)
        assert sorted(order) == list(range(hierarchy.num_vertices))

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 16])
    def test_even_boundaries_tile_the_range(self, built_index, num_shards):
        m = built_index.contraction.core.num_vertices
        edges = FlatLabelling.even_boundaries(m, num_shards)
        assert len(edges) == num_shards + 1
        _assert_tiles(edges, m)

    def test_interior_boundaries_sit_on_subtree_edges(self, built_index):
        hierarchy = built_index.hierarchy
        edges, _ = derive_shard_boundaries(hierarchy, 4)
        hierarchy.subtree_ranges()
        subtree_starts = {node.range_lo for node in hierarchy.nodes}
        for boundary in edges[1:-1]:
            assert boundary in subtree_starts

    def test_invalid_shard_count(self, built_index):
        with pytest.raises(ValueError, match="num_shards"):
            derive_shard_boundaries(built_index.hierarchy, 0)


class TestReorder:
    def test_reorder_round_trips(self, built_index):
        flat = built_index.flat_labelling()
        _, order = derive_shard_boundaries(built_index.hierarchy, 3)
        position = built_index.hierarchy.subtree_ranges()
        reordered = flat.reorder(order)
        assert reordered.reorder(position) == flat
        # per-vertex arrays are byte-identical, just relocated
        for vertex in range(0, flat.num_vertices, 7):
            for depth in range(flat.num_levels(vertex)):
                assert (
                    reordered.level_array(position[vertex], depth)
                    == flat.level_array(vertex, depth)
                )

    def test_reorder_rejects_non_permutations(self, built_index):
        flat = built_index.flat_labelling()
        with pytest.raises(ValueError, match="permutation"):
            flat.reorder([0] * flat.num_vertices)
        with pytest.raises(ValueError, match="permutation"):
            flat.reorder(list(range(flat.num_vertices - 1)))

    def test_partition_concat_round_trip_in_dfs_order(self, built_index):
        flat = built_index.flat_labelling()
        edges, order = derive_shard_boundaries(built_index.hierarchy, 5)
        reordered = flat.reorder(order)
        parts = reordered.partition(edges)
        assert FlatLabelling.concat(parts) == reordered


class TestHierarchyShardedLayout:
    @pytest.mark.parametrize("mode", ["even", "hierarchy"])
    def test_router_is_bit_identical(self, built_index, small_graph, tmp_path, mode):
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=3, boundaries=mode)
        _, manifest = load_manifest(layout)
        assert manifest["vertex_order"] == ("hierarchy" if mode == "hierarchy" else "identity")
        router = ShardRouter(path)
        pairs = random_query_pairs(small_graph, 80, seed=21)
        assert router.distances(pairs).tolist() == built_index.distances(pairs).tolist()
        for s, t in pairs[:15]:
            assert router.distance(s, t) == built_index.distance(s, t)

    def test_hierarchy_layout_reassembles_losslessly(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=4, boundaries="hierarchy")
        rebuilt = load_index_sharded(path)
        assert rebuilt.flat_labelling() == built_index.flat_labelling()

    def test_unknown_vertex_order_rejected(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=2)
        manifest_path = layout / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["vertex_order"] = "shuffled"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="vertex_order"):
            ShardRouter(path)

    def test_unknown_boundaries_mode_rejected(self, built_index, tmp_path):
        with pytest.raises(ValueError, match="boundaries"):
            save_index_sharded(built_index, tmp_path / "x.npz", boundaries="bogus")


class TestCrossShardFraction:
    def test_hierarchy_beats_even_on_local_traffic(self, built_index, small_graph, tmp_path):
        pairs = neighborhood_pairs(small_graph, 800, seed=5, max_hops=3)
        assert len(pairs) == 800
        rows = boundary_locality_rows(built_index, pairs, tmp_path, num_shards=4)
        by_mode = {row["boundaries"]: row for row in rows}
        assert set(by_mode) == {"even", "hierarchy"}
        assert (
            by_mode["hierarchy"]["cross_shard_fraction"]
            <= by_mode["even"]["cross_shard_fraction"]
        )

    def test_stats_report_the_fraction(self, built_index, small_graph, tmp_path):
        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=2)
        router = ShardRouter(path)
        assert router.stats.cross_shard_fraction() == 0.0
        router.distances(random_query_pairs(small_graph, 50, seed=8))
        stats = router.stats.as_dict()
        assert 0.0 <= stats["cross_shard_fraction"] <= 1.0


"""FlatLabelling: lossless round-trips and equivalence with the nested form."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.construction import root_snapshot
from repro.core.flat import FlatLabelling
from repro.core.index import HC2LIndex
from repro.core.labelling import HC2LLabelling
from repro.core.query import core_distance
from repro.graph.builders import graph_from_edges

from helpers import random_query_pairs
from oracles import adjacency_dict


def random_nested_labelling(seed: int, num_vertices: int = 12) -> HC2LLabelling:
    """A random nested labelling with uneven level counts and array lengths."""
    rng = random.Random(seed)
    labelling = HC2LLabelling(num_vertices)
    for v in range(num_vertices):
        for _ in range(rng.randrange(0, 4)):
            array = [rng.uniform(0.0, 100.0) for _ in range(rng.randrange(0, 5))]
            labelling.append_level(v, array)
    return labelling


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_nested_flat_nested_is_lossless(self, seed):
        nested = random_nested_labelling(seed)
        flat = FlatLabelling.from_labelling(nested)
        back = flat.to_labelling()
        assert back.labels == nested.labels
        assert back.num_vertices == nested.num_vertices

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_nested_flat_is_identity(self, seed):
        flat = FlatLabelling.from_labelling(random_nested_labelling(seed))
        again = FlatLabelling.from_labelling(flat.to_labelling())
        assert again == flat

    def test_empty_labelling(self):
        flat = FlatLabelling.from_labelling(HC2LLabelling(0))
        assert flat.total_entries() == 0
        assert flat.to_labelling().labels == []

    def test_vertices_without_levels(self):
        nested = HC2LLabelling(3)
        nested.append_level(1, [1.0, 2.0])
        flat = FlatLabelling.from_labelling(nested)
        assert flat.num_levels(0) == 0
        assert flat.num_levels(1) == 1
        assert flat.level_array(1, 0) == [1.0, 2.0]
        assert flat.to_labelling().labels == nested.labels


class TestPartitioning:
    """slice_vertices / partition / concat: lossless, re-based, guarded."""

    @pytest.mark.parametrize("seed", range(4))
    def test_concat_partition_is_identity(self, seed):
        flat = FlatLabelling.from_labelling(random_nested_labelling(seed, num_vertices=17))
        for boundaries in ([0, 17], [0, 5, 17], [0, 1, 6, 12, 17], [0, 0, 17, 17]):
            parts = flat.partition(boundaries)
            assert len(parts) == len(boundaries) - 1
            assert FlatLabelling.concat(parts) == flat

    def test_slice_is_self_contained(self):
        flat = FlatLabelling.from_labelling(random_nested_labelling(3, num_vertices=10))
        part = flat.slice_vertices(4, 8)
        assert part.num_vertices == 4
        # re-based index arrays: the slice starts at offset zero
        assert part.vertex_indptr[0] == 0
        assert part.level_indptr[0] == 0
        assert part.vertex_indptr.dtype == np.int64
        assert part.level_indptr.dtype == np.int64
        assert part.values.dtype == np.float64
        # local vertex v maps to parent vertex v + 4, level by level
        for local in range(4):
            assert part.num_levels(local) == flat.num_levels(local + 4)
            for depth in range(part.num_levels(local)):
                assert part.level_array(local, depth) == flat.level_array(local + 4, depth)

    def test_slice_values_are_views_not_copies(self):
        flat = FlatLabelling.from_labelling(random_nested_labelling(1, num_vertices=9))
        part = flat.slice_vertices(2, 7)
        assert part.values.base is not None  # zero-copy view of the parent buffer

    def test_empty_and_full_slices(self):
        flat = FlatLabelling.from_labelling(random_nested_labelling(2, num_vertices=6))
        assert flat.slice_vertices(0, 6) == flat
        empty = flat.slice_vertices(3, 3)
        assert empty.num_vertices == 0
        assert empty.total_entries() == 0

    def test_concat_of_nothing_is_empty(self):
        empty = FlatLabelling.concat([])
        assert empty.num_vertices == 0
        assert empty.total_entries() == 0

    def test_invalid_ranges_rejected(self):
        flat = FlatLabelling.from_labelling(random_nested_labelling(0, num_vertices=5))
        with pytest.raises(ValueError):
            flat.slice_vertices(3, 2)
        with pytest.raises(ValueError):
            flat.slice_vertices(0, 6)
        with pytest.raises(ValueError):
            flat.slice_vertices(-1, 3)
        with pytest.raises(ValueError):
            flat.partition([0, 3])  # must end at num_vertices
        with pytest.raises(ValueError):
            flat.partition([1, 5])  # must start at 0
        with pytest.raises(ValueError):
            flat.partition([0, 4, 2, 5])  # must be monotone

    def test_even_boundaries(self):
        assert FlatLabelling.even_boundaries(10, 1) == [0, 10]
        assert FlatLabelling.even_boundaries(10, 4) == [0, 2, 5, 8, 10]
        assert FlatLabelling.even_boundaries(2, 4)[0] == 0
        assert FlatLabelling.even_boundaries(2, 4)[-1] == 2
        with pytest.raises(ValueError):
            FlatLabelling.even_boundaries(10, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_replace_leading_levels(self, seed):
        base = random_nested_labelling(seed)
        rng = random.Random(seed + 100)
        prefix = HC2LLabelling(base.num_vertices)
        expected = []
        for v, levels in enumerate(base.labels):
            lead = [
                [rng.uniform(0.0, 9.0) for _ in range(rng.randrange(0, 4))]
                for _ in range(rng.randrange(0, len(levels) + 1))
            ]
            for array in lead:
                prefix.append_level(v, array)
            expected.append(lead + levels[len(lead) :])
        merged = FlatLabelling.from_labelling(base).replace_leading_levels(
            FlatLabelling.from_labelling(prefix)
        )
        assert merged == FlatLabelling.from_labelling(
            HC2LLabelling(base.num_vertices, labels=expected)
        )

    def test_writable_memmap_rejected(self, tmp_path):
        """A shard must never be able to scribble on shared label pages."""
        flat = FlatLabelling.from_labelling(random_nested_labelling(4, num_vertices=5))
        path = tmp_path / "values.npy"
        np.save(path, flat.values)
        writable = np.load(path, mmap_mode="r+")
        with pytest.raises(ValueError, match="read-only"):
            FlatLabelling(flat.num_vertices, writable, flat.level_indptr, flat.vertex_indptr)
        # the read-only mapping the serving layer hands out is accepted
        readonly = np.load(path, mmap_mode="r")
        rebuilt = FlatLabelling(
            flat.num_vertices, readonly, flat.level_indptr, flat.vertex_indptr
        )
        assert rebuilt == flat


class TestMetricsParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_size_metrics_match_nested(self, seed):
        nested = random_nested_labelling(seed)
        flat = FlatLabelling.from_labelling(nested)
        assert flat.total_entries() == nested.total_entries()
        assert flat.size_bytes() == nested.size_bytes()
        assert flat.average_label_entries() == nested.average_label_entries()
        assert flat.max_label_entries() == nested.max_label_entries()
        for v in range(nested.num_vertices):
            assert flat.entries_of(v) == nested.entries_of(v)
            assert flat.num_levels(v) == nested.num_levels(v)

    def test_built_index_metrics_match(self, small_graph):
        index = HC2LIndex.build(small_graph)
        flat = index.flat_labelling()
        assert flat.total_entries() == index.labelling.total_entries()
        assert flat.size_bytes() == index.labelling.size_bytes()


class TestQueryEquivalence:
    def test_core_distance_same_on_either_backend(self, small_graph, query_pairs_small):
        """core_distance answers identically from nested and flat labels."""
        index = HC2LIndex.build(small_graph, contract=False)
        flat = index.flat_labelling()
        for s, t in query_pairs_small:
            nested_value = core_distance(index.hierarchy, index.labelling, s, t)
            flat_value = core_distance(index.hierarchy, flat, s, t)
            assert nested_value == flat_value

    def test_level_views_match_nested_arrays(self, small_graph):
        index = HC2LIndex.build(small_graph)
        flat = index.flat_labelling()
        labelling = index.labelling
        for v in range(labelling.num_vertices):
            for depth in range(labelling.num_levels(v)):
                assert flat.level_array(v, depth) == labelling.level_array(v, depth)
                assert np.array_equal(
                    flat.level_view(v, depth), np.asarray(labelling.level_array(v, depth))
                )

    def test_level_view_out_of_range(self, small_graph):
        index = HC2LIndex.build(small_graph)
        flat = index.flat_labelling()
        with pytest.raises(IndexError):
            flat.level_view(0, flat.num_levels(0))


class TestFlatWorkingGraph:
    def test_csr_matches_adjacency(self):
        graph = graph_from_edges([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0)])
        adjacency = adjacency_dict(graph)
        flat = root_snapshot(graph)
        assert flat.vertices == [0, 1, 2]
        for v in adjacency:
            dense = flat.dense_id[v]
            neighbours = {
                flat.vertices[flat.indices[i]]: flat.weights[i]
                for i in range(flat.indptr[dense], flat.indptr[dense + 1])
            }
            assert neighbours == adjacency[v]

    def test_dense_ids_preserve_order(self):
        graph = graph_from_edges([(7, 3, 1.0)], num_vertices=10)
        flat = root_snapshot(graph).induce([9, 7, 3])
        assert flat.vertices == [3, 7, 9]
        assert flat.dense_ids([9, 3]) == [2, 0]


class TestConstructorValidation:
    def test_mismatched_indptr_rejected(self):
        with pytest.raises(ValueError):
            FlatLabelling(
                3,
                values=np.zeros(0),
                level_indptr=np.zeros(1, dtype=np.int64),
                vertex_indptr=np.zeros(2, dtype=np.int64),
            )


def test_random_graph_equivalence_property():
    """Random graphs: flat vs nested labels agree on every random query."""
    rng = random.Random(1234)
    for trial in range(4):
        n = rng.randrange(10, 40)
        edges = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v, rng.uniform(1.0, 5.0)))
        for _ in range(n // 2):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.uniform(1.0, 5.0)))
        graph = graph_from_edges(edges, num_vertices=n)
        index = HC2LIndex.build(graph, leaf_size=4)
        flat = index.flat_labelling()
        assert flat.to_labelling().labels == index.labelling.labels
        for s, t in random_query_pairs(graph, 30, seed=trial):
            assert index.distance(s, t) == index.engine.distance(s, t)

"""FlatLabelling: lossless level-list round-trips, partitioning, metrics and reads."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.construction import root_snapshot
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.index import HC2LIndex
from repro.core.labelling import level_piece, pack_levels
from repro.graph.builders import graph_from_edges

from helpers import label_levels, random_query_pairs
from oracles import adjacency_dict, fragment_from_levels, min_plus_prefix


def random_levels(seed: int, num_vertices: int = 12) -> list:
    """Random per-vertex level lists with uneven level counts and array lengths."""
    rng = random.Random(seed)
    return [
        [
            [rng.uniform(0.0, 100.0) for _ in range(rng.randrange(0, 5))]
            for _ in range(rng.randrange(0, 4))
        ]
        for _ in range(num_vertices)
    ]


def random_flat(seed: int, num_vertices: int = 12) -> FlatLabelling:
    return fragment_from_levels(random_levels(seed, num_vertices))


class TestRoundTrip:
    """``fragment_from_levels`` and the ``label_levels`` reader are inverses."""

    @pytest.mark.parametrize("seed", range(8))
    def test_nested_flat_nested_is_lossless(self, seed):
        levels = random_levels(seed)
        flat = fragment_from_levels(levels)
        assert flat.num_vertices == len(levels)
        assert label_levels(flat) == levels

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_nested_flat_is_identity(self, seed):
        flat = random_flat(seed)
        assert fragment_from_levels(label_levels(flat)) == flat

    def test_empty_labelling(self):
        flat = fragment_from_levels([])
        assert flat.total_entries() == 0
        assert label_levels(flat) == []

    def test_vertices_without_levels(self):
        levels = [[], [[1.0, 2.0]], []]
        flat = fragment_from_levels(levels)
        assert flat.num_levels(0) == 0
        assert flat.num_levels(1) == 1
        assert flat.level_array(1, 0) == [1.0, 2.0]
        assert label_levels(flat) == levels


class TestPartitioning:
    """slice_vertices / partition / concat: lossless, re-based, guarded."""

    @pytest.mark.parametrize("seed", range(4))
    def test_concat_partition_is_identity(self, seed):
        flat = random_flat(seed, num_vertices=17)
        for boundaries in ([0, 17], [0, 5, 17], [0, 1, 6, 12, 17], [0, 0, 17, 17]):
            parts = flat.partition(boundaries)
            assert len(parts) == len(boundaries) - 1
            assert FlatLabelling.concat(parts) == flat

    def test_slice_is_self_contained(self):
        flat = random_flat(3, num_vertices=10)
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
        flat = random_flat(1, num_vertices=9)
        part = flat.slice_vertices(2, 7)
        assert part.values.base is not None  # zero-copy view of the parent buffer

    def test_empty_and_full_slices(self):
        flat = random_flat(2, num_vertices=6)
        assert flat.slice_vertices(0, 6) == flat
        empty = flat.slice_vertices(3, 3)
        assert empty.num_vertices == 0
        assert empty.total_entries() == 0

    def test_concat_of_nothing_is_empty(self):
        empty = FlatLabelling.concat([])
        assert empty.num_vertices == 0
        assert empty.total_entries() == 0

    def test_invalid_ranges_rejected(self):
        flat = random_flat(0, num_vertices=5)
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
        base = random_levels(seed)
        rng = random.Random(seed + 100)
        prefix = []
        expected = []
        for levels in base:
            lead = [
                [rng.uniform(0.0, 9.0) for _ in range(rng.randrange(0, 4))]
                for _ in range(rng.randrange(0, len(levels) + 1))
            ]
            prefix.append(lead)
            expected.append(lead + levels[len(lead) :])
        merged = fragment_from_levels(base).replace_leading_levels(
            fragment_from_levels(prefix)
        )
        assert merged == fragment_from_levels(expected)

    def test_writable_memmap_rejected(self, tmp_path):
        """A shard must never be able to scribble on shared label pages."""
        flat = random_flat(4, num_vertices=5)
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


#: Known answers of the Section 4.2.2 size model: levels ->
#: (total_entries, entries_of per vertex, num_levels per vertex,
#: size_bytes, average_label_entries, max_label_entries).
#: size_bytes = 8 per value + 2 per level + 8 per vertex.
SIZE_METRIC_CASES = [
    ("empty", [], (0, [], [], 0, 0.0, 0)),
    ("one-level-each", [[[1.0, 2.0, 3.0]], [[4.0]]], (4, [3, 1], [1, 1], 4 * 8 + 2 * 2 + 2 * 8, 2.0, 3)),
    ("no-levels", [[], []], (0, [0, 0], [0, 0], 2 * 8, 0.0, 0)),
    ("empty-arrays-count-as-levels", [[[], []], [[5.0]]], (1, [0, 1], [2, 1], 8 + 3 * 2 + 2 * 8, 0.5, 1)),
    (
        "uneven-depths",
        [[[1.0], [2.0, 3.0], [4.0, 5.0, 6.0]], [[7.0, 8.0]], []],
        (8, [6, 2, 0], [3, 1, 0], 8 * 8 + 4 * 2 + 3 * 8, 8 / 3, 6),
    ),
]


class TestSizeMetrics:
    @pytest.mark.parametrize(
        "levels, expected",
        [case[1:] for case in SIZE_METRIC_CASES],
        ids=[case[0] for case in SIZE_METRIC_CASES],
    )
    def test_known_answers(self, levels, expected):
        total, entries, num_levels, size_bytes, average, largest = expected
        flat = fragment_from_levels(levels)
        assert flat.total_entries() == total
        assert [flat.entries_of(v) for v in range(flat.num_vertices)] == entries
        assert [flat.num_levels(v) for v in range(flat.num_vertices)] == num_levels
        assert flat.size_bytes() == size_bytes
        assert flat.average_label_entries() == average
        assert flat.max_label_entries() == largest


class TestMetricsParity:
    def test_built_index_metrics_match(self, small_graph):
        """A built index's metrics follow the same model over its level lists."""
        index = HC2LIndex.build(small_graph)
        flat = index.flat_labelling()
        levels = label_levels(flat)
        assert flat.total_entries() == sum(len(a) for vertex in levels for a in vertex)
        assert flat.size_bytes() == (
            8 * flat.total_entries()
            + 2 * sum(len(vertex) for vertex in levels)
            + 8 * len(levels)
        )


class TestQueryEquivalence:
    def test_core_distance_same_on_either_backend(self, small_graph, query_pairs_small):
        """The engine's scan equals the per-pair reference over level lists."""
        index = HC2LIndex.build(small_graph, contract=False)
        levels = label_levels(index.flat_labelling())
        for s, t in query_pairs_small:
            if s == t:
                continue
            depth = index.hierarchy.lca_depth(s, t)
            expected = min_plus_prefix(levels[s][depth], levels[t][depth])
            assert index.engine.distance_with_hub_count(s, t) == expected

    def test_level_views_match_nested_arrays(self, small_graph):
        index = HC2LIndex.build(small_graph)
        flat = index.flat_labelling()
        levels = label_levels(flat)
        for v, vertex_levels in enumerate(levels):
            assert flat.num_levels(v) == len(vertex_levels)
            for depth, array in enumerate(vertex_levels):
                assert flat.level_array(v, depth) == array
                assert np.array_equal(flat.level_view(v, depth), np.asarray(array))

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

    @pytest.mark.parametrize("n", [40, 600], ids=["dict_route", "searched_route"])
    def test_dense_ids_routes_agree_and_reject_non_members(self, n):
        rng = random.Random(n)
        vertices = sorted(rng.sample(range(3 * n), n))
        flat = FlatWorkingGraph(
            vertices, np.zeros(n + 1, dtype=np.int64), np.empty(0, np.int64), np.empty(0)
        )
        members = rng.sample(vertices, n // 2)
        expected = [vertices.index(v) for v in members]
        for given in (members, np.asarray(members, dtype=np.int64)):
            assert np.asarray(flat.dense_ids(given)).tolist() == expected
        assert sorted(np.asarray(flat.dense_ids(set(members[:3]))).tolist()) == sorted(expected[:3])
        outsider = next(v for v in range(3 * n + 1) if v not in set(vertices))
        for bad in ([members[0], outsider], [3 * n + 5], [-1]):
            with pytest.raises(KeyError):
                flat.dense_ids(bad)


def hierarchy_levels(seed: int, ids: list, case: str):
    """Random level pieces of a made-up hierarchy over ``ids``, plus the
    per-vertex level lists they stand for (position ``p`` is ``ids[p]``).

    Each node's level covers its whole region: a random ``(hubs x region)``
    block, cut per vertex to a length the ``case`` decides.  The node then
    keeps a few region vertices as its cut and splits the rest in two.
    """
    rng = np.random.default_rng(seed)
    position = {v: p for p, v in enumerate(ids)}
    pieces, levels = [], [[] for _ in ids]

    def node(region: list, depth: int) -> None:
        m = len(region)
        hubs = int(rng.integers(1, 5))
        if case == "empty_cuts" and depth % 2 == 1:
            hubs = 0
        block = rng.uniform(0.0, 50.0, size=(hubs, m))
        block[rng.random((hubs, m)) < 0.1] = np.inf
        if case == "no_tail_pruning":
            lengths = np.full(m, hubs)
        elif case == "zero_length_levels":
            lengths = rng.integers(0, hubs + 1, size=m)
        else:
            lengths = rng.integers(min(1, hubs), hubs + 1, size=m)
        if case == "extension_rows" and depth % 2 == 0:
            # a relabelled node with crossing-extension hubs keeps every
            # array whole and appends the extra rows to all of them
            extra = rng.uniform(0.0, 50.0, size=(int(rng.integers(1, 3)), m))
            block = np.vstack([block, extra])
            lengths = np.full(m, block.shape[0])
        pieces.append(level_piece(region, depth, lengths, block))
        for j, v in enumerate(region):
            levels[position[v]].append(block[: lengths[j], j].tolist())
        rest = region[min(m, max(1, hubs)):]
        if len(rest) >= 2:
            split = int(rng.integers(1, len(rest)))
            node(sorted(rest[:split]), depth + 1)
            node(sorted(rest[split:]), depth + 1)
        elif rest:
            node(rest, depth + 1)

    shuffled = list(ids)
    rng.shuffle(shuffled)
    node(sorted(shuffled), 0)
    if case == "shuffled_pieces":
        pieces = [pieces[i] for i in rng.permutation(len(pieces))]
    return pieces, levels


PACKER_CASES = ["tail_pruned", "no_tail_pruning", "empty_cuts", "zero_length_levels",
                "extension_rows", "shuffled_pieces", "vertex_subset"]


class TestLevelPacker:
    """``pack_levels`` gathers level pieces exactly as the per-value oracle packs lists."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", PACKER_CASES)
    def test_packer_matches_oracle(self, case, seed):
        if case == "vertex_subset":
            # a subtree fragment: ascending original ids, positions by rank
            ids = sorted(random.Random(seed).sample(range(200), 40))
            pieces, levels = hierarchy_levels(seed, ids, case)
            packed = pack_levels(pieces, len(ids), np.asarray(ids, dtype=np.int64))
        else:
            ids = list(range(40))
            pieces, levels = hierarchy_levels(seed, ids, case)
            packed = pack_levels(pieces, len(ids))
        assert packed == fragment_from_levels(levels)
        assert label_levels(packed) == levels

    def test_no_pieces_is_levelless(self):
        packed = pack_levels([], 3)
        assert packed == fragment_from_levels([[], [], []])

    def test_empty_cut_piece_gives_zero_length_levels(self):
        piece = level_piece([0, 2], 0, np.zeros(2, dtype=np.int64), np.empty((0, 2)))
        assert label_levels(pack_levels([piece], 3)) == [[[]], [], [[]]]


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
    """Random graphs: level lists round-trip, and the scalar and batch paths
    agree bit for bit on every random query."""
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
        assert fragment_from_levels(label_levels(flat)) == flat
        pairs = random_query_pairs(graph, 30, seed=trial)
        batch = index.distances(pairs).tolist()
        assert [index.engine.distance(s, t) for s, t in pairs] == batch

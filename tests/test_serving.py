"""Serving layer: caching, mmap loading, single-copy storage.

Every serving path must return *bit-identical* answers to the bare
engine - the assertions use ``==``, not ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.experiments.workloads import random_pairs, skewed_pairs
from repro.serving import CachingOracle


@pytest.fixture(scope="module")
def index(small_graph):
    return HC2LIndex.build(small_graph)


# --------------------------------------------------------------------- #
# CachingOracle
# --------------------------------------------------------------------- #
class TestCachingOracle:
    def test_answers_identical_to_engine(self, index, small_graph):
        cached = CachingOracle(index)
        pairs = random_pairs(small_graph, 300, seed=3)
        direct = index.distances(pairs)
        # twice: first pass fills the cache, second pass serves from it
        assert cached.distances(pairs).tolist() == direct.tolist()
        assert cached.distances(pairs).tolist() == direct.tolist()
        for s, t in pairs[:25]:
            assert cached.distance(s, t) == index.distance(s, t)

    def test_hit_accounting_on_skewed_workload(self, index, small_graph):
        cached = CachingOracle(index)
        workload = skewed_pairs(small_graph, 2000, seed=11, exponent=1.2)
        cached.distances(workload)
        stats = cached.stats
        assert stats.pair_hits + stats.pair_misses == len(workload)
        # Zipf-skewed traffic revisits hot pairs; the cache must notice
        assert stats.pair_hits > 0
        assert 0.0 < stats.hit_rate() < 1.0
        # replaying the workload is then (almost) all hits
        before_hits = stats.pair_hits
        cached.distances(workload)
        assert stats.pair_hits >= before_hits + len(workload) - cached.max_pairs

    def test_repeat_traffic_fully_cached(self, index, small_graph):
        cached = CachingOracle(index)
        pairs = random_pairs(small_graph, 50, seed=5)
        cached.distances(pairs)
        misses_after_first = cached.stats.pair_misses
        cached.distances(pairs)
        assert cached.stats.pair_misses == misses_after_first

    def test_symmetric_pairs_share_one_entry(self, index):
        cached = CachingOracle(index)
        first = cached.distance(3, 17)
        second = cached.distance(17, 3)
        assert first == second
        assert cached.stats.pair_hits == 1
        assert cached.stats.pair_misses == 1

    def test_pair_cache_respects_capacity(self, index, small_graph):
        cached = CachingOracle(index, max_pairs=16)
        cached.distances(random_pairs(small_graph, 400, seed=7))
        assert len(cached._pairs) <= 16

    def test_row_cache_hits_and_copies(self, index, small_graph):
        cached = CachingOracle(index)
        targets = list(range(0, small_graph.num_vertices, 5))
        row = cached.one_to_many(2, targets)
        assert row.tolist() == index.one_to_many(2, targets).tolist()
        assert cached.stats.row_misses == 1
        row[0] = -1.0  # mutating the returned row must not poison the cache
        again = cached.one_to_many(2, targets)
        assert cached.stats.row_hits == 1
        assert again.tolist() == index.one_to_many(2, targets).tolist()

    def test_many_to_many_identical_and_matrix_cached(self, index):
        cached = CachingOracle(index)
        sources = [0, 7, 13]
        targets = [2, 9, 40, 77]
        direct = index.many_to_many(sources, targets)
        assert cached.many_to_many(sources, targets).tolist() == direct.tolist()
        assert cached.stats.matrix_misses == 1
        assert cached.stats.row_misses == len(sources)
        # the repeat request is one matrix hit; no row assembly at all
        assert cached.many_to_many(sources, targets).tolist() == direct.tolist()
        assert cached.stats.matrix_hits == 1
        assert cached.stats.row_hits == 0

    def test_many_to_many_returns_copies(self, index):
        cached = CachingOracle(index)
        sources, targets = [0, 7], [2, 9, 40]
        direct = index.many_to_many(sources, targets)
        first = cached.many_to_many(sources, targets)
        first[0, 0] = -1.0  # mutating a result must not poison the cache
        assert cached.many_to_many(sources, targets).tolist() == direct.tolist()

    def test_many_to_many_in_batch_source_dedup(self, index):
        """A source repeated within one request is assembled once and
        counts as a row hit from the second occurrence on."""
        cached = CachingOracle(index)
        sources = [5, 9, 5, 5]
        targets = [2, 40]
        direct = index.many_to_many(sources, targets)
        assert cached.many_to_many(sources, targets).tolist() == direct.tolist()
        assert cached.stats.row_misses == 2  # two distinct sources
        assert cached.stats.row_hits == 2  # the two repeats of source 5

    def test_matrix_cache_respects_capacity(self, index):
        cached = CachingOracle(index, max_matrices=2)
        for s in range(4):
            cached.many_to_many([s], [10, 11])
        assert len(cached._matrices) <= 2
        # LRU: the oldest matrix was evicted, the newest still hits
        cached.many_to_many([3], [10, 11])
        assert cached.stats.matrix_hits == 1
        cached.many_to_many([0], [10, 11])
        assert cached.stats.matrix_misses == 5  # s=0 re-assembled after eviction

    def test_matrix_stats_in_requests_and_hit_rate(self, index):
        cached = CachingOracle(index)
        cached.many_to_many([0], [1])
        cached.many_to_many([0], [1])
        assert cached.stats.requests == cached.stats.matrix_hits + cached.stats.matrix_misses + cached.stats.row_misses
        assert cached.stats.hit_rate() > 0.0
        assert cached.stats.as_dict()["matrix_hits"] == 1
        cached.clear()
        cached.many_to_many([0], [1])
        assert cached.stats.matrix_misses == 2  # clear() drops matrices too

    def test_metadata_passthrough(self, index):
        cached = CachingOracle(index)
        assert cached.index_size_bytes == index.index_size_bytes
        assert cached.supports_batch == index.supports_batch
        assert cached.distance_with_hub_count(0, 9) == index.distance_with_hub_count(0, 9)

    def test_invalid_capacity_rejected(self, index):
        with pytest.raises(ValueError):
            CachingOracle(index, max_pairs=0)
        with pytest.raises(ValueError):
            CachingOracle(index, max_rows=0)
        with pytest.raises(ValueError):
            CachingOracle(index, max_matrices=0)

    def test_clear_preserves_stats(self, index):
        cached = CachingOracle(index)
        cached.distance(0, 5)
        cached.clear()
        assert cached.stats.pair_misses == 1
        cached.distance(0, 5)
        assert cached.stats.pair_misses == 2

    def test_float_ids_rejected_regardless_of_cache_state(self, index):
        """A warm cache must not turn an invalid query into a hit."""
        cached = CachingOracle(index)
        with pytest.raises(ValueError):
            cached.distance(2.7, 3)  # cold cache
        cached.distance(2, 3)
        with pytest.raises(ValueError):
            cached.distance(2.7, 3)  # warm cache: int(2.7) must not alias (2, 3)
        targets = [0, 1, 3]
        cached.one_to_many(2, targets)
        with pytest.raises(ValueError):
            cached.one_to_many(2.7, targets)  # same rule for the row cache


# --------------------------------------------------------------------- #
# mmap-backed loading
# --------------------------------------------------------------------- #
class TestMmapLoading:
    def test_bit_identical_to_in_memory_load(self, index, small_graph, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        in_memory = HC2LIndex.load(path)
        mapped = HC2LIndex.load(path, mmap_labels=True)
        pairs = random_pairs(small_graph, 200, seed=13)
        assert mapped.distances(pairs).tolist() == in_memory.distances(pairs).tolist()
        assert mapped.distances(pairs).tolist() == index.distances(pairs).tolist()
        for s, t in pairs[:20]:
            assert mapped.distance(s, t) == index.distance(s, t)

    def test_labels_are_memory_mapped(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        mapped = HC2LIndex.load(path, mmap_labels=True)
        flat = mapped.flat_labelling()
        assert isinstance(flat.values, np.memmap)
        assert isinstance(flat.level_indptr, np.memmap)
        assert not flat.values.flags.writeable
        assert (tmp_path / "index.npz.mmap" / "label_values.npy").exists()

    def test_sidecars_reused_across_loads(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        HC2LIndex.load(path, mmap_labels=True)
        sidecar = tmp_path / "index.npz.mmap" / "label_values.npy"
        first_mtime = sidecar.stat().st_mtime_ns
        HC2LIndex.load(path, mmap_labels=True)
        assert sidecar.stat().st_mtime_ns == first_mtime

    def test_load_flag_on_index_class(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        mapped = HC2LIndex.load(path, mmap_labels=True)
        assert isinstance(mapped.flat_labelling().values, np.memmap)


# --------------------------------------------------------------------- #
# single-copy label storage
# --------------------------------------------------------------------- #
class TestSingleCopyStorage:
    def test_batch_query_keeps_exactly_one_label_copy(self, small_graph):
        index = HC2LIndex.build(small_graph)
        index.distances([(0, 5), (3, 9), (7, 7)])
        # the flat buffers are the only materialised labels: no scalar list
        # mirror inside the engine
        assert index.engine._values_list is None
        assert index.engine.flat is index.flat_labelling()

    def test_scalar_path_materialises_mirror_lazily(self, small_graph):
        index = HC2LIndex.build(small_graph)
        index.distances([(0, 5)])
        assert index.engine._values_list is None
        index.distance(0, 5)
        assert index.engine._values_list is not None


# --------------------------------------------------------------------- #
# composed stack
# --------------------------------------------------------------------- #
def test_full_serving_stack_identical_answers(index, small_graph, tmp_path):
    """mmap load -> cache returns the bare engine's answers."""
    path = tmp_path / "index.npz"
    index.save(path)
    stack = CachingOracle(HC2LIndex.load(path, mmap_labels=True))
    pairs = random_pairs(small_graph, 120, seed=17)
    direct = index.distances(pairs).tolist()
    assert stack.distances(pairs).tolist() == direct
    assert [stack.distance(s, t) for s, t in pairs[:15]] == direct[:15]

"""ShardRouter behaviour: read-only shard maps, routing stats, composition
with the serving layers, the CLI surface, and the overhead harness.

Bit-identity with the monolithic engine is asserted exhaustively in the
conformance suite (``test_oracle_protocol.py``); this module covers the
router's *operational* contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.experiments.sharding import router_overhead_rows
from repro.experiments.workloads import random_pairs
from repro.serving import CachingOracle, ShardRouter

from repro import cli


@pytest.fixture(scope="module")
def index(small_graph):
    return HC2LIndex.build(small_graph)


@pytest.fixture(scope="module")
def layout_path(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("router") / "index.npz"
    index.save(path)
    index.save_sharded(path, num_shards=3)
    return path


class TestRouterOperations:
    def test_shard_buffers_are_read_only_memmaps(self, layout_path, small_graph):
        router = ShardRouter(layout_path)
        assert len(router._shards) == router.num_shards
        for shard in router._shards:
            assert isinstance(shard.values, np.memmap)
            assert not shard.values.flags.writeable

    def test_routing_stats_accounting(self, layout_path, small_graph):
        router = ShardRouter(layout_path)
        pairs = random_pairs(small_graph, 300, seed=8)
        router.distances(pairs)
        stats = router.stats
        assert stats.batches == 1
        assert stats.core_pairs > 0
        assert stats.cross_shard_pairs > 0  # random traffic crosses 3 shards
        assert stats.fanout_calls >= 1
        assert sum(stats.pairs_per_shard.values()) <= stats.core_pairs
        as_dict = stats.as_dict()
        assert as_dict["batches"] == 1

    def test_repr_mentions_shards(self, layout_path):
        router = ShardRouter(layout_path)
        assert "num_shards=3" in repr(router)

    def test_live_reshard_keeps_the_adopted_layout(self, index, small_graph, tmp_path):
        """A re-shard on disk never mixes boundaries into a live router: it
        keeps answering from the shards it mapped until it reloads."""
        path = tmp_path / "live.npz"
        index.save_sharded(path, num_shards=3)
        pairs = random_pairs(small_graph, 100, seed=4)
        expected = index.distances(pairs).tolist()
        with ShardRouter(path) as router:  # maps the 3-shard generation
            index.save_sharded(path, num_shards=2)  # concurrent re-shard
            assert router.num_shards == 3
            assert router.distances(pairs).tolist() == expected
            assert router.reload_generation() == 1
            assert router.num_shards == 2
            assert router.distances(pairs).tolist() == expected


class TestComposition:
    """CachingOracle needs zero changes over the router."""

    def test_cached_router_identical(self, layout_path, index, small_graph):
        cached = CachingOracle(ShardRouter(layout_path))
        pairs = random_pairs(small_graph, 200, seed=4)
        direct = index.distances(pairs).tolist()
        assert cached.distances(pairs).tolist() == direct
        assert cached.distances(pairs).tolist() == direct  # second pass: hits
        assert cached.stats.pair_hits > 0
        assert cached.index_size_bytes == index.index_size_bytes

    def test_full_stack_over_shards(self, layout_path, index, small_graph):
        stack = CachingOracle(ShardRouter(layout_path))
        pairs = random_pairs(small_graph, 80, seed=7)
        direct = index.distances(pairs).tolist()
        assert stack.distances(pairs).tolist() == direct
        assert [stack.distance(s, t) for s, t in pairs[:15]] == direct[:15]


class TestCLI:
    def test_shard_then_query(self, index, tmp_path, capsys):
        path = tmp_path / "cli-index.npz"
        index.save(path)
        assert cli.main(["shard", str(path), "--shards", "2"]) == 0
        output = capsys.readouterr().out
        assert "shard-0000.npz" in output and "shard-0001.npz" in output
        assert (tmp_path / "cli-index.npz.shards" / "manifest.json").exists()

        assert cli.main(["query", "--shards", str(path), "0,5", "3,9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        s, t, value = lines[0].split("\t")
        assert (int(s), int(t)) == (0, 5)
        assert float(value) == index.distance(0, 5)

    def test_query_without_layout_fails_clearly(self, index, tmp_path, capsys):
        path = tmp_path / "never-sharded.npz"
        index.save(path)
        with pytest.raises(ValueError, match="manifest"):
            cli.main(["query", "--shards", str(path), "0,5"])


class TestOverheadHarness:
    def test_rows_per_shard_count(self, index, small_graph, tmp_path):
        pairs = random_pairs(small_graph, 400, seed=19)
        rows = router_overhead_rows(index, pairs, tmp_path, shard_counts=(1, 2, 4))
        assert [row["num_shards"] for row in rows] == [1, 2, 4]
        for row in rows:
            assert row["oracle"] == f"HC2L+router(shards={row['num_shards']})"
            assert row["num_queries"] == len(pairs)
            assert row["batch_queries_per_second"] > 0
            assert row["router_overhead_ratio"] > 0
            assert row["batches"] == 1  # stats cover one steady-state batch
        # shards=1 has no cross-shard traffic; more shards do
        assert rows[0]["cross_shard_pairs"] == 0
        assert rows[2]["cross_shard_pairs"] > 0

    def test_invalid_repetitions(self, index, small_graph, tmp_path):
        with pytest.raises(ValueError):
            router_overhead_rows(index, [(0, 1)], tmp_path, repetitions=0)

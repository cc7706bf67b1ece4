"""Versioned generations, hot-swap serving, and the dynamic-path bug squash.

Covers the zero-downtime update pipeline end to end:

* manifest ``generation`` round trip, auto-bump on resave, back-compat
  with generation-less manifests, corrupt-manifest counter restart;
* :meth:`ShardRouter.reload_generation` - answers flip atomically,
  concurrent queries never error mid-swap, a router keeps serving its
  adopted generation from every shard while a newer one sits on disk,
  and a generation published while shards are being mapped is refused
  loudly instead of mixed in;
* the shared pair cache epoch - advancing it hides every cached entry
  from every attachment at once, republish works;
* a live two-worker fleet generation flip under concurrent callers with
  zero dropped or errored requests and bit-identical post-swap answers;
* the dynamic-path bug squash: non-finite weights rejected,
  ``flush``'s lost-update window closed, ``Graph.reweighted`` raising on
  keys that match no edge;
* differential fuzz for the scoped relabel: scoped vs full vs fresh
  build with exact equality (integer weights keep path sums float-exact,
  so bit-identity holds whatever cuts the fresh build picks), including
  contracted pendant edges and disconnected graphs.
"""

from __future__ import annotations

import json
import math
import random
import re
import threading
import zlib
from typing import List, Tuple

import numpy as np
import pytest

from repro.cli import main
from repro.core.dynamic import DynamicHC2LIndex, relabel
from repro.core.index import HC2LIndex
from repro.core.persistence import (
    MANIFEST_FILENAME,
    load_manifest,
    load_shard,
    shard_directory,
)
from repro.experiments.dynamic import clustered_edge_changes, integerised
from repro.graph.builders import caterpillar_graph, graph_from_edges
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph
from repro.serving.fleet import FleetOracle
from repro.serving.shards import ShardRouter
from repro.serving.shm_cache import SharedPairCache


@pytest.fixture(scope="module")
def dyn_graph():
    network = synthetic_road_network(
        RoadNetworkSpec("dynamic-serving", num_vertices=150, seed=23)
    )
    # integer weights: every path sum is float-exact, so the cross-index
    # comparisons below can assert true bit-identity (see module docstring)
    return integerised(network.distance_graph)


@pytest.fixture(scope="module")
def dyn_index(dyn_graph):
    return HC2LIndex.build(dyn_graph)


def _reweight(graph: Graph, factor: float, count: int = 8, seed: int = 3) -> Graph:
    rng = random.Random(seed)
    edges = list(graph.edges())
    rows = rng.sample(range(len(edges)), count)
    return graph.reweighted(
        {(u, v): w * factor for u, v, w in (edges[r] for r in rows)}
    )


def _probe_pairs(graph: Graph, count: int = 150, seed: int = 5) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    n = graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# --------------------------------------------------------------------- #
# manifest generation field
# --------------------------------------------------------------------- #
class TestGenerationPersistence:
    def test_fresh_layout_is_generation_zero(self, dyn_index, tmp_path):
        layout = dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2)
        _, manifest = load_manifest(layout)
        assert manifest["generation"] == 0

    def test_resave_auto_bumps_generation(self, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=2)
        dyn_index.save_sharded(path, num_shards=2)
        layout = dyn_index.save_sharded(path, num_shards=2)
        _, manifest = load_manifest(layout)
        assert manifest["generation"] == 2

    def test_explicit_generation_round_trips(self, dyn_index, tmp_path):
        layout = dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2, generation=7)
        _, manifest = load_manifest(layout)
        assert manifest["generation"] == 7
        # the auto-bump continues from the explicit value
        layout = dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2)
        _, manifest = load_manifest(layout)
        assert manifest["generation"] == 8

    def test_negative_generation_rejected(self, dyn_index, tmp_path):
        with pytest.raises(ValueError, match="generation"):
            dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2, generation=-1)

    def test_manifest_without_generation_rejected(self, dyn_index, tmp_path):
        layout = dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2)
        manifest_path = layout / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["generation"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="generation None"):
            load_manifest(layout)
        with pytest.raises(ValueError, match="generation None"):
            ShardRouter(tmp_path / "idx.npz")

    def test_invalid_generation_value_rejected_on_load(self, dyn_index, tmp_path):
        layout = dyn_index.save_sharded(tmp_path / "idx.npz", num_shards=2)
        manifest_path = layout / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["generation"] = "newest"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="generation"):
            load_manifest(layout)

    def test_corrupt_manifest_refuses_to_restart_counter(self, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=2)
        layout = dyn_index.save_sharded(path, num_shards=2)
        (layout / MANIFEST_FILENAME).write_text("{not json", encoding="utf-8")
        # restarting at 0 would look older than generation 1 to a live router
        with pytest.raises(ValueError, match=re.escape(str(layout / MANIFEST_FILENAME))):
            dyn_index.save_sharded(path, num_shards=2)
        layout = dyn_index.save_sharded(path, num_shards=2, generation=2)
        _, manifest = load_manifest(layout)
        assert manifest["generation"] == 2


# --------------------------------------------------------------------- #
# router hot-swap
# --------------------------------------------------------------------- #
class TestRouterReload:
    def test_reload_swaps_answers_bit_identically(self, dyn_graph, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        pairs = _probe_pairs(dyn_graph)
        router = ShardRouter(path)
        try:
            before = router.distances(pairs)
            new_graph = _reweight(dyn_graph, 3.0)
            new_index = relabel(dyn_index, new_graph)
            new_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
            assert router.generation == 0
            assert router.reload_generation() == 1
            assert router.generation == 1
            assert router.stats.reloads == 1
            after = router.distances(pairs)
            assert after.tolist() == new_index.distances(pairs).tolist()
            assert after.tolist() != before.tolist()
        finally:
            router.close()

    def test_reload_to_older_generation_is_a_noop(self, dyn_graph, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=2, generation=5)
        router = ShardRouter(path)
        try:
            assert router.generation == 5
            dyn_index.save_sharded(path, num_shards=2, generation=3)
            assert router.reload_generation() == 5  # raced: disk is older
            assert router.stats.reloads == 0
        finally:
            router.close()

    def test_adopted_generation_serves_every_shard_until_reload(
        self, dyn_graph, dyn_index, tmp_path
    ):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        rng = random.Random(17)
        n = dyn_graph.num_vertices
        pairs = [(s, rng.randrange(n)) for s in range(n)]  # every source
        new_index = relabel(dyn_index, _reweight(dyn_graph, 3.0))
        router = ShardRouter(path)
        try:
            new_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
            # generation 1 is on disk; the router still serves generation 0
            assert router.distances(pairs).tolist() == dyn_index.distances(pairs).tolist()
            assert sorted(router.stats.pairs_per_shard) == list(range(router.num_shards))
            assert router.reload_generation() == 1
            assert router.distances(pairs).tolist() == new_index.distances(pairs).tolist()
        finally:
            router.close()

    @pytest.mark.parametrize("step", ["open", "reload"])
    def test_generation_published_while_mapping_is_refused(
        self, dyn_graph, dyn_index, tmp_path, monkeypatch, step
    ):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        router = ShardRouter(path) if step == "reload" else None
        map_shard = load_shard
        published = []

        def publish_then_map(*args, **kwargs):
            if not published:  # a writer lands between two shard maps
                dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
                published.append(True)
            return map_shard(*args, **kwargs)

        monkeypatch.setattr("repro.serving.shards.load_shard", publish_then_map)
        with pytest.raises(RuntimeError, match=r"moved to generation 1 .*reload_generation\(\)"):
            if router is None:
                ShardRouter(path)
            else:
                router.reload_generation()
        assert published
        if router is not None:
            try:
                # the refused reload left the adopted generation in service
                assert router.generation == 0
                pairs = _probe_pairs(dyn_graph)
                assert router.distances(pairs).tolist() == dyn_index.distances(pairs).tolist()
                assert router.reload_generation() == 1  # no writer this time
            finally:
                router.close()

    def test_concurrent_queries_never_error_across_swaps(
        self, dyn_graph, dyn_index, tmp_path
    ):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        pairs = _probe_pairs(dyn_graph, count=40, seed=11)
        new_graph = _reweight(dyn_graph, 2.0)
        new_index = relabel(dyn_index, new_graph)
        allowed = {
            tuple(dyn_index.distances(pairs).tolist()),
            tuple(new_index.distances(pairs).tolist()),
        }
        router = ShardRouter(path)
        # one answer before the hammer starts: the freshly opened router
        # already serves generation 0 from every shard it mapped
        assert tuple(router.distances(pairs).tolist()) in allowed
        errors: List[BaseException] = []
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                try:
                    got = tuple(router.distances(pairs).tolist())
                    assert got in allowed, "answers mixed two generations"
                except BaseException as error:  # noqa: BLE001 - collected for the assert
                    errors.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            new_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
            assert router.reload_generation() == 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            router.close()
        assert not errors
        assert router.stats.reloads == 1

    def test_closed_router_refuses_reload(self, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=2)
        router = ShardRouter(path)
        router.close()
        with pytest.raises(RuntimeError):
            router.reload_generation()


# --------------------------------------------------------------------- #
# shared pair cache epoch
# --------------------------------------------------------------------- #
class TestSharedCacheEpoch:
    def test_advance_epoch_hides_every_entry(self):
        with SharedPairCache.create(64) as cache:
            cache.put(3, 9, 12.0)
            cache.put(5, 7, 4.5)
            assert cache.epoch == 0
            assert cache.advance_epoch() == 1
            assert cache.get(3, 9) is None
            assert cache.get(5, 7) is None

    def test_epoch_bump_propagates_to_attachments(self):
        with SharedPairCache.create(64) as cache:
            cache.put(1, 2, 8.0)
            attached = SharedPairCache.attach(cache.name)
            try:
                assert attached.get(1, 2) == 8.0
                cache.advance_epoch()
                assert attached.epoch == 1
                assert attached.get(1, 2) is None
            finally:
                attached.close()

    def test_republish_after_epoch_advance(self):
        with SharedPairCache.create(64) as cache:
            cache.put(3, 9, 12.0)
            cache.advance_epoch()
            cache.put(3, 9, 99.0)  # the new generation's value
            assert cache.get(3, 9) == 99.0
            cache.put(11, 13, math.inf)
            assert cache.get(11, 13) == math.inf

    def test_stale_epoch_slot_is_reclaimed_by_eviction_path(self):
        with SharedPairCache.create(8) as cache:
            for k in range(1, 8):
                cache.put(k, k + 50, float(k))
            cache.advance_epoch()
            # every slot holds a stale-epoch entry; new publishes must land
            for k in range(1, 8):
                cache.put(k, k + 80, float(k * 10))
            hits = sum(cache.get(k, k + 80) == k * 10 for k in range(1, 8))
            assert hits > 0  # capacity is probabilistic, total loss is not


# --------------------------------------------------------------------- #
# live fleet hot-swap
# --------------------------------------------------------------------- #
class TestFleetHotSwap:
    def test_generation_flip_under_concurrent_callers(
        self, dyn_graph, dyn_index, tmp_path
    ):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        pairs = _probe_pairs(dyn_graph, count=60, seed=17)
        new_graph = _reweight(dyn_graph, 4.0)
        new_index = relabel(dyn_index, new_graph)
        allowed = {
            tuple(dyn_index.distances(pairs).tolist()),
            tuple(new_index.distances(pairs).tolist()),
        }
        errors: List[BaseException] = []
        stop = threading.Event()
        with FleetOracle(path, num_workers=2, shared_cache_slots=256) as fleet:
            fleet.distances(pairs)  # warm the generation-0 shared cache

            def hammer() -> None:
                while not stop.is_set():
                    try:
                        got = tuple(fleet.distances(pairs).tolist())
                        assert got in allowed, "answers mixed two generations"
                    except BaseException as error:  # noqa: BLE001
                        errors.append(error)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            try:
                for thread in threads:
                    thread.start()
                new_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
                reply = fleet.reload()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not errors
            assert reply["generation"] == 1
            assert [w["generation"] for w in reply["workers"]] == [1, 1]
            assert fleet.generation == 1
            # post-swap: bit-identical to the new index (integer weights
            # make this equality hierarchy-independent), not the old one
            after = fleet.distances(pairs)
            assert after.tolist() == new_index.distances(pairs).tolist()
            assert after.tolist() != dyn_index.distances(pairs).tolist()
            stats = fleet.stats()
            assert stats["generation"] == 1
            assert stats["reloads"] == 1

    def test_reload_without_new_generation_is_stable(self, dyn_index, tmp_path):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        with FleetOracle(path, num_workers=2) as fleet:
            before = fleet.distance(0, 5)
            reply = fleet.reload()
            assert reply["generation"] == 0
            assert fleet.distance(0, 5) == before


# --------------------------------------------------------------------- #
# CLI reload
# --------------------------------------------------------------------- #
class TestCliReload:
    def test_reload_against_live_fleet(self, dyn_graph, dyn_index, tmp_path, capsys):
        path = tmp_path / "idx.npz"
        dyn_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        with FleetOracle(path, num_workers=2) as fleet:
            host, port = fleet.start_tcp()
            new_index = relabel(dyn_index, _reweight(dyn_graph, 2.0))
            new_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
            assert main(["reload", "--host", host, "--port", str(port)]) == 0
            reply = json.loads(capsys.readouterr().out)
            assert reply["generation"] == 1
            assert fleet.generation == 1

    def test_reload_unreachable_fleet_fails_loudly(self, capsys):
        assert main(["reload", "--port", "1", "--timeout", "2"]) == 1
        assert "reload failed" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# dynamic-path bug squash (satellites)
# --------------------------------------------------------------------- #
def _square_with_tail() -> Graph:
    graph = Graph(6)
    graph.add_edge(0, 1, 2.0)
    graph.add_edge(1, 2, 2.0)
    graph.add_edge(2, 3, 2.0)
    graph.add_edge(3, 0, 2.0)
    graph.add_edge(3, 4, 1.0)  # pendant chain: 3 - 4 - 5
    graph.add_edge(4, 5, 1.0)
    return graph


class TestDynamicBugSquash:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_update_edge_weight_rejects_non_finite(self, weight):
        dynamic = DynamicHC2LIndex(_square_with_tail())
        with pytest.raises(ValueError, match="finite"):
            dynamic.update_edge_weight(0, 1, weight)
        assert dynamic.pending_updates() == 0
        assert dynamic.distance(0, 2) == 4.0  # index not poisoned

    def test_update_landing_mid_flush_survives_to_next_flush(self, monkeypatch):
        dynamic = DynamicHC2LIndex(_square_with_tail())
        dynamic.update_edge_weight(0, 1, 10.0)

        import repro.core.dynamic as dynamic_module

        real_relabel = dynamic_module.relabel
        fired = []

        def racing_relabel(index, new_graph, changed_edges=None):
            if not fired:
                fired.append(True)
                # a writer thread lands an update while the relabel runs;
                # the old code cleared the whole pending map afterwards
                dynamic.update_edge_weight(1, 2, 20.0)
            return real_relabel(index, new_graph, changed_edges=changed_edges)

        monkeypatch.setattr(dynamic_module, "relabel", racing_relabel)
        dynamic.flush()
        assert dynamic.pending_updates() == 1  # the mid-flush update survived
        # next query applies it: with (0,1)=10 and (1,2)=20 the best
        # 1-to-2 route is the detour 1-0-3-2 at 10 + 2 + 2
        assert dynamic.distance(1, 2) == 14.0
        assert dynamic._graph.edge_weight(1, 2) == 20.0
        assert dynamic.pending_updates() == 0

    def test_concurrent_queries_flush_once(self):
        dynamic = DynamicHC2LIndex(_square_with_tail())
        dynamic.update_edge_weight(0, 1, 10.0)
        barrier = threading.Barrier(4)
        results: List[float] = []
        lock = threading.Lock()

        def query() -> None:
            barrier.wait()
            value = dynamic.distance(0, 1)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=query) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # with (0, 1) at weight 10 the detour 0-3-2-1 wins at 6
        assert results == [6.0] * 4
        assert dynamic.relabel_count == 1  # racing queries flushed once

    def test_reweighted_rejects_unknown_and_unnormalised_keys(self):
        graph = _square_with_tail()
        with pytest.raises(ValueError, match="no edge"):
            graph.reweighted({(0, 5): 3.0})  # no such edge
        with pytest.raises(ValueError, match="no edge"):
            graph.reweighted({(1, 0): 3.0})  # un-normalised orientation
        updated = graph.reweighted({(0, 1): 3.0})
        assert updated.edge_weight(0, 1) == 3.0


# --------------------------------------------------------------------- #
# scoped relabel differential fuzz
# --------------------------------------------------------------------- #
def _random_tree_edges(rng: random.Random, n: int) -> List[Tuple[int, int, float]]:
    return [(rng.randrange(v), v, float(rng.randrange(1, 16))) for v in range(1, n)]


def _scoped_fuzz_graph(case: str, seed: int) -> Graph:
    rng = random.Random(zlib.crc32(case.encode()) * 7919 + seed)
    if case == "pendant_chains":
        # caterpillar + chords: big attachment trees, changed pendant
        # edges exercise the contraction-rebuild fallback
        spine = rng.randrange(8, 16)
        graph = caterpillar_graph(spine, 2, weight=float(rng.randrange(1, 9)))
        graph.add_edge(0, spine - 1, float(rng.randrange(1, 16)))
        return graph
    if case == "sparse_core":
        n = rng.randrange(30, 80)
        edges = _random_tree_edges(rng, n)
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "disconnected":
        rng_a, rng_b = random.Random(seed * 5 + 1), random.Random(seed * 5 + 2)
        n_a, n_b = rng_a.randrange(12, 30), rng_b.randrange(12, 30)
        edges = _random_tree_edges(rng_a, n_a)
        for _ in range(n_a):
            u, v = rng_a.randrange(n_a), rng_a.randrange(n_a)
            if u != v:
                edges.append((u, v, float(rng_a.randrange(1, 16))))
        edges += [(u + n_a, v + n_a, w) for u, v, w in _random_tree_edges(rng_b, n_b)]
        return graph_from_edges(edges, num_vertices=n_a + n_b + 1)
    raise AssertionError(f"unknown case {case!r}")


@pytest.mark.parametrize("case", ["pendant_chains", "sparse_core", "disconnected"])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestScopedRelabelFuzz:
    def _changed_subset(self, graph: Graph, seed: int, count: int):
        rng = random.Random(seed * 31 + 7)
        edges = list(graph.edges())
        rows = rng.sample(range(len(edges)), min(count, len(edges)))
        return {
            (u, v): w * float(rng.randrange(2, 6))
            for u, v, w in (edges[r] for r in rows)
        }

    def test_scoped_equals_full_equals_fresh(self, case, seed):
        graph = _scoped_fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        for count in (1, 3, len(list(graph.edges())) // 2):
            changed = self._changed_subset(graph, seed + count, count)
            new_graph = graph.reweighted(changed)
            scoped = relabel(index, new_graph, changed_edges=changed)
            full = relabel(index, new_graph)
            # scoped and full share the hierarchy: the labels themselves
            # must be bit-identical, not just the answers
            assert scoped.flat_labelling() == full.flat_labelling()
            fresh = HC2LIndex.build(new_graph, leaf_size=4)
            pairs = _probe_pairs(new_graph, count=200, seed=seed)
            assert scoped.distances(pairs).tolist() == fresh.distances(pairs).tolist()

    def test_declared_superset_is_allowed(self, case, seed):
        graph = _scoped_fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        changed = self._changed_subset(graph, seed, 2)
        declared = dict(changed)
        for u, v, w in graph.edges():
            if (u, v) not in declared:
                declared[(u, v)] = w  # declared but unchanged
                break
        new_graph = graph.reweighted(changed)
        scoped = relabel(index, new_graph, changed_edges=declared)
        full = relabel(index, new_graph)
        assert scoped.flat_labelling() == full.flat_labelling()

    def test_undeclared_change_raises(self, case, seed):
        graph = _scoped_fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        changed = self._changed_subset(graph, seed, 2)
        if len(changed) < 2:
            pytest.skip("graph too small for a two-edge change")
        new_graph = graph.reweighted(changed)
        declared = dict(changed)
        declared.pop(next(iter(declared)))
        with pytest.raises(ValueError, match="omits"):
            relabel(index, new_graph, changed_edges=declared)


class TestCrossingShortcutRegression:
    """Pin the cut-crossing shortcut bug the differential fuzz uncovered.

    Raising the weight of one core edge makes the parent-level shortcut
    computation add a new shortcut edge that connects the two inherited
    children of a deeper node directly - the inherited cut no longer
    separates the node's working graph, and before the fix the
    single-depth query missed every shortest path running over that edge
    (returning 18.0 instead of 14.0 for the worst pair below).
    """

    def test_relabel_matches_dijkstra_all_pairs(self):
        from repro.graph.search import dijkstra

        graph = _scoped_fuzz_graph("sparse_core", 0)
        index = HC2LIndex.build(graph, leaf_size=4)
        changed = {(0, 1): 40.0}
        new_graph = graph.reweighted(changed)
        full = relabel(index, new_graph)
        scoped = relabel(index, new_graph, changed_edges=changed)
        assert scoped.flat_labelling() == full.flat_labelling()
        for s in range(new_graph.num_vertices):
            truth = dijkstra(new_graph, s)
            for t in range(new_graph.num_vertices):
                assert full.distance(s, t) == truth[t], (s, t)


# --------------------------------------------------------------------- #
# clustered change workload helpers
# --------------------------------------------------------------------- #
class TestClusteredChanges:
    def test_changes_are_clustered_and_scaled(self, dyn_graph):
        changed = clustered_edge_changes(dyn_graph, 10, 2.5, seed=4)
        assert len(changed) == 10
        for (u, v), w in changed.items():
            assert u < v
            assert w == dyn_graph.edge_weight(u, v) * 2.5

    def test_rejects_bad_parameters(self, dyn_graph):
        with pytest.raises(ValueError):
            clustered_edge_changes(dyn_graph, 0, 2.0)
        with pytest.raises(ValueError):
            clustered_edge_changes(dyn_graph, 5, 0.0)

    def test_integerised_weights_are_positive_integers(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 0.2)
        graph.add_edge(1, 2, 7.6)
        rounded = integerised(graph)
        assert rounded.edge_weight(0, 1) == 1.0  # floors at 1, never 0
        assert rounded.edge_weight(1, 2) == 8.0

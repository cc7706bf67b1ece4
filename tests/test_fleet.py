"""Shard-fleet serving: placement, failure paths, lifecycle, wire protocol.

The conformance half of the fleet story lives in
``test_oracle_protocol.py`` (bit-identical answers at 2 and 3 workers);
this module covers everything that can go *wrong*: worker crashes
mid-batch (restart + retry, then a loud error once the budget is gone),
front-door shutdown with requests in flight (drain completes), oracle
exceptions propagating to awaiting clients instead of hanging futures,
workers that cannot open their layout, abandoned requests on a worker's
stream, deterministic mmap release through the ``close()`` seams, and
the framing rules of the TCP protocol.
"""

from __future__ import annotations

import asyncio
import io
import math
import time

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.serving.fleet import FleetClient, FleetOracle, WorkerCrashError
from repro.serving.fleet.placement import BatchPlacer, owner_shard_by_original
from repro.serving.fleet.pool import assign_shards
from repro.serving.fleet.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    error_to_wire,
    wire_to_error,
)
from repro.serving.shards import ShardRouter


@pytest.fixture(scope="module")
def fleet_graph():
    network = synthetic_road_network(
        RoadNetworkSpec("fleet-tests", num_vertices=150, seed=11)
    )
    return network.distance_graph


@pytest.fixture(scope="module")
def fleet_index(fleet_graph):
    return HC2LIndex.build(fleet_graph)


@pytest.fixture(scope="module")
def fleet_layout(fleet_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-tests") / "index.npz"
    fleet_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
    return path


@pytest.fixture(scope="module")
def fleet(fleet_layout):
    oracle = FleetOracle(fleet_layout, num_workers=2)
    yield oracle
    oracle.close()


@pytest.fixture(scope="module")
def workload(fleet_graph):
    rng = np.random.default_rng(3)
    return rng.integers(0, fleet_graph.num_vertices, size=(120, 2))


# --------------------------------------------------------------------- #
# shard assignment and placement
# --------------------------------------------------------------------- #
class TestAssignment:
    def test_contiguous_and_complete(self):
        runs = assign_shards(5, 2)
        assert runs == [[0, 1, 2], [3, 4]]
        assert assign_shards(4, 4) == [[0], [1], [2], [3]]

    def test_more_workers_than_shards_rejected(self):
        with pytest.raises(ValueError, match="exceeds num_shards"):
            assign_shards(2, 3)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            assign_shards(2, 0)


class TestPlacement:
    def test_owner_shard_covers_every_original_vertex(self, fleet_index, fleet):
        manifest = fleet.server.manifest
        owner = owner_shard_by_original(
            fleet_index.contraction,
            fleet_index.hierarchy,
            manifest["boundaries"],
            manifest.get("vertex_order", "identity"),
        )
        num_shards = len(manifest["boundaries"]) - 1
        assert owner.shape == (fleet_index.contraction.num_original,)
        assert owner.min() >= 0
        assert owner.max() < num_shards

    def test_contracted_vertex_follows_its_root(self, fleet_index, fleet):
        """A degree-one vertex is owned by the shard of its attachment root."""
        contraction = fleet_index.contraction
        manifest = fleet.server.manifest
        owner = owner_shard_by_original(
            contraction,
            fleet_index.hierarchy,
            manifest["boundaries"],
            manifest.get("vertex_order", "identity"),
        )
        contracted = np.nonzero(np.asarray(contraction.original_to_core) < 0)[0]
        for v in contracted[:10]:
            assert owner[v] == owner[contraction.root[v]]

    def test_unanimous_batch_routes_whole(self):
        owner_shard = np.asarray([0, 0, 1, 1])
        placer = BatchPlacer(owner_shard, np.asarray([0, 1]))
        plan = placer.plan(np.asarray([(0, 3), (1, 2), (0, 1)]))
        assert plan.whole == 0
        assert plan.parts == []
        assert plan.majority_fraction == 1.0

    def test_mixed_batch_splits_by_owner(self):
        owner_shard = np.asarray([0, 0, 1, 1])
        placer = BatchPlacer(owner_shard, np.asarray([0, 1]))
        plan = placer.plan(np.asarray([(0, 1), (2, 3), (3, 0), (1, 2)]))
        assert plan.whole is None
        assert [worker for worker, _ in plan.parts] == [0, 1]
        rows = np.concatenate([rows for _, rows in plan.parts])
        assert sorted(rows.tolist()) == [0, 1, 2, 3]

    def test_majority_threshold_keeps_skewed_batch_whole(self):
        owner_shard = np.asarray([0, 0, 1, 1])
        placer = BatchPlacer(owner_shard, np.asarray([0, 1]), majority_threshold=0.75)
        plan = placer.plan(np.asarray([(0, 1), (1, 0), (0, 2), (2, 0)]))
        assert plan.whole == 0
        assert plan.majority_fraction == 0.75

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="majority_threshold"):
            BatchPlacer(np.asarray([0]), np.asarray([0]), majority_threshold=0.0)
        with pytest.raises(ValueError, match="majority_threshold"):
            BatchPlacer(np.asarray([0]), np.asarray([0]), majority_threshold=1.5)


# --------------------------------------------------------------------- #
# failure paths
# --------------------------------------------------------------------- #
class TestFailurePaths:
    def test_worker_crash_mid_batch_restarts_and_retries(
        self, fleet, fleet_index, workload
    ):
        """Killing a worker process mid-stream must be invisible to callers:
        the dispatcher restarts it and the retried answers stay
        bit-identical."""
        baseline = fleet_index.distances(workload)
        before = fleet.stats()
        fleet.kill_worker(0)
        assert fleet.distances(workload).tolist() == baseline.tolist()
        after = fleet.stats()
        assert after["restarts"] >= before["restarts"] + 1
        assert after["retries"] >= before["retries"] + 1

    def test_exhausted_retries_fail_loudly(self, fleet_layout):
        """A request that keeps crashing its worker resolves with
        WorkerCrashError - never a hang, never a silent drop."""
        with FleetOracle(fleet_layout, num_workers=2, max_retries=0) as fleet:
            worker = fleet.server.pool.workers[0]

            async def crash_request():
                return await fleet.server.pool.submit(0, {"op": "__crash__"})

            with pytest.raises(WorkerCrashError, match="retries are exhausted"):
                fleet._run(crash_request())
            assert worker.stats.restarts == 1
            # the restarted worker keeps serving afterwards
            assert fleet.distance(0, 10) >= 0.0

    @pytest.mark.parametrize(
        "how,exitcode", [("crash-hook", 13), ("kill_worker", -9)]
    )
    def test_crash_error_names_the_exit_code(self, fleet_layout, how, exitcode):
        """WorkerCrashError says how the worker process ended: 13 from the
        ``__crash__`` hook's ``os._exit``, -9 (SIGKILL) after kill_worker."""
        with FleetOracle(fleet_layout, num_workers=2, max_retries=0) as fleet:
            pool = fleet.server.pool

            async def request():
                if how == "crash-hook":
                    return await pool.submit(0, {"op": "__crash__"})
                fleet.kill_worker(0)
                return await pool.submit(0, {"op": "ping"})

            with pytest.raises(WorkerCrashError, match=rf"\(exit code {exitcode}\)"):
                fleet._run(request())

    def test_abandoned_requests_do_not_desync_the_stream(
        self, fleet, fleet_index, workload
    ):
        """A caller that abandons its future - cancelled in flight, or timed
        out in ``wait_for`` as ``health()`` does - must not shift its reply
        onto a later request: the next batch on that worker gets its own
        answers."""
        big = np.tile(np.asarray(workload), (50, 1))  # long enough to be in flight
        pairs = np.asarray(workload[:17])
        pool = fleet.server.pool
        worker = pool.workers[0]

        async def abandon_then_query():
            cancelled = pool.submit(0, {"op": "distances", "pairs": big})
            while not worker._busy:  # wait until it is on the stream
                await asyncio.sleep(0)
            cancelled.cancel()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    pool.submit(0, {"op": "distances", "pairs": big}), timeout=1e-3
                )
            return await pool.submit(0, {"op": "distances", "pairs": pairs})

        restarts = fleet.stats()["restarts"]
        got = fleet._run(abandon_then_query())
        assert got.tolist() == fleet_index.distances(pairs).tolist()
        assert fleet.stats()["restarts"] == restarts

    def test_worker_setup_error_reaches_the_caller(self, fleet_index, tmp_path):
        """A worker that cannot open its layout answers with the reason.
        The front door reads only the manifest and the base, so a truncated
        shard archive shows only in the workers: their ValueError, naming
        the file, must come out of FleetOracle(...) within the start
        timeout instead of a dead stream and a restart loop."""
        path = tmp_path / "index.npz"
        fleet_index.save_sharded(path, num_shards=4, boundaries="hierarchy")
        shard = tmp_path / "index.npz.shards" / "shard-0001.npz"
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        started = time.monotonic()
        with pytest.raises(ValueError, match="shard-0001.npz"):
            FleetOracle(path, num_workers=2, start_timeout=30.0)
        assert time.monotonic() - started < 30.0

    def test_queued_requests_survive_a_crashing_neighbor(self, fleet_layout, fleet_index):
        """A __crash__ op queued ahead of a real batch must not take the
        batch down with it: the worker restarts and the batch answers."""
        pairs = [(0, 10), (3, 40), (7, 99)]
        baseline = fleet_index.distances(pairs)
        with FleetOracle(fleet_layout, num_workers=2, max_retries=1) as fleet:
            pool = fleet.server.pool

            async def crash_then_query():
                crash = pool.submit(0, {"op": "__crash__"})
                batch = pool.submit(0, {"op": "distances", "pairs": np.asarray(pairs)})
                crash_result, batch_result = await asyncio.gather(
                    crash, batch, return_exceptions=True
                )
                return crash_result, batch_result

            crash_result, batch_result = fleet._run(crash_then_query())
            # the crash op crashed its retry worker too and failed loudly
            assert isinstance(crash_result, WorkerCrashError)
            assert not isinstance(batch_result, BaseException)
            assert list(batch_result) == baseline.tolist()

    def test_oracle_exception_resolves_the_future(self, fleet):
        """A worker-side error must propagate to the awaiting client with
        its original type, not hang the future."""
        with pytest.raises(ValueError, match="outside the vertex range"):
            fleet.distances([(0, 10**9)])
        with pytest.raises(ValueError):
            fleet.distance(0, 10**9)

    def test_shared_fate_does_not_poison_valid_scalars(self, fleet, fleet_index):
        """Scalars are validated eagerly, so an invalid request fails alone
        while concurrently coalesced valid scalars still answer."""

        async def mixed():
            good = fleet.server.distance(1, 20)
            with pytest.raises(ValueError):
                await fleet.server.distance(1, 10**9)
            return await good

        assert fleet._run(mixed()) == fleet_index.distance(1, 20)

    def test_shutdown_drains_in_flight_requests(self, fleet_layout, fleet_index, workload):
        """aclose() with requests in flight completes them before the
        workers exit - the drain-completes rule."""
        baseline = fleet_index.distances(workload)
        fleet = FleetOracle(fleet_layout, num_workers=2)
        try:

            async def inflight_then_close():
                server = fleet.server
                futures = [
                    asyncio.ensure_future(server.distances(workload)) for _ in range(4)
                ]
                scalar = asyncio.ensure_future(server.distance(5, 60))
                await asyncio.sleep(0)  # let every request enter the pipeline
                await server.aclose()
                answers = await asyncio.gather(*futures)
                return answers, await scalar

            answers, scalar = fleet._run(inflight_then_close())
            for batch in answers:
                assert batch.tolist() == baseline.tolist()
            assert scalar == fleet_index.distance(5, 60)
            with pytest.raises(RuntimeError, match="closed"):
                fleet.distance(0, 1)
        finally:
            fleet.close()


# --------------------------------------------------------------------- #
# TCP plane
# --------------------------------------------------------------------- #
def _tcp_endpoint(fleet):
    if fleet.server._tcp_server is None:
        return fleet.start_tcp()
    return fleet.server._tcp_server.sockets[0].getsockname()


class TestTcpPlane:
    def test_round_trip_and_error_propagation(self, fleet, fleet_index, workload):
        host, port = _tcp_endpoint(fleet)
        baseline = fleet_index.distances(workload)

        async def drive():
            async with await FleetClient.connect(host, port) as client:
                assert (await client.distances(workload)).tolist() == baseline.tolist()
                assert await client.distance(3, 77) == fleet_index.distance(3, 77)
                row = await client.one_to_many(2, [5, 6, 7])
                assert row.tolist() == fleet_index.one_to_many(2, [5, 6, 7]).tolist()
                matrix = await client.many_to_many([0, 1], [2, 3])
                assert matrix.tolist() == fleet_index.many_to_many([0, 1], [2, 3]).tolist()
                value, hubs = await client.distance_with_hub_count(3, 77)
                assert (value, hubs) == fleet_index.distance_with_hub_count(3, 77)
                # remote errors re-raise as their original builtin type
                with pytest.raises(ValueError, match="outside the vertex range"):
                    await client.distance(0, 10**9)
                stats = await client.stats()
                assert stats["num_workers"] == 2
                assert (await client.ping())["num_workers"] == 2

        fleet._run(drive())

    def test_concurrent_clients_coalesce(self, fleet, fleet_index):
        host, port = _tcp_endpoint(fleet)
        pairs = [(i, i + 30) for i in range(20)]
        expected = [fleet_index.distance(s, t) for s, t in pairs]

        async def drive():
            clients = [await FleetClient.connect(host, port) for _ in range(4)]
            try:
                before = fleet.stats()["coalesce_flushes"]
                values = await asyncio.gather(
                    *(
                        clients[i % len(clients)].distance(s, t)
                        for i, (s, t) in enumerate(pairs)
                    )
                )
                flushes = fleet.stats()["coalesce_flushes"] - before
                return values, flushes
            finally:
                for client in clients:
                    await client.aclose()

        values, flushes = fleet._run(drive())
        assert values == expected
        # 20 concurrent scalars must not take 20 separate batches
        assert flushes < len(pairs)


# --------------------------------------------------------------------- #
# wire protocol units
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": 7, "op": "distance", "s": 1, "t": 2, "x": math.inf}
        frame = encode_frame(message)

        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            from repro.serving.fleet.protocol import read_frame

            return await read_frame(reader)

        decoded = asyncio.run(decode())
        assert decoded == message
        assert decoded["x"] == math.inf  # Python's JSON dialect carries Infinity

    def test_mid_frame_eof_is_a_connection_error(self):
        frame = encode_frame({"id": 1})

        async def decode_truncated():
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:-2])
            reader.feed_eof()
            from repro.serving.fleet.protocol import read_frame

            return await read_frame(reader)

        with pytest.raises(ConnectionError, match="mid-frame"):
            asyncio.run(decode_truncated())

    def test_oversized_frame_refused(self):
        import struct

        async def decode_huge():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            from repro.serving.fleet.protocol import read_frame

            return await read_frame(reader)

        with pytest.raises(ValueError, match="byte limit"):
            asyncio.run(decode_huge())

    def test_builtin_errors_round_trip(self):
        error = wire_to_error(error_to_wire(ValueError("bad vertex")))
        assert type(error) is ValueError
        assert str(error) == "bad vertex"
        degraded = wire_to_error({"type": "SomeCustomError", "message": "x"})
        assert type(degraded) is RuntimeError
        assert "SomeCustomError" in str(degraded)


# --------------------------------------------------------------------- #
# front-door validation
# --------------------------------------------------------------------- #
class TestFrontDoorValidation:
    def test_invalid_parameters_rejected(self, fleet_layout):
        from repro.serving.fleet import FleetServer

        with pytest.raises(ValueError, match="window_seconds"):
            FleetServer(fleet_layout, window_seconds=-1.0)
        with pytest.raises(ValueError, match="window_seconds"):
            FleetServer(fleet_layout, window_seconds=math.inf)
        with pytest.raises(ValueError, match="max_batch"):
            FleetServer(fleet_layout, max_batch=0)
        with pytest.raises(ValueError, match="max_retries"):
            FleetServer(fleet_layout, max_retries=-1)
        with pytest.raises(ValueError, match="num_workers"):
            FleetServer(fleet_layout, num_workers=True)
        with pytest.raises(ValueError, match="exceeds num_shards"):
            FleetServer(fleet_layout, num_workers=9)
        with pytest.raises(ValueError, match="shared_cache_slots"):
            FleetServer(fleet_layout, shared_cache_slots=-1)
        with pytest.raises(ValueError, match="shared_cache_slots"):
            FleetServer(fleet_layout, shared_cache_slots=True)
        with pytest.raises(ValueError, match="shared_cache_slots"):
            FleetServer(fleet_layout, shared_cache_slots="big")

    def test_client_wire_validated(self):
        with pytest.raises(ValueError, match="wire"):
            FleetClient(None, None, wire="carrier-pigeon")

    def test_not_started_refused(self, fleet_layout):
        from repro.serving.fleet import FleetServer

        server = FleetServer(fleet_layout)

        async def query_unstarted():
            await server.distance(0, 1)

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(query_unstarted())


# --------------------------------------------------------------------- #
# deterministic mmap release (close() satellites)
# --------------------------------------------------------------------- #
class TestDeterministicRelease:
    def test_shard_router_close_releases_and_guards(self, fleet_layout, fleet_index):
        with ShardRouter(fleet_layout) as router:
            shards = router._shards
            assert len(shards) == router.num_shards
            values_maps = [s.values._mmap for s in shards if hasattr(s.values, "_mmap")]
            assert values_maps, "every shard should be mmap-backed from the open"
            assert router.distance(0, 10) == fleet_index.distance(0, 10)
        for mapping in values_maps:
            assert mapping.closed
        with pytest.raises(RuntimeError, match="closed"):
            router.distance(0, 10)
        with pytest.raises(RuntimeError, match="closed"):
            router.distances([(0, 10)])
        router.close()  # idempotent

    def test_mmap_index_close_releases_and_guards(self, fleet_index, tmp_path):
        path = tmp_path / "mono.npz"
        fleet_index.save(path)
        index = HC2LIndex.load(path, mmap_labels=True)
        flat = index.flat_labelling()
        mapping = flat.values._mmap
        assert index.distance(0, 10) == fleet_index.distance(0, 10)
        with index:
            pass
        assert mapping.closed
        with pytest.raises(RuntimeError, match="closed"):
            index.distance(0, 10)
        with pytest.raises(RuntimeError, match="closed"):
            index.distance_with_hub_count(0, 10)
        index.close()  # idempotent

    def test_worker_recycle_reopens_cleanly(self, fleet, fleet_index, workload):
        """Restarted workers (which close their router on shutdown) keep
        serving the same layout bit-identically."""
        baseline = fleet_index.distances(workload)
        fleet.kill_worker(1)
        assert fleet.distances(workload).tolist() == baseline.tolist()


# --------------------------------------------------------------------- #
# fleet stats and the shared cross-worker cache
# --------------------------------------------------------------------- #
class TestWireAndSharedCache:
    def test_stats_report_wire_and_shared_cache(self, fleet_layout, workload):
        with FleetOracle(
            fleet_layout, num_workers=2, shared_cache_slots=256
        ) as fleet:
            fleet.distances(workload)
            fleet.distances(workload)  # the repeat hits the shared cache
            stats = fleet.stats()
            # requests are answered in the framing they arrived in, so
            # the server has no wire mode left to report
            assert "wire" not in stats
            cache = stats["shared_cache"]
            assert cache["enabled"] is True
            assert cache["slots"] == 256
            assert cache["hits"] > 0
            assert cache["fills"] > 0
            assert 0.0 < cache["hit_rate"] <= 1.0
            # per-worker rows carry their own cache section
            per_worker = [row["shared_cache"] for row in stats["workers"]]
            assert sum(row["hits"] for row in per_worker) == cache["hits"]
            fleet.reset_stats()
            assert fleet.stats()["shared_cache"]["hits"] == 0

    def test_stats_without_cache_say_disabled(self, fleet):
        stats = fleet.stats()
        assert stats["shared_cache"] == {"enabled": False}
        assert "shared_cache" not in stats["workers"][0]

    def test_cache_hits_stay_bit_identical(self, fleet_layout, fleet_index, workload):
        """Cold pass fills, warm pass hits - both must equal the engine
        exactly, including INF handling through the shared segment."""
        with FleetOracle(
            fleet_layout, num_workers=2, shared_cache_slots=4096
        ) as fleet:
            baseline = fleet_index.distances(workload)
            assert fleet.distances(workload).tolist() == baseline.tolist()
            assert fleet.distances(workload).tolist() == baseline.tolist()
            assert fleet.stats()["shared_cache"]["hits"] >= len(workload)

    def test_worker_crash_with_cache_enabled_stays_identical(
        self, fleet_layout, fleet_index, workload
    ):
        """A worker killed while the shared cache is live must not wedge
        the segment: the restarted worker re-attaches and answers stay
        bit-identical (a mid-write death at worst costs a slot)."""
        baseline = fleet_index.distances(workload)
        with FleetOracle(
            fleet_layout, num_workers=2, shared_cache_slots=1024
        ) as fleet:
            assert fleet.distances(workload).tolist() == baseline.tolist()
            fleet.kill_worker(0)
            assert fleet.distances(workload).tolist() == baseline.tolist()
            fleet.kill_worker(1)
            assert fleet.distances(workload).tolist() == baseline.tolist()
            assert fleet.stats()["restarts"] >= 2

    def test_cache_segment_unlinked_on_close(self, fleet_layout):
        fleet = FleetOracle(fleet_layout, num_workers=2, shared_cache_slots=64)
        name = fleet.server.shared_cache.name
        fleet.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------- #
# codec failure paths (worker hop + TCP reply encoding)
# --------------------------------------------------------------------- #
class TestCodecFailurePaths:
    """A codec error must fail exactly one request - never a hung future,
    a dead serving task, or a spurious worker restart."""

    def test_dispatcher_survives_pipe_encode_error(
        self, fleet, fleet_index, workload, monkeypatch
    ):
        """A request frame over the cap resolves with ValueError and the
        worker's serving task keeps serving on the same worker (no
        restart)."""
        from repro.serving.fleet import protocol as protocol_module

        baseline = fleet_index.distances(workload)
        restarts_before = fleet.stats()["restarts"]
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 256)
        big = np.zeros((1024, 2), dtype=np.int64)  # encodes to 16KB > 256

        async def submit_big():
            return await fleet.server.pool.submit(
                0, {"op": "distances", "pairs": big}
            )

        with pytest.raises(ValueError, match="byte limit"):
            fleet._run(submit_big())
        monkeypatch.undo()
        # the same serving task still answers, and nothing restarted
        assert fleet.distances(workload).tolist() == baseline.tolist()
        assert fleet.stats()["restarts"] == restarts_before

    def test_worker_reply_encode_error_answers_not_dies(
        self, fleet_layout, monkeypatch
    ):
        """A worker whose *reply* breaks the codec ships the error back
        instead of dying (runs worker_main in-process on a fake socket)."""
        from repro.serving.fleet import protocol as protocol_module
        from repro.serving.fleet import worker as worker_module

        pairs = np.zeros((64, 2), dtype=np.int64)
        requests = protocol_module.encode_binary_frame(
            protocol_module.KIND_REQUEST, "distances", 7, [pairs]
        ) + encode_frame({"id": 8, "op": "ping"})

        class FakeSocket:
            """Reads ``data`` then EOF; records what is sent."""

            def __init__(self, data):
                self.incoming = io.BytesIO(data)
                self.sent = bytearray()
                self.closed = False

            def makefile(self, mode):
                return self.incoming

            def sendall(self, data):
                self.sent += data

            def close(self):
                self.closed = True

        def refuse_encode(*args, **kwargs):
            raise ValueError("synthetic: reply over the frame byte limit")

        sock = FakeSocket(requests)
        monkeypatch.setattr(worker_module, "encode_binary_frame", refuse_encode)
        worker_module.worker_main(str(fleet_layout), 0, sock, owned_shards=[0])
        monkeypatch.undo()
        assert sock.closed
        replies = io.BytesIO(bytes(sock.sent))
        reply = protocol_module.recv_frame(replies)
        assert reply["id"] == 7
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ValueError"
        assert "byte limit" in reply["error"]["message"]
        # the worker survived the failed reply and served the next request
        follow_up = protocol_module.recv_frame(replies)
        assert follow_up["id"] == 8
        assert follow_up["ok"] is True
        assert protocol_module.recv_frame(replies) is None

    def test_large_batches_chunk_under_the_pipe_cap(
        self, fleet, fleet_index, workload, monkeypatch
    ):
        """Batches above the per-frame pair budget split into frame-sized
        chunks and reassemble bit-identically (so a many_to_many grid over
        the frame cap degrades to extra round trips, not an error)."""
        from repro.serving.fleet import frontdoor as frontdoor_module

        monkeypatch.setattr(frontdoor_module, "_PIPE_PAIR_CHUNK", 7)
        baseline = fleet_index.distances(workload)
        assert fleet.distances(workload).tolist() == baseline.tolist()
        matrix = fleet.many_to_many(range(9), range(11))
        assert matrix.tolist() == fleet_index.many_to_many(
            range(9), range(11)
        ).tolist()

    def test_binary_reply_encode_failure_answers_json_error(
        self, fleet, fleet_index, monkeypatch
    ):
        """When the binary ok-reply cannot be encoded (e.g. over the frame
        cap) the client gets a JSON error frame, not a hung future, and
        the connection keeps serving."""
        from repro.serving.fleet import frontdoor as frontdoor_module

        host, port = _tcp_endpoint(fleet)

        def refuse_encode(*args, **kwargs):
            raise ValueError("synthetic: reply over the frame byte limit")

        async def drive():
            async with await FleetClient.connect(host, port, wire="binary") as client:
                monkeypatch.setattr(
                    frontdoor_module, "encode_binary_frame", refuse_encode
                )
                try:
                    with pytest.raises(ValueError, match="byte limit"):
                        await client.distances([(0, 10)])
                finally:
                    monkeypatch.undo()
                # same connection, reply encoding healthy again
                value = await client.distances([(0, 10)])
                assert value.tolist() == [fleet_index.distance(0, 10)]

        fleet._run(drive())

    def test_json_reply_encode_failure_answers_json_error(
        self, fleet, fleet_index, monkeypatch
    ):
        """Same contract on the JSON path: an ok-reply that fails to
        encode becomes an error frame for that request id."""
        from repro.serving.fleet import frontdoor as frontdoor_module

        host, port = _tcp_endpoint(fleet)
        real_encode = frontdoor_module.encode_frame

        def refuse_ok_replies(message):
            if message.get("ok") is True:
                raise ValueError("synthetic: reply over the frame byte limit")
            return real_encode(message)

        async def drive():
            async with await FleetClient.connect(host, port, wire="json") as client:
                monkeypatch.setattr(
                    frontdoor_module, "encode_frame", refuse_ok_replies
                )
                try:
                    with pytest.raises(ValueError, match="byte limit"):
                        await client.distances([(0, 10)])
                finally:
                    monkeypatch.undo()
                value = await client.distances([(0, 10)])
                assert value.tolist() == [fleet_index.distance(0, 10)]

        fleet._run(drive())

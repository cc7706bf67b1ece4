"""The fleet front door: asyncio request plane over the worker pool.

:class:`FleetServer` is the coalescer for concurrent clients: scalar
``distance`` calls park on ``asyncio.Future``\\ s, a single flusher task
drains them after a coalescing window into one placed batch, and batch
calls go straight to placement - one event loop, no locks.  Answers are **bit-identical** to the
monolithic :class:`~repro.core.engine.QueryEngine`: placement only
decides *which worker* runs the exact same routed min-plus.

Requests enter three ways, all meeting in :meth:`FleetServer.distances`:

* in-process ``await server.distance(s, t)`` / ``server.distances(pairs)``;
* over TCP via the length-prefixed JSON and binary frames of
  :mod:`repro.serving.fleet.protocol` (see :class:`FleetClient`), each
  answered in the framing it arrived in;
* through the synchronous :class:`~repro.serving.fleet.oracle.FleetOracle`
  facade, which gives the fleet the ordinary ``DistanceOracle`` shape.

Failure contract: a crashed worker is restarted and the in-flight batch
retried (bounded by ``max_retries``); an exhausted retry budget or an
oracle error resolves the awaiting futures with the exception - a
request is *never* silently dropped, and shutdown drains in-flight work
before stopping the pool.
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.oracle import as_pair_array, as_vertex_ids, pairs_from_source
from repro.core.persistence import load_sharded_components
from repro.serving.fleet.placement import BatchPlacer, owner_shard_by_original
from repro.serving.fleet.pool import WorkerPool
from repro.serving.fleet.protocol import (
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    BinaryMessage,
    encode_binary_frame,
    encode_frame,
    error_frame,
    read_frame,
    unpack_reply,
    write_frame,
)
from repro.serving.shm_cache import SharedPairCache

INF = float("inf")

#: request framings a FleetClient can send (see protocol module docs)
WIRE_MODES = ("json", "binary")

#: most pairs one worker request frame may carry: a distances request is
#: 16 bytes per pair (the reply only 8) plus a small header, so the
#: request side hits the frame cap first - batches above this are
#: chunked in the front door, never refused on the worker hop
_PIPE_PAIR_CHUNK = (MAX_FRAME_BYTES - 1024) // 16


class FleetStats:
    """Aggregate accounting of one fleet (mirrors ``RouterStats.as_dict``)."""

    def __init__(self, server: "FleetServer") -> None:
        self._server = server

    def as_dict(self) -> Dict[str, object]:
        server = self._server
        batches = server._batches
        hit_rate = server._whole_batches / batches if batches else 0.0
        workers = server.pool.worker_stats()
        cache = server.shared_cache
        if cache is not None:
            shared_cache: Dict[str, object] = {"enabled": True}
            shared_cache.update(cache.counters_dict())
            for row in workers:
                row["shared_cache"] = cache.counter_row_dict(int(row["worker_id"]))
        else:
            shared_cache = {"enabled": False}
        return {
            "num_workers": server.pool.num_workers,
            "generation": server.generation,
            "reloads": server._reloads,
            "shared_cache": shared_cache,
            "batches": batches,
            "whole_batches": server._whole_batches,
            "split_batches": server._split_batches,
            "majority_hit_rate": round(hit_rate, 4),
            "scalar_requests": server._scalar_requests,
            "coalesce_flushes": server._coalesce_flushes,
            "retries": sum(row["retries"] for row in workers),
            "restarts": sum(row["restarts"] for row in workers),
            "workers": workers,
        }


class FleetServer:
    """Asyncio front door over a pool of shard-owning worker processes.

    Parameters
    ----------
    path:
        The sharded index path (anything
        :func:`~repro.core.persistence.load_sharded_components` accepts).
    num_workers:
        Size of the worker pool; must not exceed the layout's shard count.
    window_seconds:
        Scalar coalescing window.  ``0`` still coalesces whatever arrived
        in the same event-loop tick.
    max_batch:
        Cap on how many coalesced scalars one flush drains into a single
        placed batch.
    majority_threshold:
        See :class:`~repro.serving.fleet.placement.BatchPlacer`.
    max_retries:
        Crash-retry budget per request (see
        :class:`~repro.serving.fleet.worker.WorkerHandle`).
    shared_cache_slots:
        Capacity of the cross-worker shared-memory pair cache
        (:class:`~repro.serving.shm_cache.SharedPairCache`); ``0``
        disables it.  Helps skewed/repeating traffic, pure overhead on
        uniform-random pairs.
    """

    def __init__(
        self,
        path: Union[str, Path],
        num_workers: int = 2,
        window_seconds: float = 0.0005,
        max_batch: int = 4096,
        majority_threshold: float = 0.75,
        max_retries: int = 1,
        shared_cache_slots: int = 0,
    ) -> None:
        # loud validation, HC2LParameters style: a serving tier must refuse
        # a nonsensical configuration at construction, not degrade at 3am
        if isinstance(num_workers, bool) or not isinstance(num_workers, int):
            raise ValueError(f"num_workers must be an int, got {num_workers!r}")
        if not isinstance(window_seconds, (int, float)) or isinstance(window_seconds, bool):
            raise ValueError(f"window_seconds must be a number, got {window_seconds!r}")
        if not math.isfinite(window_seconds) or window_seconds < 0:
            raise ValueError(
                f"window_seconds must be finite and >= 0, got {window_seconds}"
            )
        if isinstance(max_batch, bool) or not isinstance(max_batch, int) or max_batch < 1:
            raise ValueError(f"max_batch must be an int >= 1, got {max_batch!r}")
        if isinstance(max_retries, bool) or not isinstance(max_retries, int) or max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, got {max_retries!r}")
        if (
            isinstance(shared_cache_slots, bool)
            or not isinstance(shared_cache_slots, (int, np.integer))
            or shared_cache_slots < 0
        ):
            raise ValueError(
                f"shared_cache_slots must be an int >= 0, got {shared_cache_slots!r}"
            )

        components, manifest, shard_dir = load_sharded_components(path)
        self.path = shard_dir
        self.manifest = manifest
        self.graph = components["graph"]
        self.parameters = components["parameters"]
        self.contraction = components["contraction"]
        self.hierarchy = components["hierarchy"]
        self.construction_seconds = components["construction_seconds"]
        self.num_original = self.contraction.num_original
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)

        num_shards = len(manifest["boundaries"]) - 1
        self.shared_cache: Optional[SharedPairCache] = None
        if shared_cache_slots:
            self.shared_cache = SharedPairCache.create(
                int(shared_cache_slots), counter_rows=max(int(num_workers), 1)
            )
        try:
            self.pool = WorkerPool(
                shard_dir,
                num_shards=num_shards,
                num_workers=num_workers,
                max_retries=max_retries,
                cache_name=self.shared_cache.name if self.shared_cache else None,
            )
        except BaseException:
            if self.shared_cache is not None:
                self.shared_cache.close()
            raise
        owner_shard = owner_shard_by_original(
            self.contraction,
            self.hierarchy,
            manifest["boundaries"],
            manifest["vertex_order"],
        )
        self.placer = BatchPlacer(
            owner_shard, self.pool.worker_of_shard, majority_threshold=majority_threshold
        )
        self.stats = FleetStats(self)

        self._batches = 0
        self._whole_batches = 0
        self._split_batches = 0
        self._scalar_requests = 0
        self._coalesce_flushes = 0

        self._pending: List[Tuple[int, int, asyncio.Future]] = []
        self._flusher: Optional[asyncio.Task] = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # generation hot-swap: reload() closes the gate, drains _inflight
        # to zero, fans the swap to the workers, then reopens the gate -
        # queries arriving mid-swap queue behind the gate, never error
        self._reload_lock = asyncio.Lock()
        self._reload_gate = asyncio.Event()
        self._reload_gate.set()
        self._reloads = 0
        self._closed = False
        self._started = False
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------ #
    # protocol metadata (mirrors ShardRouter)
    # ------------------------------------------------------------------ #
    @property
    def supports_batch(self) -> bool:
        return True

    @property
    def index_size_bytes(self) -> int:
        """Total label bytes across shards plus contracted-vertex records
        (same manifest arithmetic as ``ShardRouter.index_size_bytes``)."""
        total = 0
        for shard in self.manifest["shards"]:
            total += (
                int(shard["num_entries"]) * 8
                + 2 * int(shard["num_levels"])
                + 8 * int(shard["num_vertices"])
            )
        return total + self.contraction.num_contracted * 16

    def label_size_bytes(self) -> int:
        return self.index_size_bytes

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, timeout: float = 60.0) -> "FleetServer":
        """Spawn the pool and wait until every worker answers a ping.

        A worker that cannot open the layout answers the ping with its
        setup error, which is raised here after the pool is stopped.
        """
        if self._started:
            return self
        self._started = True
        try:
            await self.pool.start()
            await self.pool.ping_all(timeout=timeout)
        except BaseException:
            self._closed = True
            await self.pool.shutdown()
            if self.shared_cache is not None:
                self.shared_cache.close()
            raise
        return self

    async def aclose(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain in-flight requests, stop the pool.

        New requests are refused immediately; everything already accepted
        - parked scalars, placed batches, TCP requests mid-serve - runs to
        completion and resolves its futures before the workers exit.
        """
        if self._closed:
            return
        self._closed = True
        flusher = self._flusher
        if flusher is not None:
            await flusher
        await self._idle.wait()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        await self.pool.shutdown(timeout=timeout)
        if self.shared_cache is not None:
            self.shared_cache.close()

    async def __aenter__(self) -> "FleetServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("FleetServer is closed")
        if not self._started:
            raise RuntimeError("FleetServer is not started; await server.start()")

    # ------------------------------------------------------------------ #
    # query plane
    # ------------------------------------------------------------------ #
    async def distance(self, s: int, t: int) -> float:
        """Exact distance, coalesced with concurrent scalar requests.

        The request parks on a future; one flusher task drains everything
        that arrived within ``window_seconds`` into a single placed batch
        (``max_batch`` at a time).  Bad vertex ids raise here, eagerly -
        they never poison a coalesced batch.
        """
        self._check_open()
        self._validate_vertex(s, "s")
        self._validate_vertex(t, "t")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._scalar_requests += 1
        self._pending.append((int(s), int(t), future))
        if self._flusher is None:
            self._flusher = loop.create_task(self._flush_scalars())
        return await future

    async def _flush_scalars(self) -> None:
        await asyncio.sleep(self.window_seconds)
        pending, self._pending = self._pending, []
        self._flusher = None
        for at in range(0, len(pending), self.max_batch):
            chunk = pending[at : at + self.max_batch]
            self._coalesce_flushes += 1
            pair_array = np.asarray([(s, t) for s, t, _ in chunk], dtype=np.int64)
            try:
                values = await self._dispatch_batch(pair_array)
            except BaseException as error:  # noqa: BLE001 - shared fate
                for _, _, future in chunk:
                    if not future.done():
                        future.set_exception(error)
            else:
                for (_, _, future), value in zip(chunk, values):
                    if not future.done():
                        future.set_result(float(value))

    async def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Exact distances for a batch, placed by its majority shard."""
        self._check_open()
        pair_array = as_pair_array(pairs)
        if pair_array.size == 0:
            return np.empty(0, dtype=np.float64)
        self._validate_pairs(pair_array)
        return await self._dispatch_batch(pair_array)

    async def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every target (a maximally local batch)."""
        self._check_open()
        self._validate_vertex(s, "s")
        return await self.distances(pairs_from_source(int(s), targets))

    async def many_to_many(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """The ``len(sources) x len(targets)`` distance matrix."""
        source_ids = as_vertex_ids(np.asarray(sources), "sources")
        target_ids = as_vertex_ids(np.asarray(targets), "targets")
        if len(source_ids) == 0 or len(target_ids) == 0:
            return np.empty((len(source_ids), len(target_ids)), dtype=np.float64)
        grid_s = np.repeat(source_ids, len(target_ids))
        grid_t = np.tile(target_ids, len(source_ids))
        flat = await self.distances(np.column_stack([grid_s, grid_t]))
        return flat.reshape(len(source_ids), len(target_ids))

    async def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus hub count, routed to the source's owning worker."""
        self._check_open()
        self._validate_vertex(s, "s")
        self._validate_vertex(t, "t")
        worker = int(self.placer.owner_workers(np.asarray([int(s)], dtype=np.int64))[0])
        await self._reload_gate.wait()
        self._inflight += 1
        self._idle.clear()
        try:
            value, hubs = await self.pool.submit(
                worker, {"op": "hub_count", "s": int(s), "t": int(t)}
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        return float(value), int(hubs)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_batch(self, pair_array: np.ndarray) -> np.ndarray:
        """Place one validated batch and return its distances in order."""
        await self._reload_gate.wait()
        self._inflight += 1
        self._idle.clear()
        try:
            plan = self.placer.plan(pair_array)
            self._batches += 1
            if plan.whole is not None:
                self._whole_batches += 1
                return await self._submit_distances(plan.whole, pair_array)
            self._split_batches += 1
            futures = [
                self._submit_distances(worker, pair_array[rows])
                for worker, rows in plan.parts
            ]
            parts = await asyncio.gather(*futures)
            out = np.empty(len(pair_array), dtype=np.float64)
            for (_, rows), values in zip(plan.parts, parts):
                out[rows] = values
            return out
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _submit_distances(self, worker: int, pair_array: np.ndarray) -> np.ndarray:
        """Ship one placed batch to its worker, chunked under the frame cap.

        The chunks queue back to back on the worker's stream, so a giant
        ``many_to_many`` grid degrades to a few worker round trips instead
        of a frame-cap error.
        """
        if len(pair_array) <= _PIPE_PAIR_CHUNK:
            result = await self.pool.submit(
                worker, {"op": "distances", "pairs": pair_array}
            )
            return np.asarray(result, dtype=np.float64)
        futures = [
            self.pool.submit(
                worker, {"op": "distances", "pairs": pair_array[at : at + _PIPE_PAIR_CHUNK]}
            )
            for at in range(0, len(pair_array), _PIPE_PAIR_CHUNK)
        ]
        parts = await asyncio.gather(*futures)
        return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _validate_vertex(self, v, name: str) -> None:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"{name} must be an integer vertex id, got {v!r}")
        if not 0 <= int(v) < self.num_original:
            raise ValueError(
                f"{name}={int(v)} is outside the vertex range [0, {self.num_original})"
            )

    def _validate_pairs(self, pair_array: np.ndarray) -> None:
        if pair_array.size and (
            pair_array.min() < 0 or pair_array.max() >= self.num_original
        ):
            bad = pair_array[
                (pair_array < 0).any(axis=1) | (pair_array >= self.num_original).any(axis=1)
            ][0]
            raise ValueError(
                f"pair ({int(bad[0])}, {int(bad[1])}) is outside the vertex "
                f"range [0, {self.num_original})"
            )

    # ------------------------------------------------------------------ #
    # fleet management
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """Index generation the fleet is currently serving."""
        return self.manifest["generation"]

    async def reload(self, timeout: float = 120.0) -> Dict[str, object]:
        """Hot-swap the whole fleet onto the generation currently on disk.

        The zero-downtime sequence: close the admission gate (new queries
        queue, none are refused), drain in-flight batches, fan a
        ``reload`` to every worker (each drains and remaps its own
        router), bump the shared pair cache epoch so no stale cached
        distance survives, refresh the front door's placement state, then
        reopen the gate.  Returns the new generation and per-worker
        replies.  Concurrent reload calls serialise.
        """
        self._check_open()
        async with self._reload_lock:
            self._reload_gate.clear()
            try:
                # parked scalars are safe: their flusher dispatches through
                # _dispatch_batch, which queues behind the gate and gets
                # post-swap answers
                await self._idle.wait()  # drain in-flight placed batches
                replies = await self.pool.reload_all(timeout=timeout)
                if self.shared_cache is not None:
                    self.shared_cache.advance_epoch()
                components, manifest, _ = load_sharded_components(self.path)
                if len(manifest["boundaries"]) - 1 != len(self.pool.worker_of_shard):
                    raise RuntimeError(
                        f"{self.path} was re-sharded to "
                        f"{len(manifest['boundaries']) - 1} shards; the pool "
                        f"owns {len(self.pool.worker_of_shard)} - restart the "
                        f"fleet instead of reloading"
                    )
                self.manifest = manifest
                self.graph = components["graph"]
                self.parameters = components["parameters"]
                self.contraction = components["contraction"]
                self.hierarchy = components["hierarchy"]
                self.construction_seconds = components["construction_seconds"]
                self.num_original = self.contraction.num_original
                owner_shard = owner_shard_by_original(
                    self.contraction,
                    self.hierarchy,
                    manifest["boundaries"],
                    manifest["vertex_order"],
                )
                self.placer = BatchPlacer(
                    owner_shard,
                    self.pool.worker_of_shard,
                    majority_threshold=self.placer.majority_threshold,
                )
                self._reloads += 1
            finally:
                self._reload_gate.set()
        return {
            "generation": self.generation,
            "workers": [dict(reply) for reply in replies],
        }

    async def health(
        self, timeout: float = 5.0, restart_unhealthy: bool = False
    ) -> Dict[str, List[int]]:
        """Ping every worker; optionally kick unresponsive ones.

        A kicked worker's serving task restarts the process and *retries the
        ping*, so with ``restart_unhealthy=True`` a hung-but-recoverable
        worker comes back healthy within one call.
        """
        self._check_open()
        healthy: List[int] = []
        unhealthy: List[int] = []
        for worker_id in range(self.pool.num_workers):
            future = self.pool.submit(worker_id, {"op": "ping"})
            try:
                await asyncio.wait_for(asyncio.shield(future), timeout=timeout)
            except asyncio.TimeoutError:
                if restart_unhealthy:
                    self.pool.kill_worker(worker_id)
                    try:
                        await asyncio.wait_for(future, timeout=timeout)
                        healthy.append(worker_id)
                        continue
                    except asyncio.TimeoutError:
                        pass
                unhealthy.append(worker_id)
            else:
                healthy.append(worker_id)
        return {"healthy": healthy, "unhealthy": unhealthy}

    def reset_stats(self) -> None:
        """Zero the placement/coalescing counters and per-worker tallies."""
        self._batches = 0
        self._whole_batches = 0
        self._split_batches = 0
        self._scalar_requests = 0
        self._coalesce_flushes = 0
        self.pool.reset_stats()
        if self.shared_cache is not None:
            self.shared_cache.reset_counters()

    # ------------------------------------------------------------------ #
    # TCP plane
    # ------------------------------------------------------------------ #
    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Serve the wire protocol; returns the bound ``(host, port)``."""
        self._check_open()
        if self._tcp_server is not None:
            raise RuntimeError("the TCP listener is already running")
        self._tcp_server = await asyncio.start_server(self._handle_connection, host, port)
        bound = self._tcp_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # one write lock per connection: concurrent request tasks must not
        # interleave their frames on the shared stream
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except (ConnectionError, ValueError):
                    break  # peer vanished mid-frame or spoke garbage
                if request is None:
                    break
                # each request runs as its own task so one connection can
                # multiplex - and so scalars from different connections
                # land in the same coalescing window
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                self._conn_tasks.add(task)
                task.add_done_callback(self._conn_tasks.discard)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self,
        request: Union[dict, BinaryMessage],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if isinstance(request, BinaryMessage):
            request_id = request.request_id
        else:
            request_id = request.get("id")
        try:
            if isinstance(request, BinaryMessage):
                frame = await self._serve_binary(request)
            else:
                try:
                    value = await self._apply(request)
                    # the ok-reply encode sits *inside* this try: a value
                    # over the frame cap must come back as an error frame,
                    # not strand the peer's pending future
                    frame = encode_frame({"id": request_id, "ok": True, "value": value})
                except BaseException as error:  # noqa: BLE001 - shipped to the peer
                    frame = error_frame(request_id, error)
        except BaseException as error:  # noqa: BLE001 - last resort
            # a fire-and-forget task must never swallow a request: if even
            # the error reply can't be encoded, drop the connection so the
            # client fails its pending futures instead of hanging
            try:
                frame = error_frame(request_id, error)
            except Exception:
                writer.close()
                return
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer gone; nothing to tell

    async def _serve_binary(self, request: BinaryMessage) -> bytes:
        """Serve one binary request: a binary ok-reply, or a JSON error.

        The ok-reply is a binary frame viewing the result buffer.  Reply
        encoding happens inside the same try as the query, so a result
        over the frame cap answers with a JSON error frame.
        """
        try:
            if request.kind != KIND_REQUEST:
                raise ValueError("expected a binary request frame, got a response kind")
            value = await self._apply_binary(request)
            return encode_binary_frame(
                KIND_RESPONSE, request.op, request.request_id, [value]
            )
        except BaseException as error:  # noqa: BLE001 - shipped to the peer
            return error_frame(request.request_id, error)

    async def _apply_binary(self, request: BinaryMessage) -> np.ndarray:
        """Execute one binary request; returns the raw ndarray result."""
        arrays = request.arrays
        if request.op == "distances":
            if len(arrays) != 1 or arrays[0].ndim != 2 or arrays[0].shape[1] != 2:
                raise ValueError("binary 'distances' expects one (N, 2) int64 array")
            return await self.distances(arrays[0])
        if request.op == "one_to_many":
            if len(arrays) != 2 or arrays[0].size != 1:
                raise ValueError(
                    "binary 'one_to_many' expects a one-element source array "
                    "and a target array"
                )
            return await self.one_to_many(
                int(arrays[0].reshape(-1)[0]), arrays[1].reshape(-1)
            )
        if request.op == "many_to_many":
            if len(arrays) != 2:
                raise ValueError(
                    "binary 'many_to_many' expects a source array and a target array"
                )
            return await self.many_to_many(arrays[0].reshape(-1), arrays[1].reshape(-1))
        raise ValueError(f"op {request.op!r} has no binary form")

    async def _apply(self, request: dict):
        """Execute one wire request and return a JSON-serialisable value."""
        op = request.get("op")
        if op == "distance":
            return await self.distance(request["s"], request["t"])
        if op == "distances":
            values = await self.distances(request["pairs"])
            return [float(v) for v in values]
        if op == "one_to_many":
            values = await self.one_to_many(request["s"], request["targets"])
            return [float(v) for v in values]
        if op == "many_to_many":
            matrix = await self.many_to_many(request["sources"], request["targets"])
            return [[float(v) for v in row] for row in matrix]
        if op == "hub_count":
            value, hubs = await self.distance_with_hub_count(request["s"], request["t"])
            return [value, hubs]
        if op == "stats":
            return self.stats.as_dict()
        if op == "reload":
            return await self.reload()
        if op == "health":
            return await self.health(
                restart_unhealthy=bool(request.get("restart_unhealthy", False))
            )
        if op == "ping":
            return {"num_workers": self.pool.num_workers, "num_original": self.num_original}
        raise ValueError(f"unknown op {op!r}")


class FleetClient:
    """Async TCP client of a :class:`FleetServer`.

    One connection multiplexes concurrent requests by id; remote errors
    re-raise as their original builtin exception type (see
    :func:`~repro.serving.fleet.protocol.wire_to_error`).

    ``wire="binary"`` sends the array ops (``distances`` /
    ``one_to_many`` / ``many_to_many``) as binary frames and gets binary
    ok-replies back; ``wire="json"`` sends and receives JSON.  Both
    resolve to the same float64 arrays.  Control ops and errors are
    always JSON.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        wire: str = "json",
    ) -> None:
        if not isinstance(wire, str) or wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}, got {wire!r}")
        self.wire = wire
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int, wire: str = "json") -> "FleetClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, wire=wire)

    async def _read_loop(self) -> None:
        try:
            while True:
                reply = await read_frame(self._reader)
                if reply is None:
                    break
                request_id, value, error = unpack_reply(reply)
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(value)
        except (ConnectionError, ValueError, OSError) as error:
            self._fail_pending(error)
        else:
            self._fail_pending(ConnectionError("fleet connection closed"))

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def _register(self) -> Tuple[int, asyncio.Future]:
        loop = asyncio.get_running_loop()
        request_id = self._next_id
        self._next_id += 1
        future = loop.create_future()
        self._pending[request_id] = future
        return request_id, future

    async def request(self, op: str, **arguments):
        """Send one JSON request and await its reply value."""
        request_id, future = self._register()
        message = {"id": request_id, "op": op, **arguments}
        async with self._write_lock:
            await write_frame(self._writer, message)
        return await future

    async def _request_binary(self, op: str, arrays: List[np.ndarray]):
        """Send one binary request; the reply is binary (or a JSON error)."""
        request_id, future = self._register()
        frame = encode_binary_frame(KIND_REQUEST, op, request_id, arrays)
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        return await future

    async def distance(self, s: int, t: int) -> float:
        return float(await self.request("distance", s=int(s), t=int(t)))

    async def distances(self, pairs) -> np.ndarray:
        pair_array = np.ascontiguousarray(
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        )
        if self.wire == "binary":
            values = await self._request_binary("distances", [pair_array])
            return np.asarray(values, dtype=np.float64).reshape(-1)
        wire_pairs = [[int(s), int(t)] for s, t in pair_array]
        values = await self.request("distances", pairs=wire_pairs)
        return np.asarray(values, dtype=np.float64)

    async def one_to_many(self, s: int, targets) -> np.ndarray:
        target_array = np.ascontiguousarray(
            np.asarray(targets, dtype=np.int64).reshape(-1)
        )
        if self.wire == "binary":
            values = await self._request_binary(
                "one_to_many", [np.asarray([int(s)], dtype=np.int64), target_array]
            )
            return np.asarray(values, dtype=np.float64).reshape(-1)
        values = await self.request(
            "one_to_many", s=int(s), targets=[int(t) for t in target_array]
        )
        return np.asarray(values, dtype=np.float64)

    async def many_to_many(self, sources, targets) -> np.ndarray:
        source_array = np.ascontiguousarray(
            np.asarray(sources, dtype=np.int64).reshape(-1)
        )
        target_array = np.ascontiguousarray(
            np.asarray(targets, dtype=np.int64).reshape(-1)
        )
        if self.wire == "binary":
            matrix = await self._request_binary(
                "many_to_many", [source_array, target_array]
            )
            return np.asarray(matrix, dtype=np.float64).reshape(
                len(source_array), len(target_array)
            )
        matrix = await self.request(
            "many_to_many",
            sources=[int(s) for s in source_array],
            targets=[int(t) for t in target_array],
        )
        return np.asarray(matrix, dtype=np.float64).reshape(
            len(source_array), len(target_array)
        )

    async def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        value, hubs = await self.request("hub_count", s=int(s), t=int(t))
        return float(value), int(hubs)

    async def stats(self) -> Dict[str, object]:
        return await self.request("stats")

    async def reload(self) -> Dict[str, object]:
        """Ask the fleet to hot-swap onto the generation currently on disk."""
        return await self.request("reload")

    async def ping(self) -> Dict[str, object]:
        return await self.request("ping")

    async def aclose(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionError("fleet connection closed"))

    async def __aenter__(self) -> "FleetClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

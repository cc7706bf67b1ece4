"""Shard-owning worker processes and their parent-side handles.

One worker = one long-lived process running :func:`worker_main`: it opens
a :class:`~repro.serving.shards.ShardRouter` over the sharded layout
(which maps every shard read-only - co-located workers share label pages
through the page cache) and then answers requests over one end of a
``socket.socketpair``.  Ownership is a placement concept, not a
correctness one: every worker maps all shards and can answer every query
bit-identically - locality-aware placement just makes the cross-worker
path the rare one.

The socket carries the same frames as the TCP front door
(:mod:`repro.serving.fleet.protocol`): a ``distances`` request's pair
array and its reply travel as binary frames, control ops and every error
reply as JSON frames with an ``id``, so no byte from a worker is ever
unpickled.  When the front door created a
:class:`~repro.serving.shm_cache.SharedPairCache`, every worker attaches
to it and answers ``distances`` through it: shared-memory hits skip the
router's label min-plus entirely, misses are computed once and published
for every sibling worker.

The parent side is :class:`WorkerHandle`: one asyncio task per worker
drains the handle's ``asyncio.Queue`` and keeps one request in flight on
the worker's stream.  The task is also the crash boundary - when the
stream breaks it restarts the process in place and **retries the
in-flight request** on the fresh worker; a request that keeps crashing
workers fails loudly with ``WorkerCrashError`` after its retry budget,
and is never silently dropped.
"""

from __future__ import annotations

import asyncio
import os
import socket
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serving.fleet.protocol import (
    KIND_REQUEST,
    KIND_RESPONSE,
    BinaryMessage,
    encode_binary_frame,
    encode_frame,
    error_frame,
    read_frame,
    recv_frame,
    unpack_reply,
)
from repro.serving.shards import ShardRouter
from repro.serving.shm_cache import SharedPairCache

#: ops a worker understands; anything else is answered with a ValueError
WORKER_OPS = ("distances", "hub_count", "ping", "reload", "shutdown", "__crash__")


class WorkerCrashError(RuntimeError):
    """A request failed because its worker crashed and retries ran out."""


def worker_main(
    path: str,
    worker_id: int,
    sock: socket.socket,
    owned_shards: Sequence[int],
    cache_name: Optional[str] = None,
) -> None:
    """Entry point of one worker process.

    Opens the router (and the shared pair cache, when the front door
    created one), then answers frames on ``sock`` until
    the stream closes or a ``shutdown`` op arrives.  Every exception
    raised by the router is caught and shipped back to the parent as an
    error reply - the worker never dies because a *query* was bad, only
    the asking request fails (with the original builtin exception type).
    An exception raised while opening the layout is answered to every
    request the same way.
    """
    router = cache = setup_error = None
    try:
        router = ShardRouter(path)
        if cache_name:
            cache = SharedPairCache.attach(cache_name, counter_row=worker_id)
    except Exception as error:  # noqa: BLE001 - answered to every request
        setup_error = error
    stream = sock.makefile("rb")
    try:
        while True:
            request = recv_frame(stream)
            if request is None:
                break  # parent went away; nothing left to serve
            if isinstance(request, BinaryMessage):
                request = {"id": request.request_id, "op": request.op, "pairs": request.arrays[0]}
            request_id, op = request.get("id"), request.get("op")
            if op == "shutdown":
                sock.sendall(encode_frame({"id": request_id, "ok": True, "value": None}))
                break
            if op == "__crash__":
                # test hook: simulate a hard worker crash mid-request (the
                # parent sees the stream break with the request in flight)
                os._exit(13)
            try:
                if setup_error is not None:
                    frame = error_frame(request_id, setup_error)
                else:
                    value = _answer(router, cache, request, worker_id, owned_shards)
                    # encoded inside the try: a result that breaks the codec
                    # (e.g. an ndarray over the frame cap) fails the request,
                    # not the worker
                    if op == "distances":
                        frame = encode_binary_frame(KIND_RESPONSE, op, request_id, [value])
                    else:
                        frame = encode_frame({"id": request_id, "ok": True, "value": value})
            except Exception as error:  # noqa: BLE001 - shipped to the caller
                frame = error_frame(request_id, error)
            sock.sendall(frame)
    except (OSError, ValueError):
        pass  # the parent went away, or the stream lost its framing
    finally:
        stream.close()
        sock.close()
        if cache is not None:
            cache.close()
        if router is not None:
            router.close()


def _answer(router, cache, request: dict, worker_id: int, owned_shards):
    """Run one worker op; ``distances`` answers travel binary, the rest as JSON."""
    op = request.get("op")
    if op == "distances":
        if cache is not None:
            return cache.cached_distances(router, request["pairs"])
        return router.distances(request["pairs"])
    if op == "hub_count":
        value, hubs = router.distance_with_hub_count(request["s"], request["t"])
        return [float(value), int(hubs)]
    if op == "ping":
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "owned_shards": [int(s) for s in owned_shards],
        }
    if op == "reload":
        # hot-swap onto the generation currently on disk
        return {"worker_id": worker_id, "generation": router.reload_generation()}
    raise ValueError(f"unknown worker op {op!r}; expected one of {WORKER_OPS}")


@dataclass
class _Item:
    """One queued request with its waiting asyncio future."""

    request: dict
    future: asyncio.Future
    retries_left: int


_SHUTDOWN = object()


@dataclass
class WorkerHandleStats:
    """Parent-side accounting for one worker (feeds the fleet stats)."""

    requests: int = 0
    pairs: int = 0
    retries: int = 0
    restarts: int = 0
    owned_shards: List[int] = field(default_factory=list)


class WorkerHandle:
    """Parent-side handle of one worker process.

    :meth:`start`, :meth:`submit` and :meth:`close` run on one event
    loop.  One task per worker drains the handle's queue in FIFO order
    and keeps one request in flight on the worker's stream, so the
    front door never blocks on a worker; only process spawn and reaping
    run in the loop's executor.
    """

    def __init__(
        self,
        path: str,
        worker_id: int,
        owned_shards: Sequence[int],
        ctx,
        max_retries: int = 1,
        cache_name: Optional[str] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.path = str(path)
        self.worker_id = int(worker_id)
        self.stats = WorkerHandleStats(owned_shards=[int(s) for s in owned_shards])
        self.max_retries = int(max_retries)
        self.cache_name = cache_name
        self._ctx = ctx
        self._queue: asyncio.Queue = asyncio.Queue()
        self._busy = False  # set by the serving task around one request
        self._next_id = 0
        self.process = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the worker process and the task that serves its queue."""
        await self._spawn()
        self._task = asyncio.get_running_loop().create_task(self._serve_loop())

    async def _spawn(self) -> None:
        loop = asyncio.get_running_loop()
        sock = await loop.run_in_executor(None, self._start_process)
        self._reader, self._writer = await asyncio.open_connection(sock=sock)

    def _start_process(self) -> socket.socket:
        """Start a worker on one end of a fresh socket pair; return the other."""
        parent_sock, child_sock = socket.socketpair()
        try:
            self.process = self._ctx.Process(
                target=worker_main,
                args=(
                    self.path,
                    self.worker_id,
                    child_sock,
                    list(self.stats.owned_shards),
                    self.cache_name,
                ),
                name=f"fleet-worker-{self.worker_id}",
                daemon=True,
            )
            self.process.start()
        except BaseException:
            parent_sock.close()
            raise
        finally:
            child_sock.close()  # the child holds its own copy
        return parent_sock

    def _reap(self) -> Optional[int]:
        """Give the process a grace period to exit, then kill it; its exit code."""
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        return self.process.exitcode

    def kill(self) -> None:
        """Hard-kill the worker process (tests, unhealthy-worker recovery).

        The serving task notices on the next request and restarts the
        process in place; nothing queued is lost.
        """
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    async def close(self, timeout: float = 10.0) -> None:
        """Graceful drain: finish queued work, stop the worker, reap it.

        The shutdown sentinel rides the same queue as requests, so every
        request submitted before ``close`` is answered before the worker
        is told to exit - the no-silently-dropped-requests rule.
        """
        if self._task is None:
            return
        self._queue.put_nowait(_SHUTDOWN)
        try:
            await asyncio.wait_for(self._task, timeout)
        except asyncio.TimeoutError:
            pass  # wait_for cancelled the task; the hung worker is killed below
        self._task = None
        self._writer.close()
        await asyncio.get_running_loop().run_in_executor(None, self._reap)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Requests queued or in flight on this worker right now."""
        return self._queue.qsize() + (1 if self._busy else 0)

    def submit(self, request: dict, future: asyncio.Future) -> None:
        """Enqueue one request; ``future`` resolves with its reply."""
        self._queue.put_nowait(_Item(request, future, self.max_retries))

    async def _serve_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                await self._graceful_stop()
                return
            if item.future.done():
                continue  # abandoned by its caller before it was sent
            self._busy = True
            try:
                await self._serve_item(item)
            except Exception as error:  # noqa: BLE001 - e.g. a failed respawn
                _resolve(item.future, exception=error)
            finally:
                self._busy = False

    async def _serve_item(self, item: _Item) -> None:
        """Send one request, await its reply, resolve the future.

        The reply is read even when the caller has abandoned the future,
        so the stream never shifts a reply onto a later request.  A
        broken stream means the worker died with this request in flight:
        restart the process and retry the request on the fresh worker
        until its retry budget runs out, then fail it loudly.
        """
        request_id = self._next_id
        self._next_id += 1
        try:
            if item.request.get("op") == "distances":
                frame = encode_binary_frame(
                    KIND_REQUEST, "distances", request_id, [item.request["pairs"]]
                )
            else:
                frame = encode_frame({**item.request, "id": request_id})
        except (TypeError, ValueError) as error:
            # the request can't be encoded (e.g. a pair batch over the
            # frame cap): the worker is fine, only this request fails
            _resolve(item.future, exception=error)
            return
        while True:
            try:
                self._writer.write(frame)
                await self._writer.drain()
                reply = await read_frame(self._reader)
                if reply is None:
                    raise ConnectionError("the worker closed its stream")
                reply_id, value, error = unpack_reply(reply)
                if reply_id != request_id:
                    raise ValueError(f"reply {reply_id!r} does not answer request {request_id}")
            except (ConnectionError, OSError, ValueError) as broken:
                # the worker died, or its stream can no longer be trusted
                exitcode = await self._restart()
                if item.retries_left > 0:
                    item.retries_left -= 1
                    self.stats.retries += 1
                    continue
                crash = WorkerCrashError(
                    f"worker {self.worker_id} crashed (exit code {exitcode}) serving "
                    f"{item.request.get('op')!r} and retries are exhausted "
                    f"(max_retries={self.max_retries}): {broken!r}"
                )
                _resolve(item.future, exception=crash)
                return
            self.stats.requests += 1
            pairs = item.request.get("pairs")
            if pairs is not None:
                self.stats.pairs += len(pairs)
            _resolve(item.future, value=value, exception=error)
            return

    async def _restart(self) -> Optional[int]:
        """Replace the worker with a fresh process; the old one's exit code."""
        self.stats.restarts += 1
        self._writer.close()
        loop = asyncio.get_running_loop()
        exitcode = await loop.run_in_executor(None, self._reap)
        await self._spawn()
        return exitcode

    async def _graceful_stop(self) -> None:
        try:
            self._writer.write(encode_frame({"id": self._next_id, "op": "shutdown"}))
            await self._writer.drain()
            await read_frame(self._reader)
        except (ConnectionError, OSError, ValueError):
            pass  # already dead; close() reaps the process


def _resolve(future: asyncio.Future, value=None, exception: Optional[BaseException] = None) -> None:
    if future.done():  # abandoned: cancelled, timed out, or a gather sibling failed
        return
    if exception is not None:
        future.set_exception(exception)
    else:
        future.set_result(value)

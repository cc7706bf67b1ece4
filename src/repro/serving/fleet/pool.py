"""The fleet's worker pool: shard ownership, lifecycle, aggregate stats.

A :class:`WorkerPool` owns N :class:`~repro.serving.fleet.worker.WorkerHandle`
instances and the **shard assignment**: shards are dealt to workers in
contiguous runs (``np.array_split`` over shard ids), which composes with
the hierarchy-aligned boundaries of PR 5 - contiguous shards are
contiguous DFS ranges, so one worker owns one connected slice of the
hierarchy and neighbourhood traffic stays on it.

Everything runs on the front door's event loop: :meth:`start` and
:meth:`shutdown` are coroutines (process spawn and reaping go to the
loop's executor), and the per-request path (:meth:`submit`) never
blocks - it queues onto the worker's serving task and returns a future.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.serving.fleet.worker import WorkerHandle


def assign_shards(num_shards: int, num_workers: int) -> List[List[int]]:
    """Contiguous shard runs per worker (worker ``w`` owns run ``w``).

    Contiguity is deliberate: under hierarchy-aligned boundaries adjacent
    shards are adjacent DFS ranges, so a contiguous run is one connected
    slice of the hierarchy.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if num_workers > num_shards:
        raise ValueError(
            f"num_workers ({num_workers}) exceeds num_shards ({num_shards}); "
            f"a worker owning zero shards would never be placed - re-shard "
            f"the layout or reduce the pool"
        )
    return [
        part.tolist()
        for part in np.array_split(np.arange(num_shards, dtype=np.int64), num_workers)
    ]


class WorkerPool:
    """N shard-owning worker processes behind one submit interface."""

    def __init__(
        self,
        path: Union[str, Path],
        num_shards: int,
        num_workers: int,
        max_retries: int = 1,
        cache_name: Optional[str] = None,
    ) -> None:
        self.path = str(path)
        self.assignment = assign_shards(num_shards, num_workers)
        #: worker id owning each shard id (placement input)
        self.worker_of_shard = np.empty(num_shards, dtype=np.int64)
        for worker_id, owned in enumerate(self.assignment):
            self.worker_of_shard[owned] = worker_id
        ctx = multiprocessing.get_context("spawn")  # safe with our threads
        self.workers = [
            WorkerHandle(
                self.path,
                worker_id,
                owned,
                ctx=ctx,
                max_retries=max_retries,
                cache_name=cache_name,
            )
            for worker_id, owned in enumerate(self.assignment)
        ]
        self._started = False

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn every worker process and its serving task."""
        if self._started:
            return
        self._started = True
        # every start runs to its end, so shutdown() finds each spawned worker
        results = await asyncio.gather(
            *(worker.start() for worker in self.workers), return_exceptions=True
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result

    async def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful drain: every queued request finishes, then workers exit."""
        if not self._started:
            return
        await asyncio.gather(*(worker.close(timeout=timeout) for worker in self.workers))
        self._started = False

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker process (tests, unhealthy-worker recovery);
        its serving task restarts it on the next request."""
        self.workers[worker_id].kill()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(self, worker_id: int, request: dict) -> asyncio.Future:
        """Queue ``request`` on ``worker_id``; resolves on the running loop."""
        if not self._started:
            raise RuntimeError("WorkerPool is not started")
        future = asyncio.get_running_loop().create_future()
        self.workers[worker_id].submit(request, future)
        return future

    async def ping_all(self, timeout: float = 30.0) -> List[dict]:
        """Round-trip a ping through every worker (readiness barrier)."""
        replies = await asyncio.wait_for(
            asyncio.gather(
                *(self.submit(w, {"op": "ping"}) for w in range(self.num_workers))
            ),
            timeout=timeout,
        )
        return list(replies)

    async def reload_all(self, timeout: float = 120.0) -> List[dict]:
        """Fan a generation reload out to every worker.

        Each worker hot-swaps its router onto the manifest currently on
        disk and re-pins its owned shards; the caller (the front door's
        :meth:`~repro.serving.fleet.frontdoor.FleetServer.reload`) is
        responsible for draining the query plane first.
        """
        replies = await asyncio.wait_for(
            asyncio.gather(
                *(self.submit(w, {"op": "reload"}) for w in range(self.num_workers))
            ),
            timeout=timeout,
        )
        return list(replies)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def worker_stats(self) -> List[Dict[str, object]]:
        """Parent-side per-worker accounting (no worker round trip)."""
        rows = []
        for worker in self.workers:
            stats = worker.stats
            rows.append(
                {
                    "worker_id": worker.worker_id,
                    "requests": stats.requests,
                    "pairs": stats.pairs,
                    "queue_depth": worker.queue_depth,
                    "retries": stats.retries,
                    "restarts": stats.restarts,
                    "owned_shards": list(stats.owned_shards),
                }
            )
        return rows

    def reset_stats(self) -> None:
        for worker in self.workers:
            stats = worker.stats
            stats.requests = 0
            stats.pairs = 0
            stats.retries = 0
            stats.restarts = 0

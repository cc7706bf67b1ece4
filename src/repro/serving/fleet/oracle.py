"""Synchronous ``DistanceOracle`` facade over the asyncio fleet.

:class:`FleetOracle` runs a private event loop in a daemon thread, starts
a :class:`~repro.serving.fleet.frontdoor.FleetServer` on it, and exposes
the ordinary blocking oracle surface - so the conformance suite, the
benchmark harness and any synchronous caller can drive a multi-process
fleet exactly like the in-process :class:`~repro.core.index.HC2LIndex`
or :class:`~repro.serving.shards.ShardRouter`.  Calls from *different*
threads coalesce on the shared loop just like concurrent async callers.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.fleet.frontdoor import FleetServer


class FleetOracle:
    """Blocking facade: a shard fleet with the ``DistanceOracle`` shape.

    Construction is synchronous and *started*: when ``__init__`` returns,
    the loop thread is running, every worker process has answered a ping,
    and the oracle is ready to serve.  A worker that cannot open the
    layout makes ``__init__`` raise that worker's setup error (type and
    text).  ``close()`` drains and stops everything; the instance also
    works as a context manager.

    Server options pass through ``**server_options`` - notably
    ``shared_cache_slots`` (cross-worker shared-memory pair cache; the
    in-process oracle surface benefits from it too, since workers consult
    the cache on every ``distances`` batch regardless of how the request
    arrived).  The loop thread is the facade's only thread: the fleet
    itself (front door, worker handles) runs as tasks on its loop.
    """

    def __init__(
        self,
        path: Union[str, Path],
        num_workers: int = 2,
        start_timeout: float = 60.0,
        **server_options,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fleet-oracle-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        try:
            self.server = FleetServer(path, num_workers=num_workers, **server_options)
            self._run(self.server.start(timeout=start_timeout))
        except BaseException:
            self._stop_loop()
            raise

    def _run(self, coroutine):
        """Run one coroutine on the fleet loop and block for its result."""
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    # ------------------------------------------------------------------ #
    # DistanceOracle protocol
    # ------------------------------------------------------------------ #
    @property
    def supports_batch(self) -> bool:
        return True

    @property
    def index_size_bytes(self) -> int:
        return self.server.index_size_bytes

    def label_size_bytes(self) -> int:
        return self.server.index_size_bytes

    @property
    def construction_seconds(self) -> float:
        return self.server.construction_seconds

    def distance(self, s: int, t: int) -> float:
        return self._run(self.server.distance(s, t))

    def distances(self, pairs) -> np.ndarray:
        return self._run(self.server.distances(pairs))

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        return self._run(self.server.one_to_many(s, targets))

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        return self._run(self.server.many_to_many(sources, targets))

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        return self._run(self.server.distance_with_hub_count(s, t))

    # ------------------------------------------------------------------ #
    # fleet management
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        return self.server.stats.as_dict()

    def reset_stats(self) -> None:
        self.server.reset_stats()

    def health(self, timeout: float = 5.0, restart_unhealthy: bool = False) -> Dict:
        return self._run(
            self.server.health(timeout=timeout, restart_unhealthy=restart_unhealthy)
        )

    @property
    def generation(self) -> int:
        """Index generation the fleet is currently serving."""
        return self.server.generation

    def reload(self, timeout: float = 120.0) -> Dict[str, object]:
        """Hot-swap every worker onto the generation currently on disk.

        Blocks until the drain + swap completes; concurrent queries from
        other threads queue behind the swap instead of erroring.  Returns
        the new generation and the per-worker replies.
        """
        return self._run(self.server.reload(timeout=timeout))

    def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Expose the fleet's TCP plane; returns the bound ``(host, port)``."""
        return self._run(self.server.start_tcp(host, port))

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker (failure testing; it restarts on demand)."""
        self.server.pool.kill_worker(worker_id)

    def close(self, timeout: float = 10.0) -> None:
        """Drain in-flight requests, stop the pool, stop the loop thread."""
        if self._closed:
            return
        self._closed = True
        try:
            self._run(self.server.aclose(timeout=timeout))
        finally:
            self._stop_loop()

    def __enter__(self) -> "FleetOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FleetOracle(path={str(self.server.path)!r}, "
            f"num_workers={self.server.pool.num_workers})"
        )

"""Serving-side building blocks over the :class:`DistanceOracle` protocol.

The ROADMAP's north star is production-scale serving; this package holds
the pieces that turn a built index into a query service:

* :class:`CachingOracle` - LRU caches over ``(s, t)`` pairs and hot
  ``one_to_many`` rows, with hit-rate accounting for skewed workloads.
* :class:`ShardRouter` - a :class:`DistanceOracle` over the sharded
  on-disk layout (``repro shard``): every shard of the adopted generation
  is mapped read-only, batches are split by the shard owning each source
  vertex and re-assembled in input order.
* :mod:`repro.serving.fleet` - the multi-process deployment shape: an
  asyncio :class:`FleetServer` front door (TCP + in-process async +
  the synchronous :class:`FleetOracle` facade) that coalesces concurrent
  scalar requests and places batches onto a pool of shard-owning worker
  processes by their majority shard.

Memory-mapped loading needs no layer of its own:
``HC2LIndex.load(path, mmap_labels=True)`` maps a single archive's label
buffers read-only, so every serving process shares one physical copy.

All layers compose: a typical fleet shards the index once, each worker
opens a router over every shard, and the front door coalesces concurrent
scalars into batches for them; in one process,
``CachingOracle(HC2LIndex.load(path, mmap_labels=True))`` is the stack.
Every layer preserves bit-identical answers - the conformance and serving
test suites assert ``==`` against the bare engine, not ``approx``.
"""

from repro.serving.cache import CacheStats, CachingOracle
from repro.serving.fleet import (
    BatchPlacer,
    FleetClient,
    FleetOracle,
    FleetServer,
    FleetStats,
    WorkerPool,
)
from repro.serving.shards import RouterStats, ShardRouter
from repro.serving.shm_cache import SharedPairCache

__all__ = [
    "BatchPlacer",
    "CacheStats",
    "CachingOracle",
    "FleetClient",
    "FleetOracle",
    "FleetServer",
    "FleetStats",
    "RouterStats",
    "ShardRouter",
    "SharedPairCache",
    "WorkerPool",
]

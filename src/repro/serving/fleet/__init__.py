"""Shard-fleet serving: an asyncio front door over worker processes.

The deployment shape of ROADMAP Direction 1: a
:class:`~repro.serving.fleet.frontdoor.FleetServer` accepts scalar and
batch distance requests (in-process async, or over a length-prefixed TCP
protocol), coalesces concurrent scalars with ``asyncio.Future``\\ s, and
places each batch - whole when it has a clear majority shard, split and
gathered when genuinely cross-worker - onto a pool of long-lived worker
processes, each serving every shard through a read-only-mmap
:class:`~repro.serving.shards.ShardRouter`.  Answers stay bit-identical
to the monolithic engine; the fleet only changes *where* they are
computed.

Both hops - client to front door over TCP, front door to worker over a
socket pair - speak one frame protocol
(:mod:`repro.serving.fleet.protocol`): JSON for control ops, errors and
netcat-style clients, and a binary frame type that moves ``distances`` /
``one_to_many`` / ``many_to_many`` payloads as raw ndarray bytes; each
request is answered in the framing it arrived in.  Workers optionally share one
:class:`~repro.serving.shm_cache.SharedPairCache`, so a hot pair pays
the label min-plus once per *fleet* instead of once per worker.
"""

from repro.serving.fleet.frontdoor import FleetClient, FleetServer, FleetStats
from repro.serving.fleet.oracle import FleetOracle
from repro.serving.fleet.placement import BatchPlacer, PlacementPlan, owner_shard_by_original
from repro.serving.fleet.pool import WorkerPool, assign_shards
from repro.serving.fleet.protocol import (
    BinaryMessage,
    decode_binary_payload,
    encode_binary_frame,
    encode_frame,
)
from repro.serving.fleet.worker import WorkerCrashError, WorkerHandle, worker_main

__all__ = [
    "BatchPlacer",
    "BinaryMessage",
    "decode_binary_payload",
    "encode_binary_frame",
    "encode_frame",
    "FleetClient",
    "FleetOracle",
    "FleetServer",
    "FleetStats",
    "PlacementPlan",
    "WorkerCrashError",
    "WorkerHandle",
    "WorkerPool",
    "assign_shards",
    "owner_shard_by_original",
    "worker_main",
]

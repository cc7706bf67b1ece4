"""Locality-aware batch placement for the shard fleet.

PR 5 made shard boundaries follow the hierarchy's own cuts
(:func:`repro.hierarchy.tree.derive_shard_boundaries`): labels are stored
in DFS order, subtrees are contiguous, and on neighbourhood-style traffic
the cross-shard pair fraction drops below 0.1 at 4 shards.  This module
is where that locality finally pays off at *placement* time: instead of
splitting every batch by source vertex (what a naive scatter would do),
the :class:`BatchPlacer` computes the **majority worker** of a batch -
the worker owning the shard that most of the batch's source vertices live
in - and routes the batch there *whole* whenever the majority is clear
enough.  Every worker maps every shard read-only (shared pages, no
copies), so the minority pairs' foreign shards are already at hand:
answers stay bit-identical while the common case becomes a
single-worker round trip.

Only a *genuinely cross-worker* batch - one with no sufficiently large
majority - falls back to split-and-gather across the owning workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.contraction import ContractedGraph
from repro.hierarchy.tree import BalancedTreeHierarchy


def owner_shard_by_original(
    contraction: ContractedGraph,
    hierarchy: BalancedTreeHierarchy,
    boundaries: List[int],
    vertex_order: str,
) -> np.ndarray:
    """Owning shard of every *original* vertex id, as one int64 array.

    A vertex's owner is the shard storing its core label block: contracted
    vertices are attributed to their attachment root's core vertex, core
    ids are translated to storage positions when the layout stores labels
    in hierarchy DFS order, and positions map to shards through the
    manifest's boundary edges - the exact arithmetic the
    :class:`~repro.serving.shards.ShardRouter` uses, precomputed once so
    the front door can place batches with two gathers and a searchsorted.
    """
    root = np.asarray(contraction.root, dtype=np.int64)
    original_to_core = np.asarray(contraction.original_to_core, dtype=np.int64)
    # a contracted vertex hangs off its attachment root, which is core
    core_of = original_to_core[root]
    if vertex_order == "hierarchy":
        positions = np.asarray(hierarchy.subtree_ranges(), dtype=np.int64)[core_of]
    else:
        positions = core_of
    edges = np.asarray(boundaries, dtype=np.int64)
    return np.searchsorted(edges, positions, side="right") - 1


@dataclass
class PlacementPlan:
    """Where one batch goes.

    Exactly one of the two shapes is set:

    * ``whole`` - the whole batch rides to this worker (majority
      placement hit; ``majority_fraction`` says how clear the call was);
    * ``parts`` - split-and-gather: ``(worker_id, row_indices)`` per
      owning worker, re-assembled in input order by the caller.
    """

    whole: Optional[int]
    parts: List[Tuple[int, np.ndarray]]
    majority_fraction: float


class BatchPlacer:
    """Routes pair batches to workers by their majority shard.

    Parameters
    ----------
    owner_shard:
        Owning shard per original vertex id (see
        :func:`owner_shard_by_original`).
    worker_of_shard:
        Worker id owning each shard (contiguous assignment from the
        :class:`~repro.serving.fleet.pool.WorkerPool`).
    majority_threshold:
        A batch routes whole to its majority worker when that worker owns
        at least this fraction of the batch's source vertices; below it
        the batch is considered genuinely cross-worker and is split.
        ``1.0`` demands unanimity; the default 0.75 keeps locality
        batches whole while scatter traffic still fans out.
    """

    def __init__(
        self,
        owner_shard: np.ndarray,
        worker_of_shard: np.ndarray,
        majority_threshold: float = 0.75,
    ) -> None:
        if not 0.0 < majority_threshold <= 1.0:
            raise ValueError(
                f"majority_threshold must be in (0, 1], got {majority_threshold}"
            )
        self._owner_worker = np.asarray(worker_of_shard, dtype=np.int64)[
            np.asarray(owner_shard, dtype=np.int64)
        ]
        self.num_workers = int(np.asarray(worker_of_shard).max()) + 1
        self.majority_threshold = float(majority_threshold)

    def owner_workers(self, sources: np.ndarray) -> np.ndarray:
        """Owning worker of each source vertex (original ids)."""
        return self._owner_worker[sources]

    def plan(self, pair_array: np.ndarray) -> PlacementPlan:
        """Compute the placement of one ``(n, 2)`` pair batch."""
        owners = self._owner_worker[pair_array[:, 0]]
        counts = np.bincount(owners, minlength=self.num_workers)
        leader = int(counts.argmax())
        fraction = counts[leader] / len(owners) if len(owners) else 1.0
        if fraction >= self.majority_threshold:
            return PlacementPlan(whole=leader, parts=[], majority_fraction=float(fraction))
        parts = [
            (int(worker), np.nonzero(owners == worker)[0])
            for worker in np.unique(owners).tolist()
        ]
        return PlacementPlan(whole=None, parts=parts, majority_fraction=float(fraction))

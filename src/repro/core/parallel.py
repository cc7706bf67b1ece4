"""Parallel HC2L construction (HC2L_p, Section 4.4).

The paper parallelises the recursion: the two sides of every balanced cut
are independent, so whole subtrees can be built concurrently.  Here
independent hierarchy subtrees are shipped to a
:class:`concurrent.futures.ProcessPoolExecutor` as self-contained work
units: the induced CSR arrays travel as numpy buffers (cheap to pickle,
no ``Graph`` objects cross the boundary), each worker runs the
construction recursion of :mod:`repro.core.flat_build` - the same one the
serial :class:`~repro.core.construction.HC2LBuilder` runs - and the
coordinator packs the levels of the nodes it expanded itself and merges
the returned label fragments under them into one flat
:class:`~repro.core.flat.FlatLabelling`.  Processes sidestep the GIL, at
the price of pickling each unit in and its label block out - below the
size crossover (small graphs, ``num_vertices <= parallel_threshold``) the
builder simply runs the serial build.  The top of the hierarchy is
expanded inline (child snapshots are derived from the parent CSR plus
the shortcut overlay), and its levels are kept as compact
:class:`~repro.core.labelling.LevelPiece` arrays.

Labels are bit-identical to the serial build for every worker count;
``tests/test_process_parallel.py`` pins the backend x workers matrix and
``tests/test_differential_fuzz.py`` covers graph families.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backends import BackendSpec
from repro.core.construction import (
    ConstructionStats,
    HC2LBuilder,
    graft_subtree,
    root_snapshot,
)
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.flat_build import (
    ChildRecord,
    KeptRows,
    RelabelRecord,
    SubtreeResult,
    build_subtree_payload,
    node_step,
)
from repro.core.labelling import LevelPiece, pack_levels
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy


class ParallelHC2LBuilder(HC2LBuilder):
    """HC2L builder that fans the recursion out over worker processes.

    Parameters mirror :class:`HC2LBuilder`; ``num_workers`` sets the
    process-pool size and ``parallel_threshold`` the minimum subgraph size
    for which work is handed to the pool rather than built inline (graphs
    at or below it are built serially).
    """

    def __init__(
        self,
        beta: float = 0.2,
        leaf_size: int = 12,
        tail_pruning: bool = True,
        max_depth: int = 60,
        num_workers: int = 4,
        parallel_threshold: int = 64,
        backend: BackendSpec = "auto",
    ) -> None:
        super().__init__(
            beta=beta,
            leaf_size=leaf_size,
            tail_pruning=tail_pruning,
            max_depth=max_depth,
            backend=backend,
        )
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.parallel_threshold = parallel_threshold

    # ------------------------------------------------------------------ #
    def build(
        self,
        graph: Graph,
        record: Optional[RelabelRecord] = None,
        rows: Optional[KeptRows] = None,
    ):
        """Build hierarchy + labelling using ``num_workers`` processes.

        Returns the labels as a :class:`~repro.core.flat.FlatLabelling` in
        vertex-id order and fills ``record``, exactly like
        :meth:`HC2LBuilder.build`.  A pooled build keeps no rows: ``rows``
        is filled only below the pool's threshold, where the serial
        builder runs.
        """
        n_total = graph.num_vertices
        if n_total <= self.parallel_threshold:
            # below the pickling crossover a pool costs more than it saves
            return super().build(graph, record, rows)
        stats = ConstructionStats()
        hierarchy = BalancedTreeHierarchy(n_total)
        with stats.timer.measure("snapshot"):
            root = root_snapshot(graph)
        # subtrees at most this large become work units; the cap keeps at
        # least ~4 units per worker in flight for load balance while the
        # floor stops units too small to amortise their pickling
        ship_max = max(self.parallel_threshold, -(-n_total // (4 * self.num_workers)))

        #: the levels of the nodes expanded inline (every vertex below
        #: them, in a unit or not, owns one level per such ancestor)
        levels: List[LevelPiece] = []
        #: preorder construction events ("node" for inline nodes, "unit"
        #: for shipped subtrees); replayed in order during assembly so
        #: hierarchy node indices match the sequential build exactly
        events: List[Tuple] = []
        #: per-unit (vertex ids, FlatLabelling) pairs; slots are reserved
        #: at submission and filled when the result is grafted
        fragments: List[Optional[Tuple[np.ndarray, FlatLabelling]]] = []

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            with ProcessPoolExecutor(max_workers=self.num_workers) as executor:
                self._expand(
                    root, 0, 0, -1, None, None, stats, levels, fragments, events, executor, ship_max
                )
                # replay the events in preorder: inline nodes go straight
                # into the hierarchy, unit results are awaited and grafted
                event_to_hier: Dict[int, int] = {}
                for event_index, event in enumerate(events):
                    if event[0] == "node":
                        _, depth, bits, cut, parent_event, side, entry, is_leaf, n = event
                        parent_idx = event_to_hier[parent_event] if parent_event >= 0 else None
                        node = hierarchy.add_node(depth, bits, cut, parent_idx, side, is_leaf=is_leaf)
                        hierarchy.set_subtree_size(node.index, n)
                        event_to_hier[event_index] = node.index
                        if record is not None:
                            record.append(entry)
                    else:
                        _, slot, handle, unit_vertices, parent_event, side, entry = event
                        result: SubtreeResult = (
                            handle.result() if isinstance(handle, Future) else handle
                        )
                        parent_idx = event_to_hier[parent_event] if parent_event >= 0 else None
                        graft_subtree(hierarchy, stats, result, parent_idx, side, record, entry)
                        fragments[slot] = (unit_vertices, result.labels)
        finally:
            sys.setrecursionlimit(limit)

        with stats.timer.measure("flatten"):
            # the units' levels in vertex-id order; a vertex of an inline
            # cut belongs to no unit and holds none of them
            inline_cuts = [
                np.asarray(event[3], dtype=np.int64) for event in events if event[0] == "node"
            ]
            order_concat = np.concatenate([fragment[0] for fragment in fragments] + inline_cuts)
            if not np.array_equal(
                np.sort(order_concat), np.arange(n_total, dtype=np.int64)
            ):
                raise AssertionError(
                    "units and inline cuts do not cover every vertex exactly once"
                )
            num_inline = n_total - sum(len(fragment[0]) for fragment in fragments)
            units = FlatLabelling.concat(
                [fragment[1] for fragment in fragments] + [pack_levels([], num_inline)]
            )
            perm = np.empty(n_total, dtype=np.int64)
            perm[order_concat] = np.arange(n_total, dtype=np.int64)
            # every vertex: the inline ancestors' levels, then its unit's
            labelling = pack_levels(levels, n_total).merge_levels(units.reorder(perm))
        return hierarchy, labelling, stats

    def _expand(
        self,
        flat: FlatWorkingGraph,
        depth: int,
        bits: int,
        parent_event: int,
        side: Optional[str],
        entry: Optional[ChildRecord],
        stats: ConstructionStats,
        levels: List[LevelPiece],
        fragments: List[Optional[Tuple[np.ndarray, FlatLabelling]]],
        events: List[Tuple],
        executor: ProcessPoolExecutor,
        ship_max: int,
    ) -> None:
        """Expand the top of the hierarchy inline, spawning subtree units.

        Nodes larger than ``ship_max`` are processed here (cut + ranking +
        labelling + child snapshots via the shortcut overlay); anything at
        or below it becomes a work unit.  ``entry`` is the node's
        :class:`~repro.core.flat_build.ChildRecord` from its parent's
        step.  Runs in the coordinating process.
        """
        n = len(flat.vertices)
        if n == 0:
            return
        if n <= ship_max:
            self._spawn_unit(
                flat, depth, bits, parent_event, side, entry, stats, fragments, events, executor
            )
            return
        node_started = time.perf_counter()
        stats.max_depth = max(stats.max_depth, depth)
        step = node_step(
            flat,
            depth,
            beta=self.beta,
            leaf_size=self.leaf_size,
            tail_pruning=self.tail_pruning,
            max_depth=self.max_depth,
            backend=self.backend,
            timer=stats.timer,
        )
        event_index = len(events)
        ordered = step.ranking.ordered
        stats.num_nodes += 1
        if step.is_leaf:
            stats.num_leaves += 1
        elif not ordered:
            stats.num_empty_cuts += 1
        levels.append(step.level)
        events.append(("node", depth, bits, ordered, parent_event, side, entry, step.is_leaf, n))
        if step.is_leaf:
            stats.node_timings.append(
                (depth, n, time.perf_counter() - node_started, step.seconds_cut)
            )
            return
        stats.num_shortcuts += sum(len(child[3].shortcuts) for child in step.children)
        stats.node_timings.append(
            (depth, n, time.perf_counter() - node_started, step.seconds_cut)
        )
        for child_flat, child_side, child_bit, child_entry in step.children:
            self._expand(
                child_flat,
                depth + 1,
                (bits << 1) | child_bit,
                event_index,
                child_side,
                child_entry,
                stats,
                levels,
                fragments,
                events,
                executor,
                ship_max,
            )

    def _spawn_unit(
        self,
        flat: FlatWorkingGraph,
        depth: int,
        bits: int,
        parent_event: int,
        side: Optional[str],
        entry: Optional[ChildRecord],
        stats: ConstructionStats,
        fragments: List[Optional[Tuple[np.ndarray, FlatLabelling]]],
        events: List[Tuple],
        executor: ProcessPoolExecutor,
    ) -> None:
        """Turn one subtree into a work unit (pool task or inline call)."""
        n = len(flat.vertices)
        slot = len(fragments)
        fragments.append(None)
        unit_vertices = np.asarray(flat.vertices, dtype=np.int64)
        if n >= self.parallel_threshold:
            indptr, indices, weights = flat.csr_arrays()
            payload = {
                "vertices": unit_vertices,
                "indptr": indptr,
                "indices": indices,
                "weights": weights,
                "depth": depth,
                "bits": bits,
                "beta": self.beta,
                "leaf_size": self.leaf_size,
                "tail_pruning": self.tail_pruning,
                "max_depth": self.max_depth,
                # ship by name: instances don't cross process boundaries
                "backend": self.backend.name,
            }
            handle = executor.submit(build_subtree_payload, payload)
            stats.num_tasks += 1
        else:
            # too small to amortise pickling; same recursion, run inline
            # with the exact backend instance
            handle = self._build_subtree(flat, depth, bits)
        events.append(
            ("unit", slot, handle, unit_vertices, parent_event, side, entry)
        )

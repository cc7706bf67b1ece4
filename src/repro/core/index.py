"""The public HC2L index facade.

:class:`HC2LIndex` is what applications use: build it once from a road
network, then answer exact shortest-path distance queries in microseconds
(well, in Python: in a few label-array scans).  It combines

* the degree-one contraction (Section 4.2.2),
* the balanced tree hierarchy and tail-pruned labelling over the core
  graph (Sections 4.1-4.2, built by :class:`repro.core.construction.HC2LBuilder`
  or its parallel variant), and
* the O(1)-LCA query procedure (Section 4.3).

Label storage
-------------
The **primary** label store is the flat, contiguous
:class:`~repro.core.flat.FlatLabelling` buffer (one ``float64`` array plus
two index arrays) - the layout the batch :class:`~repro.core.engine.QueryEngine`
vectorises over and the payload of the on-disk format.  The nested
list-of-lists :class:`~repro.core.labelling.HC2LLabelling` that the
construction passes produce is converted to flat buffers on creation and
**not retained**; :attr:`HC2LIndex.labelling` materialises a read-oriented
nested view on demand (cached, invalidated by :meth:`replace_labelling`).
A serving deployment that only issues batch queries therefore holds the
labels exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.construction import ConstructionStats, HC2LBuilder
from repro.core.engine import QueryEngine
from repro.core.flat import FlatLabelling
from repro.core.labelling import HC2LLabelling
from repro.core.query import core_distance_with_stats
from repro.graph.contraction import ContractedGraph, contract_degree_one
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.utils.validation import check_balance_parameter, check_vertex

INF = float("inf")


@dataclass(frozen=True)
class HC2LParameters:
    """Construction parameters for :class:`HC2LIndex`.

    Attributes
    ----------
    beta:
        Balance parameter (Definition 4.1); the paper selects 0.2.
    leaf_size:
        Recursion cut-off - subgraphs of at most this size become leaves.
    tail_pruning:
        Whether to apply tail pruning (Definition 4.18).  Disabling it
        yields the naive upper-bound labelling (ablation of Section 5.1.2).
    contract:
        Whether to run the degree-one contraction before labelling.
    num_workers:
        1 builds sequentially (HC2L); >= 2 uses the parallel builder
        (HC2L_p, Section 4.4) with this many workers.  Must be >= 1.
    parallel_mode:
        Execution of the parallel builder when ``num_workers >= 2``:
        ``"thread"`` (shared-memory thread pool, the reference path) or
        ``"process"`` (self-contained subtree work units on a process
        pool; see :mod:`repro.core.parallel`).  Labels are bit-identical
        across modes and worker counts.
    backend:
        Shortest-path backend for the construction searches: ``"heap"``
        (pure-Python binary heap), ``"csr"`` (batched scipy / numpy
        searches over the CSR snapshot), ``"dial"`` (opt-in bucket-queue
        searches for integer-scalable weights, never picked by ``auto``),
        or ``"auto"`` (csr when scipy is importable, else heap).  Labels
        are bit-identical across backends.
    flow_method:
        Max-flow solver for the hierarchy phase's minimum vertex cuts -
        one of :data:`repro.flow.vertex_cut.FLOW_METHODS`, or ``"auto"``
        to let the backend pick.  Canonical cuts are unique across all
        maximum flows, so labels are bit-identical across methods.
    """

    beta: float = 0.2
    leaf_size: int = 12
    tail_pruning: bool = True
    contract: bool = True
    num_workers: int = 1
    parallel_mode: str = "thread"
    backend: str = "auto"
    flow_method: str = "auto"

    def __post_init__(self) -> None:
        from repro.core.backends import check_backend_name
        from repro.core.construction import check_parallel_mode
        from repro.flow.vertex_cut import check_flow_method

        check_balance_parameter(self.beta)
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        check_parallel_mode(self.parallel_mode)
        check_backend_name(self.backend)
        check_flow_method(self.flow_method)


def _identity_contraction(graph: Graph) -> ContractedGraph:
    """A no-op contraction mapping every vertex to itself."""
    n = graph.num_vertices
    return ContractedGraph(
        core=graph,
        core_to_original=list(range(n)),
        original_to_core=list(range(n)),
        root=list(range(n)),
        parent=list(range(n)),
        dist_to_parent=[0.0] * n,
        dist_to_root=[0.0] * n,
        depth=[0] * n,
        num_original=n,
    )


class _LabellingView(HC2LLabelling):
    """Read-oriented nested view materialised from the flat buffers.

    The view is a snapshot: writing to it cannot reach the flat buffers
    the queries run over, so the mutating entry point raises instead of
    silently desyncing.  Use :meth:`HC2LIndex.replace_labelling` to swap
    in changed labels.
    """

    def append_level(self, vertex: int, array: Sequence[float]) -> None:
        raise RuntimeError(
            "HC2LIndex.labelling is a materialised view of the flat label "
            "buffers; mutating it would silently desync the query engine. "
            "Build a new HC2LLabelling and call index.replace_labelling(...) "
            "instead."
        )


class HC2LIndex:
    """A built hierarchical cut 2-hop labelling index.

    Implements the batch-first :class:`repro.core.oracle.DistanceOracle`
    protocol; every query delegates to the vectorised
    :class:`~repro.core.engine.QueryEngine` over the flat label buffers.
    """

    def __init__(
        self,
        graph: Graph,
        parameters: HC2LParameters,
        contraction: ContractedGraph,
        hierarchy: BalancedTreeHierarchy,
        labelling: Optional[HC2LLabelling] = None,
        stats: Optional[ConstructionStats] = None,
        construction_seconds: float = 0.0,
        flat: Optional[FlatLabelling] = None,
        extra: Optional[Dict[str, float]] = None,
    ) -> None:
        if flat is None:
            if labelling is None:
                raise ValueError("provide the labels as 'labelling' (nested) or 'flat'")
            flat = FlatLabelling.from_labelling(labelling)
        self.graph = graph
        self.parameters = parameters
        self.contraction = contraction
        self.hierarchy = hierarchy
        self.stats = stats if stats is not None else ConstructionStats()
        self.construction_seconds = construction_seconds
        self._extra: Dict[str, float] = dict(extra) if extra else {}
        #: the single authoritative copy of the labels (flat buffers)
        self._flat: FlatLabelling = flat
        self._engine: Optional[QueryEngine] = None
        self._labelling_view: Optional[HC2LLabelling] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: Graph,
        parameters: Optional[HC2LParameters] = None,
        **overrides: object,
    ) -> "HC2LIndex":
        """Build an index for ``graph``.

        ``parameters`` may be given as an :class:`HC2LParameters` instance
        or through keyword overrides, e.g. ``HC2LIndex.build(g, beta=0.25)``.
        """
        import time

        if parameters is None:
            parameters = HC2LParameters(**overrides)  # type: ignore[arg-type]
        elif overrides:
            raise ValueError("pass either a parameters object or keyword overrides, not both")

        start = time.perf_counter()
        if parameters.contract:
            contraction = contract_degree_one(graph)
        else:
            contraction = _identity_contraction(graph)

        core = contraction.core
        if parameters.num_workers >= 2:
            from repro.core.parallel import ParallelHC2LBuilder

            builder: HC2LBuilder = ParallelHC2LBuilder(
                beta=parameters.beta,
                leaf_size=parameters.leaf_size,
                tail_pruning=parameters.tail_pruning,
                num_workers=parameters.num_workers,
                backend=parameters.backend,
                parallel_mode=parameters.parallel_mode,
                flow_method=parameters.flow_method,
            )
        else:
            builder = HC2LBuilder(
                beta=parameters.beta,
                leaf_size=parameters.leaf_size,
                tail_pruning=parameters.tail_pruning,
                backend=parameters.backend,
                flow_method=parameters.flow_method,
            )
        hierarchy, labelling, stats = builder.build(core)
        elapsed = time.perf_counter() - start
        # the process-parallel builder streams the labels directly into
        # flat buffers; hand them over as-is instead of round-tripping
        # through the nested form
        flat = labelling if isinstance(labelling, FlatLabelling) else None
        return cls(
            graph=graph,
            parameters=parameters,
            contraction=contraction,
            hierarchy=hierarchy,
            labelling=None if flat is not None else labelling,
            stats=stats,
            construction_seconds=elapsed,
            flat=flat,
        )

    # ------------------------------------------------------------------ #
    # label storage
    # ------------------------------------------------------------------ #
    def flat_labelling(self) -> FlatLabelling:
        """The authoritative flat label buffers (the only persistent copy)."""
        return self._flat

    @property
    def labelling(self) -> HC2LLabelling:
        """Nested list view of the labels, materialised on demand.

        The view is cached until :meth:`replace_labelling` swaps the
        labels; it is *derived* state - the flat buffers stay the single
        source of truth the query engine reads.  Mutating the view raises
        (see :class:`_LabellingView`).
        """
        view = self._labelling_view
        if view is None:
            nested = self._flat.to_labelling()
            view = _LabellingView(num_vertices=nested.num_vertices, labels=nested.labels)
            self._labelling_view = view
        return view

    @labelling.setter
    def labelling(self, value: object) -> None:
        raise AttributeError(
            "HC2LIndex.labelling cannot be assigned directly; call "
            "index.replace_labelling(new_labelling) so the flat buffers and "
            "query engine are refreshed together."
        )

    def replace_labelling(self, labelling: Union[HC2LLabelling, FlatLabelling]) -> None:
        """Swap in new labels and invalidate every derived query structure.

        This is the supported mutation path for dynamic updates
        (:mod:`repro.core.dynamic`): the flat buffers are rebuilt, and the
        cached batch engine and nested view are dropped so no caller can
        observe stale distances.
        """
        if isinstance(labelling, FlatLabelling):
            flat = labelling
        elif isinstance(labelling, HC2LLabelling):
            flat = FlatLabelling.from_labelling(labelling)
        else:
            raise TypeError(
                f"expected HC2LLabelling or FlatLabelling, got {type(labelling).__name__}"
            )
        expected = self.contraction.core.num_vertices
        if flat.num_vertices != expected:
            raise ValueError(
                f"labelling covers {flat.num_vertices} vertices but the core "
                f"graph has {expected}"
            )
        self._flat = flat
        self._engine = None
        self._labelling_view = None

    @property
    def engine(self) -> QueryEngine:
        """The batch query engine over the flat label storage (cached)."""
        if getattr(self, "_closed", False):
            raise RuntimeError("this HC2LIndex is closed")
        engine = self._engine
        if engine is None:
            engine = QueryEngine.from_index(self)
            self._engine = engine
        return engine

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the label buffers, closing any backing memory maps.

        Matters for mmap-loaded indexes (:func:`repro.serving.mmap.load_index_mmap`):
        worker processes that recycle an index must unmap the ``.npy``
        sidecars deterministically instead of waiting for GC.  The cached
        query engine holds direct references into the buffers, so it is
        dropped first; afterwards every query raises ``RuntimeError``.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        # the engine and nested view alias the flat buffers - drop them
        # before closing so the memmaps have no remaining exporters
        self._engine = None
        self._labelling_view = None
        self._flat.close()

    def __enter__(self) -> "HC2LIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def attach_tree_resolver(self, resolver) -> None:
        """Install a pre-built Euler-tour tree resolver on the engine.

        Used by the mmap load path when a persisted sidecar
        (:func:`repro.core.persistence.save_tree_sidecar`) is present, so
        serving skips the per-process tour rebuild.
        """
        self.engine.resolver.attach_tree_resolver(resolver)

    # ------------------------------------------------------------------ #
    # queries (DistanceOracle protocol)
    # ------------------------------------------------------------------ #
    @property
    def supports_batch(self) -> bool:
        """HC2L's batch path is fully vectorised."""
        return True

    @property
    def index_size_bytes(self) -> int:
        """Label storage plus contracted-vertex records (protocol metadata)."""
        return self.label_size_bytes()

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance between ``s`` and ``t`` (original ids).

        Returns ``inf`` for disconnected pairs.
        """
        return self.engine.distance(s, t)

    def distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Exact distances for a batch of ``(s, t)`` pairs (vectorised).

        Bit-identical to calling :meth:`distance` per pair, but the
        contraction bookkeeping, LCA computation and min-plus label scans
        run over the whole batch at once.
        """
        return self.engine.distances(pairs)

    def one_to_many(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``s`` to every vertex of ``targets`` (batched)."""
        return self.engine.one_to_many(s, targets)

    def many_to_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """The ``len(sources) x len(targets)`` distance matrix (batched)."""
        return self.engine.many_to_many(sources, targets)

    #: Alias so the index can be swapped with the baseline oracles.
    query = distance

    def distance_with_hub_count(self, s: int, t: int) -> Tuple[float, int]:
        """Distance plus the number of label entries scanned (Table 3 metric)."""
        if getattr(self, "_closed", False):
            raise RuntimeError("this HC2LIndex is closed")
        n = self.contraction.num_original
        check_vertex(s, n, "s")
        check_vertex(t, n, "t")
        resolved, core_s, core_t, offset = self.contraction.resolve_query(s, t)
        if resolved is not None:
            return resolved, 0
        value, hubs = core_distance_with_stats(self.hierarchy, self._flat, core_s, core_t)
        return offset + value, hubs

    # ------------------------------------------------------------------ #
    # metrics (feed Tables 2-5)
    # ------------------------------------------------------------------ #
    def label_size_bytes(self) -> int:
        """Size of the distance labelling, including contracted-vertex records."""
        contracted_overhead = self.contraction.num_contracted * 16
        return self._flat.size_bytes() + contracted_overhead

    def lca_storage_bytes(self) -> int:
        """Size of the auxiliary structure needed for O(1) LCA queries."""
        return self.hierarchy.lca_storage_bytes()

    def tree_height(self) -> int:
        """Height of the balanced tree hierarchy (Table 5)."""
        return self.hierarchy.height()

    def max_cut_size(self) -> int:
        """Largest cut in the hierarchy (Table 5)."""
        return self.hierarchy.max_cut_size()

    def average_cut_size(self) -> float:
        """Average internal cut size (Figure 7)."""
        return self.hierarchy.average_cut_size()

    def average_label_entries(self) -> float:
        """Average number of stored distances per core vertex."""
        return self._flat.average_label_entries()

    def contraction_ratio(self) -> float:
        """Fraction of vertices removed by the degree-one contraction."""
        return self.contraction.contraction_ratio()

    def describe(self) -> Dict[str, float]:
        """One-stop summary used by the experiment harness and examples."""
        summary: Dict[str, float] = {
            "num_vertices": float(self.graph.num_vertices),
            "num_edges": float(self.graph.num_edges),
            "core_vertices": float(self.contraction.core.num_vertices),
            "contraction_ratio": self.contraction_ratio(),
            "construction_seconds": self.construction_seconds,
            "label_size_bytes": float(self.label_size_bytes()),
            "lca_storage_bytes": float(self.lca_storage_bytes()),
            "tree_height": float(self.tree_height()),
            "max_cut_size": float(self.max_cut_size()),
            "avg_cut_size": self.average_cut_size(),
            "avg_label_entries": self.average_label_entries(),
            "num_shortcuts": float(self.stats.num_shortcuts),
        }
        summary.update(self._extra)
        return summary

    def __repr__(self) -> str:
        return (
            f"HC2LIndex(num_vertices={self.graph.num_vertices}, "
            f"label_entries={self._flat.total_entries()})"
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path], tree_sidecar: bool = False) -> None:
        """Serialise the index to ``path`` (versioned ``.npz`` format).

        The archive stores the flat label buffers plus typed arrays for the
        graph, contraction and hierarchy; see :mod:`repro.core.persistence`.
        With ``tree_sidecar=True`` the Euler-tour tree resolver is also
        persisted under ``<path>.tree/`` so mmap loads skip the
        per-process rebuild (see
        :func:`repro.core.persistence.save_tree_sidecar`).
        """
        from repro.core.persistence import save_index, save_tree_sidecar

        save_index(self, path)
        if tree_sidecar:
            save_tree_sidecar(self, path)

    def save_sharded(
        self,
        path: Union[str, Path],
        num_shards: int = 2,
        boundaries: Union[str, Sequence[int], None] = None,
        generation: Optional[int] = None,
    ) -> Path:
        """Write the index as a sharded layout under ``<path>.shards/``.

        The label buffers are partitioned by core vertex range into
        self-contained shard archives next to a label-free ``base.npz``;
        serve the layout with :class:`repro.serving.ShardRouter` (or
        ``repro query --shards``).  ``generation`` versions the layout for
        hot-swap serving (``None`` bumps any existing manifest's counter).
        Returns the layout directory; see
        :func:`repro.core.persistence.save_index_sharded`.
        """
        from repro.core.persistence import save_index_sharded

        return save_index_sharded(
            self, path, num_shards=num_shards, boundaries=boundaries, generation=generation
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        allow_pickle: bool = False,
        mmap_labels: bool = False,
    ) -> "HC2LIndex":
        """Load an index previously written by :meth:`save`.

        Raises ``ValueError`` for files that are not compatible HC2L
        archives.  ``allow_pickle=True`` additionally accepts legacy pickle
        files (pickle can execute arbitrary code - only enable it for
        trusted files).  ``mmap_labels=True`` maps the flat label buffers
        from disk instead of reading them into memory, so multiple serving
        processes loading the same index share one physical copy via the
        page cache (see :mod:`repro.serving`).
        """
        from repro.core.persistence import load_index

        return load_index(path, allow_pickle=allow_pickle, mmap_labels=mmap_labels)

"""The public HC2L index facade.

:class:`HC2LIndex` is what applications use: build it once from a road
network, then answer exact shortest-path distance queries in microseconds
(well, in Python: in a few label-array scans).  It combines

* the degree-one contraction (Section 4.2.2),
* the balanced tree hierarchy and tail-pruned labelling over the core
  graph (Sections 4.1-4.2, built by :class:`repro.core.construction.HC2LBuilder`
  or its process-parallel variant), and
* the O(1)-LCA query procedure (Section 4.3).

Label storage
-------------
The **only** label store is the flat, contiguous
:class:`~repro.core.flat.FlatLabelling` buffer (one ``float64`` array plus
two index arrays, no hub ids; Section 4.2.2) - the layout the
:class:`~repro.core.engine.QueryEngine` reads and the payload of the
on-disk format.  Construction and the dynamic relabelling pass
(:func:`repro.core.dynamic.relabel`) both write the flat buffers
directly, so an index holds its labels exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.construction import ConstructionStats, HC2LBuilder
from repro.core.engine import QueryEngine
from repro.core.flat import FlatLabelling
from repro.core.flat_build import RelabelRecord
from repro.graph.contraction import ContractedGraph, contract_degree_one
from repro.graph.graph import Graph
from repro.hierarchy.tree import BalancedTreeHierarchy
from repro.utils.validation import check_balance_parameter

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
        1 builds sequentially (HC2L); >= 2 fans the same construction
        recursion out over this many worker processes (HC2L_p,
        Section 4.4; see :mod:`repro.core.parallel`).  Must be >= 1.
        Labels are bit-identical across worker counts.
    backend:
        Shortest-path backend for the construction searches: ``"heap"``
        (pure-Python binary heap), ``"csr"`` (batched scipy searches over
        the CSR snapshot), ``"dial"`` (opt-in bucket-queue searches for
        integer-scalable weights, never picked by ``auto``), or ``"auto"``
        (csr).  Labels are bit-identical across backends.

    The hierarchy phase's minimum vertex cuts need no parameter: their
    max-flow route is chosen per region from its size (see
    :mod:`repro.flow.vertex_cut`), and canonical cuts are unique across
    all maximum flows.
    """

    beta: float = 0.2
    leaf_size: int = 12
    tail_pruning: bool = True
    contract: bool = True
    num_workers: int = 1
    backend: str = "auto"

    def __post_init__(self) -> None:
        from repro.core.backends import check_backend_name

        check_balance_parameter(self.beta)
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        check_backend_name(self.backend)


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
        flat: FlatLabelling,
        stats: Optional[ConstructionStats] = None,
        construction_seconds: float = 0.0,
        extra: Optional[Dict[str, float]] = None,
        relabel_record: Optional[RelabelRecord] = None,
    ) -> None:
        self.graph = graph
        self.parameters = parameters
        self.contraction = contraction
        self.hierarchy = hierarchy
        self.stats = stats if stats is not None else ConstructionStats()
        self.construction_seconds = construction_seconds
        self._extra: Dict[str, float] = dict(extra) if extra else {}
        #: per hierarchy node, how its snapshot derives from its parent's
        #: (:class:`~repro.core.flat_build.ChildRecord`); what a scoped
        #: :func:`~repro.core.dynamic.relabel` reads its old side from.
        #: Kept in memory only - not label storage, never archived - so a
        #: loaded index has none and its first relabel is a full pass.
        self.relabel_record = relabel_record
        #: the single authoritative copy of the labels (flat buffers)
        self._flat: FlatLabelling = flat
        self._engine: Optional[QueryEngine] = None
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
            )
        else:
            builder = HC2LBuilder(
                beta=parameters.beta,
                leaf_size=parameters.leaf_size,
                tail_pruning=parameters.tail_pruning,
                backend=parameters.backend,
            )
        record: RelabelRecord = []
        hierarchy, flat, stats = builder.build(core, record)
        elapsed = time.perf_counter() - start
        return cls(
            graph=graph,
            parameters=parameters,
            contraction=contraction,
            hierarchy=hierarchy,
            stats=stats,
            construction_seconds=elapsed,
            flat=flat,
            relabel_record=record,
        )

    # ------------------------------------------------------------------ #
    # label storage
    # ------------------------------------------------------------------ #
    def flat_labelling(self) -> FlatLabelling:
        """The authoritative flat label buffers (the only persistent copy)."""
        return self._flat

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

        Matters for indexes loaded with ``mmap_labels=True``: worker
        processes that recycle an index must unmap the ``.npy`` sidecars
        deterministically instead of waiting for GC.  The cached
        query engine holds direct references into the buffers, so it is
        dropped first; afterwards every query raises ``RuntimeError``.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        # the engine aliases the flat buffers - drop it before closing so
        # the memmaps have no remaining exporters
        self._engine = None
        self._flat.close()

    def __enter__(self) -> "HC2LIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        return self.engine.distance_with_hub_count(s, t)

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
    def save(self, path: Union[str, Path]) -> None:
        """Serialise the index to ``path`` (versioned ``.npz`` format).

        The archive stores the flat label buffers plus typed arrays for the
        graph, contraction and hierarchy; see :mod:`repro.core.persistence`.
        """
        from repro.core.persistence import save_index

        save_index(self, path)

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
    def load(cls, path: Union[str, Path], mmap_labels: bool = False) -> "HC2LIndex":
        """Load an index previously written by :meth:`save`.

        Raises ``ValueError`` for anything that is not an intact archive in
        the current format version (a damaged file, another file type, or
        an archive written by an older build, which must be rebuilt).
        ``mmap_labels=True`` maps the flat label buffers from disk instead
        of reading them into memory, so multiple serving processes loading
        the same index share one physical copy via the page cache (see
        :mod:`repro.serving`).
        """
        from repro.core.persistence import load_index

        return load_index(path, mmap_labels=mmap_labels)

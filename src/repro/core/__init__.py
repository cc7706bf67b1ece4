"""Hierarchical Cut 2-Hop Labelling (HC2L) - the paper's core contribution.

Public entry point is :class:`repro.core.index.HC2LIndex`, which bundles

* degree-one contraction of the input graph,
* construction of the balanced tree hierarchy (Section 4.1),
* the tail-pruned hierarchical cut 2-hop labelling (Section 4.2), and
* O(1)-LCA query processing (Section 4.3),

plus the parallel construction variant HC2L_p (Section 4.4).
"""

from repro.core.backends import (
    CSRBackend,
    HeapBackend,
    ShortestPathBackend,
    resolve_backend,
)
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.construction import HC2LBuilder, ConstructionStats
from repro.core.oracle import BatchMixin, DistanceOracle
from repro.core.parallel import ParallelHC2LBuilder

__all__ = [
    "HC2LIndex",
    "HC2LParameters",
    "HC2LBuilder",
    "ParallelHC2LBuilder",
    "ConstructionStats",
    "DistanceOracle",
    "BatchMixin",
    "ShortestPathBackend",
    "HeapBackend",
    "CSRBackend",
    "resolve_backend",
]

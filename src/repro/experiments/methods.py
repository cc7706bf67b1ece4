"""Uniform wrappers around HC2L and the baselines for the experiment harness.

A :class:`MethodSpec` bundles a display name with a builder callable.
Every builder returns a :class:`repro.core.oracle.DistanceOracle`, so the
harness times scalar and batched queries through the same protocol calls
for every method - adding another method is a one-liner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines.ch import ContractionHierarchy
from repro.baselines.dijkstra import BidirectionalDijkstra, DijkstraOracle
from repro.baselines.h2h import H2HIndex
from repro.baselines.hub_labelling import HubLabelling
from repro.baselines.phl import PrunedHighwayLabelling
from repro.baselines.pll import PrunedLandmarkLabelling
from repro.core.index import HC2LIndex
from repro.core.oracle import DistanceOracle
from repro.graph.graph import Graph

IndexBuilder = Callable[[Graph], DistanceOracle]


@dataclass(frozen=True)
class MethodSpec:
    """A named distance-query method plugged into the harness."""

    name: str
    builder: IndexBuilder
    #: whether the method has a meaningful LCA auxiliary structure (Table 3)
    has_lca_storage: bool = False


def _build_hc2l(graph: Graph) -> HC2LIndex:
    return HC2LIndex.build(graph)


def _available_cores() -> int:
    """CPU cores this process may run on (``os.cpu_count()`` where the
    platform has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_hc2l_parallel(graph: Graph) -> HC2LIndex:
    # one worker per available core; a single core builds serially
    return HC2LIndex.build(graph, num_workers=_available_cores())


def _build_hc2l_no_tail_pruning(graph: Graph) -> HC2LIndex:
    return HC2LIndex.build(graph, tail_pruning=False)


def _build_h2h(graph: Graph) -> H2HIndex:
    return H2HIndex.build(graph)


def _build_phl(graph: Graph) -> PrunedHighwayLabelling:
    return PrunedHighwayLabelling.build(graph)


def _build_hl(graph: Graph) -> HubLabelling:
    return HubLabelling.build(graph)


def _build_pll(graph: Graph) -> PrunedLandmarkLabelling:
    return PrunedLandmarkLabelling.build(graph)


def _build_bidirectional(graph: Graph) -> BidirectionalDijkstra:
    return BidirectionalDijkstra.build(graph)


def _build_ch(graph: Graph) -> ContractionHierarchy:
    return ContractionHierarchy.build(graph)


def _build_dijkstra(graph: Graph) -> DijkstraOracle:
    return DijkstraOracle.build(graph)


#: Methods evaluated in the paper's tables, keyed by their table column name.
METHOD_BUILDERS: Dict[str, MethodSpec] = {
    "HC2L": MethodSpec("HC2L", _build_hc2l, has_lca_storage=True),
    "HC2L_p": MethodSpec("HC2L_p", _build_hc2l_parallel, has_lca_storage=True),
    "HC2L_nt": MethodSpec("HC2L_nt", _build_hc2l_no_tail_pruning, has_lca_storage=True),
    "H2H": MethodSpec("H2H", _build_h2h, has_lca_storage=True),
    "PHL": MethodSpec("PHL", _build_phl),
    "HL": MethodSpec("HL", _build_hl),
    "PLL": MethodSpec("PLL", _build_pll),
    "CH": MethodSpec("CH", _build_ch),
    "BiDijkstra": MethodSpec("BiDijkstra", _build_bidirectional),
    "Dijkstra": MethodSpec("Dijkstra", _build_dijkstra),
}

#: The methods appearing in Tables 2 and 4 of the paper.
TABLE_METHODS: List[str] = ["HC2L", "H2H", "PHL", "HL"]


def available_methods(names: Optional[List[str]] = None) -> List[MethodSpec]:
    """Resolve a list of method names (defaults to the paper's table methods)."""
    selected = names or TABLE_METHODS
    unknown = [name for name in selected if name not in METHOD_BUILDERS]
    if unknown:
        raise KeyError(f"unknown methods {unknown}; available: {sorted(METHOD_BUILDERS)}")
    return [METHOD_BUILDERS[name] for name in selected]

"""Minimum-vertex-cut substrate.

The balanced cut step of the hierarchy construction (Algorithm 2 in the
paper) reduces the minimal balanced vertex-separator problem to a minimum
s-t *vertex* cut on the cut region, which in turn reduces to maximum flow
on the standard split-vertex transformation.
:func:`~repro.flow.vertex_cut.minimum_vertex_cut_regions` solves many
disjoint regions with one scipy ``maximum_flow``;
:func:`~repro.flow.vertex_cut.minimum_vertex_cut_region` is its
one-region call.
"""

from repro.flow.vertex_cut import (
    MinVertexCutResult,
    minimum_vertex_cut_region,
    minimum_vertex_cut_regions,
)

__all__ = [
    "minimum_vertex_cut_region",
    "minimum_vertex_cut_regions",
    "MinVertexCutResult",
]

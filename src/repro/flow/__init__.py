"""Minimum-vertex-cut substrate.

The balanced cut step of the hierarchy construction (Algorithm 2 in the
paper) reduces the minimal balanced vertex-separator problem to a minimum
s-t *vertex* cut on the cut region, which in turn reduces to maximum flow
on the standard split-vertex transformation.
:func:`~repro.flow.vertex_cut.minimum_vertex_cut_region` solves it with
scipy's ``maximum_flow`` on large regions and a compact Edmonds-Karp on
small ones; the canonical cuts do not depend on the route.
"""

from repro.flow.vertex_cut import MinVertexCutResult, minimum_vertex_cut_region

__all__ = [
    "minimum_vertex_cut_region",
    "MinVertexCutResult",
]

"""Algorithm 2 - BalancedCut.

Takes the initial partitions produced by Algorithm 1, contracts them into
virtual terminals, finds a minimum s-t vertex cut inside the cut region via
the split-vertex max-flow reduction, and finally re-assigns the connected
components of ``G \\ V_cut`` to the two sides while maximising balance.

The paper extracts two canonical minimum cuts from the maximal flow (the
one closest to ``S`` and the one closest to ``T``) and keeps whichever
yields the more balanced final partition; this module does the same.

Everything graph-shaped runs on the node's CSR snapshot
(:class:`~repro.core.flat.FlatWorkingGraph`): border and terminal
attachment sets are computed with vectorised edge-mask scans, the flow
region is carved out of the CSR arrays without materialising a dict, and
the component re-assignment uses the
:class:`~repro.core.backends.ShortestPathBackend` component scan.  The
max-flow route is chosen from the region alone (scipy on large regions,
a compact Edmonds-Karp on small ones, see :mod:`repro.flow.vertex_cut`);
the canonical cuts are unique across all maximum flows, so the route
never changes a cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.backends import BackendSpec, ShortestPathBackend, resolve_backend
from repro.core.flat import FlatWorkingGraph
from repro.flow.vertex_cut import minimum_vertex_cut_region
from repro.partition.partition import balanced_partition
from repro.utils.validation import check_balance_parameter


@dataclass
class BalancedCutResult:
    """Outcome of Algorithm 2: a balanced cut ``(P_A, V_cut, P_B)``.

    ``part_a`` and ``part_b`` are the final partitions, ``cut`` the vertex
    cut separating them.  The three lists partition the vertex set of the
    input subgraph; either partition may be empty for degenerate inputs
    (very small subgraphs), in which case the caller typically stops
    recursing and turns the remainder into a leaf node.
    """

    part_a: List[int]
    cut: List[int]
    part_b: List[int]

    def balance(self) -> float:
        """Size of the larger side divided by the number of non-cut vertices."""
        total = len(self.part_a) + len(self.part_b)
        if total == 0:
            return 1.0
        return max(len(self.part_a), len(self.part_b)) / total


def balanced_cut(
    flat: FlatWorkingGraph,
    beta: float = 0.2,
    backend: BackendSpec = None,
) -> BalancedCutResult:
    """Compute a balanced vertex cut of a snapshot (Algorithm 2).

    ``flat`` is the node's snapshot (the hierarchy builder shares it with
    the ranking and labelling passes); ``backend`` selects the
    :class:`~repro.core.backends.ShortestPathBackend` running the seed
    searches and component scans.  The minimum vertex cut comes from
    :func:`~repro.flow.vertex_cut.minimum_vertex_cut_region`, whose route
    depends only on the region size and on whether scipy imports.
    ``beta`` must lie in ``(0, 0.5]`` (Definition 4.1) - validated here so
    an invalid balance parameter fails loudly before any search runs.
    """
    check_balance_parameter(beta)
    search = resolve_backend(backend)

    partition = balanced_partition(flat, beta=beta, backend=search)
    initial_a, cut_region, initial_b = (
        partition.initial_a,
        partition.cut_region,
        partition.initial_b,
    )

    if not initial_a or not initial_b:
        # Degenerate split (tiny or pathological subgraph): report the whole
        # cut region as the cut so the caller can decide to stop recursing.
        return BalancedCutResult(sorted(initial_a), sorted(cut_region), sorted(initial_b))

    n = len(flat.vertices)
    indptr, indices, _ = flat.csr_arrays()
    tails = flat.tails()

    # side of each dense vertex: 0 = P'_A, 1 = P'_B, 2 = cut region C
    side = np.full(n, 2, dtype=np.int8)
    side[flat.dense_ids(initial_a)] = 0
    side[flat.dense_ids(initial_b)] = 1

    # Lines 3-4: vertices incident to a cross-partition edge.
    tail_side = side[tails]
    head_side = side[indices]
    border_a = np.zeros(n, dtype=bool)
    border_a[tails[(tail_side == 0) & (head_side == 1)]] = True
    border_b = np.zeros(n, dtype=bool)
    border_b[tails[(tail_side == 1) & (head_side == 0)]] = True

    # Lines 5-11: the flow subgraph over C union C_A union C_B and the
    # terminal attachment sets N_S / N_T.
    in_cut = side == 2
    flow_mask = in_cut | border_a | border_b
    interior_a = (side == 0) & ~border_a
    interior_b = (side == 1) & ~border_b
    attach_s = border_a.copy()
    attach_t = border_b.copy()
    touches_interior_a = np.zeros(n, dtype=bool)
    touches_interior_a[tails[interior_a[indices]]] = True
    touches_interior_b = np.zeros(n, dtype=bool)
    touches_interior_b[tails[interior_b[indices]]] = True
    attach_s |= in_cut & touches_interior_a
    attach_t |= in_cut & touches_interior_b

    # Carve the flow region out of the CSR arrays: local ids are ascending
    # dense ids, i.e. the region's vertices in sorted order.
    local = np.full(n, -1, dtype=np.int64)
    region_dense = np.nonzero(flow_mask)[0]
    local[region_dense] = np.arange(len(region_dense), dtype=np.int64)
    edge_keep = flow_mask[tails] & flow_mask[indices]
    region_vertices = [flat.vertices[i] for i in region_dense.tolist()]

    # Line 12: minimum s-t vertex cut of the flow region.
    result = minimum_vertex_cut_region(
        region_vertices,
        local[tails[edge_keep]],
        local[indices[edge_keep]],
        local[np.nonzero(attach_s)[0]],
        local[np.nonzero(attach_t)[0]],
    )

    # Lines 13-15 for each canonical cut, then keep the more balanced one.
    best: BalancedCutResult | None = None
    for cut in result.candidate_cuts():
        assignment = _assign_components(flat, cut, search)
        if best is None or assignment.balance() < best.balance():
            best = assignment
    assert best is not None
    return best


def _assign_components(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    search: ShortestPathBackend,
) -> BalancedCutResult:
    """Assign the components of ``G \\ cut`` to the two sides, maximising balance.

    Following the paper, components are processed in order of decreasing
    size and each is appended to the currently smaller side.  Components
    containing seed vertices of both sides cannot occur (the cut separates
    them); a component containing seeds of exactly one side is still
    assigned purely by balance, as in the paper's pseudo-code.
    """
    cut_set = set(cut)
    keep = np.ones(len(flat.vertices), dtype=bool)
    keep[flat.dense_ids(cut)] = False
    components = search.components_masked(flat, keep)
    components.sort(key=lambda c: (-len(c), c[0]))

    part_a: List[int] = []
    part_b: List[int] = []
    for component in components:
        if len(part_a) <= len(part_b):
            part_a.extend(component)
        else:
            part_b.extend(component)
    return BalancedCutResult(sorted(part_a), sorted(cut_set), sorted(part_b))

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
attachment sets are computed with vectorised edge-mask scans
(:func:`flow_region_masks`), the flow region is carved out of the CSR
arrays without materialising a dict, and the component re-assignment uses
the :class:`~repro.core.backends.ShortestPathBackend` component scan.
The minimum vertex cut is one scipy max-flow
(:func:`~repro.flow.vertex_cut.minimum_vertex_cut_region`).

The stacked construction rounds of :mod:`repro.core.flat_build` cut many
small snapshots at once (:func:`~repro.core.flat_build.stacked_cuts`)
through the same mask and ordering helpers - :func:`flow_region_masks`,
:func:`assign_components` and :func:`side_balance` - which take any
number of blocks, so the two routes cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
        return float(side_balance(len(self.part_a), len(self.part_b)))


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
    :func:`~repro.flow.vertex_cut.minimum_vertex_cut_region` (one scipy
    max-flow).  ``beta`` must lie in ``(0, 0.5]`` (Definition 4.1) -
    validated here so an invalid balance parameter fails loudly before
    any search runs.
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
    flow_mask, attach_s, attach_t = flow_region_masks(side, tails, indices)

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


def flow_region_masks(
    side: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines 3-11 of Algorithm 2: the flow region and its terminal attachments.

    ``side`` codes every vertex as ``0`` (``P'_A``), ``1`` (``P'_B``),
    ``2`` (the cut region ``C``) or anything else (outside every region);
    ``(tails, heads)`` are the directed arcs.  Returns the masks of the
    flow region ``C + C_A + C_B`` and of its ``S`` and ``T`` attachment
    sets ``N_S`` and ``N_T``.  Arcs never join two snapshots of a stack,
    so over stacked snapshots each block's stretch is its own masks.
    """
    n = len(side)
    # Lines 3-4: vertices incident to a cross-partition edge.
    tail_side = side[tails]
    head_side = side[heads]
    border_a = np.zeros(n, dtype=bool)
    border_a[tails[(tail_side == 0) & (head_side == 1)]] = True
    border_b = np.zeros(n, dtype=bool)
    border_b[tails[(tail_side == 1) & (head_side == 0)]] = True

    # Lines 5-11: the flow subgraph over C union C_A union C_B and the
    # terminal attachment sets N_S / N_T.
    in_cut = side == 2
    interior_a = (side == 0) & ~border_a
    interior_b = (side == 1) & ~border_b
    touches_interior_a = np.zeros(n, dtype=bool)
    touches_interior_a[tails[interior_a[heads]]] = True
    touches_interior_b = np.zeros(n, dtype=bool)
    touches_interior_b[tails[interior_b[heads]]] = True
    return (
        in_cut | border_a | border_b,
        border_a | (in_cut & touches_interior_a),
        border_b | (in_cut & touches_interior_b),
    )


def assign_components(
    block: np.ndarray, size: np.ndarray, first: np.ndarray, num_blocks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines 13-15 of Algorithm 2 for the components of many snapshots at once.

    Component ``c`` lies in snapshot ``block[c]``, holds ``size[c]``
    vertices and has smallest member ``first[c]`` (any id that ascends
    with the vertex ids).  Following the paper, each snapshot's
    components are taken in order of decreasing size (ties: smallest
    member first) and each is appended to the currently smaller side
    (``A`` on a tie).  Returns every component's side (0 = ``A``,
    1 = ``B``) and the two sides' sizes per snapshot.  Components
    containing seeds of one side are still assigned purely by balance, as
    in the paper's pseudo-code.
    """
    order = np.lexsort((first, -size, block))
    counts = np.bincount(block, minlength=num_blocks)
    rank = np.arange(len(order), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    by_rank = order[np.argsort(rank, kind="stable")]
    size_a = np.zeros(num_blocks, dtype=np.int64)
    size_b = np.zeros(num_blocks, dtype=np.int64)
    sides = np.zeros(len(size), dtype=np.int8)
    # round r appends every snapshot's r-th component (at most one each)
    for at in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
        at_block = block[at]
        to_b = size_a[at_block] > size_b[at_block]
        sides[at] = to_b
        size_a[at_block[~to_b]] += size[at[~to_b]]
        size_b[at_block[to_b]] += size[at[to_b]]
    return sides, size_a, size_b


def side_balance(size_a, size_b):
    """Size of the larger side over the non-cut vertices (1.0 with none).

    Takes scalars or per-snapshot arrays; lower is more balanced.
    """
    total = np.add(size_a, size_b)
    return np.where(total > 0, np.maximum(size_a, size_b) / np.maximum(total, 1), 1.0)


def _assign_components(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    search: ShortestPathBackend,
) -> BalancedCutResult:
    """Assign the components of ``G \\ cut`` to the two sides (:func:`assign_components`)."""
    keep = np.ones(len(flat.vertices), dtype=bool)
    keep[flat.dense_ids(cut)] = False
    components = search.components_masked(flat, keep)
    sides, _, _ = assign_components(
        np.zeros(len(components), dtype=np.int64),
        np.array([len(c) for c in components], dtype=np.int64),
        np.array([c[0] for c in components], dtype=np.int64),
        1,
    )
    part_a: List[int] = []
    part_b: List[int] = []
    for component, side in zip(components, sides.tolist()):
        (part_b if side else part_a).extend(component)
    return BalancedCutResult(sorted(part_a), sorted(cut), sorted(part_b))

"""Minimum s-t vertex cuts via the split-vertex max-flow reduction.

Given the cut region of a balanced partition, Algorithm 2 of the paper
contracts the two initial partitions into virtual terminals ``S`` and ``T``
and asks for a minimum set of *vertices* whose removal disconnects them.
The classical reduction [Bondy & Murty 1976] splits every vertex ``v`` into
``v_in`` and ``v_out`` joined by a unit-capacity "inner" edge, turns every
original edge into two infinite-capacity "outer" edges, and runs max flow;
saturated inner edges crossing the residual-reachability boundary are the
cut vertices.

The paper notes that the maximal flow admits two canonical vertex cuts: the
one closest to ``S`` (inner edges whose tail is residual-reachable from S)
and the one closest to ``T``.  Both are returned so the caller can pick the
more balanced option.

Every region goes through ``scipy.sparse.csgraph.maximum_flow`` (C
speed), and so does a whole set of regions at once:
:func:`minimum_vertex_cut_regions` solves any number of disjoint regions
in one split network whose ``S`` and ``T`` are shared by all of them, and
:func:`minimum_vertex_cut_region` is its one-region call.  The stacked
construction rounds of :mod:`repro.core.flat_build` cut every small
snapshot of a round with one such solve.

The shared terminals change no region's cuts.  The regions share no
vertex and no edge, so every s-t path, every cut and every flow splits
into per-region parts: a maximum flow of the union restricted to a region
is a maximum flow of that region alone (a larger one would augment the
union), and a node of a region is residual-reachable from ``S`` in the
union exactly when it is in the region's own residual graph (a path
cannot pass through ``T``, which is unreachable, nor gain anything by
returning to ``S``).  For any maximum flow, the set of nodes
residual-reachable from the source is the unique minimal source side over
all minimum cuts (and symmetrically for the sink), so the extracted
vertex cuts depend neither on which maximum flow the solver found nor on
which other regions shared the solve.  The test suite holds the solve
against independent Dinitz and Edmonds-Karp references, region by region
and over stacked regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _scipy_breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow


@dataclass
class MinVertexCutResult:
    """Result of a minimum s-t vertex cut computation.

    Attributes
    ----------
    cut_size:
        The max-flow value, i.e. the size of a minimum vertex cut.
    cut_closest_to_source / cut_closest_to_sink:
        The two canonical minimum vertex cuts extracted from the residual
        graph.  Both have exactly ``cut_size`` vertices.
    """

    cut_size: int
    cut_closest_to_source: List[int]
    cut_closest_to_sink: List[int]

    def candidate_cuts(self) -> List[List[int]]:
        """Both canonical cuts, de-duplicated."""
        cuts = [self.cut_closest_to_source]
        if set(self.cut_closest_to_sink) != set(self.cut_closest_to_source):
            cuts.append(self.cut_closest_to_sink)
        return cuts


def minimum_vertex_cut_region(
    vertices: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> MinVertexCutResult:
    """Minimum S-T vertex cut of a flow region given as edge arrays.

    ``vertices`` maps region-local ids to original vertex ids; ``tails`` /
    ``heads`` list every *directed* edge of the region (both directions of
    each undirected edge) in local ids; ``attach_s`` / ``attach_t`` are the
    local ids attached to the virtual terminals.  Returns the cut size and
    both canonical cuts; when S and T are already disconnected inside the
    region both cuts are empty.  The one-region call of
    :func:`minimum_vertex_cut_regions`.
    """
    near_source, near_sink = minimum_vertex_cut_regions(
        len(vertices), tails, heads, attach_s, attach_t
    )
    cut_near_source = [vertices[i] for i in np.flatnonzero(near_source).tolist()]
    cut_near_sink = [vertices[i] for i in np.flatnonzero(near_sink).tolist()]
    return MinVertexCutResult(
        cut_size=len(cut_near_source),
        cut_closest_to_source=sorted(cut_near_source),
        cut_closest_to_sink=sorted(cut_near_sink),
    )


def minimum_vertex_cut_regions(
    num_vertices: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Both canonical minimum vertex cuts of many disjoint regions, in one flow.

    The arguments are :func:`minimum_vertex_cut_region`'s over the union
    of the regions (ids ``0 .. num_vertices - 1``; no edge joins two
    regions), and every terminal attachment joins the one shared ``S`` or
    ``T``.  Returns the ``num_vertices`` masks of the cut closest to the
    source and of the cut closest to the sink.  Each region's stretch of
    them is that region's own pair of canonical cuts (module docstring),
    and each region's cut size is its count of either mask.

    A cut vertex is one whose unit inner edge is saturated and separates
    the residual-reachable side from the rest; no other edge can cross a
    minimum cut, so the masks hold exactly the flow value's vertices.
    """
    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        num_vertices, tails, heads, attach_s, attach_t
    )
    res_src, res_dst = _scipy_residual_edges(num_nodes, src, dst, cap, source, sink)
    source_side = _reachable(num_nodes, res_src, res_dst, source)
    sink_side = _reachable(num_nodes, res_dst, res_src, sink)  # reversed edges
    k = num_vertices
    near_source = source_side[0 : 2 * k : 2] & ~source_side[1 : 2 * k : 2]
    near_sink = sink_side[1 : 2 * k : 2] & ~sink_side[0 : 2 * k : 2]
    return near_source, near_sink


# --------------------------------------------------------------------- #
# the split network
# --------------------------------------------------------------------- #
def _split_network_arrays(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The split network as ``(num_nodes, src, dst, cap, source, sink)``.

    Vertex ``i`` splits into nodes ``2i`` (in) and ``2i + 1`` (out); the
    terminals are ``2k`` and ``2k + 1``.  Capacities are integers: 1 on
    inner edges, ``k + 1`` (an unreachable bound - every augmenting path
    crosses a unit inner edge, so no edge ever carries more than ``k``
    units) standing in for infinity on outer and terminal edges, which
    therefore never saturate.
    """
    big = k + 1
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    attach_s = np.asarray(attach_s, dtype=np.int64)
    attach_t = np.asarray(attach_t, dtype=np.int64)
    inner = np.arange(k, dtype=np.int64)
    src = np.concatenate([2 * inner, 2 * tails + 1, np.full(len(attach_s), 2 * k), 2 * attach_t + 1])
    dst = np.concatenate([2 * inner + 1, 2 * heads, 2 * attach_s, np.full(len(attach_t), 2 * k + 1)])
    cap = np.concatenate(
        [
            np.ones(k, dtype=np.int64),
            np.full(len(tails) + len(attach_s) + len(attach_t), big, dtype=np.int64),
        ]
    )
    return 2 * k + 2, src, dst, cap, 2 * k, 2 * k + 1


def _scipy_residual_edges(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    cap: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Max flow via scipy; returns the positive-residual edge list.

    The capacity matrix is handed to scipy with an explicit zero-capacity
    reverse for every edge (the split network never carries anti-parallel
    capacity edges, so the symmetric pattern has no collisions).  scipy's
    ``result.flow`` lives on exactly that union pattern, so when the
    returned indices line up with the input's the residual is one aligned
    ``capacity - flow`` array subtraction instead of a sparse-matrix
    subtraction plus COO round-trip (~3x less per region).
    """
    double_src = np.concatenate([src, dst])
    double_dst = np.concatenate([dst, src])
    double_cap = np.concatenate([cap, np.zeros(len(cap), dtype=cap.dtype)])
    order = np.argsort(double_src * num_nodes + double_dst, kind="stable")
    double_src = double_src[order]
    double_dst = double_dst[order]
    double_cap = double_cap[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(double_src, minlength=num_nodes), out=indptr[1:])
    matrix = _scipy_csr_matrix(
        (double_cap, double_dst, indptr), shape=(num_nodes, num_nodes)
    )
    result = _scipy_maximum_flow(matrix, source, sink)
    flow = result.flow
    if np.array_equal(flow.indptr, matrix.indptr) and np.array_equal(
        flow.indices, matrix.indices
    ):
        residual_data = double_cap - flow.data
        positive = residual_data > 0
        return double_src[positive], double_dst[positive]
    # defensive fallback: alignment is a scipy implementation detail
    residual = (matrix - flow).tocoo()
    positive = residual.data > 0
    return residual.row[positive], residual.col[positive]


def _reachable(num_nodes: int, src: np.ndarray, dst: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability mask over ``(src, dst)`` edges from ``start``.

    The scan runs through scipy's ``breadth_first_order`` (a C loop) on a
    boolean CSR matrix.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # build the CSR triple by counting sort instead of the COO
    # constructor round-trip; residual edge lists arrive row-sorted
    # from the aligned scipy path, so the argsort usually skips
    if len(src) and np.any(np.diff(src) < 0):
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    matrix = _scipy_csr_matrix(
        (np.ones(len(src), dtype=np.int8), dst, indptr),
        shape=(num_nodes, num_nodes),
    )
    nodes = _scipy_breadth_first_order(matrix, start, directed=True, return_predecessors=False)
    seen = np.zeros(num_nodes, dtype=bool)
    seen[nodes] = True
    return seen

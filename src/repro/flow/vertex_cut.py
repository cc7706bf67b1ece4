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

One dispatch, chosen from the input, solves the reduction.  Regions of at
least :data:`_MATRIX_SMALL_REGION` vertices go through
``scipy.sparse.csgraph.maximum_flow`` (C speed); every other region
runs a compact Edmonds-Karp over paired edge lists.  The unit inner
edges bound the flow value by the cut size, which is single digits on
road networks, so augmenting-path solvers finish in a few rounds either
way.

The route only sets the speed: for any maximum flow, the set of nodes
residual-reachable from the source is the unique minimal source side over
all minimum cuts (and symmetrically for the sink), so the extracted vertex
cuts do not depend on which maximum flow was found.  The test suite holds
both routes against an independent Dinitz reference on seeded graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _scipy_breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

#: Regions smaller than this solve faster with the compact Edmonds-Karp
#: loop than with a scipy matrix round-trip (fixed sparse-constructor
#: cost), so :func:`minimum_vertex_cut_region` sends only regions of at
#: least this many vertices to scipy.  Measured on the 3.2k bench region
#: population: with the aligned-residual scipy path and the early-exit
#: BFS in the EK loop the crossover sits near 200.
_MATRIX_SMALL_REGION = 192


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
    region both cuts are empty.
    """
    k = len(vertices)
    if k >= _MATRIX_SMALL_REGION:
        solve = _solve_matrix
    else:
        solve = _solve_python_ek
    source_side, sink_side, flow_value = solve(k, tails, heads, attach_s, attach_t)

    # a cut vertex is one whose inner edge is saturated and separates the
    # reachable side from the rest; slicing the interleaved in/out masks
    # beats a python scan over every region vertex
    source_side = np.asarray(source_side, dtype=bool)
    sink_side = np.asarray(sink_side, dtype=bool)
    near_source = np.nonzero(source_side[0 : 2 * k : 2] & ~source_side[1 : 2 * k : 2])[0]
    near_sink = np.nonzero(sink_side[1 : 2 * k : 2] & ~sink_side[0 : 2 * k : 2])[0]
    cut_near_source = [vertices[i] for i in near_source.tolist()]
    cut_near_sink = [vertices[i] for i in near_sink.tolist()]
    return MinVertexCutResult(
        cut_size=int(round(flow_value)),
        cut_closest_to_source=sorted(cut_near_source),
        cut_closest_to_sink=sorted(cut_near_sink),
    )


# --------------------------------------------------------------------- #
# solvers
# --------------------------------------------------------------------- #
def _split_network_arrays(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The split network as ``(num_nodes, src, dst, cap, source, sink)``.

    Capacities are integers: 1 on inner edges, ``k + 1`` (an unreachable
    bound - every augmenting path crosses a unit inner edge, so no edge
    ever carries more than ``k`` units) standing in for infinity on outer
    and terminal edges, which therefore never saturate.
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


def _solve_matrix(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[Sequence[bool], Sequence[bool], float]:
    """Max flow via ``scipy.sparse.csgraph.maximum_flow`` (large regions).

    Residual reachability from both terminals then gives the canonical
    cuts, as for the Edmonds-Karp loop.
    """
    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        k, tails, heads, attach_s, attach_t
    )
    flow_value, res_src, res_dst = _scipy_residual_edges(num_nodes, src, dst, cap, source, sink)
    source_side = _reachable(num_nodes, res_src, res_dst, source)
    sink_side = _reachable(num_nodes, res_dst, res_src, sink)  # reversed edges
    return source_side, sink_side, float(flow_value)


def _solve_python_ek(
    k: int,
    tails: Sequence[int],
    heads: Sequence[int],
    attach_s: Sequence[int],
    attach_t: Sequence[int],
) -> Tuple[List[bool], List[bool], float]:
    """Compact Edmonds-Karp over paired edge lists (small regions).

    Integer capacities, flat ``e_to`` / ``e_cap`` lists with ``index ^ 1``
    partner addressing, one BFS per unit of flow.  The unit inner edges
    bound the augmentation count by the cut size.
    """
    from collections import deque

    # The residual arrays are assembled vectorised: forward edge 2j and
    # backward edge 2j+1 for split-network edge j, adjacency lists carved
    # out of one stable counting sort by edge tail.  The stable sort keeps
    # edges in id order within each vertex, i.e. the exact adjacency order
    # an append-per-edge python loop would produce.
    num_nodes, src, dst, cap, source, sink = _split_network_arrays(
        k, tails, heads, attach_s, attach_t
    )
    num_edges = len(src)
    e_to_np = np.empty(2 * num_edges, dtype=np.int64)
    e_to_np[0::2] = dst
    e_to_np[1::2] = src
    e_from_np = np.empty(2 * num_edges, dtype=np.int64)
    e_from_np[0::2] = src
    e_from_np[1::2] = dst
    e_cap_np = np.zeros(2 * num_edges, dtype=np.int64)
    e_cap_np[0::2] = cap
    order = np.argsort(e_from_np, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(e_from_np, minlength=num_nodes), out=indptr[1:])
    flat_adj = order.tolist()
    bounds = indptr.tolist()
    e_to: List[int] = e_to_np.tolist()
    e_cap: List[int] = e_cap_np.tolist()
    adjacency: List[List[int]] = [
        flat_adj[bounds[v] : bounds[v + 1]] for v in range(num_nodes)
    ]

    total = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = -2
        queue = deque([source])
        while queue and parent[sink] == -1:
            v = queue.popleft()
            for edge in adjacency[v]:
                if e_cap[edge] > 0:
                    w = e_to[edge]
                    if parent[w] == -1:
                        # the first labelling wins, so stopping the scan
                        # as soon as the sink is labelled augments the
                        # exact same path the full sweep would pick
                        if w == sink:
                            parent[w] = edge
                            break
                        parent[w] = edge
                        queue.append(w)
        if parent[sink] == -1:
            break
        path: List[int] = []
        node = sink
        while node != source:
            edge = parent[node]
            path.append(edge)
            node = e_to[edge ^ 1]
        bottleneck = min(e_cap[edge] for edge in path)
        for edge in path:
            e_cap[edge] -= bottleneck
            e_cap[edge ^ 1] += bottleneck
        total += bottleneck

    # the final failing BFS explored the full residual graph from the
    # source (the sink early-exit never fired), so its labels ARE the
    # source-side reachability - no separate sweep needed
    source_side = [p != -1 for p in parent]
    sink_side = [False] * num_nodes
    sink_side[sink] = True
    stack = [sink]
    while stack:
        v = stack.pop()
        # an edge u -> v is usable towards the sink iff its residual
        # capacity is positive, so scan v's partner edges
        for edge in adjacency[v]:
            if e_cap[edge ^ 1] > 0:
                w = e_to[edge]
                if not sink_side[w]:
                    sink_side[w] = True
                    stack.append(w)
    return source_side, sink_side, float(total)


def _scipy_residual_edges(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    cap: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
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
    order = np.lexsort((double_dst, double_src))
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
        return int(result.flow_value), double_src[positive], double_dst[positive]
    # defensive fallback: alignment is a scipy implementation detail
    residual = (matrix - flow).tocoo()
    positive = residual.data > 0
    return int(result.flow_value), residual.row[positive], residual.col[positive]


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

"""Golden label digests: construction output pinned bit-for-bit.

Each case builds an index and hashes the flat label buffers
(``values``, ``level_indptr``, ``vertex_indptr``) together with every
hierarchy node's cut, in node-index order.  The expected digests were
recorded from the dict-of-dicts reference recursion before it was
retired, so any change to a cut, a ranking tie-break, a shortcut or a
single label bit - on the serial or the process-parallel path - shows up
here even though the reference implementation no longer exists.

The relabel cases pin :func:`repro.core.dynamic.relabel` the same way
(plus the contraction's attachment-tree distances and the scoped-walk
counters), recorded from the dict-of-dicts relabel before it moved onto
CSR snapshots: scoped and full passes, a crossing shortcut inside and
outside the scoped walk, a changed pendant edge, and an uncontracted
index.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.dynamic import relabel
from repro.core.index import HC2LIndex
from repro.experiments.dynamic import clustered_edge_changes, integerised
from repro.graph.builders import graph_from_edges
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph


def label_digest(index: HC2LIndex) -> str:
    """sha256 over the flat label buffers and the per-node cuts."""
    flat = index.flat_labelling()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(flat.values, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(flat.level_indptr, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(flat.vertex_indptr, dtype="<i8").tobytes())
    for node in index.hierarchy.nodes:
        digest.update(len(node.cut).to_bytes(8, "little"))
        digest.update(np.asarray(node.cut, dtype="<i8").tobytes())
    return digest.hexdigest()


def _road_int_300() -> Graph:
    spec = RoadNetworkSpec("golden-int", num_vertices=300, seed=11)
    return integerised(synthetic_road_network(spec).distance_graph)


def _road_travel_400() -> Graph:
    spec = RoadNetworkSpec("golden-tt", num_vertices=400, seed=23)
    return synthetic_road_network(spec).travel_time_graph


def _disconnected() -> Graph:
    """Two road networks side by side, a triangle and an isolated vertex."""
    left = synthetic_road_network(RoadNetworkSpec("golden-a", num_vertices=120, seed=5))
    right = synthetic_road_network(RoadNetworkSpec("golden-b", num_vertices=90, seed=6))
    edges = list(left.distance_graph.edges())
    offset = left.distance_graph.num_vertices
    edges += [(u + offset, v + offset, w) for u, v, w in right.distance_graph.edges()]
    base = offset + right.distance_graph.num_vertices
    edges += [(base, base + 1, 1.5), (base + 1, base + 2, 2.5), (base + 2, base, 1.0)]
    return graph_from_edges(edges, num_vertices=base + 4)


GRAPHS = {
    "road-int-300": _road_int_300,
    "road-tt-400": _road_travel_400,
    "disconnected": _disconnected,
}

#: case -> (graph, build overrides)
CASES = {
    "int300": ("road-int-300", {}),
    "tt400": ("road-tt-400", {}),
    "disconnected": ("disconnected", {"leaf_size": 4}),
    "int300-no-tail-pruning": ("road-int-300", {"tail_pruning": False}),
    "tt400-leaf4": ("road-tt-400", {"leaf_size": 4}),
    "tt400-no-contraction": ("road-tt-400", {"contract": False}),
}

#: case -> expected digest; identical for every backend and worker count
GOLDEN = {
    "disconnected": "094e0fdde327c844e91eaa255060e62af717264bf682c50dc9ba168c139ed594",
    "int300": "9461b83f1be9046b2711b045de1c05754ba805ff345468537c43009c475ac060",
    "int300-no-tail-pruning": "972aca3d81efcbc193010931cd56a9b52bf179c20525c167177445b6588bb3c7",
    "tt400": "84d819c4b5fe7bee159312e369f766711687aa851ccdfefea88e221365485612",
    "tt400-leaf4": "8c0d7f9f3e86aec0863ce456288b7623943ff68c77f7187c108ec78fcb0934dc",
    "tt400-no-contraction": "94d3a241d05db8620aab38e78b89982682304a86a33144b024530b7916b18bab",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("backend", ["heap", "csr"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_build_matches_golden(graphs, case, backend):
    graph_name, overrides = CASES[case]
    index = HC2LIndex.build(graphs[graph_name], backend=backend, **overrides)
    assert label_digest(index) == GOLDEN[case]


@pytest.mark.parametrize("case", ["int300", "tt400-leaf4", "disconnected"])
def test_process_build_matches_golden(graphs, case):
    graph_name, overrides = CASES[case]
    index = HC2LIndex.build(
        graphs[graph_name], backend="csr", num_workers=2, **overrides
    )
    assert label_digest(index) == GOLDEN[case]


# --------------------------------------------------------------------- #
# relabel output (Section 5.4: hierarchy kept, labels recomputed)
# --------------------------------------------------------------------- #
def _sparse_core(seed: int) -> Graph:
    """The dynamic fuzz's ``sparse_core`` graph for ``seed``."""
    rng = random.Random(zlib.crc32(b"sparse_core") * 7919 + seed)
    n = rng.randrange(30, 80)
    edges = [(rng.randrange(v), v, float(rng.randrange(1, 16))) for v in range(1, n)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randrange(1, 16))))
    return graph_from_edges(edges, num_vertices=n)


def relabel_digest(index: HC2LIndex) -> str:
    """:func:`label_digest` plus the contraction's attachment-tree distances."""
    digest = hashlib.sha256(label_digest(index).encode())
    contraction = index.contraction
    for values in (contraction.dist_to_parent, contraction.dist_to_root):
        digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def _clustered(graph: Graph, index: HC2LIndex) -> Dict[Tuple[int, int], float]:
    return clustered_edge_changes(graph, 10, 2.5, seed=4)


def _crossing(graph: Graph, index: HC2LIndex) -> Dict[Tuple[int, int], float]:
    return {(0, 1): 40.0}


def _sampled(graph: Graph, index: HC2LIndex) -> Dict[Tuple[int, int], float]:
    """Five scaled edges; on ``sparse-core-3`` a crossing shortcut appears
    below a recomputed node of the scoped walk."""
    rng = random.Random(8 * 31 + 7)
    edges = list(graph.edges())
    rows = rng.sample(range(len(edges)), 5)
    return {(u, v): w * float(rng.randrange(2, 6)) for u, v, w in (edges[r] for r in rows)}


def _pendant_and_clustered(graph: Graph, index: HC2LIndex) -> Dict[Tuple[int, int], float]:
    """The clustered change plus the first edge with a contracted endpoint."""
    changed = clustered_edge_changes(graph, 10, 2.5, seed=4)
    core_id = index.contraction.original_to_core
    u, v, w = next((u, v, w) for u, v, w in graph.edges() if core_id[u] < 0 or core_id[v] < 0)
    changed[(u, v)] = w * 3.0
    return changed


RELABEL_GRAPHS = dict(
    GRAPHS,
    **{"sparse-core": lambda: _sparse_core(0), "sparse-core-3": lambda: _sparse_core(3)},
)

#: case -> (graph, build overrides, change set, scoped)
RELABEL_CASES = {
    "int300-clustered-scoped": ("road-int-300", {}, _clustered, True),
    "int300-clustered-full": ("road-int-300", {}, _clustered, False),
    "tt400-clustered-scoped": ("road-tt-400", {}, _clustered, True),
    # declared, but scoping does not pay on this graph: the full pass runs
    "crossing-scoped": ("sparse-core", {"leaf_size": 4}, _crossing, True),
    "crossing-full": ("sparse-core", {"leaf_size": 4}, _crossing, False),
    "crossing-in-scoped-walk": ("sparse-core-3", {"leaf_size": 4}, _sampled, True),
    "int300-pendant-scoped": ("road-int-300", {}, _pendant_and_clustered, True),
    "tt400-no-contraction-scoped": ("road-tt-400", {"contract": False}, _clustered, True),
}

#: case -> (digest, relabel_scoped, nodes recomputed, nodes spliced), recorded
#: from the dict-of-dicts relabel before it was ported onto CSR snapshots
GOLDEN_RELABEL = {
    "crossing-full": ("d6f4f02ae017b4457eb66a65626c1e8ae8325c7f2af37fbeaf3f57be0b21a87d", 0.0, 0.0, 0.0),
    "crossing-in-scoped-walk": ("c3c52e606f1494104bf49fb45f92dc0a78f7b9c2986b1cfaac5802a8e6bcdc5e", 1.0, 4.0, 5.0),
    "crossing-scoped": ("d6f4f02ae017b4457eb66a65626c1e8ae8325c7f2af37fbeaf3f57be0b21a87d", 0.0, 0.0, 0.0),
    "int300-clustered-full": ("b0fda0abb3e561da6fbc650e05fb120b33dece800269f123ab4199c88b71a733", 0.0, 0.0, 0.0),
    "int300-clustered-scoped": ("b0fda0abb3e561da6fbc650e05fb120b33dece800269f123ab4199c88b71a733", 1.0, 6.0, 57.0),
    "int300-pendant-scoped": ("a0db7ddc0afea8d3492d31df8044936f9fab50b4df37f642457177acd5274875", 1.0, 6.0, 57.0),
    "tt400-clustered-scoped": ("3a5cda61d2a7a860a37a094748ac85cf91e15ef7d6b6d31e088e683edc0f6cf7", 1.0, 7.0, 74.0),
    "tt400-no-contraction-scoped": ("4409e4e77308a107438a460517ca04cccd16f6150d606da81580198842fcf9b9", 1.0, 7.0, 74.0),
}


@pytest.fixture(scope="module")
def relabel_graphs():
    return {name: make() for name, make in RELABEL_GRAPHS.items()}


@pytest.mark.parametrize("backend", ["heap", "csr"])
@pytest.mark.parametrize("case", sorted(RELABEL_CASES))
def test_relabel_matches_golden(relabel_graphs, case, backend):
    graph_name, overrides, change_set, scoped = RELABEL_CASES[case]
    graph = relabel_graphs[graph_name]
    index = HC2LIndex.build(graph, backend=backend, **overrides)
    changed = change_set(graph, index)
    new_graph = graph.reweighted(changed)
    result = relabel(index, new_graph, changed_edges=changed if scoped else None)
    extra = result.describe()
    observed = (
        relabel_digest(result),
        extra.get("relabel_scoped", 0.0),
        extra.get("relabel_nodes_recomputed", 0.0),
        extra.get("relabel_nodes_spliced", 0.0),
    )
    assert observed == GOLDEN_RELABEL[case]

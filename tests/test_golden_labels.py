"""Golden label digests: construction output pinned bit-for-bit.

Each case builds an index and hashes the flat label buffers
(``values``, ``level_indptr``, ``vertex_indptr``) together with every
hierarchy node's cut, in node-index order.  The expected digests were
recorded from the dict-of-dicts reference recursion before it was
retired, so any change to a cut, a ranking tie-break, a shortcut or a
single label bit - on the serial or the process-parallel path - shows up
here even though the reference implementation no longer exists.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.experiments.dynamic import integerised
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

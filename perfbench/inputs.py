"""Seeded workload inputs, their checksums, and the exact reference answers.

Graphs are fixed per workload (the generator's own seed), so set-up and
build times compare across runs; ``--seed`` draws the query pairs.  The
reweight change sets are a fixed pool too: one epoch's relabel cost varies
about threefold with the neighbourhood it hits, so drawing new
neighbourhoods per seed would make ``update_s`` measure the draw, not the
program.  Every run applies the pool in the same order.

``pinned.json`` holds the checksums of every input at
:data:`PIN_SEED`; :func:`check_pins` recomputes them at start-up so a
change to ``repro.graph.generators``, ``repro.experiments.workloads`` or
``repro.experiments.dynamic.clustered_edge_changes`` that alters the
inputs fails loudly instead of silently moving the baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.dynamic import EPOCH_FACTORS, clustered_edge_changes, integerised
from repro.experiments.workloads import neighborhood_batches, random_pairs
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph

PINS_PATH = Path(__file__).with_name("pinned.json")
PIN_SEED = 0
#: seed of the change-set pool (fixed; see the module docstring)
POOL_SEED = 1000

#: workload sizes: ``full`` is what the benchmark runs, ``tiny`` feeds the
#: A/A test.  Batch shapes keep their metric names at both sizes.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "build_vertices": 3200,
        "query_vertices": 10000,
        "uniform_batch": 4096,
        "uniform_batches": 8,
        "neighbourhood_batches": 256,
        "scalar_block": 500,
        "scalar_blocks": 8,
        "check_sources": 32,
        "check_targets": 32,
        "pool": 4,
        "setup_reps": 3,
    },
    "tiny": {
        "build_vertices": 300,
        "query_vertices": 400,
        "uniform_batch": 256,
        "uniform_batches": 4,
        "neighbourhood_batches": 64,
        "scalar_block": 100,
        "scalar_blocks": 4,
        "check_sources": 8,
        "check_targets": 16,
        "pool": 2,
        "setup_reps": 3,
    },
}

BATCH32 = 32
EDGES_PER_EPOCH = 10


@dataclass
class Inputs:
    graph: Graph
    uniform: List[np.ndarray]
    neighbourhood: List[np.ndarray]
    scalar: List[List[Tuple[int, int]]]
    check_pairs: np.ndarray
    #: clustered change sets (edge -> congested weight); each is applied
    #: by one epoch and reverted to the base weights by the next
    pool: List[Dict[Tuple[int, int], float]]
    checksums: Dict[str, str]


def workload_graph(workload: str, size: str) -> Graph:
    """The fixed graph of ``workload``: integer distances or float travel times."""
    config = SIZES[size]
    if workload == "query-float":
        spec = RoadNetworkSpec("perfbench-query", num_vertices=config["query_vertices"])
        return synthetic_road_network(spec).travel_time_graph
    spec = RoadNetworkSpec("perfbench-build", num_vertices=config["build_vertices"])
    return integerised(synthetic_road_network(spec).distance_graph)


def make_inputs(workload: str, size: str, seed: int, graph: Graph) -> Inputs:
    config = SIZES[size]
    batch = config["uniform_batch"]
    uniform = np.asarray(
        random_pairs(graph, batch * config["uniform_batches"], seed=seed), dtype=np.int64
    )
    neighbourhood = neighborhood_batches(
        graph, config["neighbourhood_batches"], BATCH32, seed=seed + 1
    )
    if len(neighbourhood) < config["neighbourhood_batches"]:
        raise RuntimeError("the graph is too small for the neighbourhood batches")
    scalar_pairs = random_pairs(
        graph, config["scalar_block"] * config["scalar_blocks"], seed=seed + 2
    )
    sources = random_pairs(graph, config["check_sources"], seed=seed + 3)
    targets = random_pairs(graph, config["check_targets"], seed=seed + 4)
    check_pairs = np.asarray(
        [(s, t) for s, _ in sources for t, _ in targets], dtype=np.int64
    )
    pool = []
    for k in range(config["pool"]):
        factor = EPOCH_FACTORS[k % len(EPOCH_FACTORS)]
        pool.append(
            clustered_edge_changes(graph, EDGES_PER_EPOCH, factor, seed=POOL_SEED + k)
        )
    inputs = Inputs(
        graph=graph,
        uniform=list(uniform.reshape(config["uniform_batches"], batch, 2)),
        neighbourhood=[np.asarray(b, dtype=np.int64) for b in neighbourhood],
        scalar=[
            scalar_pairs[i : i + config["scalar_block"]]
            for i in range(0, len(scalar_pairs), config["scalar_block"])
        ],
        check_pairs=check_pairs,
        pool=pool,
        checksums={},
    )
    inputs.checksums = checksums(inputs)
    return inputs


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def graph_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    edges = sorted(graph.edges())
    ends = np.asarray([(u, v) for u, v, _ in edges], dtype=np.int64).reshape(-1, 2)
    weights = np.asarray([w for _, _, w in edges], dtype=np.float64)
    return ends, weights


def checksums(inputs: Inputs) -> Dict[str, str]:
    changes = [
        np.asarray([(u, v, w) for (u, v), w in sorted(c.items())], dtype=np.float64)
        for c in inputs.pool
    ]
    return {
        "graph": _digest(*graph_arrays(inputs.graph)),
        "pairs": _digest(
            *inputs.uniform,
            *inputs.neighbourhood,
            np.asarray(inputs.scalar, dtype=np.int64),
            inputs.check_pairs,
        ),
        "edge_changes": _digest(*changes),
    }


class InputsChanged(RuntimeError):
    """The generators no longer produce the pinned inputs."""


def check_pins(workload: str, size: str, graph: Graph) -> Dict[str, str]:
    """Recompute the pinned checksums; raise if the generators moved them."""
    pins = json.loads(PINS_PATH.read_text())
    expected = pins.get(size, {}).get(workload)
    actual = make_inputs(workload, size, PIN_SEED, graph).checksums
    if expected != actual:
        raise InputsChanged(
            f"{workload} ({size}) inputs changed: pinned {expected}, generated "
            f"{actual}.  A program change altered the input generators; if that "
            f"is intended, re-pin with `python3 perfbench/run.py --write-pins` "
            f"and say so in CHANGES.md."
        )
    return actual


def write_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    pins: Dict[str, Dict[str, Dict[str, str]]] = {}
    for size in SIZES:
        pins[size] = {}
        for workload in ("build-int", "query-float"):
            graph = workload_graph(workload, size)
            pins[size][workload] = make_inputs(workload, size, PIN_SEED, graph).checksums
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return pins


# ---------------------------------------------------------------------- #
# references
# ---------------------------------------------------------------------- #
def dijkstra_reference(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Exact distances for ``pairs`` from scipy's Dijkstra on ``graph``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    ends, weights = graph_arrays(graph)
    n = graph.num_vertices
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    matrix = csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(n, n))
    sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    table = dijkstra(matrix, directed=True, indices=sources)
    return table[inverse, pairs[:, 1]]


def mismatches(got: np.ndarray, reference: np.ndarray, exact: bool) -> int:
    """Wrong answers: bit-exact on integer weights, 1e-12 relative on floats.

    Float label sums associate differently from a Dijkstra path sum, so the
    two legitimately differ in the last bits on travel-time weights.
    """
    if exact:
        return int(np.count_nonzero(got != reference))
    close = np.isclose(got, reference, rtol=1e-12, atol=0.0) | (got == reference)
    return int(np.count_nonzero(~close))

"""The relabel record: chains of scoped epochs and the numpy topology check.

A scoped :func:`repro.core.dynamic.relabel` reads its old side from the
index's ``relabel_record`` (each hierarchy node's borders, the parent's
cut distances at them, and its shortcuts) instead of searching the old
weights.  A record that drifts from the labels would splice stale levels
on some later epoch, so every epoch of a chain is held against a full
pass from the original build.  The digests are the golden tests'
:func:`relabel_digest`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np
import pytest

import repro.core.dynamic as dynamic_module
from repro.core.construction import root_snapshot
from repro.core.dynamic import DynamicHC2LIndex, relabel
from repro.core.index import HC2LIndex
from repro.core.parallel import ParallelHC2LBuilder
from repro.experiments.dynamic import clustered_edge_changes
from repro.graph.graph import Graph
from test_golden_labels import (
    _pendant_and_clustered,
    _road_int_300,
    _road_travel_400,
    _sparse_core,
    relabel_digest,
)

Changes = Dict[Tuple[int, int], float]

CHAIN_GRAPHS = {
    "int300": (_road_int_300, {}),
    "tt400": (_road_travel_400, {}),
    "sparse-core-3": (lambda: _sparse_core(3), {"leaf_size": 4}),
}


@pytest.fixture(scope="module")
def chain_graphs():
    return {name: make() for name, (make, _) in CHAIN_GRAPHS.items()}


def _sample(graph: Graph, seed: int) -> Changes:
    """Five scaled edges; seed 7 is the golden ``_sampled`` change, which
    on ``sparse-core-3`` puts a crossing shortcut below a recomputed node."""
    rng = random.Random(8 * 31 + seed)
    edges = list(graph.edges())
    rows = rng.sample(range(len(edges)), 5)
    return {(u, v): w * float(rng.randrange(2, 6)) for u, v, w in (edges[r] for r in rows)}


def _chain(name: str, graph: Graph) -> List[Changes]:
    """Apply A, revert A, apply B.

    On the road graphs A re-ranks the cut of a recomputed node one of
    whose children is spliced, so the record's rows must follow the new
    ranking from then on.  On ``sparse-core-3`` B is sample 25: most
    five-edge samples of that 62-vertex graph dirty so much of the tree
    that the full pass runs, and the chain is meant to take the scoped
    walk every epoch.
    """
    if name == "sparse-core-3":
        first, second = _sample(graph, 7), _sample(graph, 25)
    else:
        first = clustered_edge_changes(graph, 10, 2.5, seed=5 if name == "int300" else 0)
        second = clustered_edge_changes(graph, 10, 0.5, seed=9)
    revert = {edge: graph.edge_weight(*edge) for edge in first}
    return [first, revert, second]


#: per epoch of :func:`_chain`: (nodes recomputed, nodes spliced, shortcut
#: searches); identical for both backends.  The node counters were
#: recorded from the relabel that searched the old weights again instead
#: of reading a record.  A search runs once per child of a recomputed node
#: that the record's splice test did not splice, so a spuriously failing
#: test shows up there even when the child's snapshot turns out unchanged
#: and the node counters cannot see it.
CHAIN_COUNTERS = {
    "int300": [(8.0, 55.0, 8), (8.0, 55.0, 8), (8.0, 55.0, 8)],
    "sparse-core-3": [(4.0, 5.0, 8), (4.0, 5.0, 8), (6.0, 7.0, 6)],
    "tt400": [(7.0, 74.0, 7), (7.0, 74.0, 7), (6.0, 75.0, 6)],
}


def _counters(index: HC2LIndex) -> Tuple[float, float, float]:
    extra = index.describe()
    return (
        extra.get("relabel_scoped", 0.0),
        extra.get("relabel_nodes_recomputed", 0.0),
        extra.get("relabel_nodes_spliced", 0.0),
    )


def _records_equal(a: HC2LIndex, b: HC2LIndex) -> bool:
    if len(a.relabel_record) != len(b.relabel_record):
        return False
    for x, y in zip(a.relabel_record, b.relabel_record):
        if (x is None) != (y is None):
            return False
        if x is not None and (
            x.borders != y.borders
            or not np.array_equal(x.distances, y.distances)
            or x.shortcuts != y.shortcuts
        ):
            return False
    return True


@pytest.mark.parametrize("backend", ["heap", "csr"])
@pytest.mark.parametrize("name", sorted(CHAIN_GRAPHS))
def test_scoped_chain_matches_full_pass(chain_graphs, name, backend, monkeypatch):
    calls = [0]
    search = dynamic_module.shortcut_child

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(dynamic_module, "shortcut_child", counted)
    graph = chain_graphs[name]
    overrides = dict(CHAIN_GRAPHS[name][1], backend=backend)
    original = HC2LIndex.build(graph, **overrides)
    dynamic = DynamicHC2LIndex(graph, **overrides)
    current = graph
    for epoch, changes in enumerate(_chain(name, graph)):
        for (u, v), weight in changes.items():
            dynamic.update_edge_weight(u, v, weight)
        before = calls[0]
        dynamic.flush()
        searches = calls[0] - before
        current = current.reweighted(changes)
        observed = (*_counters(dynamic.index), searches)
        assert observed == (1.0, *CHAIN_COUNTERS[name][epoch]), f"epoch {epoch}"
        full = relabel(original, current)
        assert relabel_digest(dynamic.index) == relabel_digest(full), f"epoch {epoch}"
        # spliced entries take the new ranking's row order, so the record
        # is exactly the one a full pass writes
        assert _records_equal(dynamic.index, full), f"epoch {epoch}"
        assert dynamic.index.stats.num_nodes == len(original.hierarchy.nodes)


def test_chain_with_a_pendant_edge(chain_graphs):
    graph = chain_graphs["int300"]
    original = HC2LIndex.build(graph)
    applied = _pendant_and_clustered(graph, original)
    revert = {edge: graph.edge_weight(*edge) for edge in applied}
    index, current = original, graph
    for changes in (applied, revert):
        current = current.reweighted(changes)
        index = relabel(index, current, changed_edges=changes)
        assert relabel_digest(index) == relabel_digest(relabel(original, current))
    assert relabel_digest(index) == relabel_digest(relabel(original, graph))


def test_process_build_gives_the_same_record_and_epoch(chain_graphs):
    graph = chain_graphs["int300"]
    serial = HC2LIndex.build(graph, backend="csr")
    # a low threshold ships subtrees of this small core to the pool
    record: list = []
    builder = ParallelHC2LBuilder(num_workers=2, parallel_threshold=16, backend="csr")
    hierarchy, flat, stats = builder.build(serial.contraction.core, record)
    assert stats.num_tasks > 0
    process = HC2LIndex(
        graph=graph,
        parameters=serial.parameters,
        contraction=serial.contraction,
        hierarchy=hierarchy,
        flat=flat,
        stats=stats,
        relabel_record=record,
    )
    assert relabel_digest(process) == relabel_digest(serial)
    assert _records_equal(serial, process)
    changes = clustered_edge_changes(graph, 10, 2.5, seed=4)
    new_graph = graph.reweighted(changes)
    results = [relabel(index, new_graph, changed_edges=changes) for index in (serial, process)]
    assert relabel_digest(results[0]) == relabel_digest(results[1])
    assert _counters(results[0]) == _counters(results[1])
    assert _counters(results[0])[0] == 1.0
    assert _records_equal(*results)


def test_record_covers_every_non_root_node(chain_graphs):
    index = HC2LIndex.build(chain_graphs["tt400"])
    record = index.relabel_record
    assert len(record) == len(index.hierarchy.nodes)
    for node, entry in zip(index.hierarchy.nodes, record):
        assert (entry is None) == (node.parent is None)
        if entry is not None:
            parent_cut = index.hierarchy.nodes[node.parent].cut
            assert entry.distances.shape == (len(parent_cut), len(entry.borders))
    assert sum(len(entry.shortcuts) for entry in record if entry) == index.stats.num_shortcuts
    # in memory only: not part of the label storage the index reports
    assert index.label_size_bytes() == HC2LIndex.build(chain_graphs["tt400"]).label_size_bytes()


# --------------------------------------------------------------------- #
# the numpy topology check
# --------------------------------------------------------------------- #
def _rebuilt(graph: Graph, order) -> Graph:
    other = Graph(graph.num_vertices)
    for u, v, w in order(list(graph.edges())):
        other.add_edge(u, v, w)
    return other


@pytest.fixture(scope="module")
def tt400(chain_graphs):
    graph = chain_graphs["tt400"]
    return graph, HC2LIndex.build(graph)


def test_missing_edge_raises(tt400):
    graph, index = tt400
    with pytest.raises(ValueError, match="edge counts differ"):
        relabel(index, _rebuilt(graph, lambda es: es[:-1]))


def test_vertex_count_mismatch_raises(tt400):
    graph, index = tt400
    bigger = graph.copy()
    bigger.add_vertex()
    with pytest.raises(ValueError, match="vertex counts differ"):
        relabel(index, bigger)


def test_moved_edge_raises(tt400):
    graph, index = tt400
    edges = list(graph.edges())
    u, v, w = edges[-1]
    moved = next(
        t for t in range(graph.num_vertices) if t != u and t != v and not graph.has_edge(u, t)
    )
    other = _rebuilt(graph, lambda es: es[:-1])
    other.add_edge(u, moved, w)
    assert other.num_edges == graph.num_edges
    with pytest.raises(ValueError, match="identical topology; edge"):
        relabel(index, other)


@pytest.mark.parametrize("contract", [True, False])
def test_other_insertion_order_gives_identical_labels(tt400, contract):
    graph, index = tt400
    if not contract:
        index = HC2LIndex.build(graph, contract=False)
    changes = clustered_edge_changes(graph, 10, 2.5, seed=4)
    new_graph = graph.reweighted(changes)
    shuffled = _rebuilt(new_graph, lambda es: random.Random(5).sample(es, len(es)))
    assert [list(shuffled.neighbor_ids(v)) for v in range(5)] != [
        list(new_graph.neighbor_ids(v)) for v in range(5)
    ]
    for declared in (None, changes):
        same = relabel(index, new_graph, changed_edges=declared)
        other = relabel(index, shuffled, changed_edges=declared)
        assert relabel_digest(other) == relabel_digest(same)
        assert _counters(other) == _counters(same)
    # the labels were computed on snapshots in the old edge order, and the
    # new core graph keeps that order, so the next epoch's old side (the
    # record replayed from the core's root snapshot) matches them - also
    # when the next graph comes in the shuffled order again
    assert _edge_order(other.contraction.core) == _edge_order(index.contraction.core)
    back = {edge: graph.edge_weight(*edge) for edge in changes}
    reference = relabel_digest(relabel(same, graph, changed_edges=back))
    for next_graph in (graph, shuffled.reweighted(back)):
        after = relabel(other, next_graph, changed_edges=back)
        assert relabel_digest(after) == reference
        assert _edge_order(after.contraction.core) == _edge_order(index.contraction.core)


def _edge_order(graph: Graph) -> Tuple[List[int], List[int]]:
    indptr, indices, _ = root_snapshot(graph).csr_arrays()
    return indptr.tolist(), indices.tolist()


def test_undeclared_change_raises(tt400):
    graph, index = tt400
    changes = clustered_edge_changes(graph, 10, 2.5, seed=4)
    declared = dict(changes)
    declared.pop(next(iter(declared)))
    with pytest.raises(ValueError, match="omits 1 edge"):
        relabel(index, graph.reweighted(changes), changed_edges=declared)


def test_loaded_index_runs_the_full_pass(tt400, tmp_path):
    graph, index = tt400
    path = tmp_path / "tt400.npz"
    index.save(path)
    loaded = HC2LIndex.load(path)
    assert loaded.relabel_record is None
    changes = clustered_edge_changes(graph, 10, 2.5, seed=4)
    new_graph = graph.reweighted(changes)
    in_memory = relabel(index, new_graph, changed_edges=changes)
    from_disk = relabel(loaded, new_graph, changed_edges=changes)
    assert _counters(in_memory)[0] == 1.0
    assert _counters(from_disk)[0] == 0.0
    assert relabel_digest(from_disk) == relabel_digest(in_memory)
    # the full pass wrote a record, so the next epoch is scoped again
    back = {edge: graph.edge_weight(*edge) for edge in changes}
    again = relabel(from_disk, graph, changed_edges=back)
    assert _counters(again)[0] == 1.0
    assert relabel_digest(again) == relabel_digest(relabel(index, graph))

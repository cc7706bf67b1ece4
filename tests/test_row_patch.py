"""Patched distance rows against fresh searches.

A scoped relabel patches the distance rows its index kept
(:class:`~repro.core.flat_build.KeptRows`) from the old weights to the
new ones (:func:`~repro.core.row_patch.patch_rows`) instead of searching
again.  A patched row must equal scipy's row over the new weights bit for
bit: the labels, the Algorithm 4 flags and the shortcuts are all read
off these rows.  First a known-answer table of the kernel, then a wall
that runs every relabel of a chain both ways - patching the kept rows and
searching every row - and holds the two against each other and the kept
rows against fresh searches.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import repro.core.flat_build as flat_build
import repro.core.row_patch as row_patch
from repro.core.construction import root_snapshot
from repro.core.dynamic import relabel
from repro.core.flat import FlatWorkingGraph
from repro.core.flat_build import KeptRows
from repro.core.index import HC2LIndex
from repro.core.row_patch import patch_rows
from repro.experiments.dynamic import clustered_edge_changes
from repro.graph.builders import graph_from_edges
from repro.graph.graph import Graph
from test_differential_fuzz import FUZZ_CASES, _fuzz_graph, _record_rows, _tree_shape
from test_golden_labels import _road_travel_400, _sparse_core

Changes = Dict[Tuple[int, int], float]


def _search(flat: FlatWorkingGraph, sources) -> np.ndarray:
    """scipy's rows from ``sources`` over ``flat``, the reference every patch meets."""
    indptr, indices, weights = flat.csr_arrays()
    n = len(flat.vertices)
    matrix = csr_matrix((weights, indices, indptr), shape=(n, n))
    return np.atleast_2d(dijkstra(matrix, directed=True, indices=np.asarray(sources)))


# --------------------------------------------------------------------- #
# the kernel: a known-answer table
# --------------------------------------------------------------------- #
#: source 0 reaches 1..6 (d = 0, 1, 2, 2.5, 3, 4, 5); 7-8 is a component
#: of its own.  0-1-2 is tight, 0-3-2 slack by 1.5 and 3-5 slack by 1.5.
ROADS = [
    (0, 1, 1.0), (1, 2, 1.0), (0, 3, 2.5), (3, 2, 1.0), (2, 4, 1.0),
    (4, 5, 1.0), (3, 5, 3.0), (5, 6, 1.0), (7, 8, 1.0),
]
#: 0.1 + 0.2 != 0.3 in float64: d[2] is 0.30000000000000004 over 0-1-2
DECIMALS = [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.5), (2, 3, 0.25)]
#: two shortest 0-3 paths of length 2
SQUARE = [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 3.0)]

#: (case, edges, changes, vertices source 0's patch settles)
KNOWN_ANSWERS = [
    # 2, 4, 5 and 6 hang below 1-2 in the tight DAG; 2 re-settles over 3
    ("increase on a tight arc", ROADS, {(1, 2): 4.0}, 4),
    ("increase on a slack arc", ROADS, {(3, 5): 6.0}, 0),
    ("improving decrease", ROADS, {(0, 3): 0.5}, 5),
    ("tying decrease", DECIMALS, {(0, 2): 0.1 + 0.2}, 0),
    # d[2] drops by one ulp, which 0.25 more rounds away: d[3] stays
    ("decrease below a rounded sum", DECIMALS, {(0, 2): 0.3}, 1),
    # increase first: 2, 4, 5, 6 reset and re-settle over 0-3 at 2.5;
    # then 0-3 at 1.0 lowers 3, 2, 4, 5 and 6
    ("mixed signs", ROADS, {(1, 2): 4.0, (0, 3): 1.0}, 9),
    ("unreachable region", ROADS, {(7, 8): 5.0, (4, 5): 0.5}, 2),
    ("integer ties", SQUARE, {(1, 3): 5.0}, 2),
]


def _rows_over(edges, changes: Changes) -> Tuple[FlatWorkingGraph, FlatWorkingGraph]:
    graph = graph_from_edges(edges)
    return root_snapshot(graph), root_snapshot(graph.reweighted(changes))


@pytest.mark.parametrize(
    "edges, changes, settled", [case[1:] for case in KNOWN_ANSWERS],
    ids=[case[0] for case in KNOWN_ANSWERS],
)
def test_patched_rows_equal_fresh_searches(edges, changes, settled, monkeypatch):
    # the shipped budget settles under one vertex of graphs this small
    monkeypatch.setattr(row_patch, "SETTLE_FRACTION", float("inf"))
    old, new = _rows_over(edges, changes)
    sources = np.arange(len(old.vertices))
    rows = list(_search(old, sources))
    counts = patch_rows(old, new.csr_arrays()[2], rows)
    want = _search(new, sources)
    assert counts[old.dense_id[0]] == settled
    assert (counts >= 0).all()
    for row, expected in zip(rows, want):
        assert row.tobytes() == expected.tobytes()


def test_slack_increase_leaves_the_row_untouched():
    """Nothing settles, so even the shipped budget patches the row."""
    old, new = _rows_over(ROADS, {(3, 5): 6.0})
    row = _search(old, [0])[0]
    before = row.copy()
    assert patch_rows(old, new.csr_arrays()[2], [row]).tolist() == [0]
    assert row.tobytes() == before.tobytes()


def test_over_budget_row_is_left_for_a_search(monkeypatch):
    """A row past the settle budget reports -1; one scipy search then
    gives the new row, and a row under the budget is still patched."""
    old, new = _rows_over(ROADS, {(1, 2): 4.0})
    # 9 vertices: a budget of 2 settles fewer than the 4 below 1-2
    monkeypatch.setattr(row_patch, "SETTLE_FRACTION", 2 / 9)
    rows = list(_search(old, [0, 7]))
    counts = patch_rows(old, new.csr_arrays()[2], rows)
    assert counts.tolist() == [-1, 0]
    want = _search(new, [0, 7])
    assert rows[1].tobytes() == want[1].tobytes()
    assert rows[0].tobytes() != want[0].tobytes()


# --------------------------------------------------------------------- #
# the wall: patched relabels against searched ones
# --------------------------------------------------------------------- #
def _snapshots(index: HC2LIndex):
    """Every node's snapshot and every child's induced region, from the record."""
    hierarchy, record = index.hierarchy, index.relabel_record
    snapshots: Dict[int, FlatWorkingGraph] = {}
    regions: Dict[int, FlatWorkingGraph] = {}
    for node in hierarchy.nodes:
        if node.parent is None:
            snapshots[node.index] = root_snapshot(index.contraction.core)
            continue
        region = sorted(hierarchy.subtree_vertices(node.index))
        regions[node.index] = snapshots[node.parent].induce(region)
        snapshots[node.index] = regions[node.index].overlay_shortcuts(
            record[node.index].shortcuts
        )
    return snapshots, regions


def _assert_kept_rows_are_fresh(index: HC2LIndex) -> None:
    """Every kept block holds exactly scipy's rows over its snapshot today."""
    kept = index.relabel_rows
    snapshots, regions = _snapshots(index)
    for i, block in kept.labels.items():
        flat = snapshots[i]
        cut = np.sort(np.asarray(flat.dense_ids(index.hierarchy.nodes[i].cut), dtype=np.int64))
        assert block.sources.tolist() == cut.tolist()
        assert np.stack(block.rows).tobytes() == _search(flat, block.sources).tobytes(), i
    for i, block in kept.borders.items():
        within = regions[i]
        borders = index.relabel_record[i].borders[:-1]
        assert block.sources.tolist() == list(within.dense_ids(borders))
        assert np.stack(block.rows).tobytes() == _search(within, block.sources).tobytes(), i


def _both_ways(index: HC2LIndex, graph: Graph, changes: Changes) -> Tuple[HC2LIndex, HC2LIndex]:
    """``index`` relabelled by searching every row, then by patching its kept rows."""
    kept, index.relabel_rows = index.relabel_rows, None
    searched = relabel(index, graph, changed_edges=changes)
    index.relabel_rows = kept
    patched = relabel(index, graph, changed_edges=changes)
    assert index.relabel_rows is None  # moved, not copied
    return searched, patched


def _keep_everything(monkeypatch, settle_fraction: float) -> None:
    """Every node alone, every depth kept, no byte budget."""
    monkeypatch.setattr(flat_build, "_STACKED_MAX_VERTICES", 0)
    monkeypatch.setattr(flat_build, "_KEPT_ROWS_DEPTH", 1 << 30)
    monkeypatch.setattr(KeptRows, "trim", lambda self, nodes, budget: None)
    monkeypatch.setattr(row_patch, "SETTLE_FRACTION", settle_fraction)


def _walk_chain(graph: Graph, chain: List[Changes], **overrides) -> List[float]:
    """Run ``chain`` both ways from one build; the rows each epoch patched."""
    index = HC2LIndex.build(graph, **overrides)
    original = HC2LIndex.build(graph, **overrides)
    _assert_kept_rows_are_fresh(index)
    patched_counts = []
    current = graph
    for epoch, changes in enumerate(chain):
        current = current.reweighted(changes)
        searched, patched = _both_ways(index, current, changes)
        assert patched.flat_labelling() == searched.flat_labelling(), epoch
        assert _tree_shape(patched) == _tree_shape(searched), epoch
        assert _record_rows(patched) == _record_rows(searched), epoch
        # the whole chain against one relabel of the first build
        assert patched.flat_labelling() == relabel(original, current).flat_labelling(), epoch
        _assert_kept_rows_are_fresh(patched)
        patched_counts.append(patched.describe()["relabel_rows_patched"])
        index = patched
    return patched_counts


def _scaled(graph: Graph, seed: int, factors) -> Changes:
    """Four random edges, scaled.  Most such changes dirty enough of a
    fuzz graph's few nodes that the relabel runs the full pass, which
    patches nothing but still refreshes the kept rows."""
    rng = random.Random(seed)
    picked = rng.sample(list(graph.edges()), min(4, graph.num_edges))
    return {(u, v): w * rng.choice(factors) for u, v, w in picked}


def _mixed(graph: Graph, seed: int) -> Changes:
    """A clustered change with every other edge lowered instead of raised."""
    changes = clustered_edge_changes(graph, 10, 2.5, seed=seed)
    for edge in sorted(changes)[::2]:
        changes[edge] = graph.edge_weight(*edge) * 0.4
    return changes


def _apply_revert_apply(graph: Graph, first: Changes, second: Changes) -> List[Changes]:
    return [first, {edge: graph.edge_weight(*edge) for edge in first}, second]


SETTLE_BUDGETS = {"patch-nothing": 0.0, "patch-everything": float("inf")}


@pytest.mark.parametrize("budget", sorted(SETTLE_BUDGETS))
@pytest.mark.parametrize("case", FUZZ_CASES)
def test_fuzz_chains_patch_as_they_search(case, budget, monkeypatch):
    _keep_everything(monkeypatch, SETTLE_BUDGETS[budget])
    graph = _fuzz_graph(case, seed=1)
    seed = zlib.crc32(case.encode())
    chain = _apply_revert_apply(
        graph, _scaled(graph, seed, (2.0, 3.0)), _scaled(graph, seed + 1, (0.5, 2.0))
    )
    _walk_chain(graph, chain, leaf_size=4)


#: chains of the road graphs, each apply / revert / apply
ROAD_CHAINS = {
    # float travel times, clustered increases then decreases
    "float": lambda g: _apply_revert_apply(
        g, clustered_edge_changes(g, 10, 2.5, seed=0), clustered_edge_changes(g, 10, 0.5, seed=9)
    ),
    # one set of edges both raised and lowered
    "mixed-sign": lambda g: _apply_revert_apply(g, _mixed(g, 3), _mixed(g, 4)),
    # a zero weight sends its snapshots to the heap: nothing of theirs is kept
    "zero-weight": lambda g: _apply_revert_apply(
        g, dict.fromkeys(clustered_edge_changes(g, 4, 2.0, seed=1), 0.0),
        clustered_edge_changes(g, 10, 2.5, seed=4),
    ),
    # heavy enough to move the shortcut sets of recomputed nodes
    "shortcut-set-change": lambda g: _apply_revert_apply(
        g, clustered_edge_changes(g, 40, 8.0, seed=2), clustered_edge_changes(g, 40, 0.1, seed=3)
    ),
}


@pytest.fixture(scope="module")
def tt400():
    return _road_travel_400()


@pytest.mark.parametrize("budget", sorted(SETTLE_BUDGETS))
@pytest.mark.parametrize("chain", sorted(ROAD_CHAINS))
def test_road_chains_patch_as_they_search(tt400, chain, budget, monkeypatch):
    _keep_everything(monkeypatch, SETTLE_BUDGETS[budget])
    patched = _walk_chain(tt400, ROAD_CHAINS[chain](tt400))
    if budget == "patch-everything" and chain != "zero-weight":
        assert all(count > 0 for count in patched)


def test_crossing_extension_chain_patches_as_it_searches(monkeypatch):
    """Sample 7 of ``sparse-core-3`` puts a crossing shortcut below a
    recomputed node (see ``test_relabel_record``): that node searches."""
    from test_relabel_record import _sample

    _keep_everything(monkeypatch, float("inf"))
    graph = _sparse_core(3)
    first = _sample(graph, 7)
    _walk_chain(graph, _apply_revert_apply(graph, first, _sample(graph, 25)), leaf_size=4)


def _relabel_counters(index: HC2LIndex) -> Tuple[float, float, float]:
    extra = index.describe()
    return (
        extra["relabel_rows_patched"],
        extra["relabel_rows_searched"],
        extra["relabel_block_bytes"],
    )


def test_relabel_reports_its_rows(tt400):
    """The shipped settings on one fixture: the build keeps the root's 3
    cut rows and its two children's 8 and 4 border rows (each over its
    region); a one-edge change patches the 11 rows of the recomputed
    blocks, a ten-edge change settles past the budget in every row and
    searches them, and a second relabel of one index finds no rows."""
    index = HC2LIndex.build(tt400)
    kept = index.relabel_rows
    assert {i: len(block.rows) for i, block in kept.labels.items()} == {0: 3}
    assert {i: len(block.rows) for i, block in kept.borders.items()} == {1: 8, 44: 4}
    assert kept.nbytes == 29248 <= index.label_size_bytes()

    one = clustered_edge_changes(tt400, 1, 2.0, seed=0)
    patched = relabel(index, tt400.reweighted(one), changed_edges=one)
    assert _relabel_counters(patched) == (11.0, 0.0, 29248.0)
    again = relabel(index, tt400.reweighted(one), changed_edges=one)
    assert again.relabel_rows is None
    assert _relabel_counters(again) == (0.0, 0.0, 0.0)
    assert again.flat_labelling() == patched.flat_labelling()

    ten = clustered_edge_changes(tt400, 10, 2.5, seed=0)
    ten = {edge: weight for edge, weight in ten.items() if edge not in one}
    current = tt400.reweighted(one).reweighted(ten)
    searched = relabel(patched, current, changed_edges=ten)
    assert _relabel_counters(searched) == (0.0, 11.0, 29248.0)

"""Differential fuzzing: every serving path against a Dijkstra reference.

Seeded random graphs - including caterpillar and tree-heavy topologies
whose degree-one contraction forces the same-attachment-tree resolve path
that the conformance suites never exercise - are checked oracle-vs-
Dijkstra across

* the monolithic :class:`HC2LIndex` (scalar and batch),
* a two-shard :class:`~repro.serving.shards.ShardRouter` over the sharded
  on-disk layout, and
* an index reloaded with memory-mapped label buffers.

All weights are small integers, so every path sum is exactly
representable in float64 and the comparisons can assert ``==`` (true
bit-identity), not ``approx`` - a silently wrong answer on a tree-heavy
batch cannot hide behind a tolerance.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.graph.builders import caterpillar_graph, graph_from_edges
from repro.graph.graph import Graph
from repro.graph.search import dijkstra
from repro.serving import ShardRouter

INF = float("inf")


# --------------------------------------------------------------------- #
# seeded graph generators (integer weights => exact float64 arithmetic)
# --------------------------------------------------------------------- #
def _random_tree(rng: random.Random, n: int) -> List[Tuple[int, int, float]]:
    return [(rng.randrange(v), v, float(rng.randrange(1, 16))) for v in range(1, n)]


def _fuzz_graph(case: str, seed: int) -> Graph:
    """One deterministic fuzz graph per (case, seed)."""
    # zlib.crc32 is stable across processes (str.hash is salted)
    rng = random.Random(zlib.crc32(case.encode()) * 10_007 + seed)
    if case == "caterpillar":
        # a pure tree: the whole component contracts into one attachment
        # tree, so EVERY off-diagonal pair takes the same-root path
        spine = rng.randrange(6, 14)
        legs = rng.randrange(1, 4)
        return caterpillar_graph(spine, legs, weight=float(rng.randrange(1, 9)))
    if case == "caterpillar_with_core":
        # caterpillar + a chord closing a cycle: part of the spine
        # survives as core, the fringe hangs off it in attachment trees
        spine = rng.randrange(8, 16)
        legs = rng.randrange(1, 4)
        graph = caterpillar_graph(spine, legs, weight=float(rng.randrange(1, 9)))
        graph.add_edge(0, spine - 1, float(rng.randrange(1, 16)))
        graph.add_edge(0, spine // 2, float(rng.randrange(1, 16)))
        return graph
    if case == "random_tree":
        n = rng.randrange(20, 70)
        return graph_from_edges(_random_tree(rng, n), num_vertices=n)
    if case == "tree_heavy":
        # spanning tree plus very few extra edges: a small core with
        # large attachment trees hanging off it
        n = rng.randrange(30, 90)
        edges = _random_tree(rng, n)
        for _ in range(rng.randrange(1, 4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "sparse":
        n = rng.randrange(25, 80)
        edges = _random_tree(rng, n)
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, float(rng.randrange(1, 16))))
        return graph_from_edges(edges, num_vertices=n)
    if case == "disconnected":
        # two tree-heavy components + an isolated vertex; cross pairs are inf
        rng_a, rng_b = random.Random(seed * 3 + 1), random.Random(seed * 3 + 2)
        n_a, n_b = rng_a.randrange(10, 30), rng_b.randrange(10, 30)
        edges = _random_tree(rng_a, n_a)
        edges += [(u + n_a, v + n_a, w) for u, v, w in _random_tree(rng_b, n_b)]
        return graph_from_edges(edges, num_vertices=n_a + n_b + 1)
    raise AssertionError(f"unknown fuzz case {case!r}")


def _query_pairs(graph: Graph, index: HC2LIndex, seed: int) -> List[Tuple[int, int]]:
    """Random pairs plus every same-attachment-tree pair (the hot path under test)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(120)]
    pairs += [(v, v) for v in range(0, n, max(1, n // 7))]
    root = index.contraction.root
    same_root = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if root[u] == root[v]
    ]
    rng.shuffle(same_root)
    return pairs + same_root[:400]


def _reference(graph: Graph, pairs: List[Tuple[int, int]]) -> List[float]:
    rows = {}
    out = []
    for s, t in pairs:
        if s not in rows:
            rows[s] = dijkstra(graph, s)
        out.append(rows[s][t])
    return out


FUZZ_CASES = [
    "caterpillar",
    "caterpillar_with_core",
    "random_tree",
    "tree_heavy",
    "sparse",
    "disconnected",
]


@pytest.mark.parametrize("case", FUZZ_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestDifferentialFuzz:
    def test_engine_scalar_batch_and_dijkstra_agree(self, case, seed):
        graph = _fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        reference = _reference(graph, pairs)

        batch = index.distances(pairs)
        # scalar vs batch: bit-identical, no tolerance
        for (s, t), value in zip(pairs, batch.tolist()):
            assert index.distance(s, t) == value
        # oracle vs Dijkstra: integer weights make path sums exact
        assert batch.tolist() == reference

    def test_shard_router_matches_engine(self, case, seed, tmp_path):
        graph = _fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        expected = index.distances(pairs)

        path = tmp_path / "fuzz.npz"
        index.save_sharded(path, num_shards=2)
        router = ShardRouter(path)
        got = router.distances(pairs)
        assert got.tolist() == expected.tolist()
        # the router's scalar path goes through the same contraction
        # resolution; spot-check it stays bit-identical too
        for s, t in pairs[:40]:
            assert router.distance(s, t) == index.distance(s, t)

    def test_mmap_loaded_index_matches_engine(self, case, seed, tmp_path):
        graph = _fuzz_graph(case, seed)
        index = HC2LIndex.build(graph, leaf_size=4)
        pairs = _query_pairs(graph, index, seed)
        expected = index.distances(pairs)

        path = tmp_path / "fuzz-mono.npz"
        index.save(path)
        loaded = HC2LIndex.load(path, mmap_labels=True)
        got = loaded.distances(pairs)
        assert got.tolist() == expected.tolist()
        assert isinstance(got, np.ndarray) and got.dtype == np.float64


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestFlowRouteFuzz:
    """Every reference max-flow solver builds the labels scipy builds, end to end.

    The canonical minimum cuts are unique across all maximum flows, so
    sending the balanced cuts - per node and stacked - through either
    oracle of ``oracles.py`` (Dinitz or Edmonds-Karp) instead of scipy
    must never change a single label - across caterpillar, tree-heavy,
    sparse and disconnected topologies, not just the conformance graphs.
    """

    def test_flow_routes_same_labels(self, case, monkeypatch):
        from helpers import FLOW_ROUTES, force_flow_route
        from repro.core.construction import HC2LBuilder

        graph = _fuzz_graph(case, seed=1)
        _, production, _ = HC2LBuilder(leaf_size=4).build(graph)
        for route in FLOW_ROUTES:
            with monkeypatch.context() as oracle_cuts:
                force_flow_route(oracle_cuts, route)
                _, flat, _ = HC2LBuilder(leaf_size=4).build(graph)
            assert flat == production, f"flow oracle {route!r} changed the labels"


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestPruneRouteFuzz:
    """Every prune-flag route builds and relabels the heap search's labels.

    The flags are reachability in each root's shortest-path DAG, so the
    per-root reference worklist and the production batched pass over all
    of a node's roots must agree bit for bit.  The csr backend runs every
    snapshot here (every build node alone rather than in stacked rounds),
    and each route stands in for the flag pass for a build and one scoped
    relabel.
    """

    def test_prune_routes_same_labels(self, case, monkeypatch):
        from helpers import PRUNE_ROUTES, force_prune_route, force_stack_route
        from repro.core.dynamic import relabel

        graph = _fuzz_graph(case, seed=1)
        rng = random.Random(zlib.crc32(case.encode()))
        edges = list(graph.edges())
        changed = {
            (u, v): w * float(rng.randrange(2, 6))
            for u, v, w in rng.sample(edges, min(5, len(edges)))
        }
        new_graph = graph.reweighted(changed)
        built = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        relabelled = relabel(built, new_graph, changed_edges=changed)
        force_stack_route(monkeypatch, "per-node")
        for route in PRUNE_ROUTES:
            force_prune_route(monkeypatch, route)
            index = HC2LIndex.build(graph, leaf_size=4, backend="csr")
            assert index.flat_labelling() == built.flat_labelling(), (
                f"prune route {route!r} changed the built labels"
            )
            again = relabel(index, new_graph, changed_edges=changed)
            assert again.flat_labelling() == relabelled.flat_labelling(), (
                f"prune route {route!r} changed the relabelled labels"
            )


def _tree_shape(index: HC2LIndex) -> List[tuple]:
    return [
        (n.depth, n.bits, n.cut, n.parent, n.left, n.right, n.subtree_size, n.is_leaf)
        for n in index.hierarchy.nodes
    ]


def _record_rows(index: HC2LIndex) -> List[object]:
    return [
        None
        if entry is None
        else (
            entry.borders,
            entry.distances.dtype.str,
            entry.distances.shape,
            entry.distances.tolist(),
            entry.shortcuts,
        )
        for entry in index.relabel_record
    ]


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestStackRouteFuzz:
    """Stacked rounds build exactly what the per-node recursion builds.

    Each construction route is forced through the snapshot-size
    threshold (every node stacked, or every node alone) for a build and
    one scoped relabel of it.  The routes must agree with ``==`` on the
    labels, every node's cut, every :class:`ChildRecord` (borders, hub
    distances, shortcut order), every node's snapshot CSR arrays, and the
    relabelled labels and record.
    """

    def test_stack_routes_build_the_same_index(self, case, monkeypatch):
        import repro.core.flat_build as flat_build
        from helpers import STACK_ROUTES, force_stack_route
        from repro.core.dynamic import relabel

        graph = _fuzz_graph(case, seed=1)
        rng = random.Random(zlib.crc32(case.encode()) + 1)
        changed = {
            (u, v): w * float(rng.randrange(2, 6))
            for u, v, w in rng.sample(list(graph.edges()), min(4, graph.num_edges))
        }
        shipped_cut = flat_build._cut_node
        built = {}
        for route in STACK_ROUTES:
            force_stack_route(monkeypatch, route)
            snapshots = {}

            def cut_node(flat, *args, **kwargs):
                snapshots[tuple(flat.vertices)] = flat.csr_arrays()
                return shipped_cut(flat, *args, **kwargs)

            monkeypatch.setattr(flat_build, "_cut_node", cut_node)
            index = HC2LIndex.build(graph, leaf_size=4)
            again = relabel(index, graph.reweighted(changed), changed_edges=changed)
            built[route] = (index, snapshots, again)
        (stacked, stacked_snapshots, stacked_again) = built["stacked"]
        (alone, alone_snapshots, alone_again) = built["per-node"]
        assert stacked.flat_labelling() == alone.flat_labelling()
        assert _tree_shape(stacked) == _tree_shape(alone)
        assert _record_rows(stacked) == _record_rows(alone)
        assert stacked_snapshots.keys() == alone_snapshots.keys()
        for members, arrays in stacked_snapshots.items():
            for got, want in zip(arrays, alone_snapshots[members]):
                assert got.dtype == want.dtype and np.array_equal(got, want), members
        assert stacked_again.flat_labelling() == alone_again.flat_labelling()
        assert _record_rows(stacked_again) == _record_rows(alone_again)
        assert _tree_shape(stacked_again) == _tree_shape(alone_again)


class TestStackRouteEdges:
    def test_zero_weight_snapshots_route_per_node(self, monkeypatch):
        """A snapshot with a zero-weight arc never enters a stacked round:
        its flags depend on the heap's settle order."""
        import repro.core.flat_build as flat_build
        from helpers import force_stack_route
        from repro.core.pruned_dijkstra import has_zero_weight

        edges = [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0), (3, 0, 2.0), (1, 3, 1.0)]
        edges += [(v, v + 1, float(1 + v % 3)) for v in range(3, 40)]
        edges += [(v, v + 7, 2.0) for v in range(3, 33, 2)]
        graph = graph_from_edges(edges, num_vertices=41)
        heap = HC2LIndex.build(graph, leaf_size=4, backend="heap", contract=False)

        force_stack_route(monkeypatch, "stacked")
        stacked_weights = []
        alone_zero = []
        shipped_labels, shipped_step = flat_build.stacked_labels, flat_build.node_step

        def stacked_labels(stack, *args, **kwargs):
            stacked_weights.append(stack.weights)
            return shipped_labels(stack, *args, **kwargs)

        def node_step(flat, *args, **kwargs):
            alone_zero.append(has_zero_weight(flat))
            return shipped_step(flat, *args, **kwargs)

        monkeypatch.setattr(flat_build, "stacked_labels", stacked_labels)
        monkeypatch.setattr(flat_build, "node_step", node_step)
        csr = HC2LIndex.build(graph, leaf_size=4, backend="csr", contract=False)
        assert csr.flat_labelling() == heap.flat_labelling()
        assert _record_rows(csr) == _record_rows(heap)
        # the zero-weight snapshots ran alone, their zero-free children stacked
        assert alone_zero and all(alone_zero)
        assert stacked_weights
        assert all(float(weights.min()) > 0.0 for weights in stacked_weights if len(weights))

    def test_fallback_cuts_run_per_node_inside_a_round(self, monkeypatch):
        """A disconnected snapshot and one with a bottleneck tie (``w_a ==
        w_b``) leave the stacked cut for the per-node ``balanced_cut``,
        inside rounds that stack their other snapshots' cuts, and the
        build equals the per-node route's."""
        import repro.core.flat_build as flat_build
        from helpers import force_stack_route

        def grid(rows: int, cols: int, base: int) -> list:
            edges = []
            for r in range(rows):
                for c in range(cols):
                    v = base + r * cols + c
                    if c + 1 < cols:
                        edges.append((v, v + 1, 1.0 + (r + c) % 3))
                    if r + 1 < rows:
                        edges.append((v, v + cols, 2.0))
            return edges

        # three components: the root is disconnected, and so is the
        # child holding the 4 x 4 grid and the clique; a unit-weight
        # 10-clique's partition weights tie at both boundaries (k = 2)
        clique = list(range(41, 51))
        edges = grid(5, 5, 0) + grid(4, 4, 25)
        edges += [(u, v, 1.0) for i, u in enumerate(clique) for v in clique[i + 1 :]]
        graph = graph_from_edges(edges, num_vertices=51)

        force_stack_route(monkeypatch, "per-node")
        alone = HC2LIndex.build(graph, leaf_size=4, contract=False)

        force_stack_route(monkeypatch, "stacked")
        alone_cuts = []
        rounds = []
        shipped_cut, shipped_stacked = flat_build.balanced_cut, flat_build.stacked_cuts

        def balanced_cut(flat, *args, **kwargs):
            alone_cuts.append(tuple(flat.vertices))
            return shipped_cut(flat, *args, **kwargs)

        def stacked_cuts(stack, cutting, beta):
            results = shipped_stacked(stack, cutting, beta)
            rounds.append((len(alone_cuts), sum(r is not None for r in results)))
            return results

        monkeypatch.setattr(flat_build, "balanced_cut", balanced_cut)
        monkeypatch.setattr(flat_build, "stacked_cuts", stacked_cuts)
        stacked = HC2LIndex.build(graph, leaf_size=4, contract=False)

        assert alone_cuts == [
            tuple(range(51)),  # disconnected root
            tuple(range(25, 51)),  # disconnected: the 4 x 4 grid and the clique
            tuple(clique),  # bottleneck tie
        ]
        # one fallback in each of the first three rounds, and the later
        # two rounds also stacked cuts
        assert [fallbacks_before for fallbacks_before, _ in rounds[:3]] == [0, 1, 2]
        assert all(stacked_count >= 1 for _, stacked_count in rounds[1:3])
        assert stacked.flat_labelling() == alone.flat_labelling()
        assert _tree_shape(stacked) == _tree_shape(alone)
        assert _record_rows(stacked) == _record_rows(alone)

    def test_process_build_runs_the_rounds(self, monkeypatch):
        """HC2L_p workers fork with the stacked route and build the
        per-node labels and tree."""
        from helpers import force_stack_route
        from repro.core.construction import HC2LBuilder
        from repro.core.parallel import ParallelHC2LBuilder

        graph = _fuzz_graph("sparse", seed=2)
        force_stack_route(monkeypatch, "per-node")
        _, reference, _ = HC2LBuilder(leaf_size=4).build(graph)
        force_stack_route(monkeypatch, "stacked")
        builder = ParallelHC2LBuilder(leaf_size=4, num_workers=2, parallel_threshold=8)
        _, labelling, stats = builder.build(graph)
        assert stats.num_tasks > 0
        assert labelling == reference


@pytest.mark.parametrize("case", FUZZ_CASES)
@pytest.mark.parametrize("seed", [0, 2])
class TestDialBackendFuzz:
    """Dial bucket-queue construction against the heap reference.

    All fuzz weights are small integers, so every snapshot is
    Dial-eligible and the comparisons assert ``==`` - the bucket queue
    must reproduce the heap Dijkstra bit for bit, at the label level and
    at the query level.
    """

    def test_dial_build_and_queries_match_heap(self, case, seed):
        graph = _fuzz_graph(case, seed)
        reference = HC2LIndex.build(graph, leaf_size=4, backend="heap")
        dial = HC2LIndex.build(graph, leaf_size=4, backend="dial")
        pairs = _query_pairs(graph, reference, seed)
        assert dial.distances(pairs).tolist() == reference.distances(pairs).tolist()
        # exact oracle equality too: integer weights make path sums exact
        assert dial.distances(pairs).tolist() == _reference(graph, pairs)


@pytest.mark.parametrize("case", FUZZ_CASES)
class TestProcessParallelFuzz:
    """Process-mode construction is bit-identical across graph families."""

    def test_process_build_matches_serial(self, case):
        from repro.core.construction import HC2LBuilder
        from repro.core.parallel import ParallelHC2LBuilder

        graph = _fuzz_graph(case, seed=0)
        _, reference, _ = HC2LBuilder(leaf_size=4).build(graph)

        builder = ParallelHC2LBuilder(leaf_size=4, num_workers=2, parallel_threshold=8)
        _, labelling, _ = builder.build(graph)
        assert labelling == reference

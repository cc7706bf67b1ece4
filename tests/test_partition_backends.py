"""Backend equivalence of the partition layer (Algorithms 1-2).

The balanced cuts drive everything downstream - the hierarchy shape, the
labels, the shard boundaries - so a backend that produced a *different*
(even if valid) cut would silently change the whole index.  These tests
pin down bit-identical cuts across

* the ``heap`` and ``csr`` backends (seed searches),
* the production scipy max-flow of ``minimum_vertex_cut_region``, called
  on one region alone and with the region stacked among others in one
  ``minimum_vertex_cut_regions`` solve, against both reference solvers
  of ``oracles.py`` (Dinitz and Edmonds-Karp; the canonical minimum cuts
  are unique across all maximum flows, which is what makes the solvers
  interchangeable).

CI runs this module as a dedicated smoke step so partition-layer backend
drift fails loudly, separately from the rest of the suite.
"""

from __future__ import annotations

import random

import pytest

import repro.flow.vertex_cut as vertex_cut_module
from helpers import FLOW_ROUTES, solve_stacked
from oracles import (
    adjacency_dict,
    adjacency_of,
    cut_distance_block,
    dijkstra_adjacency,
    flow_region,
    separates,
    shortcuts_loop,
)
from repro.core.backends import CSRBackend, DialBackend, HeapBackend
from repro.core.construction import root_snapshot
from repro.flow.vertex_cut import minimum_vertex_cut_region
from repro.graph.builders import graph_from_edges
from repro.graph.graph import Graph
from repro.partition.cut import balanced_cut
from repro.partition.partition import balanced_partition
import repro.partition.shortcuts as shortcuts_module
from repro.partition.shortcuts import child_adjacency, compute_shortcuts
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network


def _seeded_graph(seed: int, n_lo: int = 40, n_hi: int = 120) -> Graph:
    """A connected-ish random weighted graph."""
    rng = random.Random(seed)
    n = rng.randrange(n_lo, n_hi)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)  # spanning tree keeps it mostly connected
        edges.append((u, v, float(rng.randrange(1, 9))))
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randrange(1, 9))))
    return graph_from_edges(edges, num_vertices=n)


def _seeded_snapshot(seed: int, n_lo: int = 40, n_hi: int = 120):
    """The root snapshot of :func:`_seeded_graph` (what the partition layer cuts)."""
    return root_snapshot(_seeded_graph(seed, n_lo, n_hi))


def _seeded_adjacency(seed: int, n_lo: int = 40, n_hi: int = 120):
    """:func:`_seeded_graph` as the dict adjacency the flow oracle takes."""
    return adjacency_dict(_seeded_graph(seed, n_lo, n_hi))


#: a small region stacked beside the one under test: the path p0-p1-p2,
#: attached to S at p0 and to T at p2 (cut size 1)
_NEIGHBOUR_REGION = (["p0", "p1", "p2"], [0, 1, 1, 2], [1, 0, 2, 1], [0], [2])


def _assert_matches_oracles(adjacency, attach_s, attach_t, stacked=False):
    """Both canonical cuts of the production solve equal both oracles'.

    With ``stacked`` the region is solved inside one multi-region solve,
    between two neighbour regions; without, by the one-region call.
    Returns the production result.
    """
    region = flow_region(adjacency, attach_s, attach_t)
    if stacked:
        result = solve_stacked([_NEIGHBOUR_REGION, region, _NEIGHBOUR_REGION])[1]
    else:
        result = minimum_vertex_cut_region(*region)
    for route, solver in FLOW_ROUTES.items():
        reference = solver(*region)
        assert result.cut_size == reference.cut_size, route
        assert result.cut_closest_to_source == reference.cut_closest_to_source, route
        assert result.cut_closest_to_sink == reference.cut_closest_to_sink, route
    return result


class TestCutBackendEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_heap_and_csr_cuts_are_identical(self, seed):
        flat = _seeded_snapshot(seed)
        reference = balanced_cut(flat, backend=HeapBackend())
        fast = balanced_cut(flat, backend=CSRBackend())
        assert reference.part_a == fast.part_a
        assert reference.cut == fast.cut
        assert reference.part_b == fast.part_b
        assert separates(flat, fast)

    def test_road_network_cuts_are_identical(self):
        network = synthetic_road_network(
            RoadNetworkSpec("cut-smoke", num_vertices=350, seed=2024)
        )
        flat = root_snapshot(network.distance_graph)
        reference = balanced_cut(flat, backend=HeapBackend())
        fast = balanced_cut(flat, backend=CSRBackend())
        assert (reference.part_a, reference.cut, reference.part_b) == (
            fast.part_a,
            fast.cut,
            fast.part_b,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_backend_equality(self, seed):
        flat = _seeded_snapshot(seed, n_lo=20, n_hi=80)
        a = balanced_partition(flat, backend=HeapBackend())
        b = balanced_partition(flat, backend=CSRBackend())
        assert a.initial_a == b.initial_a
        assert a.cut_region == b.cut_region
        assert a.initial_b == b.initial_b


class TestFlowSolverEquality:
    def _instance(self, seed: int):
        rng = random.Random(seed)
        n = rng.randrange(12, 60)
        adjacency = _seeded_adjacency(seed, n_lo=n, n_hi=n + 1)
        vertices = sorted(adjacency)
        k = len(vertices)
        attach_s = {vertices[i] for i in range(0, k, 5)}
        attach_t = {vertices[i] for i in range(2, k, 7)} - attach_s
        return adjacency, attach_s, attach_t

    @pytest.mark.parametrize("seed", range(10))
    def test_all_solvers_agree(self, seed):
        adjacency, attach_s, attach_t = self._instance(seed)
        if not attach_s or not attach_t:
            pytest.skip("degenerate terminal sets")
        for stacked in (False, True):
            _assert_matches_oracles(adjacency, attach_s, attach_t, stacked)

    def test_one_scipy_flow_per_solve(self, monkeypatch):
        """Any region size, and any number of stacked regions, is one
        scipy ``maximum_flow`` call."""
        calls = []
        scipy_flow = vertex_cut_module._scipy_maximum_flow

        def counting_flow(*args, **kwargs):
            calls.append(1)
            return scipy_flow(*args, **kwargs)

        monkeypatch.setattr(vertex_cut_module, "_scipy_maximum_flow", counting_flow)
        adjacency, attach_s, attach_t = self._instance(3)
        region = flow_region(adjacency, attach_s, attach_t)
        minimum_vertex_cut_region(*region)
        assert len(calls) == 1
        calls.clear()
        solve_stacked([region, _NEIGHBOUR_REGION, region])
        assert len(calls) == 1


class TestCrossSolverFuzz:
    """Both canonical cuts of the production solve equal both oracles'.

    The solvers differ in algorithm (scipy's max-flow, Dinitz,
    Edmonds-Karp) but the canonical cuts depend only on residual
    reachability, which is unique across all maximum flows.  ``stacked``
    solves the region inside one multi-region solve between two neighbour
    regions instead of alone; the region's cuts must not change.
    """

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_graphs(self, seed, stacked):
        rng = random.Random(1000 + seed)
        adjacency = _seeded_adjacency(seed, n_lo=15, n_hi=70)
        vertices = sorted(adjacency)
        k = len(vertices)
        attach_s = {vertices[i] for i in range(0, k, rng.randrange(3, 6))}
        attach_t = {vertices[i] for i in range(1, k, rng.randrange(4, 8))} - attach_s
        if not attach_s or not attach_t:
            pytest.skip("degenerate terminal sets")
        _assert_matches_oracles(adjacency, attach_s, attach_t, stacked)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_caterpillar(self, stacked):
        from repro.graph.builders import caterpillar_graph

        graph = caterpillar_graph(spine=9, legs=2, weight=3.0)
        adjacency = adjacency_dict(graph)
        spine = list(range(9))  # vertices 0..spine-1 form the spine path
        result = _assert_matches_oracles(adjacency, {spine[0]}, {spine[-1]}, stacked)
        # a path-shaped spine separates with one vertex
        assert result.cut_size == 1

    @pytest.mark.parametrize("stacked", [False, True])
    def test_disconnected_terminals(self, stacked):
        """Terminals in different components: max flow 0, both cuts empty."""
        a = _seeded_adjacency(5, n_lo=12, n_hi=20)
        b = _seeded_adjacency(6, n_lo=12, n_hi=20)
        offset = max(a) + 1
        merged = {v: dict(nbrs) for v, nbrs in a.items()}
        for v, nbrs in b.items():
            merged[v + offset] = {w + offset: weight for w, weight in nbrs.items()}
        result = _assert_matches_oracles(merged, {min(a)}, {min(b) + offset}, stacked)
        assert result.cut_size == 0
        assert result.cut_closest_to_source == []
        assert result.cut_closest_to_sink == []


class _FallbackForbidden(HeapBackend):
    """Fallback that fails the test if the Dial eligibility path bails."""

    def sssp_many(self, flat, sources):
        raise AssertionError("DialBackend fell back on an eligible snapshot")

    def dist_and_prune_many(self, flat, roots, prune_sets):
        raise AssertionError("DialBackend fell back on an eligible snapshot")


class TestDialBackendEquality:
    """Bucket-queue SSSP is exactly - not approximately - the heap Dijkstra.

    ``_seeded_adjacency`` draws small integer weights, so every snapshot
    in the recursion is Dial-eligible; the forbidden fallback proves the
    bucket queue (and not a silent delegate) produced the results.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_dial_and_heap_cuts_are_identical(self, seed):
        flat = _seeded_snapshot(seed)
        reference = balanced_cut(flat, backend=HeapBackend())
        dial = balanced_cut(flat, backend=DialBackend(fallback=_FallbackForbidden()))
        assert (reference.part_a, reference.cut, reference.part_b) == (
            dial.part_a,
            dial.cut,
            dial.part_b,
        )
        assert separates(flat, dial)

    @pytest.mark.parametrize("seed", [1, 8])
    def test_dial_rows_bit_identical_on_dyadic_weights(self, seed):
        """Quarter-integer weights scale by 2**2: still exact float64."""
        rng = random.Random(seed)
        n = 60
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v, rng.randrange(1, 40) * 0.25))
        for _ in range(2 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.randrange(1, 40) * 0.25))
        flat = root_snapshot(graph_from_edges(edges, num_vertices=n))
        sources = list(range(0, n, 7))
        heap_rows = HeapBackend().sssp_many(flat, sources)
        dial_rows = DialBackend(fallback=_FallbackForbidden()).sssp_many(flat, sources)
        assert [list(row) for row in dial_rows] == [list(row) for row in heap_rows]


class TestValidationAndDedupe:
    @pytest.mark.parametrize("beta", [0.0, -0.1, 0.6, 1.5])
    def test_balanced_cut_validates_beta(self, beta):
        flat = _seeded_snapshot(0, n_lo=10, n_hi=11)
        with pytest.raises(ValueError, match="beta"):
            balanced_cut(flat, beta)

    def test_balanced_cut_requires_a_subgraph(self):
        with pytest.raises(TypeError, match="flat"):
            balanced_cut()

    def test_seed_search_memo_reuses_first_row(self):
        """On a path, the farthest vertex from seed_a is the start vertex
        again, so the third seed search must hit the memo instead of
        re-running (the double-BFS dedupe)."""

        calls = []

        class CountingBackend(HeapBackend):
            def sssp_many(self, flat, sources):
                calls.extend(int(s) for s in sources)
                return super().sssp_many(flat, sources)

        path = graph_from_edges(
            [(i, i + 1, 1.0) for i in range(30)], num_vertices=31
        )
        balanced_partition(root_snapshot(path), backend=CountingBackend())
        # arbitrary start 0 -> seed_a = 30 -> farthest from 30 is 0 again:
        # exactly two searches run, the third reuses the first row
        assert calls == [0, 30]


class TestFlatShortcutPaths:
    """The snapshot shortcut paths against dict-adjacency oracles."""

    def _cut_setup(self, seed: int):
        flat = _seeded_snapshot(seed, n_lo=50, n_hi=90)
        result = balanced_cut(flat, beta=0.25)
        if not result.cut or not result.part_a:
            pytest.skip("degenerate cut for this seed")
        adjacency = adjacency_of(flat)
        cut_distances = cut_distance_block(flat, result.cut)
        return flat, adjacency, result, cut_distances

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_compute_shortcuts_flat_matches_dict(self, seed):
        flat, adjacency, result, cut_distances = self._cut_setup(seed)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            via_within = compute_shortcuts(
                flat, result.cut, part, cut_distances, within=flat.induce(part)
            )
            assert via_within == shortcuts
            # each shortcut carries the true parent distance and beats the
            # distance inside the partition (Algorithm 3, condition (1))
            for shortcut in shortcuts:
                assert shortcut.weight == dijkstra_adjacency(adjacency, shortcut.u)[shortcut.v]
                inside = dijkstra_adjacency(adjacency, shortcut.u, allowed=part)
                assert shortcut.weight < inside.get(shortcut.v, float("inf"))

    @pytest.mark.parametrize("one_pair_chunks", [False, True])
    @pytest.mark.parametrize("seed", [3, 11, 27, 41, 58])
    def test_compute_shortcuts_matches_the_pair_loop(self, seed, one_pair_chunks, monkeypatch):
        if one_pair_chunks:
            monkeypatch.setattr(shortcuts_module, "_CHUNK", 1)
        flat, _, result, cut_distances = self._cut_setup(seed)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            assert [tuple(s) for s in shortcuts] == shortcuts_loop(
                flat, result.cut, part, cut_distances
            )

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_induce_with_shortcuts_matches_child_adjacency(self, seed):
        flat, adjacency, result, cut_distances = self._cut_setup(seed)
        for part in (result.part_a, result.part_b):
            shortcuts = compute_shortcuts(flat, result.cut, part, cut_distances)
            # dict reference: restrict, then add each shortcut keeping minima
            members = set(part)
            reference = {
                v: {w: weight for w, weight in adjacency[v].items() if w in members}
                for v in part
            }
            for s in shortcuts:
                if s.weight < reference[s.u].get(s.v, float("inf")):
                    reference[s.u][s.v] = reference[s.v][s.u] = s.weight
            child = child_adjacency(flat, part, shortcuts)
            assert adjacency_of(child) == reference
            assert child_adjacency(flat, part, shortcuts, within=flat.induce(part)).indices == (
                child.indices
            )

    @pytest.mark.parametrize("seed", [5, 19])
    def test_adjacency_from_csr_round_trips(self, seed):
        graph = _seeded_graph(seed, n_lo=30, n_hi=60)
        rebuilt = adjacency_of(root_snapshot(graph))
        # the root snapshot keeps the graph's adjacency order edge for edge
        expected = adjacency_dict(graph)
        assert [list(rebuilt[v].items()) for v in graph.vertices()] == [
            list(expected[v].items()) for v in graph.vertices()
        ]


def _pairs_loop(inside, at_borders):
    """Lines 7-16 of Algorithm 3 over one child, pair by pair in Python."""
    k = len(inside)
    via = [
        [min((row[i] + row[j] for row in at_borders), default=float("inf")) for j in range(k)]
        for i in range(k)
    ]
    true = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            true[i][j] = true[j][i] = min(inside[i][j], via[i][j])
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            d = true[i][j]
            if d == float("inf") or not d < inside[i][j]:
                continue
            threshold = d + 1e-9 * max(1.0, d)
            if not any(
                true[i][b] + true[j][b] <= threshold for b in range(k) if b not in (i, j)
            ):
                pairs.append((i, j, d))
    return pairs


class TestStackedShortcutPairs:
    """The stacked via-cut and Lemma 4.11 pass equals the per-child test.

    ``flat_build._stacked_pairs`` groups children by border count and runs
    each group as one ``(children x k x k)`` pass, cut distances padded
    with ``inf`` rows.  Over children of mixed ``k`` (including ``k = 2``,
    children with one or no border, a child whose cut reaches no border
    and a child with no cut vertex), every child's pairs must equal
    ``nonredundant_pairs`` on that child alone, and a pure-Python loop.
    """

    @pytest.mark.parametrize("cells", [1 << 20, 1])
    def test_matches_the_per_child_test(self, cells, monkeypatch):
        import numpy as np

        import repro.core.flat_build as flat_build
        from repro.partition.shortcuts import nonredundant_pairs

        monkeypatch.setattr(flat_build, "_STACKED_PAIR_CELLS", cells)
        rng = np.random.default_rng(11)
        # (borders, cut vertices) per child; child 3's cut reaches no border
        shapes = [(2, 1), (5, 3), (3, 2), (4, 2), (1, 2), (2, 3), (5, 1), (0, 1), (3, 0), (2, 2)]
        unreached = 3
        insides, cut_rows = [], []
        for c, (k, hubs) in enumerate(shapes):
            upper = rng.integers(1, 30, size=(k, k)).astype(np.float64)
            upper[rng.random((k, k)) < 0.2] = np.inf
            inside = np.triu(upper, 1) + np.triu(upper, 1).T
            insides.append(inside)
            rows = rng.integers(0, 20, size=(hubs, k)).astype(np.float64)
            rows[rng.random((hubs, k)) < 0.15] = np.inf
            if c == unreached:
                rows[:] = np.inf
            cut_rows.append(rows)

        # child c is block c; its borders are stacked ids border_start[c]:...
        num_borders = np.array([k for k, _ in shapes], dtype=np.int64)
        border_start = np.cumsum(num_borders) - num_borders
        total = int(num_borders.sum())
        # entries outside a child's own rows hold finite garbage: reading
        # them (instead of inf padding) would change a via-cut distance
        in_child = rng.integers(0, 3, size=(int(num_borders.max()), total)).astype(np.float64)
        block = rng.integers(0, 3, size=(max(h for _, h in shapes) + 1, total)).astype(np.float64)
        hub_rows = []
        for c, (k, hubs) in enumerate(shapes):
            columns = slice(border_start[c], border_start[c] + k)
            in_child[:k, columns] = insides[c]
            # hubs in rank order live in reversed rows 1.. of the block
            rows = np.arange(1, hubs + 1, dtype=np.int64)[::-1]
            block[rows, columns] = cut_rows[c]
            hub_rows.append(rows)
        levels = flat_build.StackedLevels([], [], block, hub_rows, np.zeros(0, dtype=np.int64))
        child, pair_i, pair_j, weights = flat_build._stacked_pairs(
            levels,
            np.arange(len(shapes), dtype=np.int64),
            np.arange(total, dtype=np.int64),
            in_child,
            np.arange(total, dtype=np.int64),
            border_start,
            num_borders,
        )
        assert np.all(np.diff(child) >= 0)
        found_any = False
        for c, (k, _) in enumerate(shapes):
            mine = child == c
            got = list(zip(pair_i[mine].tolist(), pair_j[mine].tolist(), weights[mine].tolist()))
            found_any |= bool(got)
            assert got == _pairs_loop(insides[c].tolist(), cut_rows[c].tolist()), c
            if k >= 2:
                i, j, w = nonredundant_pairs(insides[c], cut_rows[c])
                assert got == list(zip(i.tolist(), j.tolist(), w.tolist())), c
            else:
                assert got == []
        assert found_any

"""Tests for the process-parallel construction path.

The parallel builder ships self-contained CSR work units to worker
processes and streams the returned label blocks into the flat layout, so
the key property is *bit-identity*: for every ``backend`` x
``num_workers`` combination the labels (and the hierarchy) must equal the
serial heap build exactly - not approximately.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.core.construction import HC2LBuilder
from repro.core.flat import FlatLabelling
from repro.core.index import HC2LIndex, HC2LParameters
from repro.core.flat_build import fragment_from_levels
from repro.core.parallel import ParallelHC2LBuilder

from helpers import assert_distance_equal, label_levels, rewrite_archive


def _read_header(path) -> dict:
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))


def _hierarchy_signature(hierarchy):
    return [
        (n.depth, n.bits, n.cut, n.parent, n.left, n.right, n.subtree_size, n.is_leaf)
        for n in hierarchy.nodes
    ]


class TestBitIdentityMatrix:
    """process x {heap, csr} x {1, 2, 4} workers == serial heap."""

    # one execution mode is left; the axis keeps the matrix's test ids
    @pytest.mark.parametrize("mode", ["process"])
    @pytest.mark.parametrize("backend", ["heap", "csr"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_labels_match_serial_heap(self, medium_graph, mode, backend, workers):
        serial = HC2LBuilder(leaf_size=8, backend="heap")
        _, reference, _ = serial.build(medium_graph)

        builder = ParallelHC2LBuilder(
            leaf_size=8,
            backend=backend,
            num_workers=workers,
            parallel_threshold=16,
        )
        _, labelling, _ = builder.build(medium_graph)
        assert labelling == reference

    def test_process_hierarchy_matches_serial(self, medium_graph):
        serial_h, _, _ = HC2LBuilder(leaf_size=8, backend="csr").build(medium_graph)
        builder = ParallelHC2LBuilder(
            leaf_size=8,
            backend="csr",
            num_workers=2,
            parallel_threshold=16,
        )
        process_h, _, _ = builder.build(medium_graph)
        # the coordinator replays its expansion events in preorder, so the
        # node indices - not just the node set - match the serial recursion
        assert _hierarchy_signature(process_h) == _hierarchy_signature(serial_h)

    def test_disconnected_graph(self, disconnected_graph):
        _, reference, _ = HC2LBuilder(leaf_size=2, backend="heap").build(disconnected_graph)
        builder = ParallelHC2LBuilder(
            leaf_size=2,
            backend="csr",
            num_workers=2,
            parallel_threshold=4,
        )
        _, labelling, _ = builder.build(disconnected_graph)
        assert labelling == reference

    def test_process_distances_exact(self, small_graph, small_oracle, query_pairs_small):
        index = HC2LIndex.build(small_graph, num_workers=2, backend="csr")
        for s, t in query_pairs_small:
            assert_distance_equal(small_oracle.distance(s, t), index.distance(s, t))


class TestProcessFallback:
    def test_small_graph_builds_serially(self, small_graph):
        # below the parallel threshold the coordinator runs the plain
        # sequential builder: no tasks, same flat labels
        builder = ParallelHC2LBuilder(num_workers=2, parallel_threshold=256)
        hierarchy, labelling, stats = builder.build(small_graph)
        assert stats.num_tasks == 0
        assert isinstance(labelling, FlatLabelling)
        _, reference, _ = HC2LBuilder().build(small_graph)
        assert labelling == reference

    def test_default_threshold_keeps_tiny_graphs_serial(self):
        from repro.graph.builders import path_graph

        graph = path_graph(40, weight=1.5)
        builder = ParallelHC2LBuilder(num_workers=2)
        _, labelling, stats = builder.build(graph)
        assert stats.num_tasks == 0
        assert isinstance(labelling, FlatLabelling)

    def test_large_enough_graph_ships_tasks(self, medium_graph):
        builder = ParallelHC2LBuilder(num_workers=2, parallel_threshold=16, leaf_size=8)
        hierarchy, labelling, stats = builder.build(medium_graph)
        assert stats.num_tasks > 0
        assert isinstance(labelling, FlatLabelling)
        assert hierarchy.check_vertex_assignment()

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        hierarchy, labelling, stats = ParallelHC2LBuilder(num_workers=2).build(Graph(0))
        assert stats.num_nodes == 0
        assert len(hierarchy.nodes) == 0


class TestParameterValidation:
    # the execution-mode knob is gone (num_workers >= 2 always means
    # worker processes); naming it must fail loudly, not be ignored
    def test_unknown_parallel_mode_builder(self):
        with pytest.raises(TypeError, match="parallel_mode"):
            ParallelHC2LBuilder(parallel_mode="fibers")

    def test_unknown_parallel_mode_parameters(self):
        with pytest.raises(TypeError, match="parallel_mode"):
            HC2LParameters(parallel_mode="gpu")

    def test_flow_method_parameter_removed(self):
        # the max-flow route follows the region size, so the solver knob
        # is gone from the parameters and both builders
        with pytest.raises(TypeError, match="flow_method"):
            HC2LParameters(flow_method="matrix")
        with pytest.raises(TypeError, match="flow_method"):
            ParallelHC2LBuilder(flow_method="matrix")

    def test_bad_worker_count_parameters(self):
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            HC2LParameters(num_workers=0)
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            HC2LParameters(num_workers=-3)

    def test_bad_worker_count_builder(self):
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            ParallelHC2LBuilder(num_workers=0)


class TestPersistenceRoundTrip:
    def test_parallel_mode_round_trips(self, small_graph, tmp_path):
        # the worker count round-trips; the retired execution-mode key is
        # no longer written
        index = HC2LIndex.build(small_graph, num_workers=2, backend="csr")
        path = tmp_path / "process.npz"
        index.save(path)
        assert "parallel_mode" not in _read_header(path)["parameters"]
        loaded = HC2LIndex.load(path)
        assert loaded.parameters.num_workers == 2
        assert loaded.flat_labelling() == index.flat_labelling()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_thread_mode_archive_loads(self, small_graph, query_pairs_small, tmp_path, workers):
        # archives saved while the thread-pool builder existed store
        # ``parallel_mode: "thread"``; such a header is refused by name, and
        # the same archive without that key loads and answers as before
        index = HC2LIndex.build(small_graph, num_workers=workers)
        path = tmp_path / "thread.npz"
        index.save(path)

        rewrite_archive(
            path, edit_header=lambda header: header["parameters"].update(parallel_mode="thread")
        )
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*'parallel_mode'"):
            HC2LIndex.load(path)

        rewrite_archive(path, edit_header=lambda header: header["parameters"].pop("parallel_mode"))
        loaded = HC2LIndex.load(path)
        assert loaded.parameters == index.parameters
        assert loaded.flat_labelling() == index.flat_labelling()
        pairs = np.asarray(query_pairs_small, dtype=np.int64)
        assert loaded.distances(pairs).tolist() == index.distances(pairs).tolist()

    @pytest.mark.parametrize(
        "flow_method", ["auto", "dinitz", "matrix", "python_ek", "push_relabel"]
    )
    def test_flow_method_archive_loads(self, small_graph, tmp_path, flow_method):
        # archives saved while the max-flow solver was a parameter name it;
        # every value is refused by name, and the same archive without that
        # key loads to the same index (labels never depended on the solver)
        index = HC2LIndex.build(small_graph)
        path = tmp_path / "solver.npz"
        index.save(path)

        rewrite_archive(
            path, edit_header=lambda header: header["parameters"].update(flow_method=flow_method)
        )
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*'flow_method'"):
            HC2LIndex.load(path)

        rewrite_archive(path, edit_header=lambda header: header["parameters"].pop("flow_method"))
        loaded = HC2LIndex.load(path)
        assert loaded.parameters == index.parameters
        assert loaded.flat_labelling() == index.flat_labelling()


class TestStreamingAssembly:
    def test_merge_levels_concatenates_per_vertex(self):
        left = fragment_from_levels([[[1.0]], [[2.0, 3.0]]])
        right = fragment_from_levels([[[4.0], []], [[5.0]]])
        merged = left.merge_levels(right)
        assert label_levels(merged) == [[[1.0], [4.0], []], [[2.0, 3.0], [5.0]]]

    def test_merge_levels_rejects_size_mismatch(self):
        a = fragment_from_levels([[[1.0]]])
        b = fragment_from_levels([[[1.0]], [[2.0]]])
        with pytest.raises(ValueError):
            a.merge_levels(b)

    def test_node_timings_recorded(self, small_graph):
        _, _, stats = HC2LBuilder(leaf_size=8).build(small_graph)
        assert stats.node_timings
        assert stats.num_nodes == len(stats.node_timings)
        for depth, vertices, seconds, seconds_cut in stats.node_timings:
            assert depth >= 0
            assert vertices > 0
            assert seconds >= 0.0
            # the cut is part of the node's own work, never more than it
            assert 0.0 <= seconds_cut <= seconds

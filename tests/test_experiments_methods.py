"""Every registered experiment method must build a working, exact index."""

from __future__ import annotations

import math

import pytest

import repro.experiments.methods as methods
from repro.experiments.methods import METHOD_BUILDERS
from repro.graph.search import dijkstra

from helpers import random_query_pairs


@pytest.mark.parametrize("method_name", sorted(METHOD_BUILDERS))
def test_every_registered_method_is_exact(method_name, small_graph, small_oracle):
    """Each harness method builds on the small network and answers exactly."""
    spec = METHOD_BUILDERS[method_name]
    index = spec.builder(small_graph)
    assert getattr(index, "construction_seconds", 0.0) >= 0.0
    assert index.label_size_bytes() > 0
    for s, t in random_query_pairs(small_graph, 25, seed=hash(method_name) % 1000):
        expected = small_oracle.distance(s, t)
        got = index.distance(s, t)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("method_name", ["HC2L", "H2H", "PHL", "HL"])
def test_table_methods_report_hub_counts(method_name, small_graph):
    """The Table 3 metric (hubs scanned) is available for every table method."""
    index = METHOD_BUILDERS[method_name].builder(small_graph)
    distance, hubs = index.distance_with_hub_count(0, small_graph.num_vertices - 1)
    assert hubs >= 0
    assert distance >= 0.0


def test_hc2l_spec_marks_lca_storage(small_graph):
    spec = METHOD_BUILDERS["HC2L"]
    assert spec.has_lca_storage
    index = spec.builder(small_graph)
    assert index.lca_storage_bytes() > 0


def test_bidijkstra_spec_has_no_lca_storage():
    assert not METHOD_BUILDERS["BiDijkstra"].has_lca_storage


@pytest.mark.parametrize("cores", [1, 2])
def test_parallel_method_sizes_its_pool_from_the_affinity(monkeypatch, small_graph, cores):
    """HC2L_p asks for one worker per available core (serial on one core)."""
    monkeypatch.setattr(methods.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    seen = []

    def fake_build(graph, parameters=None, **overrides):
        seen.append(overrides["num_workers"])
        return "built"

    monkeypatch.setattr(methods.HC2LIndex, "build", fake_build)
    assert METHOD_BUILDERS["HC2L_p"].builder(small_graph) == "built"
    assert seen == [cores]

"""Cross-method integration tests.

Every index implemented in this repository must return the same exact
distances on the same network; these tests build them all once on a shared
mid-size road network (distance and travel-time weights) and cross-check
their answers, their reported metrics and the shapes the paper's evaluation
expects (HC2L smaller/faster hierarchy than H2H, etc.).
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.ch import ContractionHierarchy
from repro.baselines.dijkstra import BidirectionalDijkstra
from repro.baselines.h2h import H2HIndex
from repro.baselines.hub_labelling import HubLabelling
from repro.baselines.phl import PrunedHighwayLabelling
from repro.baselines.pll import PrunedLandmarkLabelling
from repro.core.index import HC2LIndex

from helpers import assert_distance_equal, random_query_pairs


@pytest.fixture(scope="module")
def all_indexes(medium_graph):
    return {
        "HC2L": HC2LIndex.build(medium_graph),
        "HC2L_p": HC2LIndex.build(medium_graph, num_workers=3),
        "H2H": H2HIndex.build(medium_graph),
        "PHL": PrunedHighwayLabelling.build(medium_graph),
        "HL": HubLabelling.build(medium_graph),
        "PLL": PrunedLandmarkLabelling.build(medium_graph),
        "CH": ContractionHierarchy.build(medium_graph),
        "BiDijkstra": BidirectionalDijkstra.build(medium_graph),
    }


class TestAllMethodsAgree:
    def test_against_oracle(self, all_indexes, medium_graph, medium_oracle):
        pairs = random_query_pairs(medium_graph, 120, seed=101)
        for s, t in pairs:
            expected = medium_oracle.distance(s, t)
            for name, index in all_indexes.items():
                assert_distance_equal(expected, index.distance(s, t)), name

    def test_pairwise_agreement(self, all_indexes, medium_graph):
        pairs = random_query_pairs(medium_graph, 60, seed=202)
        for s, t in pairs:
            answers = {name: index.distance(s, t) for name, index in all_indexes.items()}
            reference = answers["HC2L"]
            for name, value in answers.items():
                if math.isinf(reference):
                    assert math.isinf(value), name
                else:
                    assert value == pytest.approx(reference, rel=1e-6), name

    def test_travel_time_agreement(self, medium_road_network):
        graph = medium_road_network.travel_time_graph
        indexes = {
            "HC2L": HC2LIndex.build(graph),
            "H2H": H2HIndex.build(graph),
            "HL": HubLabelling.build(graph),
        }
        pairs = random_query_pairs(graph, 80, seed=303)
        for s, t in pairs:
            reference = indexes["HC2L"].distance(s, t)
            for name, index in indexes.items():
                assert index.distance(s, t) == pytest.approx(reference, rel=1e-6), name


class TestPaperShapeExpectations:
    """The qualitative comparisons the paper's evaluation highlights."""

    def test_hc2l_hierarchy_is_shallower_than_h2h(self, all_indexes):
        assert all_indexes["HC2L"].tree_height() < all_indexes["H2H"].tree_height()

    def test_hc2l_lca_storage_is_smaller_than_h2h(self, all_indexes):
        assert all_indexes["HC2L"].lca_storage_bytes() < all_indexes["H2H"].lca_storage_bytes()

    def test_hc2l_scans_fewer_hubs_than_h2h_and_hl(self, all_indexes, medium_graph):
        pairs = random_query_pairs(medium_graph, 150, seed=404)

        def average_hubs(index):
            total = 0
            for s, t in pairs:
                total += index.distance_with_hub_count(s, t)[1]
            return total / len(pairs)

        hc2l = average_hubs(all_indexes["HC2L"])
        h2h = average_hubs(all_indexes["H2H"])
        hl = average_hubs(all_indexes["HL"])
        assert hc2l < h2h
        assert hc2l < hl

    def test_hc2l_labelling_smaller_than_h2h(self, all_indexes):
        assert all_indexes["HC2L"].label_size_bytes() < all_indexes["H2H"].label_size_bytes()

    def test_label_sizes_positive_for_all_methods(self, all_indexes):
        for name, index in all_indexes.items():
            assert index.label_size_bytes() > 0, name

    def test_parallel_and_sequential_builds_identical_labels(self, all_indexes):
        sequential = all_indexes["HC2L"]
        parallel = all_indexes["HC2L_p"]
        assert sequential.flat_labelling().total_entries() == parallel.flat_labelling().total_entries()
        assert sequential.tree_height() == parallel.tree_height()

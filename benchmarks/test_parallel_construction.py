"""Benchmark - parallel construction HC2L_p (Section 4.4).

The paper's HC2L_p parallelises the recursion over the two sides of each
cut and the per-cut Dijkstra searches, reporting 3-4x faster construction
on 28 cores.  Here independent subtrees of the same recursion run in
worker processes, so the speed-up is bounded by the host's cores and by
pickling each unit; the point of this benchmark is to exercise the
parallel code path, verify it produces an identical index, and record
the measured speed-up.
"""

from __future__ import annotations

import pytest

from conftest import write_result

from repro.core.index import HC2LIndex
from repro.experiments.report import render_table


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_construction_time_by_worker_count(benchmark, primary_dataset, workers):
    """Wall-clock construction time for 1, 2 and 4 worker processes."""
    _, _, graph, _ = primary_dataset

    def build():
        return HC2LIndex.build(graph, num_workers=workers)

    index = benchmark.pedantic(build, rounds=1, iterations=1)
    assert index.tree_height() > 0


def test_parallel_matches_sequential(benchmark, primary_dataset):
    """HC2L_p must produce exactly the same labelling as sequential HC2L."""
    name, _, graph, pairs = primary_dataset

    def build_both():
        return HC2LIndex.build(graph), HC2LIndex.build(graph, num_workers=4)

    sequential, parallel = benchmark.pedantic(build_both, rounds=1, iterations=1)
    assert sequential.flat_labelling() == parallel.flat_labelling()
    for s, t in pairs[:300]:
        assert sequential.distance(s, t) == pytest.approx(parallel.distance(s, t))

    rows = [
        {
            "dataset": name,
            "variant": "HC2L (sequential)",
            "construction_seconds": round(sequential.construction_seconds, 3),
        },
        {
            "dataset": name,
            "variant": "HC2L_p (4 processes)",
            "construction_seconds": round(parallel.construction_seconds, 3),
        },
    ]
    write_result("parallel_construction", render_table(rows, title="HC2L vs HC2L_p construction"))

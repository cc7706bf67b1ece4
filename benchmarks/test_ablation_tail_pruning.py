"""Ablation benchmark - tail pruning (Section 5.1.2).

The paper reports that disabling tail pruning grows the index by 10-15%
while reducing construction time by roughly 20%.  This benchmark builds
HC2L with and without tail pruning on the primary benchmark dataset and
records both index sizes and build times.
"""

from __future__ import annotations

from conftest import write_result

from repro.core.index import HC2LIndex
from repro.experiments.report import render_table


def test_tail_pruning_ablation(benchmark, primary_dataset):
    """Compare HC2L with and without tail pruning."""
    name, _, graph, pairs = primary_dataset

    def build_both():
        pruned = HC2LIndex.build(graph, tail_pruning=True)
        naive = HC2LIndex.build(graph, tail_pruning=False)
        return pruned, naive

    pruned, naive = benchmark.pedantic(build_both, rounds=1, iterations=1)

    assert pruned.flat_labelling().total_entries() < naive.flat_labelling().total_entries()
    for s, t in pairs[:200]:
        assert abs(pruned.distance(s, t) - naive.distance(s, t)) <= 1e-6 * max(
            1.0, naive.distance(s, t) if naive.distance(s, t) != float("inf") else 1.0
        ) or (pruned.distance(s, t) == naive.distance(s, t))

    growth = naive.flat_labelling().total_entries() / pruned.flat_labelling().total_entries() - 1.0
    rows = [
        {
            "dataset": name,
            "variant": "tail pruning",
            "label_entries": pruned.flat_labelling().total_entries(),
            "label_size_bytes": pruned.label_size_bytes(),
            "construction_seconds": round(pruned.construction_seconds, 3),
        },
        {
            "dataset": name,
            "variant": "no tail pruning",
            "label_entries": naive.flat_labelling().total_entries(),
            "label_size_bytes": naive.label_size_bytes(),
            "construction_seconds": round(naive.construction_seconds, 3),
        },
        {
            "dataset": name,
            "variant": f"size growth without pruning: {growth:.1%}",
            "label_entries": "",
            "label_size_bytes": "",
            "construction_seconds": "",
        },
    ]
    write_result("ablation_tail_pruning", render_table(rows, title="Ablation - tail pruning"))


def test_query_time_with_and_without_pruning(benchmark, primary_dataset):
    """Query latency of the un-pruned labelling (should not beat the pruned one)."""
    _, _, graph, pairs = primary_dataset
    naive = HC2LIndex.build(graph, tail_pruning=False)

    def run_batch():
        total = 0.0
        for s, t in pairs[:500]:
            total += naive.distance(s, t)
        return total

    assert benchmark(run_batch) >= 0.0

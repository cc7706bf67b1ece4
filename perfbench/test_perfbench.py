"""A/A checks for the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
workload runs twice at the tiny size with one seed, untraced and traced:
every metric must appear with its unit, and the exact counts must agree
between the two runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

#: counts that must repeat exactly between two runs of one commit
EXACT = {
    0: ["index_bytes"],
    1: [
        "core.label_entries",
        "core.shortcuts",
        "hierarchy.nodes",
        "hierarchy.height",
        "core.engine.hubs_per_query.uniform",
        "core.engine.hubs_per_query.neighbourhood",
        "core.backends.dial_calls",
        "core.dynamic.dial_calls",
        "core.label_nodes",
    ],
}


def bench_command(workload: str, trace: int) -> list:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--size", "tiny", "--trace", str(trace)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(bench_command(workload, trace), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return last["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build-int", "query-float"])
def test_two_runs_agree_on_exact_counts(workload, trace):
    first, second = result(workload, trace), result(workload, trace)
    expected = END_TO_END if trace == 0 else PER_LAYER
    for metrics in (first, second):
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in expected
        }
    for name in EXACT[trace]:
        assert first[name]["value"] == second[name]["value"], name
    if trace == 0:
        assert all(m["value"] > 0 for m in first.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("build-int", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_leaves_no_process_behind(trace):
    """The fleet phase spawns workers; none of them, nor multiprocessing's
    resource tracker, may outlive the run."""
    with subprocess.Popen(bench_command("build-int", trace), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          start_new_session=True) as bench:
        _, stderr = bench.communicate(timeout=300)
    assert bench.returncode == 0, stderr
    # the run led its own process group; no member may be left at exit
    with pytest.raises(ProcessLookupError):
        os.killpg(bench.pid, 0)

"""Repository benchmark: one command, one workload, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload build-int --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown from the traced run.  Before the result line the run prints one
``perfbench-record`` line with its provenance: seed, core count, library
versions, commit, input checksums, the sample count behind every median
and p90, and the traced run's overhead.  The last line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every checked answer was right, 1 when one was wrong,
2 when the program under test cannot be imported, 3 when the generated
inputs no longer match ``perfbench/pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

WORKLOAD_NAMES = ("build-int", "query-float")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the A/A test's miniature inputs")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate perfbench/pinned.json after a deliberate input change")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reap_children() -> None:
    """Stop and wait for every process this run started.

    Fleet workers are joined by ``FleetServer.aclose``; this also joins any
    straggler and stops multiprocessing's resource tracker, which spawning
    a worker starts and which would otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import numpy
        import scipy

        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    from perfbench import inputs, metrics, workloads

    if args.write_pins:
        inputs.write_pins()
        print(f"wrote {inputs.PINS_PATH}")
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        run = workloads.execute(
            args.workload, args.size, args.seed, args.seconds, bool(args.trace), workdir
        )
    except inputs.InputsChanged as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    values = workloads.per_layer(run) if args.trace else workloads.end_to_end(run)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "wall_s": time.perf_counter() - started,
        "samples": workloads.sample_counts(run),
        "failed_frac": run.failed / max(run.attempted, 1),
        "trace_overhead_pct": workloads.trace_overhead(run) if args.trace else None,
        **run.record,
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

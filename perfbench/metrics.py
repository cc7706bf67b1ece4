"""Metric names and units, read from ``BENCHMARK.json``, and the statistics."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

#: the metric definitions, one list per ``--trace`` mode; a per-layer
#: metric whose layer a workload does not exercise reads 0
_DEFINITIONS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END: List[Dict[str, object]] = _DEFINITIONS["end_to_end"]
PER_LAYER: List[Dict[str, object]] = _DEFINITIONS["per_layer"]
UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (needs at least ten samples beyond it to mean much)."""
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])

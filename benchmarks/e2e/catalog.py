"""Metric names, units, directions and bounds, and the statistics they use.

``BENCHMARK.json`` at the repository root is the single list of workloads
and metrics: ``run.py`` emits what it names, ``compare.py`` judges with
its bounds. Two end-to-end metrics are not in it and are defined here
(``EXTRA``): ``restore_p50_ms`` exists only on ``long-chain``, and
``commit_error_rate`` must always be 0, which the result line carries as
``failed``/``attempted``. The README maps each per-layer metric to the
end-to-end metric it should move.

A bound is the share of the parent's median by which a metric may get
worse before a change counts as a regression.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

LOWER = "lower"
HIGHER = "higher"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: None for per-layer metrics, which have no bound
    bound: Optional[float] = None


EXTRA: Tuple[Metric, ...] = (
    Metric("restore_p50_ms", "ms", LOWER, 0.25),
    Metric("commit_error_rate", "ratio", LOWER, 0.0),
)


@dataclass(frozen=True)
class Catalog:
    workloads: List[str]
    run_seconds: int
    #: what every workload emits with ``--trace 0`` (BENCHMARK.json's list)
    end_to_end: List[Metric]
    #: what every workload emits with ``--trace 1``
    per_layer: List[Metric]

    def by_name(self) -> Dict[str, Metric]:
        every = self.end_to_end + list(EXTRA) + self.per_layer
        return {metric.name: metric for metric in every}


def load_catalog(path: str = SPEC_PATH) -> Catalog:
    """The workloads and metrics ``BENCHMARK.json`` names."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return Catalog(
        workloads=[entry["name"] for entry in spec["workloads"]],
        run_seconds=spec["run_seconds"],
        end_to_end=[Metric(**entry) for entry in spec["end_to_end"]],
        per_layer=[Metric(**entry) for entry in spec["per_layer"]],
    )


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None at median 0)."""
    mid = median(values)
    if not mid:
        return None
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)

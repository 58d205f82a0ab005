"""Compare two sets of end-to-end benchmark runs: parent against change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent p/*.json --change c/*.json

Each file is one ``run.py --json`` result. Give at least ten runs a side,
made in pairs that alternate which side runs first; the i-th parent file
is paired with the i-th change file. For every (workload, metric) the tool
prints each side's median and quartiles and a verdict:

``gain``
    the change wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than the parent's own
    interquartile distance;
``unresolved``
    either side's interquartile distance, as a share of its median, is
    wider than the metric's bound, and not every change run beats every
    parent run;
``REGRESSION``
    the change's median is worse than the parent's by more than the bound;
``ok``
    none of the above.

Per-layer metrics have no bound; they are printed with verdict ``info``.
The exit code is 1 when any pair is a regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from catalog import LOWER, Metric, load_catalog, median, quartiles, spread

WIN_SHARE = 0.9


def judge(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> str:
    """The verdict for one (workload, metric) pair of run sets."""
    sign = 1.0 if metric.better == LOWER else -1.0
    parent_mid, change_mid = median(parent), median(change)
    if parent_mid:
        worse = sign * (change_mid - parent_mid) / abs(parent_mid)
    else:
        worse = math.inf if sign * change_mid > 0 else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, q3 = quartiles(parent)
    if (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and sign * (change_mid - parent_mid) < 0
        and abs(change_mid - parent_mid) > q3 - q1
    ):
        return "gain"
    if sign > 0:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    wide = any(
        s is not None and s > metric.bound for s in (spread(parent), spread(change))
    )
    if wide and not every_run_better:
        return "unresolved"
    if worse > metric.bound:
        return "REGRESSION"
    return "ok"


def load(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in the order the files were given."""
    found: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for workload, result in report["workloads"].items():
            metrics = dict(result["end_to_end"])
            metrics.update(result.get("per_layer", {}))
            slot = found.setdefault(workload, {})
            for name, value in metrics.items():
                slot.setdefault(name, []).append(value)
    return found


def _describe(values: Sequence[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    parent, change = load(parent_paths), load(change_paths)
    by_name = load_catalog().by_name()
    print(
        f"parent: {len(parent_paths)} result file(s), change: "
        f"{len(change_paths)} result file(s); values are median [q1, q3]"
    )
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[workload]) & set(change[workload])):
            before, after = parent[workload][name], change[workload][name]
            metric = by_name[name]
            if metric.bound is None:
                verdict = "info"
            else:
                verdict = judge(metric, before, after)
            regressions += verdict == "REGRESSION"
            print(
                f"{workload:16s} {name:30s} {metric.unit:6s} "
                f"{_describe(before):32s} -> {_describe(after):32s} {verdict}"
            )
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    for path in list(args.parent) + list(args.change):
        if not os.path.isfile(path):
            print(f"compare.py: no such result file: {path}", file=sys.stderr)
            return 2
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())

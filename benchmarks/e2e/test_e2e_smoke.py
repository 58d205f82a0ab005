"""Smoke test of the end-to-end benchmark at its ``--smoke`` size.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

One traced invocation covers all four workloads: every metric must be
emitted with its unit, every correctness check must pass, every child span
must lie inside its parent, and the layers' self times must add up to the
commit span.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from catalog import EXTRA, LOWER, Metric, load_catalog
from compare import judge
from layers import self_ns
from speed import DESCHEDULED, REFERENCE_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    report = out / "smoke.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--smoke",
            "--trace", "1",
            "--trace-dir", str(out / "trace"),
            "--json", str(report),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    lines = done.stdout.strip().splitlines()
    with open(report, encoding="utf-8") as handle:
        return {
            "lines": lines[:-1],
            "result": json.loads(lines[-1]),
            "report": json.load(handle),
        }


def test_every_metric_is_printed_with_its_unit(smoke, catalog):
    printed = {}
    for line in smoke["lines"]:
        workload, metric, value, unit = line.split(" ")
        float(value)
        printed[(workload, metric)] = unit
    for workload in catalog.workloads:
        for metric in catalog.end_to_end + list(EXTRA):
            if metric.name == "restore_p50_ms" and workload != "long-chain":
                continue
            assert printed[(workload, metric.name)] == metric.unit
        for metric in catalog.per_layer:
            assert printed[(workload, metric.name)] == metric.unit


def test_result_line_holds_every_per_layer_metric(smoke, catalog):
    result = smoke["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in catalog.workloads:
        for metric in catalog.per_layer:
            entry = result["metrics"][f"{workload}.{metric.name}"]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))


def test_correctness_checks_pass(smoke, catalog):
    for workload in catalog.workloads:
        result = smoke["report"]["workloads"][workload]
        assert result["correct"], result["problems"]
        assert result["end_to_end"]["commit_error_rate"] == 0
        for metric in catalog.end_to_end:
            assert result["end_to_end"][metric.name] > 0, metric.name
    restores = smoke["report"]["workloads"]["long-chain"]["raw"][0]["restore_ms"]
    assert restores, "long-chain made no restores"


def _spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_children_lie_inside_parents_and_self_times_add_up(smoke, catalog):
    for workload in catalog.workloads:
        (path,) = smoke["report"]["workloads"][workload]["traces"]
        spans = _spans(path)
        children = defaultdict(list)
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
                children[span["parent"]].append(span)
        commits = [s for s in spans if s["name"] == "session.commit"]
        assert commits
        for commit in commits:
            subtree, total = [commit], 0
            while subtree:
                span = subtree.pop()
                total += self_ns(span, children[span["id"]])
                subtree.extend(children[span["id"]])
            duration = commit["end_ns"] - commit["start_ns"]
            assert abs(total - duration) <= 0.05 * duration


def test_benchmark_json_names_the_harness_workloads(catalog):
    from harness import WORKLOADS

    assert catalog.workloads == list(WORKLOADS)


def test_host_speed_samples_on_a_timer_and_takes_its_own_time_out():
    host = HostSpeed()
    with host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.values) >= 10
    assert 0 < host.work(start, end) < end - start
    # every probe was taken inside the interval; the descheduled ones
    # (over twice the median) are left out of the mean
    limit = statistics.median(host.values) * DESCHEDULED
    kept = [value for value in host.values if value <= limit]
    assert host.factor(start, end) == pytest.approx(
        REFERENCE_S / statistics.fmean(kept)
    )


def test_compare_rules():
    metric = Metric("t", "ms", LOWER, 0.10)
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert judge(metric, parent, [v * 0.8 for v in parent]) == "gain"
    assert judge(metric, parent, [v * 1.2 for v in parent]) == "REGRESSION"
    assert judge(metric, parent, [v * 1.05 for v in parent]) == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(metric, parent, noisy) == "unresolved"

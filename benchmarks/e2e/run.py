"""End-to-end checkpointing benchmark: commit, recover and restore metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json PATH]
        [--smoke]

Each repetition of a workload runs in its own fresh subprocess, one at a
time, with ``PYTHONHASHSEED=0``. ``--seconds`` (default: ``run_seconds``
of ``BENCHMARK.json``) is the only run-length control: a run holds one
repetition per ``REPETITION_S`` seconds, at least one, so the count
depends on the arguments and never on how fast the host happens to be.
Every value is a median over all repetitions and samples; none is dropped.
Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``). The exit code is non-zero when any
recovered or restored root differs from its live digest, when a commit
fails or degrades, or when a traced repetition diverges from its untraced
twin.

``--trace 1`` runs each repetition twice with the same seed, untraced and
then traced through the ``Timed*`` subclasses of ``layers.py``; spans go
to ``--trace-dir`` as JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from catalog import ROOT, Catalog, Metric, load_catalog, median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
DEFAULT_TRACE_DIR = os.path.join(HERE, ".out", "trace")
#: a repetition that runs longer than this is a failure, not a sample
CHILD_TIMEOUT_S = 170

#: an untraced repetition of any workload takes 13-50 s on the 2-vCPU
#: reference VM (README), so a run holds one per 30 seconds
REPETITION_S = 30


def repetitions(seconds: float, smoke: bool) -> int:
    """How many repetitions of a workload one run holds."""
    if smoke:
        return 1
    return max(1, int(seconds // REPETITION_S))


def _repetition_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


# -- child side ---------------------------------------------------------------


def _child(args) -> int:
    from harness import run_repetition

    name = args.workload[0]
    traced = args.trace == 1
    trace_path = None
    if traced:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(
            args.trace_dir, f"{name}-seed{args.seed}-rep{args.rep}.jsonl"
        )
    workdir = os.path.join(
        WORK, f"{name}-{'traced' if traced else 'plain'}-{os.getpid()}"
    )
    result = run_repetition(
        name,
        _repetition_seed(args.seed, args.rep),
        smoke=args.smoke,
        traced=traced,
        workdir=workdir,
        trace_path=trace_path,
    )
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def _spawn(name: str, args, rep: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = SRC
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", name,
        "--seed", str(args.seed),
        "--rep", str(rep),
        "--trace", "1" if traced else "0",
        "--trace-dir", args.trace_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name} repetition {rep} exceeded {CHILD_TIMEOUT_S}s")
    if done.returncode != 0:
        raise ChildFailed(
            f"{name} repetition {rep} exited {done.returncode}:\n"
            + done.stderr[-4000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _identity(plain: dict, traced: dict) -> List[str]:
    """What the timing subclasses changed (must be nothing)."""
    problems = []
    for key in ("commits", "payload_bytes", "epoch_files", "final_digest"):
        if plain[key] != traced[key]:
            problems.append(
                f"traced run changed {key}: {plain[key]!r} -> {traced[key]!r}"
            )
    return problems


def _pooled(reps: List[dict], key: str) -> List[float]:
    return [value for rep in reps for value in rep[key]]


def _end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Medians over every repetition and sample of the run; none is dropped."""
    latencies = _pooled(reps, "latencies_ms")
    restores = _pooled(reps, "restore_ms")
    attempted = sum(rep["commits_attempted"] for rep in reps)
    values = {
        "setup_s": median(_pooled(reps, "setup_s")),
        "commit_p50_ms": median(latencies),
        "commit_p99_ms": percentile(latencies, 99),
        "commits_per_s": median([rep["commits"] / rep["loop_s"] for rep in reps]),
        "recover_s": median(_pooled(reps, "recover_s")),
        "write_amp": median(
            [rep["wchar_bytes"] / rep["payload_bytes"] for rep in reps]
        ),
        "space_amp": median(
            [rep["stored_bytes"] / rep["full_bytes"] for rep in reps]
        ),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "commit_error_rate": (
            sum(rep["commits_failed"] for rep in reps) / attempted
            if attempted
            else 0.0
        ),
    }
    if restores:
        values["restore_p50_ms"] = median(restores)
    return values


def _per_layer(pairs: List[tuple]) -> Dict[str, float]:
    traced = [t for _p, t in pairs]
    values = {
        name: median([rep["layers"][name] for rep in traced])
        for name in traced[0]["layers"]
    }
    plain_rate = median([p["commits"] / p["loop_s"] for p, _t in pairs])
    traced_rate = median([t["commits"] / t["loop_s"] for _p, t in pairs])
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    return values


def run_workload(name: str, args) -> dict:
    """All repetitions of one workload, aggregated."""
    traced = args.trace == 1
    count = repetitions(args.seconds, args.smoke)
    reps: List[dict] = []
    pairs: List[tuple] = []
    problems: List[str] = []
    for index in range(count):
        plain = _spawn(name, args, index, traced=False)
        reps.append(plain)
        if traced:
            twin = _spawn(name, args, index, traced=True)
            pairs.append((plain, twin))
            problems.extend(_identity(plain, twin))
            problems.extend(twin["problems"])
        problems.extend(plain["problems"])
    result = {
        "repetitions": count,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
        "end_to_end": _end_to_end(reps),
        "raw": reps,
    }
    if traced:
        result["per_layer"] = _per_layer(pairs)
        result["traces"] = [t["trace_path"] for _p, t in pairs]
    result["correct"] = (
        not problems and result["end_to_end"]["commit_error_rate"] == 0
    )
    return result


def _print_lines(name: str, result: dict, by_name: Dict[str, Metric]) -> None:
    values = dict(result["end_to_end"])
    values.update(result.get("per_layer", {}))
    for metric, value in values.items():
        print(f"{name} {metric} {value!r} {by_name[metric].unit}")
    for problem in result["problems"]:
        print(f"{name} PROBLEM {problem}", file=sys.stderr)


def _result_line(
    results: Dict[str, dict], traced: bool, catalog: Catalog
) -> dict:
    single = len(results) == 1
    chosen = catalog.per_layer if traced else catalog.end_to_end
    metrics = {}
    for name, result in results.items():
        values = result["per_layer" if traced else "end_to_end"]
        for metric in chosen:
            key = metric.name if single else f"{name}.{metric.name}"
            metrics[key] = {"value": values[metric.name], "unit": metric.unit}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def _parse(argv: Optional[List[str]], catalog: Catalog):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=catalog.workloads,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(catalog.run_seconds),
        help="measure for about this long per workload "
        "(default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=DEFAULT_TRACE_DIR)
    parser.add_argument("--json", help="write every result to this file")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes and one repetition (all four in ~15 s)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.workload:
        args.workload = list(catalog.workloads)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    catalog = load_catalog()
    args = _parse(argv, catalog)
    if args.child:
        return _child(args)
    # SIGTERM becomes SystemExit, so subprocess.run kills the running
    # repetition before this process ends
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    results: Dict[str, dict] = {}
    try:
        for name in args.workload:
            results[name] = run_workload(name, args)
            _print_lines(name, results[name], catalog.by_name())
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": args.seed,
                    "trace": args.trace,
                    "smoke": args.smoke,
                    "workloads": results,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
    line = _result_line(results, args.trace == 1, catalog)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

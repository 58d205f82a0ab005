"""One command-line driver for the race and alias analyses.

``python -m repro.spec.effects.concurrency`` and ``python -m
repro.spec.effects.aliasing`` differ only in what each declares as an
:class:`AnalysisPass`; :func:`main` is the rest of both commands.

Static mode (the default)::

    python -m repro.spec.effects.<pass> [PATHS] [--format json]

analyzes the given files/directories (default ``src/repro``) as one
program and prints the findings plus the pass's table. Exit status 1
when any error-severity finding is present, 2 on usage errors — the
same contract as ``python -m repro.lint``.

Crosscheck mode::

    python -m repro.spec.effects.<pass> --crosscheck [--seed N]

validates **static ⊇ dynamic**. It generates the pass's seeded fixture
programs (``tools/make_*_fixture.py``), analyzes each one and runs each
runnable one under the dynamic checker, then runs the pass's runtime
workloads with the runtime classes woven (``weave_runtime``) and
compares them with the static keys of ``PATHS``. A row fails with
``STATIC-MISS`` when the static pass does not report the rule its
fixture was seeded with, and with ``DYNAMIC-ONLY`` when the checker
observed a key the pass's escape rule does not excuse: the analysis
has a false negative and the command exits 1. (The reverse gap —
static findings no workload trips — is expected over-approximation.)

:func:`load_module` is also how the phase crosscheck
(:mod:`repro.spec.effects.crosscheck`) loads its generated phase files.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.lint.findings import exit_code, relativize_findings
from repro.spec.effects.suppress import relativize_sites


def load_module(path: Path, name: str) -> ModuleType:
    """Execute the file at ``path`` as a new module named ``name``.

    The module stays out of ``sys.modules``. Checkpointable classes
    register under ``name``, so a caller that loads the same file twice
    in one process gives each load its own name.
    """
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reported_rules(report) -> Set[str]:
    """Rule codes the static pass reported (info excluded: not verdicts)."""
    return {
        f.code for f in report.findings if f.severity in ("error", "warning")
    }


def relativize_report(report) -> None:
    """Rewrite the report's finding and suppression paths cwd-relative."""
    relativize_findings(report.findings)
    relativize_sites(report.suppressed)


@dataclass(frozen=True)
class AnalysisPass:
    """What one analysis declares to get its command line."""

    #: the package under ``repro.spec.effects``; it names the command
    name: str
    description: str
    #: files/directories -> the report (``findings``, ``suppressed``)
    analyze_paths: Callable[[List[str]], Any]
    #: (report, show the table) -> human output
    render_human: Callable[[Any, bool], str]
    render_json: Callable[[Any], str]
    #: the flag that hides the table from human output, and its help
    hide_flag: str
    hide_help: str
    #: the fixture generator in ``tools/``: ``generate(dir, seed)``
    fixture_tool: str
    #: (fixture module, sanitizer) -> the oracle it attached, or None
    #: when the sanitizer judges; weaves what it needs and runs
    run_fixture: Callable[[ModuleType, Any], Any]
    #: report -> the keys dynamic violations are judged against
    static_keys: Callable[[Any], Set]
    #: (static keys, dynamic keys, seeded rule or None) -> the dynamic
    #: keys no static verdict covers
    escaped: Callable[[Set, Set, Optional[str]], Set]
    #: () -> [(name, workload)]; a workload returns its oracle, or None
    runtime_workloads: Callable[[], List[Tuple[str, Callable[[], Any]]]]
    #: why an escaped key is a hole, and what the summary counts
    escape_note: str
    failure_noun: str
    relativize: Callable[[Any], None] = relativize_report


def _fixture_tool(name: str) -> Optional[Path]:
    """``tools/<name>`` of the source checkout this module runs from."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "tools" / name).is_file():
            return parent / "tools" / name
    return None


def _observe(run: Callable[[Any], Any], runtime: bool = False) -> Set:
    """The violation keys seen while ``run(sanitizer)`` executes."""
    from repro.sanitize import Sanitizer, unweave_all, weave_runtime

    sanitizer = Sanitizer()
    try:
        if runtime:
            weave_runtime(sanitizer)
        observer = run(sanitizer)
    finally:
        unweave_all()
    return (sanitizer if observer is None else observer).violation_keys()


def crosscheck(spec: AnalysisPass, seed: int, src_static: Set) -> int:
    """Judge every fixture and runtime workload; the exit status.

    ``src_static`` holds the static keys of the analyzed paths, which
    the runtime workloads are judged against.
    """
    failures = 0
    workloads = 0

    def judge(workload, static, dynamic, rule=None, reported=()):
        nonlocal failures, workloads
        workloads += 1
        missed = rule if rule is not None and rule not in reported else None
        escaped = spec.escaped(static, dynamic, rule)
        verdict = "STATIC-MISS" if missed else (
            "DYNAMIC-ONLY" if escaped else "ok"
        )
        print(
            f"{workload}: static={len(static)} "
            f"dynamic={len(dynamic)} -> {verdict}"
        )
        if missed:
            failures += 1
            print(
                f"  seeded rule never reported: {missed} "
                "(the analysis missed the planted bug)"
            )
        for cls, field in sorted(escaped):
            failures += 1
            print(
                f"  escaped the static analysis: {cls}.{field} "
                f"({spec.escape_note})"
            )

    tool = _fixture_tool(spec.fixture_tool)
    if tool is None:
        print(
            f"crosscheck: tools/{spec.fixture_tool} not found "
            "(not a source checkout); skipping fixture workloads"
        )
    else:
        generator = load_module(tool, tool.stem)
        with tempfile.TemporaryDirectory(prefix=f"{spec.name}_") as tmp:
            for entry in generator.generate(tmp, seed=seed):
                path = Path(tmp) / entry["file"]
                report = spec.analyze_paths([str(path)])
                dynamic: Set = set()
                if entry["runnable"]:
                    # the directory name makes the module name unique
                    # to this run, so a second run in one process does
                    # not register the fixture's classes twice
                    name = f"{Path(tmp).name}_{path.stem}"
                    module = load_module(path, name)
                    dynamic = _observe(
                        lambda sanitizer: spec.run_fixture(module, sanitizer)
                    )
                judge(
                    f"fixture:{path.stem}",
                    spec.static_keys(report),
                    dynamic,
                    entry["rule"],
                    reported_rules(report),
                )

    for name, workload in spec.runtime_workloads():
        judge(name, src_static, _observe(lambda _: workload(), runtime=True))
    print(
        f"crosscheck: {workloads} workload(s), "
        f"{failures} {spec.failure_noun} "
        f"({'static ⊇ dynamic holds' if not failures else 'SOUNDNESS HOLE'})"
    )
    return 1 if failures else 0


def main(spec: AnalysisPass, argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run ``spec`` in static or crosscheck mode."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.spec.effects.{spec.name}",
        description=spec.description,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    parser.add_argument(
        spec.hide_flag, dest="hide", action="store_true", help=spec.hide_help
    )
    parser.add_argument(
        "--crosscheck",
        action="store_true",
        help="run the seeded fixtures and runtime workloads under the "
        "dynamic checker and require static ⊇ dynamic",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fixture-generation seed for --crosscheck",
    )
    args = parser.parse_args(argv)

    try:
        report = spec.analyze_paths(args.paths or ["src/repro"])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.crosscheck:
        return crosscheck(spec, args.seed, spec.static_keys(report))
    spec.relativize(report)
    if args.format == "json":
        print(spec.render_json(report))
    else:
        print(spec.render_human(report, not args.hide))
    return exit_code(report.findings)

"""Snapshot of the effect, phase and alias reports over inputs that do not move.

The effect and alias passes run on one abstract interpreter core; this
test pins what both passes report on code whose line numbers are
stable, so a refactor of the core shows up as a diff here:

- every ``LINT_TARGETS`` entry (effect report) and ``LINT_PROGRAMS``
  entry (phase report) in ``examples/`` and ``tests/lint/fixtures/``:
  may-write paths with each site's ``file:line`` and reason, fallbacks,
  cautions and call edges;
- the alias reports over ``examples/``, ``tests/lint/fixtures/`` and the
  seed-0 output of ``tools/make_alias_fixture.py``: findings, escape
  sites and suppressed sites.

Paths are repo-relative (fixture-relative for the generated fixture).
After a deliberate change of what the analyses report, regenerate the
snapshot with ``PYTHONPATH=src python tests/spec/test_analysis_snapshot.py``
and review the diff.
"""

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "analysis_reports.json"

#: files declaring LINT_TARGETS / LINT_PROGRAMS, and the alias inputs
LINT_FILES = [
    "examples/static_autospec.py",
    "tests/lint/fixtures/overwide_pattern.py",
    "tests/lint/fixtures/program_clean.py",
    "tests/lint/fixtures/program_violations.py",
    "tests/lint/fixtures/unsound_pattern.py",
]
ALIAS_DIRS = ["examples", "tests/lint/fixtures"]


class _Paths:
    """Rewrites absolute file names and loaded module names for the pin."""

    def __init__(self, base: Path) -> None:
        self.base = base.resolve()
        self.modules = {}

    def file(self, filename) -> str:
        if not filename:
            return str(filename)
        try:
            return Path(filename).resolve().relative_to(self.base).as_posix()
        except ValueError:
            return str(filename)

    def label(self, label: str) -> str:
        for module, relative in self.modules.items():
            if label == module or label.startswith(module + "."):
                return relative + label[len(module):]
        return label

    def site(self, site) -> str:
        return f"{self.file(site.filename)}:{site.lineno}: {site.reason}"


def _effects(report, paths: _Paths) -> dict:
    return {
        "may_write": {
            repr(path): [paths.site(site) for site in report.sites[path]]
            for path in sorted(report.sites, key=repr)
        },
        "fallbacks": [paths.site(site) for site in report.fallbacks],
        "cautions": [paths.site(site) for site in report.cautions],
    }


def _edges(graph, paths: _Paths) -> list:
    return [
        f"{paths.label(edge.caller)} -> {paths.label(edge.callee)} @ "
        f"{paths.file(edge.filename)}:{edge.lineno}"
        + ("" if edge.resolved else f" unresolved: {edge.reason}")
        for edge in graph.edges
    ]


def _alias(report, paths: _Paths) -> dict:
    from repro.lint.findings import sort_findings

    return {
        "findings": [
            f"{f.severity} {f.code} {paths.file(f.filename)}:{f.lineno}: "
            f"{f.message}"
            for f in sort_findings(report.findings)
        ],
        "escapes": [
            f"{site.kind} {paths.file(site.filename)}:{site.lineno}: "
            f"{site.what}"
            for site in report.escapes
        ],
        "suppressed": [
            f"{paths.file(site.filename)}:{site.lineno}: {site.what} "
            f"(alias-ok: {site.reason})"
            for site in report.suppressed
        ],
    }


def build_snapshot() -> dict:
    from repro.lint.cli import import_file
    from repro.lint.targets import programs_of, targets_of
    from repro.spec.effects.aliasing import analyze_paths
    from repro.spec.effects.analysis import analyze_effects
    from repro.spec.effects.callgraph import CallGraph
    from repro.spec.effects.cli import load_module
    from repro.spec.effects.wholeprogram import infer_phases

    paths = _Paths(REPO)
    modules = []
    for relative in LINT_FILES:
        module = import_file(REPO / relative)
        paths.modules[module.__name__] = relative
        modules.append((relative, module))

    effects, programs = {}, {}
    for relative, module in modules:
        for target in targets_of(module):
            graph = CallGraph()
            report = analyze_effects(
                target.shape, target.phases, roots=target.roots,
                callgraph=graph,
            )
            entry = _effects(report, paths)
            entry["edges"] = _edges(graph, paths)
            effects[f"{relative}::{target.name}"] = entry
        for program in programs_of(module):
            graph = CallGraph()
            report = infer_phases(
                program.shape, program.driver, roots=program.roots,
                session_params=program.session_params, callgraph=graph,
            )
            phases = {}
            for phase in report.phases:
                phases[phase.name] = _effects(phase.report, paths)
                phases[phase.name]["kind"] = phase.kind
            programs[f"{relative}::{program.name}"] = {
                "commit_sites": [
                    f"{site.method} {site.phase} "
                    f"{paths.file(site.filename)}:{site.lineno}"
                    for site in report.commit_sites
                ],
                "phases": phases,
                "bindable": {
                    label: _effects(phase.report, paths)
                    for label, phase in sorted(report.bindable().items())
                },
                "edges": _edges(graph, paths),
            }

    aliases = {
        relative: _alias(analyze_paths([str(REPO / relative)]), paths)
        for relative in ALIAS_DIRS
    }
    tool = load_module(
        REPO / "tools" / "make_alias_fixture.py", "snapshot_alias_fixture"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tool.generate(Path(tmp), seed=0)
        aliases["make_alias_fixture --seed 0"] = _alias(
            analyze_paths([tmp]), _Paths(Path(tmp))
        )
    return {"effects": effects, "programs": programs, "aliases": aliases}


def test_reports_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(build_snapshot()))
    for section in ("effects", "programs", "aliases"):
        assert sorted(actual[section]) == sorted(expected[section])
        for name in expected[section]:
            assert actual[section][name] == expected[section][name], name


if __name__ == "__main__":
    sys.path.insert(0, str(REPO))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(
        json.dumps(build_snapshot(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {SNAPSHOT.relative_to(REPO)}")

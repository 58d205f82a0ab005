"""CLI for the escape/alias analysis and its dynamic crosscheck.

Static mode (the default)::

    python -m repro.spec.effects.aliasing src/repro [--format json]

analyzes the given files/directories and prints the alias findings
(writes that bypass the modified flag, subtrees attached under two
recorded roots, references escaping the recorded graph, thread
captures) plus the escape sites.

Crosscheck mode::

    python -m repro.spec.effects.aliasing --crosscheck

validates **static ⊇ dynamic**: it generates the seeded aliasing-bug
fixture programs (``tools/make_alias_fixture.py``), runs each runnable
fixture's workload with a shadow-heap dirtiness oracle
(:class:`~repro.sanitize.oracle.ShadowHeapOracle`) attached to the
session, and also drives the real runtime — the analysis engine, the
synthetic benchmark population, and a commit/restore session cycle —
woven (``weave_runtime``) and oracle-checked. A fixture's unflagged
mutations are predicted when the static pass reported the fixture's
seeded rule; the runtime discipline is supposed to be airtight, so any
unflagged mutation in a runtime workload is a soundness escape outright.

The argument parser, the exit codes and the crosscheck loop are the
shared driver's (:mod:`repro.spec.effects.cli`); this module declares
only what is particular to the alias pass.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.lint.findings import count_by_severity, sort_findings
from repro.spec.effects import cli
from repro.spec.effects.aliasing import analyze_paths
from repro.spec.effects.aliasing.escape import AliasReport
from repro.spec.effects.suppress import relativize_sites


def _render_human(report: AliasReport, show_escapes: bool) -> str:
    lines: List[str] = [
        finding.format_human() for finding in sort_findings(report.findings)
    ]
    counts = count_by_severity(report.findings)
    summary = ", ".join(
        f"{n} {sev}(s)" for sev, n in sorted(counts.items()) if n
    )
    lines.append(
        f"aliasing: {summary or 'no findings'} "
        f"({report.modules} module(s), "
        f"{report.cache_hits} summary cache hit(s))"
    )
    if report.suppressed:
        lines.append(f"{len(report.suppressed)} suppressed site(s):")
        for site in report.suppressed:
            lines.append(
                f"  {site.filename}:{site.lineno}: {site.what}"
                f" (alias-ok: {site.reason})"
            )
    if show_escapes and report.escapes:
        lines.append("escape sites:")
        for site in report.escapes:
            lines.append(
                f"  {site.filename}:{site.lineno}: {site.kind} ({site.what})"
            )
    return "\n".join(lines)


def _render_json(report: AliasReport) -> str:
    # one schema across every lint pass: Finding.to_dict() records plus
    # the shared severity counts (repro.lint renders the same shape)
    payload = {
        "findings": [f.to_dict() for f in sort_findings(report.findings)],
        "escapes": [site.to_dict() for site in report.escapes],
        "suppressed": [site.to_dict() for site in report.suppressed],
        "counts": count_by_severity(report.findings),
        "modules": report.modules,
        "summary_cache": {
            "hits": report.cache_hits,
            "misses": report.cache_misses,
        },
    }
    return json.dumps(payload, indent=2, default=list)


def _relativize(report: AliasReport) -> None:
    cli.relativize_report(report)
    relativize_sites(report.escapes)


# -- crosscheck -----------------------------------------------------------


def _run_fixture(module, sanitizer):
    """Run the fixture's session with the runtime woven; its oracle."""
    from repro.sanitize import weave_runtime

    weave_runtime(sanitizer)
    return module.run()


def _runtime_workloads() -> List[Tuple[str, "callable"]]:
    """Honest runtime workloads — the oracle must observe zero
    unflagged mutations on any of them."""

    def engine():
        from repro.analysis.engine import AnalysisEngine
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.spec.effects.crosscheck import _ENGINE_SOURCE

        machine = AnalysisEngine(_ENGINE_SOURCE, strategy="incremental")
        oracle = ShadowHeapOracle()
        machine.session.attach_oracle(oracle)
        machine.run()
        machine.session.close()
        return oracle

    def synthetic():
        from repro.runtime.session import CheckpointSession
        from repro.runtime.sink import BufferSink
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.synthetic.runner import (
            SyntheticConfig,
            SyntheticWorkload,
            variant_strategy,
        )
        from repro.synthetic.structures import element_at, value_field_name

        workload = SyntheticWorkload(
            SyntheticConfig(
                num_structures=8,
                num_lists=2,
                list_length=3,
                percent_modified=0.5,
                seed=11,
            )
        )
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=workload.structures,
            strategy=variant_strategy(workload, "incremental"),
            sink=BufferSink(),
        )
        session.attach_oracle(oracle)
        session.base()
        field = value_field_name(0)
        for compound in workload.structures:
            element = element_at(compound, 0, 0)
            setattr(element, field, getattr(element, field) + 1)
        session.commit(phase="mutate")
        session.close()
        return oracle

    def session_cycle():
        from repro.runtime.session import CheckpointSession
        from repro.runtime.sink import BufferSink
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.synthetic.structures import (
            build_structures,
            element_at,
            value_field_name,
        )

        roots = build_structures(4, 2, 3, 1)
        oracle = ShadowHeapOracle()
        session = CheckpointSession(roots=roots, sink=BufferSink())
        session.attach_oracle(oracle)
        session.base()
        field = value_field_name(0)
        for compound in roots:
            element = element_at(compound, 0, 1)
            setattr(element, field, getattr(element, field) + 5)
        session.measure(phase="mutate")
        session.commit(phase="mutate")
        # restore rebinds the session's roots to the restored objects;
        # follow the table so later mutations hit the live graph
        table = session.restore(0)
        roots = [table.get(r._ckpt_info.object_id) for r in roots]
        for compound in roots:
            element = element_at(compound, 1, 0)
            setattr(element, field, getattr(element, field) + 7)
        session.commit(phase="after-restore")
        session.close()
        return oracle

    return [
        ("runtime:engine", engine),
        ("runtime:synthetic", synthetic),
        ("runtime:session-cycle", session_cycle),
    ]


ALIASES = cli.AnalysisPass(
    name="aliasing",
    description="static escape/alias analysis (and its dynamic crosscheck)",
    analyze_paths=analyze_paths,
    render_human=_render_human,
    render_json=_render_json,
    hide_flag="--no-escapes",
    hide_help="omit the escape-site list from human output",
    fixture_tool="make_alias_fixture.py",
    run_fixture=_run_fixture,
    static_keys=cli.reported_rules,
    # a reported seeded rule predicts its fixture's mutations; with no
    # seeded rule (a runtime workload) every mutation escapes
    escaped=lambda static, dynamic, rule: set() if rule in static else dynamic,
    runtime_workloads=_runtime_workloads,
    escape_note="unflagged mutation observed, never flagged statically",
    failure_noun="soundness hole(s)",
    relativize=_relativize,
)


def main(argv: Optional[List[str]] = None) -> int:
    return cli.main(ALIASES, argv)


if __name__ == "__main__":
    raise SystemExit(main())

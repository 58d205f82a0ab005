"""CLI for the static lockset analysis and its dynamic crosscheck.

Static mode (the default)::

    python -m repro.spec.effects.concurrency src/repro [--format json]

analyzes the given files/directories as one program and prints the
findings plus the proven guard table (which lock protects which field).

Crosscheck mode::

    python -m repro.spec.effects.concurrency --crosscheck

validates **static ⊇ dynamic**: it generates the seeded racy fixture
programs (``tools/make_race_fixture.py``), runs each runnable fixture's
threaded workload with its classes woven into the dynamic lockset
sanitizer (:mod:`repro.sanitize`), and also drives the real runtime —
store drain, ``flush()``/``close()`` racing ``append()``, concurrent
session commits, id allocation — with the runtime classes woven. A
sanitizer violation whose ``(class, field)`` key the static pass did
not flag is a false negative.

The argument parser, the exit codes and the crosscheck loop are the
shared driver's (:mod:`repro.spec.effects.cli`); this module declares
only what is particular to the race pass.
"""

from __future__ import annotations

import json
import threading
from typing import List, Optional, Set, Tuple

from repro.lint.findings import count_by_severity, sort_findings
from repro.spec.effects import cli
from repro.spec.effects.concurrency import analyze_paths
from repro.spec.effects.concurrency.locks import ConcurrencyReport


def _render_human(report: ConcurrencyReport, show_guards: bool) -> str:
    lines: List[str] = [
        finding.format_human() for finding in sort_findings(report.findings)
    ]
    counts = count_by_severity(report.findings)
    summary = ", ".join(
        f"{n} {sev}(s)" for sev, n in sorted(counts.items()) if n
    )
    lines.append(f"concurrency: {summary or 'no findings'}")
    if report.suppressed:
        lines.append(f"{len(report.suppressed)} suppressed site(s):")
        for site in report.suppressed:
            lines.append(
                f"  {site.filename}:{site.lineno}: {site.what}"
                f" (race-ok: {site.reason})"
            )
    if show_guards:
        lines.append("guard table:")
        for guard in report.guards:
            locks = ", ".join(sorted(guard.locks)) or "-"
            lines.append(
                f"  {guard.owner}.{guard.field}: {guard.status} [{locks}]"
            )
        if report.order_edges:
            lines.append("lock order (held -> acquired):")
            for edge in sorted(
                {(e.held, e.acquired) for e in report.order_edges}
            ):
                lines.append(f"  {edge[0]} -> {edge[1]}")
    return "\n".join(lines)


def _render_json(report: ConcurrencyReport) -> str:
    # one schema across every lint pass: Finding.to_dict() records plus
    # the shared severity counts (repro.lint renders the same shape)
    payload = {
        "findings": [f.to_dict() for f in sort_findings(report.findings)],
        "guards": [
            {
                "class": g.owner,
                "field": g.field,
                "status": g.status,
                "locks": sorted(g.locks),
            }
            for g in report.guards
        ],
        "order_edges": sorted(
            {(e.held, e.acquired) for e in report.order_edges}
        ),
        "cycles": report.cycles,
        "suppressed": [
            {
                "filename": s.filename,
                "lineno": s.lineno,
                "reason": s.reason,
                "what": s.what,
            }
            for s in report.suppressed
        ],
        "counts": count_by_severity(report.findings),
    }
    return json.dumps(payload, indent=2, default=list)


# -- crosscheck -----------------------------------------------------------


def _static_keys(report: ConcurrencyReport) -> Set[Tuple[str, str]]:
    """Static verdict keys comparable with ``Sanitizer.violation_keys()``."""
    keys = set(report.unguarded_fields())
    for finding in report.findings:
        if finding.code == "lock-order-inversion" and finding.target:
            keys.add((finding.target, "<lock-order>"))
    return keys


def _run_fixture(module, sanitizer) -> None:
    """Weave the fixture's own classes and run its threads."""
    from repro.sanitize import weave

    for obj in list(vars(module).values()):
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            weave(obj, sanitizer)
    module.run()


def _runtime_workloads() -> List[Tuple[str, "callable"]]:
    """Named threaded workloads over the real runtime classes."""

    def store_drain_flush_close():
        from repro.core.storage import FULL, INCREMENTAL, BackgroundWriter, MemoryStore

        writer = BackgroundWriter(MemoryStore())
        barrier = threading.Barrier(4)

        def committer(payload: bytes):
            barrier.wait()
            for _ in range(50):
                try:
                    writer.append(INCREMENTAL, payload)
                except Exception:
                    return  # closed under us: the race being probed

        threads = [
            threading.Thread(target=committer, args=(bytes([i]) * 8,))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        writer.append(FULL, b"base")
        writer.flush()
        for t in threads:
            t.join()
        writer.close()

    def concurrent_session_commits():
        from repro.core.storage import INCREMENTAL, MemoryStore
        from repro.runtime.session import CheckpointSession

        session = CheckpointSession(sink=MemoryStore())
        barrier = threading.Barrier(4)

        def committer(tag: int):
            barrier.wait()
            for i in range(25):
                session.commit_bytes(INCREMENTAL, bytes([tag, i % 251]))

        threads = [
            threading.Thread(target=committer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        session.close()

    def id_allocation():
        from repro.core.ids import IdAllocator

        allocator = IdAllocator()
        barrier = threading.Barrier(4)

        def allocate():
            barrier.wait()
            for _ in range(200):
                allocator.allocate()
                allocator.last_allocated

        threads = [threading.Thread(target=allocate) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    return [
        ("runtime:store-drain-flush-close", store_drain_flush_close),
        ("runtime:concurrent-session-commits", concurrent_session_commits),
        ("runtime:id-allocation", id_allocation),
    ]


RACES = cli.AnalysisPass(
    name="concurrency",
    description="static lockset/race analysis (and its dynamic crosscheck)",
    analyze_paths=analyze_paths,
    render_human=_render_human,
    render_json=_render_json,
    hide_flag="--no-guards",
    hide_help="omit the guard table from human output",
    fixture_tool="make_race_fixture.py",
    run_fixture=_run_fixture,
    static_keys=_static_keys,
    escaped=lambda static, dynamic, rule: dynamic - static,
    runtime_workloads=_runtime_workloads,
    escape_note="observed at runtime, never flagged statically",
    failure_noun="dynamic-only violation(s)",
)


def main(argv: Optional[List[str]] = None) -> int:
    return cli.main(RACES, argv)


if __name__ == "__main__":
    raise SystemExit(main())

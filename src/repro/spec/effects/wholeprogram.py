"""Whole-program phase inference: from driver source to ModificationPatterns.

The single-phase analysis asks "what may *this function* modify?". This
module asks the paper's real question: *where does the program checkpoint,
and what can it modify between consecutive checkpoints?* Given a driver
function that owns a :class:`~repro.runtime.session.CheckpointSession`, it

1. discovers the **commit sites** statically — every
   ``session.commit(...)`` / ``session.base(...)`` call in the driver's
   AST, including sessions constructed locally or entered via ``with``,
   with the constant ``phase=`` label when one is given;
2. segments the driver body into **inter-commit regions** (each region is
   the statements since the previous commit-bearing statement, up to and
   including its own commits; statements after the last commit form the
   epilogue region);
3. runs the modification-effect analysis over each region *in program
   order*, with one abstract environment flowing across all regions to a
   fixpoint — so aliases established before one commit correctly widen
   the effects of later regions;
4. emits one :class:`InferredPhase` per region: a proven
   :class:`~repro.spec.modpattern.ModificationPattern`, the provenance
   trail (which write sites forced each dynamic position, where precision
   fell back to whole-subtree widening), and a compilable unguarded
   :class:`~repro.spec.specclass.SpecClass`.

Session method calls are *not* effects on checkpointed state: committing
reads and clears modification flags but never dirties a position, so the
analyzer treats calls through a known session name as no-ops instead of
opaque escapes. Everything else keeps the conservative semantics of
:mod:`repro.spec.effects.analysis`.

The result plugs into the runtime
(:meth:`~repro.runtime.session.CheckpointSession.bind_program` binds each
labeled phase to an ``inferred``-tier strategy) and into the linter
(``LINT_PROGRAMS`` declarations are checked with the rules
``escape-to-unknown`` and ``commit-outside-phase``).
"""

from __future__ import annotations

import ast
import types
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.errors import EffectAnalysisError
from repro.spec.effects.analysis import (
    EMPTY,
    EffectAnalyzer,
    EffectReport,
    _label_of,
)
from repro.spec.effects.callgraph import CallGraph, SummaryCache
from repro.spec.effects.interp import Frame
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape

#: CheckpointSession methods — reading/clearing flags, never dirtying state
_SESSION_METHODS = frozenset(
    {
        "base", "commit", "measure", "commit_bytes", "bind", "bind_inferred",
        "bind_program", "bound", "unbind", "strategy_for", "roots", "compact",
        "recover", "flush", "close",
    }
)

#: default driver parameter names recognised as the session
DEFAULT_SESSION_PARAMS = ("session",)


class CommitSite:
    """One statically discovered ``session.commit()``/``session.base()``."""

    __slots__ = ("method", "phase", "filename", "lineno", "receiver")

    def __init__(
        self,
        method: str,
        phase: Optional[str],
        filename: str,
        lineno: int,
        receiver: str,
    ) -> None:
        #: ``"commit"`` or ``"base"``
        self.method = method
        #: the constant ``phase=`` label, when one was given
        self.phase = phase
        self.filename = filename
        self.lineno = lineno
        #: the session variable the call went through
        self.receiver = receiver

    @property
    def labeled(self) -> bool:
        return self.phase is not None

    def location(self) -> str:
        return f"{self.filename}:{self.lineno}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" phase={self.phase!r}" if self.phase is not None else ""
        return f"CommitSite({self.receiver}.{self.method}(){label} @ {self.location()})"


class PhaseRegion:
    """A run of driver statements ending at (and including) its commits."""

    __slots__ = ("name", "kind", "stmts", "sites", "start_line", "end_line")

    def __init__(
        self,
        name: str,
        kind: str,
        stmts: List[ast.stmt],
        sites: List[CommitSite],
    ) -> None:
        self.name = name
        #: ``"interval"`` (ends at labeled commits), ``"unlabeled"``
        #: (ends at a commit without a phase label), ``"base"`` (only
        #: base() sites), or ``"epilogue"`` (after the last commit)
        self.kind = kind
        self.stmts = stmts
        self.sites = sites
        self.start_line = min((s.lineno for s in stmts), default=0)
        self.end_line = max((getattr(s, "end_lineno", s.lineno) for s in stmts),
                            default=0)

    def labels(self) -> List[str]:
        seen: List[str] = []
        for site in self.sites:
            if site.method == "commit" and site.phase is not None:
                if site.phase not in seen:
                    seen.append(site.phase)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseRegion({self.name!r}, {self.kind}, "
            f"lines {self.start_line}-{self.end_line})"
        )


class InferredPhase:
    """One inter-commit region with its proven modification pattern."""

    def __init__(
        self,
        region: PhaseRegion,
        report: EffectReport,
        shape: Shape,
    ) -> None:
        self.region = region
        self.report = report
        self.shape = shape
        self.pattern: ModificationPattern = report.pattern()

    @property
    def name(self) -> str:
        return self.region.name

    @property
    def kind(self) -> str:
        return self.region.kind

    @property
    def exact(self) -> bool:
        """True when no opaque call widened this region's pattern."""
        return self.report.is_exact()

    def spec(self, name: Optional[str] = None):
        """A compilable unguarded declaration for this phase's pattern."""
        from repro.spec.specclass import SpecClass

        return SpecClass.from_report(
            self.report, name=name or _spec_name(self.name)
        )

    def provenance(self) -> List[str]:
        """The trail: what forced each dynamic position, what lost precision."""
        lines: List[str] = []
        for path in sorted(self.report.may_write, key=repr):
            sites = self.report.evidence(path)
            first = sites[0]
            extra = f" (+{len(sites) - 1} more site(s))" if len(sites) > 1 else ""
            lines.append(
                f"{path!r} forced by {first.reason} at {first.location()}{extra}"
            )
        for site in self.report.fallbacks:
            lines.append(
                f"precision lost at {site.location()}: {site.reason} "
                "(whole escaping subtree widened)"
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferredPhase({self.name!r}, "
            f"{len(self.report.may_write)}/{self.shape.node_count()} dynamic, "
            f"exact={self.exact})"
        )


class WholeProgramReport:
    """Everything phase inference learned about one driver."""

    def __init__(
        self,
        driver_name: str,
        shape: Shape,
        phases: List[InferredPhase],
        commit_sites: List[CommitSite],
        callgraph: CallGraph,
        summaries: SummaryCache,
    ) -> None:
        self.driver_name = driver_name
        self.shape = shape
        #: one entry per region, in program order
        self.phases = phases
        #: every discovered commit/base site, in program order
        self.commit_sites = commit_sites
        self.callgraph = callgraph
        self.summaries = summaries

    def phase(self, name: str) -> InferredPhase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise EffectAnalysisError(
            f"driver {self.driver_name!r} has no inferred phase {name!r}; "
            f"inferred: {', '.join(p.name for p in self.phases)}"
        )

    def bindable(self) -> Dict[str, InferredPhase]:
        """Labeled phases a session can bind strategies for, by label.

        A label committed from several regions (e.g. the same
        ``commit(phase="hot")`` in two places) gets one merged phase whose
        pattern covers every contributing region — a per-phase strategy
        must be sound for every commit carrying its label.
        """
        grouped: Dict[str, List[InferredPhase]] = {}
        for phase in self.phases:
            if phase.kind != "interval":
                continue
            for label in phase.region.labels():
                grouped.setdefault(label, []).append(phase)
        out: Dict[str, InferredPhase] = {}
        for label, phases in grouped.items():
            if len(phases) == 1 and phases[0].name == label:
                out[label] = phases[0]
            else:
                out[label] = _merge_phases(self.shape, label, phases)
        return out

    def unlabeled_commits(self) -> List[CommitSite]:
        return [
            s for s in self.commit_sites
            if s.method == "commit" and not s.labeled
        ]

    def describe(self) -> List[str]:
        lines = [
            f"driver {self.driver_name}: {len(self.commit_sites)} commit "
            f"site(s), {len(self.phases)} region(s)"
        ]
        for phase in self.phases:
            lines.append(
                f"  [{phase.kind}] {phase.name}: "
                f"{len(phase.report.may_write)}/{self.shape.node_count()} "
                f"position(s) dynamic, exact={phase.exact}"
            )
            for entry in phase.provenance():
                lines.append(f"    {entry}")
        unresolved = self.callgraph.unresolved()
        if unresolved:
            lines.append(f"  {len(unresolved)} unresolved call edge(s):")
            for edge in unresolved:
                lines.append(
                    f"    {edge.caller} -> {edge.callee} at {edge.location()}"
                )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WholeProgramReport({self.driver_name!r}, "
            f"{len(self.phases)} phase(s))"
        )


def _spec_name(label: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in label)
    return f"inferred_{cleaned or 'phase'}"


def _merge_phases(
    shape: Shape, label: str, phases: List["InferredPhase"]
) -> "InferredPhase":
    """One phase covering every region that commits under ``label``."""
    merged = EffectReport(shape, [label])
    stmts: List[ast.stmt] = []
    sites: List[CommitSite] = []
    for phase in phases:
        stmts.extend(phase.region.stmts)
        sites.extend(phase.region.sites)
        merged.merge(phase.report)
    region = PhaseRegion(label, "interval", stmts, sites)
    return InferredPhase(region, merged, shape)


# ---------------------------------------------------------------------------
# Commit-site discovery
# ---------------------------------------------------------------------------


def _is_session_expr(expr: ast.expr, names: set) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "CheckpointSession":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "CheckpointSession":
            return True
    return False


def _collect_session_names(fdef: ast.FunctionDef, initial: Iterable[str]) -> set:
    """Session aliases: parameters, local constructions, ``with`` targets."""
    names = set(initial)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fdef):
            if isinstance(node, ast.Assign):
                if _is_session_expr(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id not in names:
                            names.add(target.id)
                            changed = True
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        _is_session_expr(item.context_expr, names)
                        and isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id not in names
                    ):
                        names.add(item.optional_vars.id)
                        changed = True
    return names


def _commit_sites_in(
    stmt: ast.stmt, session_names: set, filename: str
) -> List[CommitSite]:
    sites: List[CommitSite] = []
    for node in ast.walk(stmt):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        if not (isinstance(receiver, ast.Name) and receiver.id in session_names):
            continue
        method = node.func.attr
        if method not in ("commit", "base"):
            continue
        phase: Optional[str] = None
        if method == "commit":
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                phase = node.args[0].value
            for kw in node.keywords:
                if (
                    kw.arg == "phase"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    phase = kw.value.value
        sites.append(CommitSite(method, phase, filename, node.lineno, receiver.id))
    sites.sort(key=lambda s: s.lineno)
    return sites


def _segment_regions(
    body: List[ast.stmt], session_names: set, filename: str
) -> List[PhaseRegion]:
    regions: List[PhaseRegion] = []
    pending: List[ast.stmt] = []

    def region_for(stmts: List[ast.stmt], sites: List[CommitSite]) -> PhaseRegion:
        labels: List[str] = []
        for site in sites:
            if site.method == "commit" and site.phase is not None:
                if site.phase not in labels:
                    labels.append(site.phase)
        if labels:
            return PhaseRegion("+".join(labels), "interval", stmts, sites)
        if any(s.method == "commit" for s in sites):
            line = min(s.lineno for s in sites if s.method == "commit")
            return PhaseRegion(f"interval@{line}", "unlabeled", stmts, sites)
        line = min(s.lineno for s in sites)
        return PhaseRegion(f"base@{line}", "base", stmts, sites)

    for stmt in body:
        sites = _commit_sites_in(stmt, session_names, filename)
        pending.append(stmt)
        if sites:
            regions.append(region_for(pending, sites))
            pending = []
    if pending:
        regions.append(PhaseRegion("epilogue", "epilogue", pending, []))
    return regions


# ---------------------------------------------------------------------------
# The region analyzer
# ---------------------------------------------------------------------------


class _ProgramAnalyzer(EffectAnalyzer):
    """Effect analysis of a driver: session calls are not escapes.

    The driver's regions are swept in program order, each into its own
    report, with one abstract environment flowing across all of them.
    """

    def __init__(
        self,
        shape: Shape,
        roots: Optional[Iterable[str]] = None,
        summaries: Optional[SummaryCache] = None,
        callgraph: Optional[CallGraph] = None,
        session_names: Iterable[str] = (),
    ) -> None:
        super().__init__(shape, roots, summaries=summaries, callgraph=callgraph)
        self.session_names = frozenset(session_names)
        self.reports: List[EffectReport] = []

    def sweep(
        self, regions: List[PhaseRegion], reports: List[EffectReport],
        frame: Frame,
    ) -> None:
        """Analyse every region into its report, to a joint fixpoint.

        Aliases bound before a commit widen the effects of every later
        region (and, through loops around the commit sites, earlier
        ones too).
        """
        self.reports = reports

        def once() -> None:
            for region, report in zip(regions, reports):
                self.report = report
                self.block(region.stmts, frame)

        self._fixpoint(once, frame, self.shape.node_count() + len(regions) + 3)

    def _watched(self) -> List[EffectReport]:
        return self.reports

    def summary_key(self, fdef, label):
        # session calls are no-ops here and escapes elsewhere, so the
        # session names are part of what a summary depends on
        return (self.session_names,) + super().summary_key(fdef, label)

    def _method_call(self, func, args, node, frame):
        receiver = func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in self.session_names
            and func.attr in _SESSION_METHODS
        ):
            # Committing reads and clears flags; it never dirties a
            # position — aliased arguments (e.g. base(roots=[root]))
            # do not escape.
            return EMPTY
        return super()._method_call(func, args, node, frame)

    def _constructor_call(self, target, args, node, frame):
        try:
            from repro.runtime.session import CheckpointSession
        except ImportError:  # pragma: no cover - layering guard
            CheckpointSession = None
        if (
            CheckpointSession is not None
            and isinstance(target, type)
            and issubclass(target, CheckpointSession)
        ):
            # The session only ever *reads* the structures it is given.
            return EMPTY
        return super()._constructor_call(target, args, node, frame)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def infer_phases(
    shape: Shape,
    driver: Callable,
    roots: Optional[Iterable[str]] = None,
    session_params: Iterable[str] = DEFAULT_SESSION_PARAMS,
    summaries: Optional[SummaryCache] = None,
    callgraph: Optional[CallGraph] = None,
) -> WholeProgramReport:
    """Discover commit sites in ``driver`` and infer per-region patterns.

    Parameters
    ----------
    shape:
        The checkpointed structure's shape facts.
    driver:
        The function that owns the program's checkpoint loop: it receives
        the structure root (bound like a phase root) and a
        :class:`~repro.runtime.session.CheckpointSession` (recognised by
        the names in ``session_params``, by local construction, or by a
        ``with CheckpointSession(...) as name`` binding), and calls
        ``session.commit(phase=...)`` at phase boundaries.
    roots:
        Optional parameter names bound to the structure root.
    session_params:
        Driver parameter names carrying the session (default
        ``("session",)``).
    summaries / callgraph:
        Optional shared caches, as for
        :func:`~repro.spec.effects.analysis.analyze_effects`.

    Returns
    -------
    WholeProgramReport
        Per-region :class:`InferredPhase` objects (pattern + provenance),
        the discovered :class:`CommitSite` list, and the call graph.
    """
    if not isinstance(driver, types.FunctionType):
        raise EffectAnalysisError(
            f"cannot infer phases from {driver!r}: not a pure-Python function"
        )
    from repro.spec.effects.callgraph import load_function_ast

    loaded = load_function_ast(driver)
    if loaded is None:
        raise EffectAnalysisError(
            f"cannot infer phases from {driver.__qualname__}: source is "
            "unavailable"
        )
    fdef, filename = loaded
    session_names = _collect_session_names(
        fdef, [p for p in (a.arg for a in fdef.args.args) if p in set(session_params)]
    )
    regions = _segment_regions(fdef.body, session_names, filename)
    commit_sites = [site for region in regions for site in region.sites]
    if not any(s.method in ("commit", "base") for s in commit_sites):
        raise EffectAnalysisError(
            f"driver {driver.__qualname__} has no commit sites: no "
            "session.commit()/session.base() call was found (is the session "
            f"parameter named one of {sorted(session_names) or list(session_params)!r}?)"
        )

    callgraph = callgraph if callgraph is not None else CallGraph()
    analyzer = _ProgramAnalyzer(
        shape,
        roots=roots,
        summaries=summaries,
        callgraph=callgraph,
        session_names=session_names,
    )
    driver_label = _label_of(driver)
    callgraph.add_root(driver_label)
    env = analyzer._bind_root(driver, fdef, skip=session_names)
    frame = Frame(env, EMPTY, driver_label, filename, fdef.lineno,
                  globs=driver.__globals__)
    reports = [
        EffectReport(shape, [f"{driver.__name__}:{region.name}"])
        for region in regions
    ]
    analyzer.sweep(regions, reports, frame)

    phases = [
        InferredPhase(region, report, shape)
        for region, report in zip(regions, reports)
    ]
    return WholeProgramReport(
        driver_label, shape, phases, commit_sites, callgraph,
        analyzer.summaries,
    )

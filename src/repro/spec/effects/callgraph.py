"""Call-graph facts and memoization layers behind the effect analysis.

The single-phase analysis of :mod:`repro.spec.effects.analysis` re-parsed
every helper function per analyzer and re-analysed it per call site. This
module supplies the whole-program machinery that removes both costs:

:class:`SourceCache` / :func:`load_function_ast`
    A process-wide ``inspect.getsource`` + ``textwrap.dedent`` +
    ``ast.parse`` memo keyed on ``(module, qualname)`` and *validated by
    code-object hash*: editing and reloading a function invalidates its
    entry, while the thousands of repeated lookups an interprocedural
    analysis performs hit the cache.

:class:`CallGraph`
    The cross-module call graph one analysis run discovers: which
    functions were entered, every call edge with ``file:line``
    provenance, and — crucially for diagnostics — which edges could *not*
    be resolved and therefore forced the conservative fallback. The
    linter's ``escape-to-unknown`` rule renders these edges.

:class:`SummaryCache`
    The one summary cache of the abstract interpreter core
    (:mod:`repro.spec.effects.interp`) that both the effect and the
    alias analyses run on. A summary is a callee's abstract return value
    plus every record its interpretation emitted (writes, fallbacks,
    cautions and call edges for the effect pass; findings, escapes and
    suppressed sites for the alias pass); a hit replays the records into
    the current report instead of re-walking the callee's body. The key
    is everything the summary depends on: what the domain names for the
    callee (the effect pass: the parsed function; the alias pass: file,
    module-source digest, qualname and line) plus the abstract signature
    of the bound arguments (parameter polymorphism — the same helper
    called with different alias sets gets distinct summaries). Effect
    summaries contain shape-relative paths, so a cache is bound to one
    :class:`~repro.spec.shape.Shape` and may only be shared between
    analyses of that shape.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import textwrap
import types
from typing import Dict, List, Optional, Tuple

#: identity of one function body: (module, qualname, code digest)
CodeKey = Tuple[str, str, str]


def code_digest(code: types.CodeType) -> str:
    """A stable hash of a code object's behaviour-defining parts."""
    hasher = hashlib.sha1()
    hasher.update(code.co_code)
    hasher.update(repr(code.co_consts).encode("utf-8", "backslashreplace"))
    hasher.update(" ".join(code.co_names).encode("utf-8"))
    hasher.update(" ".join(code.co_varnames).encode("utf-8"))
    hasher.update(str(code.co_firstlineno).encode("ascii"))
    return hasher.hexdigest()[:16]


def code_key(fn: types.FunctionType) -> CodeKey:
    """The cache identity of a plain Python function."""
    return (
        getattr(fn, "__module__", None) or "<unknown>",
        fn.__qualname__,
        code_digest(fn.__code__),
    )


class SourceCache:
    """Memoized source loading, invalidated by code-object hash."""

    def __init__(self) -> None:
        #: (module, qualname) -> (digest, parsed entry or None)
        self._entries: Dict[
            Tuple[str, str], Tuple[str, Optional[Tuple[ast.FunctionDef, str]]]
        ] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def load(
        self, fn: types.FunctionType
    ) -> Optional[Tuple[ast.FunctionDef, str]]:
        """The parsed ``FunctionDef`` and filename of ``fn`` (or ``None``).

        ``None`` means the source is unavailable (builtins, C extensions,
        ``exec``-built functions) — that verdict is cached too.
        """
        if not isinstance(fn, types.FunctionType):
            return None
        module, qualname, digest = code_key(fn)
        slot = (module, qualname)
        cached = self._entries.get(slot)
        if cached is not None:
            seen_digest, entry = cached
            if seen_digest == digest:
                self.hits += 1
                return entry
            # same (module, qualname) with a different body: the function
            # was redefined or its module reloaded — drop the stale parse
            self.invalidations += 1
        self.misses += 1
        entry = self._parse(fn)
        self._entries[slot] = (digest, entry)
        return entry

    @staticmethod
    def _parse(
        fn: types.FunctionType,
    ) -> Optional[Tuple[ast.FunctionDef, str]]:
        try:
            source = textwrap.dedent(inspect.getsource(fn))
            tree = ast.parse(source)
            fdef = tree.body[0]
            if isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ast.increment_lineno(fdef, fn.__code__.co_firstlineno - 1)
                return (fdef, fn.__code__.co_filename)
        except (OSError, TypeError, SyntaxError, IndexError):
            pass
        return None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: process-wide source cache (parses are pure; sharing is always safe)
SOURCE_CACHE = SourceCache()


def load_function_ast(
    fn: types.FunctionType,
) -> Optional[Tuple[ast.FunctionDef, str]]:
    """Load ``fn``'s AST through the process-wide :data:`SOURCE_CACHE`."""
    return SOURCE_CACHE.load(fn)


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class CallEdge:
    """One discovered call: caller, callee, where, and whether it resolved."""

    __slots__ = ("caller", "callee", "filename", "lineno", "resolved", "reason")

    def __init__(
        self,
        caller: str,
        callee: str,
        filename: str,
        lineno: int,
        resolved: bool,
        reason: str = "",
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.filename = filename
        self.lineno = lineno
        #: False when the callee was opaque and forced the fallback
        self.resolved = resolved
        self.reason = reason

    def location(self) -> str:
        return f"{self.filename}:{self.lineno}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mark = "" if self.resolved else " [unresolved]"
        return f"CallEdge({self.caller} -> {self.callee}{mark} @ {self.location()})"


class CallGraph:
    """The call edges one analysis run walked (or failed to walk)."""

    def __init__(self) -> None:
        self.roots: List[str] = []
        self.edges: List[CallEdge] = []
        self._seen: set = set()

    def add_root(self, label: str) -> None:
        """Record an analysis entry point (a phase or driver function)."""
        if label not in self.roots:
            self.roots.append(label)

    def record(
        self,
        caller: str,
        callee: str,
        filename: str,
        lineno: int,
        resolved: bool,
        reason: str = "",
    ) -> None:
        key = (caller, callee, filename, lineno, resolved)
        if key in self._seen:
            return
        self._seen.add(key)
        self.edges.append(
            CallEdge(caller, callee, filename, lineno, resolved, reason)
        )

    def callees(self, caller: str) -> List[str]:
        return sorted({e.callee for e in self.edges if e.caller == caller})

    def unresolved(self) -> List[CallEdge]:
        """Edges into opaque code — each one cost the analysis precision."""
        return [e for e in self.edges if not e.resolved]

    def functions(self) -> List[str]:
        names = set(self.roots)
        for edge in self.edges:
            names.add(edge.caller)
            if edge.resolved:
                names.add(edge.callee)
        return sorted(names)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallGraph({len(self.roots)} root(s), {len(self.edges)} edge(s), "
            f"{len(self.unresolved())} unresolved)"
        )


# ---------------------------------------------------------------------------
# Call summaries
# ---------------------------------------------------------------------------


class SummaryCache:
    """Call summaries of the abstract interpreter, bound to one shape.

    Keys are ``(callee identity..., argument signature)`` and values
    ``(return value, emitted records, bound)``. ``bound`` is ``None`` for
    a complete walk; a walk that reached the interpreter's call-depth
    guard holds only for calls from the depth it ran at, and ``bound`` is
    that depth. Because effect summaries record paths relative to one
    :class:`~repro.spec.shape.Shape`, a cache must never be shared across
    shapes — the interpreter refuses a cache whose ``shape`` is not its
    own (the alias pass uses ``shape=None``).
    """

    def __init__(self, shape=None) -> None:
        self.shape = shape
        self._summaries: Dict[Tuple, Tuple] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple, depth: int) -> Optional[Tuple]:
        """The summary under ``key`` that holds for a call from ``depth``."""
        summary = self._summaries.get(key)
        if summary is None or summary[2] not in (None, depth):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, key: Tuple, summary: Tuple) -> None:
        self._summaries[key] = summary

    def clear(self) -> None:
        self._summaries.clear()

    def __len__(self) -> int:
        return len(self._summaries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SummaryCache({len(self)} summaries, hits={self.hits}, "
            f"misses={self.misses})"
        )

"""Shared comment-based suppression machinery for the effects passes.

Every static pass in :mod:`repro.spec.effects` that reports findings
supports a per-site escape hatch: a comment marker such as ``# race-ok``
(concurrency) or ``# alias-ok`` (aliasing), optionally followed by
``: reason``. A suppressed site is excluded from rule evaluation but
recorded as a :class:`SuppressedSite` so provenance survives into the
human and JSON reports — a silenced finding is still a finding someone
decided about.

Scanning uses real tokenization, not substring search, so a marker
inside a string literal never suppresses anything. A marker on a ``def``
line suppresses the whole function; a marker on the line above a
statement suppresses that statement (for when the line itself has no
room).
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional

#: marker recognized by the concurrency (lockset/race) pass
RACE_OK = "race-ok"
#: marker recognized by the escape/alias pass
ALIAS_OK = "alias-ok"


class SuppressedSite:
    """One finding-worthy site silenced by a suppression comment."""

    __slots__ = ("filename", "lineno", "reason", "what")

    def __init__(
        self, filename: str, lineno: int, reason: str, what: str
    ) -> None:
        self.filename = filename
        self.lineno = lineno
        self.reason = reason
        self.what = what

    def to_dict(self) -> Dict:
        return {
            "file": self.filename,
            "line": self.lineno,
            "reason": self.reason,
            "what": self.what,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SuppressedSite({self.filename}:{self.lineno}, {self.what})"


def suppression_lines(source: str, marker: str) -> Dict[int, str]:
    """Map line numbers carrying a ``# <marker>`` comment to their reason.

    Recognizes both the bare marker and ``<marker>: reason``; a bare
    marker records the reason ``"unspecified"``.
    """
    found: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if text == marker or text.startswith(marker + ":"):
                reason = text[len(marker) :].lstrip(":").strip()
                found[token.start[0]] = reason or "unspecified"
    except tokenize.TokenError:
        pass
    return found


class Suppressions:
    """The suppression decisions of one file.

    Passes ask :meth:`reason_at` at each would-be finding site; a reason
    means the site is silenced, and the pass records it as a
    :class:`SuppressedSite` instead of reporting it. ``def``-line
    suppression is handled by passing the enclosing function's line as
    ``scope_lineno``.
    """

    __slots__ = ("filename", "lines")

    def __init__(self, filename: str, source: str, marker: str) -> None:
        self.filename = filename
        self.lines = suppression_lines(source, marker)

    def reason_at(
        self, lineno: int, scope_lineno: Optional[int] = None
    ) -> Optional[str]:
        """The suppression reason covering ``lineno``, if any.

        The annotation may trail the statement, sit on the line above,
        or sit on the enclosing ``def`` line (``scope_lineno``).
        """
        reason = self.lines.get(lineno)
        if reason is None:
            reason = self.lines.get(lineno - 1)
        if reason is None and scope_lineno is not None:
            reason = self.lines.get(scope_lineno)
        return reason


def relativize_sites(
    sites: List[SuppressedSite], base: Optional[str] = None
) -> List[SuppressedSite]:
    """Rewrite suppressed-site paths under ``base`` (default: cwd) as relative.

    The same path policy as
    :func:`repro.lint.findings.relativize_findings`: files outside the
    base keep their absolute paths.
    """
    root = (Path(base) if base is not None else Path.cwd()).resolve()
    for site in sites:
        if not site.filename:
            continue
        try:
            relative = Path(site.filename).resolve().relative_to(root)
        except (ValueError, OSError):
            continue
        site.filename = str(relative)
    return sites

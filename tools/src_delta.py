#!/usr/bin/env python
"""Net ``src/`` line delta between two commits, in total and code only.

Every change reports what it did to the size of ``src/``. This prints
both numbers:

- the ``git diff --numstat`` totals for ``src/`` (lines added, lines
  deleted, net);
- the code-only line count of ``src/`` at both commits: the lines of
  ``.py`` files that hold code, so blank lines, comments and docstrings
  are left out. A line inside a multi-line expression or string literal
  counts; a line of a docstring does not.

Usage: ``python tools/src_delta.py BASE [HEAD]`` (``HEAD`` defaults to
``HEAD``), run inside the repository.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from typing import List, Optional, Set, Tuple

#: token kinds that are not code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True
    ).stdout


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """Lines of string literals standing alone as statements."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def numstat(base: str, head: str) -> Tuple[int, int]:
    """Lines added and deleted under ``src/`` from ``base`` to ``head``."""
    added = deleted = 0
    for line in _git("diff", "--numstat", base, head, "--", "src/").splitlines():
        plus, minus, _path = line.split("\t", 2)
        if plus != "-":  # binary files have no line counts
            added += int(plus)
            deleted += int(minus)
    return added, deleted


def code_total(commit: str) -> int:
    """Code-only lines of every ``.py`` file under ``src/`` at ``commit``."""
    files = _git("ls-tree", "-r", "--name-only", commit, "--", "src/").split()
    return sum(
        code_lines(_git("show", f"{commit}:{path}"))
        for path in files
        if path.endswith(".py")
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/src_delta.py",
        description="Net src/ line delta between two commits.",
    )
    parser.add_argument("base", help="the commit to measure from")
    parser.add_argument("head", nargs="?", default="HEAD",
                        help="the commit to measure to (default: HEAD)")
    options = parser.parse_args(argv)
    added, deleted = numstat(options.base, options.head)
    before, after = code_total(options.base), code_total(options.head)
    print(f"src/ {options.base}..{options.head}: "
          f"+{added}/-{deleted} = {added - deleted:+d} lines")
    print(f"code only (no blank lines, comments or docstrings): "
          f"{before:,} -> {after:,} = {after - before:+,d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

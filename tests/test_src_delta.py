"""Tests for ``tools/src_delta.py``, the net ``src/`` delta report."""

import subprocess
from pathlib import Path

import pytest

from repro.spec.effects.cli import load_module

REPO = Path(__file__).resolve().parents[1]
src_delta = load_module(REPO / "tools" / "src_delta.py", "src_delta_tool")

SOURCE = '''"""Module docstring,
two lines long."""

import os  # a trailing comment is still a code line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a multi-line
    string literal is code"""
    return (x +
            1)
'''


def test_counter_skips_blank_lines_comments_and_docstrings():
    # import, def, two lines of `text = ...`, two lines of `return`
    assert src_delta.code_lines(SOURCE) == 6


def test_empty_source_has_no_code():
    assert src_delta.code_lines("") == 0
    assert src_delta.code_lines("# only a comment\n\n") == 0


def test_report_between_two_commits(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    (tmp_path / "src").mkdir()
    module = tmp_path / "src" / "m.py"
    module.write_text("a = 1\nb = 2\n", encoding="utf-8")
    try:
        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "base")
        module.write_text('"""Doc."""\na = 1\n', encoding="utf-8")
        git("commit", "-q", "-am", "head")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git cannot build a throwaway history here")

    monkeypatch.chdir(tmp_path)
    assert src_delta.main(["HEAD~1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/ HEAD~1..HEAD: +1/-1 = +0 lines"
    assert out[1].endswith(": 2 -> 1 = -1")

"""Tests for the race and alias command lines (``repro.spec.effects.cli``).

Both ``python -m repro.spec.effects.concurrency`` and ``python -m
repro.spec.effects.aliasing`` are the one driver run over a pass
declaration, so every test runs against both declarations:

- static mode exits 0 on a clean file, 1 on a seeded fixture (with its
  rule in the JSON findings) and 2 on a missing path, and prints the
  documented JSON keys;
- ``--crosscheck`` holds at seed 0 and can run twice in one process;
- a declaration whose static keys are blinded fails ``DYNAMIC-ONLY``;
- a declaration whose analysis drops a fixture's seeded rule fails
  ``STATIC-MISS``.
"""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from repro.spec.effects import cli
from repro.spec.effects.aliasing.__main__ import ALIASES
from repro.spec.effects.concurrency.__main__ import RACES

REPO = Path(__file__).resolve().parents[2]

JSON_KEYS = {
    "concurrency": {
        "findings", "guards", "order_edges", "cycles", "suppressed", "counts",
    },
    "aliasing": {
        "findings", "escapes", "suppressed", "counts", "modules",
        "summary_cache",
    },
}

#: a fixture each pass must fail with an error-severity finding
ERROR_FIXTURE = {"concurrency": "unguarded_write", "aliasing": "slot_bypass"}

#: a fixture whose seeded rule a test hides from the static pass
STATIC_ONLY_FIXTURE = {
    "concurrency": "blocking_under_lock",
    "aliasing": "escape_global",
}

TABLE_HEADER = {"concurrency": "guard table:", "aliasing": "escape sites:"}

PASSES = pytest.mark.parametrize(
    "spec", [RACES, ALIASES], ids=lambda spec: spec.name
)


def _fixtures(spec, out: Path):
    tool = cli.load_module(REPO / "tools" / spec.fixture_tool, "fixture_tool")
    return {Path(e["file"]).stem: e for e in tool.generate(out, seed=0)}


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("def double(x):\n    return 2 * x\n", encoding="utf-8")
    return str(path)


@PASSES
class TestStaticMode:
    def test_clean_file_exits_0_with_the_documented_keys(
        self, spec, clean_file, capsys
    ):
        assert cli.main(spec, [clean_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == JSON_KEYS[spec.name]
        assert payload["findings"] == []

    def test_seeded_fixture_exits_1_with_its_rule(
        self, spec, tmp_path, capsys
    ):
        entry = _fixtures(spec, tmp_path)[ERROR_FIXTURE[spec.name]]
        path = str(tmp_path / entry["file"])
        assert cli.main(spec, [path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert entry["rule"] in {f["code"] for f in payload["findings"]}
        assert payload["counts"]["error"] >= 1

    def test_missing_path_exits_2(self, spec, tmp_path, capsys):
        assert cli.main(spec, [str(tmp_path / "absent")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_hide_flag_drops_the_table_from_human_output(
        self, spec, tmp_path, capsys
    ):
        entry = _fixtures(spec, tmp_path)[STATIC_ONLY_FIXTURE[spec.name]]
        path = str(tmp_path / entry["file"])
        cli.main(spec, [path])
        assert TABLE_HEADER[spec.name] in capsys.readouterr().out.splitlines()
        cli.main(spec, [path, spec.hide_flag])
        assert TABLE_HEADER[spec.name] not in capsys.readouterr().out


@PASSES
class TestCrosscheck:
    def test_holds_at_seed_0(self, spec, capsys):
        src = str(REPO / "src" / "repro")
        assert cli.main(spec, ["--crosscheck", "--seed", "0", src]) == 0
        out = capsys.readouterr().out
        assert "static ⊇ dynamic holds" in out.splitlines()[-1]
        assert "STATIC-MISS" not in out and "DYNAMIC-ONLY" not in out

    def test_runs_twice_in_one_process(self, spec, clean_file, capsys):
        # each run loads its fixtures under fresh module names, so the
        # class registry never sees one name for two classes
        command = importlib.import_module(
            f"repro.spec.effects.{spec.name}.__main__"
        )
        assert command.main(["--crosscheck", clean_file]) == 0
        assert command.main(["--crosscheck", clean_file]) == 0

    def test_blinded_static_keys_fail_dynamic_only(
        self, spec, clean_file, capsys
    ):
        blind = dataclasses.replace(spec, static_keys=lambda report: set())
        assert cli.main(blind, ["--crosscheck", clean_file]) == 1
        out = capsys.readouterr().out
        assert "-> DYNAMIC-ONLY" in out
        assert "escaped the static analysis" in out
        assert out.splitlines()[-1].endswith("(SOUNDNESS HOLE)")

    def test_unreported_seeded_rule_fails_static_miss(
        self, spec, tmp_path, clean_file, capsys
    ):
        stem = STATIC_ONLY_FIXTURE[spec.name]
        rule = _fixtures(spec, tmp_path)[stem]["rule"]

        def analyze_paths(paths):
            report = spec.analyze_paths(paths)
            report.findings = [f for f in report.findings if f.code != rule]
            return report

        deaf = dataclasses.replace(spec, analyze_paths=analyze_paths)
        assert cli.main(deaf, ["--crosscheck", clean_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert f"fixture:{stem}: static=0 dynamic=0 -> STATIC-MISS" in lines
        assert (
            f"  seeded rule never reported: {rule} "
            "(the analysis missed the planted bug)"
        ) in lines
        assert lines[-1].startswith("crosscheck: ")
        assert f"1 {spec.failure_noun}" in lines[-1]


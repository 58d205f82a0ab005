"""Replica-aware fsck: multi-directory scans, --scrub, the damage fixture."""

import importlib.util
import io
import json
import os
from pathlib import Path

import pytest

from repro.core.replica import ReplicatedStore
from repro.core.storage import FULL, INCREMENTAL, FileStore
from repro.fsck.cli import main

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fixture_tool():
    spec = importlib.util.spec_from_file_location(
        "make_corrupt_fixture", REPO / "tools" / "make_corrupt_fixture.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def make_replica_set(tmp_path, epochs=4):
    dirs = [str(tmp_path / f"r{i}") for i in range(3)]
    store = ReplicatedStore([FileStore(d) for d in dirs])
    for index in range(epochs):
        store.append(FULL if index == 0 else INCREMENTAL, b"z" * 64)
    return dirs


def diverge(directory, index):
    """Rewrite one record through the child's framing (CRC stays valid)."""
    store = FileStore(directory)
    epoch = store.epoch_map()[index]
    data = bytearray(epoch.data)
    data[len(data) // 2] ^= 0xFF
    store.put_epoch(epoch._replace(data=bytes(data)), overwrite=True)


class TestMultiDirectory:
    def test_clean_replicas_exit_zero(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        assert main(dirs, out=io.StringIO()) == 0

    def test_json_shape(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        out = io.StringIO()
        assert main(dirs + ["--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert set(payload["replicas"]) == set(dirs)
        assert payload["scrub"] is None
        assert payload["consistent"] is True

    def test_quarantine_flag_rejected_for_replicas(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        code = main(
            dirs + ["--quarantine", str(tmp_path / "q")], out=io.StringIO()
        )
        assert code == 2

    def test_single_directory_output_unchanged(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        out = io.StringIO()
        assert main([dirs[0], "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        # the legacy shape: one report at the top level, no wrapper
        assert "replicas" not in payload
        assert payload["consistent"] is True


class TestScrub:
    def test_scrub_heals_divergence_and_exits_zero(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        diverge(dirs[1], 2)
        out = io.StringIO()
        code = main(dirs + ["--scrub", "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert code == 0
        assert payload["scrub"]["repaired"] == [
            {"replica": dirs[1], "index": 2, "action": "replaced"}
        ]
        assert payload["scrub"]["healed"] is True
        # quarantined, never deleted
        assert os.listdir(os.path.join(dirs[1], "quarantine"))

    def test_scrub_human_output(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        diverge(dirs[2], 1)
        out = io.StringIO()
        assert main(dirs + ["--scrub"], out=out) == 0
        text = out.getvalue()
        assert "scrub:" in text
        assert "1 repaired" in text
        assert "quarantined" in text

    def test_unrepairable_exits_one(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        for directory in dirs:
            diverge(directory, 2)  # no valid copy anywhere
        out = io.StringIO()
        code = main(dirs + ["--scrub", "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert code == 1
        assert payload["scrub"]["unrepairable"] == [2]

    def test_scrub_runs_before_scans(self, tmp_path):
        dirs = make_replica_set(tmp_path)
        # tear a file so a plain scan would flag it; the scrub rewrites
        # it from the quorum first, so the per-replica report is clean
        path = os.path.join(dirs[0], "epoch-000002.ckpt")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        out = io.StringIO()
        code = main(dirs + ["--scrub", "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert code == 0
        assert payload["replicas"][dirs[0]]["consistent"] is True


class TestReplicaFixtureTool:
    def test_fixture_damage_manifest(self, fixture_tool, tmp_path):
        out_dir = str(tmp_path / "fixture")
        damage = fixture_tool.build_replica_fixture(out_dir, epochs=8)
        assert damage["replicas"] == ["r0", "r1", "r2"]
        modes = {entry["mode"] for entry in damage["seeded"]}
        assert modes == {"diverged-record", "missing-epoch", "stale-manifest"}
        with open(os.path.join(out_dir, "damage.json")) as handle:
            on_disk = json.load(handle)
        assert on_disk == damage

    def test_scrub_repairs_exactly_the_seeded_damage(
        self, fixture_tool, tmp_path
    ):
        out_dir = str(tmp_path / "fixture")
        damage = fixture_tool.build_replica_fixture(out_dir, epochs=8)
        dirs = [os.path.join(out_dir, r) for r in damage["replicas"]]
        out = io.StringIO()
        code = main(dirs + ["--scrub", "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert code == 0
        repaired = {
            (os.path.basename(entry["replica"]), entry["index"])
            for entry in payload["scrub"]["repaired"]
        }
        seeded = {
            (entry["replica"], entry["epoch"]) for entry in damage["seeded"]
        }
        assert repaired == seeded
        assert payload["scrub"]["unrepairable"] == []

    def test_fixture_tool_cli_rejects_tiny_quorum(self, fixture_tool, tmp_path):
        with pytest.raises(SystemExit):
            fixture_tool.main(
                [str(tmp_path / "nope"), "--replicas", "2"]
            )

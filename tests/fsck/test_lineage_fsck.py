"""Lineage-aware fsck: branched fixtures, orphan quarantine, version skew."""

import importlib.util
import io
import json
import os
from pathlib import Path

import pytest

from repro.core.errors import ManifestVersionError
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore
from repro.fsck.cli import main
from repro.fsck.manager import RecoveryManager

REPO = Path(__file__).resolve().parents[2]


def load_fixture_tool():
    spec = importlib.util.spec_from_file_location(
        "make_lineage_fixture", REPO / "tools" / "make_lineage_fixture.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def fixture_tool():
    return load_fixture_tool()


def build(fixture_tool, tmp_path, damage):
    directory = str(tmp_path / damage)
    summary = fixture_tool.build_fixture(directory, damage=damage)
    return directory, summary


class TestIntactBranchedStore:
    def test_scan_reports_branches_and_names(self, fixture_tool, tmp_path):
        directory, summary = build(fixture_tool, tmp_path, "none")
        report = RecoveryManager(directory).scan()
        assert report.consistent
        assert report.recoverable
        assert report.durable_epochs == summary["expected_durable"]
        assert report.branches == {"main": 3, "side": 5}
        assert report.named == {"pin": 2}
        assert report.orphan_branches == []

    def test_cli_exits_zero(self, fixture_tool, tmp_path):
        directory, _ = build(fixture_tool, tmp_path, "none")
        assert main([directory], out=io.StringIO()) == 0


class TestOrphanBranch:
    def test_orphans_classified_not_lost(self, fixture_tool, tmp_path):
        directory, summary = build(fixture_tool, tmp_path, "orphan-branch")
        report = RecoveryManager(directory).scan()
        assert not report.consistent
        assert report.recoverable  # main's chain is untouched
        assert report.durable_epochs == summary["expected_durable"]
        assert report.orphan_branches == ["side"]
        unreachable = [
            f.name for f in report.files if f.status == "unreachable"
        ]
        assert unreachable == ["epoch-000005.ckpt"]

    def test_repair_quarantines_orphans_without_data_loss(
        self, fixture_tool, tmp_path
    ):
        directory, summary = build(fixture_tool, tmp_path, "orphan-branch")
        manager = RecoveryManager(directory)
        report = manager.repair()
        assert report.repaired
        # quarantined, not deleted: the bytes still exist
        quarantined = os.listdir(manager.quarantine_dir)
        assert "epoch-000005.ckpt" in quarantined
        # the surviving store is clean and every durable epoch replays
        after = RecoveryManager(directory).scan()
        assert after.consistent
        store = FileStore(directory)
        for index in summary["expected_durable"]:
            table = store.materialize(index)
            assert len(table.ids()) > 0

    def test_cli_exits_one(self, fixture_tool, tmp_path):
        directory, _ = build(fixture_tool, tmp_path, "orphan-branch")
        assert main([directory], out=io.StringIO()) == 1

    def test_branch_with_a_durable_epoch_is_not_orphaned(self, tmp_path):
        # side: delta 2 (lost), delta 3 (stranded), full 4 (durable)
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"main")
        store.append(INCREMENTAL, b"side 1", parent=1, branch="side")
        store.append(INCREMENTAL, b"side 2", branch="side")
        store.append(FULL, b"side 3", branch="side")
        os.remove(os.path.join(directory, "epoch-000002.ckpt"))
        report = RecoveryManager(directory).scan()
        assert report.branches == {"main": 1, "side": 4}
        assert report.orphan_branches == []
        assert report.durable_epochs == [0, 1, 4]
        [stranded] = report.by_status("unreachable")
        assert stranded.name == "epoch-000003.ckpt"
        assert "orphan" not in stranded.detail
        assert not report.consistent
        repaired = RecoveryManager(directory).repair()
        assert repaired.consistent
        assert repaired.durable_epochs == [0, 1, 4]


def skewed_stores(fixture_tool, tmp_path):
    """Branched stores whose manifest format_version is unknown or absent."""
    unknown, _ = build(fixture_tool, tmp_path, "unknown-version")
    missing, _ = build(fixture_tool, tmp_path, "none")
    path = os.path.join(missing, "manifest.json")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["format_version"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return [unknown, missing]


class TestUnknownFormatVersion:
    def test_scan_fails_gracefully(self, fixture_tool, tmp_path):
        for directory in skewed_stores(fixture_tool, tmp_path):
            report = RecoveryManager(directory).scan()
            assert not report.consistent, directory
            assert not report.manifest_supported, directory
            assert not report.manifest_ok, directory
            assert any(
                "format_version" in action for action in report.actions
            )

    def test_cli_exit_nonzero_no_traceback(self, fixture_tool, tmp_path):
        for directory in skewed_stores(fixture_tool, tmp_path):
            out = io.StringIO()
            code = main([directory, "--json"], out=out)
            payload = json.loads(out.getvalue())
            assert code == 1, directory
            assert payload["manifest_supported"] is False, directory

    def test_store_refuses_to_open(self, fixture_tool, tmp_path):
        # the store and fsck judge the manifest with the same reader
        for directory in skewed_stores(fixture_tool, tmp_path):
            with pytest.raises(ManifestVersionError, match="format_version"):
                FileStore(directory)

    def test_repair_refuses_to_move_files(self, fixture_tool, tmp_path):
        for directory in skewed_stores(fixture_tool, tmp_path):
            before = sorted(os.listdir(directory))
            manager = RecoveryManager(directory)
            report = manager.repair()
            assert sorted(os.listdir(directory)) == before, directory
            assert not os.path.isdir(
                manager.quarantine_dir
            ) or not os.listdir(manager.quarantine_dir)
            assert any(
                "repair refused" in action for action in report.actions
            )


class TestTornHead:
    def test_torn_head_drops_one_epoch_keeps_both_branches(
        self, fixture_tool, tmp_path
    ):
        directory, summary = build(fixture_tool, tmp_path, "torn-head")
        report = RecoveryManager(directory).scan()
        assert not report.consistent
        assert report.durable_epochs == summary["expected_durable"]
        # the side branch is unaffected by main's torn head
        assert report.branches["side"] == 5
        assert "side" not in report.orphan_branches

    def test_repair_then_rescan_clean(self, fixture_tool, tmp_path):
        directory, _ = build(fixture_tool, tmp_path, "torn-head")
        RecoveryManager(directory).repair()
        after = RecoveryManager(directory).scan()
        assert after.consistent
        assert after.recoverable


class TestReportRoundTrip:
    def test_lineage_fields_survive_json(self, fixture_tool, tmp_path):
        directory, _ = build(fixture_tool, tmp_path, "orphan-branch")
        report = RecoveryManager(directory).scan()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["orphan_branches"] == ["side"]
        assert payload["branches"] == {"main": 3}
        assert payload["named"] == {"pin": 2}
        assert payload["manifest_supported"] is True

"""RecoveryManager scan/repair behaviour on damaged checkpoint dirs."""

import json
import os

from repro.core.storage import FULL, INCREMENTAL, FileStore
from repro.fsck.manager import (
    CORRUPT,
    FOREIGN,
    INTACT,
    ORPHAN_TMP,
    TORN,
    UNREACHABLE,
    RecoveryManager,
)

PAYLOAD = b"x" * 40


def make_dir(tmp_path, epochs=4):
    """A healthy store: full, delta, delta, ... at tmp_path/ckpts."""
    directory = str(tmp_path / "ckpts")
    store = FileStore(directory)
    for index in range(epochs):
        store.append(FULL if index == 0 else INCREMENTAL, PAYLOAD)
    return directory, store


def damage(directory, index, mutate):
    path = os.path.join(directory, f"epoch-{index:06d}.ckpt")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    mutate(path, data)


def write_file(path, data):
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def truncate_to(path, data, keep):
    write_file(path, data[:keep])


class TestScanHealthy:
    def test_clean_store_is_consistent(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        report = RecoveryManager(directory).scan()
        assert report.consistent
        assert report.recoverable
        assert report.manifest_ok
        assert report.durable_epochs == [0, 1, 2, 3]
        assert len(report.by_status(INTACT)) == 4

    def test_empty_directory_is_consistent_but_unrecoverable(self, tmp_path):
        directory = str(tmp_path / "empty")
        os.makedirs(directory)
        report = RecoveryManager(directory).scan()
        assert report.consistent
        assert not report.recoverable
        assert report.durable_epochs == []


class TestScanDamage:
    def test_torn_tail_detected(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        damage(directory, 3, lambda path, data: truncate_to(path, data, 20))
        report = RecoveryManager(directory).scan()
        assert not report.consistent
        assert report.durable_epochs == [0, 1, 2]
        assert [e.index for e in report.by_status(TORN)] == [3]

    def test_truncated_header_is_torn(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        damage(directory, 2, lambda path, data: truncate_to(path, data, 5))
        report = RecoveryManager(directory).scan()
        assert [e.index for e in report.by_status(TORN)] == [2]

    def test_bad_magic_is_corrupt(self, tmp_path):
        directory, _ = make_dir(tmp_path)

        def clobber(path, data):
            data[0:4] = b"NOPE"
            write_file(path, data)

        damage(directory, 1, clobber)
        report = RecoveryManager(directory).scan()
        assert [e.index for e in report.by_status(CORRUPT)] == [1]
        assert report.durable_epochs == [0]

    def test_crc_mismatch_is_corrupt(self, tmp_path):
        directory, _ = make_dir(tmp_path)

        def flip(path, data):
            data[-1] ^= 0xFF
            write_file(path, data)

        damage(directory, 2, flip)
        report = RecoveryManager(directory).scan()
        corrupt = report.by_status(CORRUPT)
        assert [e.index for e in corrupt] == [2]
        assert "CRC" in corrupt[0].detail

    def test_flipped_kind_byte_is_corrupt(self, tmp_path):
        directory, _ = make_dir(tmp_path)

        def relabel(path, data):
            data[5] = 0  # the kind byte: incremental -> full
            write_file(path, data)

        damage(directory, 1, relabel)
        report = RecoveryManager(directory).scan()
        corrupt = report.by_status(CORRUPT)
        assert [e.index for e in corrupt] == [1]
        assert "CRC" in corrupt[0].detail
        assert report.durable_epochs == [0]

    def test_hole_strands_later_epochs(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        os.remove(os.path.join(directory, "epoch-000001.ckpt"))
        report = RecoveryManager(directory).scan()
        assert report.durable_epochs == [0]
        assert sorted(
            e.index for e in report.by_status(UNREACHABLE)
        ) == [2, 3]

    def test_damage_strands_everything_after_it(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        damage(directory, 1, lambda path, data: truncate_to(path, data, 8))
        report = RecoveryManager(directory).scan()
        assert report.durable_epochs == [0]
        assert sorted(
            e.index for e in report.by_status(UNREACHABLE)
        ) == [2, 3]

    def test_orphan_tmp_detected(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        write_file(os.path.join(directory, "epoch-000009.ckpt.tmp"), b"partial")
        report = RecoveryManager(directory).scan()
        assert len(report.by_status(ORPHAN_TMP)) == 1
        assert not report.consistent

    def test_foreign_files_noted_but_harmless(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        write_file(os.path.join(directory, "notes.txt"), b"hi")
        report = RecoveryManager(directory).scan()
        assert len(report.by_status(FOREIGN)) == 1
        assert report.consistent

    def test_non_canonical_epoch_name_is_foreign(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        with open(os.path.join(directory, "epoch-000001.ckpt"), "rb") as handle:
            write_file(os.path.join(directory, "epoch-1.ckpt"), handle.read())
        report = RecoveryManager(directory).scan()
        assert report.durable_epochs == [0, 1, 2, 3]
        assert [(e.name, e.index) for e in report.by_status(FOREIGN)] == [
            ("epoch-1.ckpt", None)
        ]
        assert report.consistent

    def test_delta_only_store_is_not_recoverable(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        store = FileStore(directory)
        store.append(INCREMENTAL, PAYLOAD)
        report = RecoveryManager(directory).scan()
        assert report.durable_epochs == [0]
        assert not report.recoverable

    def test_bad_manifest_reported(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        write_file(os.path.join(directory, "manifest.json"), b"{not json")
        report = RecoveryManager(directory).scan()
        assert not report.manifest_ok


class TestRepair:
    def damage_everything(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        damage(directory, 2, lambda path, data: truncate_to(path, data, 20))
        write_file(os.path.join(directory, "epoch-000009.ckpt.tmp"), b"partial")
        return directory

    def test_repair_quarantines_and_restores_consistency(self, tmp_path):
        directory = self.damage_everything(tmp_path)
        report = RecoveryManager(directory).repair()
        assert report.repaired
        assert report.consistent
        assert report.durable_epochs == [0, 1]
        quarantined = [e for e in report.files if e.action == "quarantined"]
        # torn epoch 2, stranded epoch 3, the orphan tmp
        assert len(quarantined) == 3

    def test_repaired_store_recovers_cleanly(self, tmp_path):
        directory = self.damage_everything(tmp_path)
        RecoveryManager(directory).repair()
        store = FileStore(directory)
        assert [epoch.index for epoch in store.epochs()] == [0, 1]

    def test_quarantine_preserves_file_bytes(self, tmp_path):
        directory = self.damage_everything(tmp_path)
        RecoveryManager(directory).repair()
        qdir = os.path.join(directory, "quarantine")
        names = sorted(os.listdir(qdir))
        assert "epoch-000002.ckpt" in names
        assert "epoch-000009.ckpt.tmp" in names
        with open(os.path.join(qdir, "epoch-000002.ckpt"), "rb") as handle:
            data = handle.read()
        assert len(data) == 20  # the torn bytes, moved not deleted

    def test_custom_quarantine_dir(self, tmp_path):
        directory = self.damage_everything(tmp_path)
        qdir = str(tmp_path / "elsewhere")
        RecoveryManager(directory, quarantine_dir=qdir).repair()
        assert "epoch-000002.ckpt" in os.listdir(qdir)

    def test_repair_on_clean_store_is_a_noop(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        report = RecoveryManager(directory).repair()
        assert report.consistent
        assert all(e.action == "kept" for e in report.files)
        assert not os.path.exists(os.path.join(directory, "quarantine"))


class TestReportShape:
    def test_json_round_trip(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        damage(directory, 3, lambda path, data: truncate_to(path, data, 6))
        report = RecoveryManager(directory).scan()
        payload = json.loads(report.to_json())
        assert payload["consistent"] is False
        assert payload["counts"][TORN] == 1
        assert payload["durable_epochs"] == [0, 1, 2]

    def test_summary_mentions_state(self, tmp_path):
        directory, _ = make_dir(tmp_path)
        text = RecoveryManager(directory).scan().summary()
        assert "consistent" in text
        assert "4 durable epoch(s)" in text

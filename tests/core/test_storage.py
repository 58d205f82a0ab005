"""Unit tests for the durable checkpoint stores (incl. failure injection)."""

import json
import os
import shutil
import struct
import zlib

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import structurally_equal
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    CORRUPT,
    FULL,
    INCREMENTAL,
    INTACT,
    AppendReceipt,
    Epoch,
    FileStore,
    MemoryStore,
    RetryingStore,
    frame_crc,
    read_frame,
)
from tests.conftest import build_root


def _persist_history(store):
    """Build a root, persist a base + two deltas; returns the live root."""
    root = build_root()
    base = FullCheckpoint()
    base.checkpoint(root)
    store.append(FULL, base.getvalue())
    root.mid.leaf.value = 77
    delta = Checkpoint()
    delta.checkpoint(root)
    store.append(INCREMENTAL, delta.getvalue())
    root.extra.label = "patched"
    delta = Checkpoint()
    delta.checkpoint(root)
    store.append(INCREMENTAL, delta.getvalue())
    return root


def _compress_epoch_file(path):
    """Rewrite an epoch file as the zlib frame (kind code 2 or 3) that
    older writers produced; readers must still take it."""
    status, kind, payload, _ = read_frame(path)
    assert status == INTACT
    code = {FULL: 2, INCREMENTAL: 3}[kind]
    packed = zlib.compress(payload, 6)
    header = struct.pack(
        "<4sBBII", b"RCKP", 2, code, len(packed), frame_crc(2, code, packed)
    )
    with open(path, "wb") as fh:
        fh.write(header + packed)


def _epoch_file(directory, index):
    return os.path.join(directory, f"epoch-{index:06d}.ckpt")


class TestMemoryStore:
    def test_append_and_recover(self):
        store = MemoryStore()
        root = _persist_history(store)
        recovered = store.recover()[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 77
        assert recovered.extra.label == "patched"
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_epoch_indices(self):
        store = MemoryStore()
        _persist_history(store)
        assert [e.index for e in store.epochs()] == [0, 1, 2]
        assert [e.kind for e in store.epochs()] == [FULL, INCREMENTAL, INCREMENTAL]

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            MemoryStore().append("bogus", b"")

    def test_recover_without_full_raises(self):
        store = MemoryStore()
        store.append(INCREMENTAL, b"")
        with pytest.raises(StorageError, match="no full checkpoint"):
            store.recover()

    def test_recovery_line_starts_at_latest_full(self):
        store = MemoryStore()
        _persist_history(store)
        root = build_root()
        base = FullCheckpoint()
        base.checkpoint(root)
        store.append(FULL, base.getvalue())
        line = store.recovery_line()
        assert [e.index for e in line] == [3]


class _RecordingStore(MemoryStore):
    """Records every lifecycle call the protocol routes to it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def flush(self, timeout=None):
        self.calls.append(("flush", timeout))

    def close(self, timeout=None):
        self.calls.append(("close", timeout))

    def instrument(self, tracer, metrics):
        self.calls.append(("instrument", tracer, metrics))

    def prune(self):
        self.calls.append(("prune",))

    def undurable_counts(self):
        return {"r0": 1}


class _FlakyStore(MemoryStore):
    def __init__(self, failures):
        super().__init__()
        self.failures = failures

    def append(self, kind, data, **lineage):
        if self.failures:
            self.failures -= 1
            raise OSError("flaky append")
        return super().append(kind, data, **lineage)


class TestStoreProtocol:
    def test_lifecycle_hooks_default_to_no_ops(self, tmp_path):
        for store in (MemoryStore(), FileStore(str(tmp_path / "ckpt"))):
            store.flush(timeout=1.0)
            store.close(timeout=1.0)
            store.instrument(None, None)
            store.prune()
            assert store.undurable_counts() == {}

    def test_decorator_passes_every_method_but_append_through(self):
        backing = _RecordingStore()
        store = RetryingStore(backing, RetryPolicy.none())
        assert store.append(FULL, b"base") == 0
        store.flush(1.5)
        store.close(2.5)
        store.instrument("tracer", "metrics")
        store.prune()
        assert backing.calls == [
            ("flush", 1.5),
            ("close", 2.5),
            ("instrument", "tracer", "metrics"),
            ("prune",),
        ]
        assert store.undurable_counts() == {"r0": 1}
        assert store.epoch_map() == backing.epoch_map()
        assert store.quarantine_epoch(0, "test") is not None
        store.put_epoch(Epoch(0, FULL, b"repaired"), overwrite=True)
        assert [e.data for e in backing.epochs()] == [b"repaired"]
        assert store.epochs() == backing.epochs()

    def test_stores_write_durable_on_the_receipt(self, tmp_path):
        for store in (MemoryStore(), FileStore(str(tmp_path / "ckpt"))):
            receipt = AppendReceipt()
            store.append(FULL, b"base", receipt=receipt)
            assert receipt.durability == "durable"
            assert receipt.retries == 0

    def test_retrying_store_notes_each_retry_on_the_receipt(self):
        backing = _FlakyStore(failures=2)
        store = RetryingStore(
            backing, RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        receipt = AppendReceipt()
        assert store.append(FULL, b"base", receipt=receipt) == 0
        assert receipt.retries == 2
        assert receipt.events == [
            "append retry 1: flaky append",
            "append retry 2: flaky append",
        ]
        assert receipt.durability == "durable"
        # without a receipt the retries still happen, unrecorded
        backing.failures = 1
        assert store.append(INCREMENTAL, b"delta") == 1


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        fresh = FileStore(str(tmp_path / "ckpt"))
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_manifest_written(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        with open(store.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 2
        assert any(name.endswith("Root") or "Root" in name for name in manifest["classes"])
        # manifest v2 carries the lineage map, one entry per epoch
        assert set(manifest["lineage"]) == {"0", "1", "2"}
        assert manifest["lineage"]["1"]["parent"] == 0
        assert manifest["lineage"]["1"]["branch"] == "main"

    def test_torn_tail_discarded(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        # Simulate a crash mid-write of epoch 3.
        with open(os.path.join(store.directory, "epoch-000003.ckpt"), "wb") as fh:
            fh.write(b"RCKP\x01\x00\x10")
        fresh = FileStore(store.directory)
        assert len(fresh.epochs()) == 3
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert recovered.extra.label == "patched"

    def test_corrupt_payload_ends_sequence(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        path = os.path.join(store.directory, "epoch-000001.ckpt")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF  # flip a payload bit -> CRC mismatch
        with open(path, "wb") as fh:
            fh.write(data)
        fresh = FileStore(store.directory)
        # Epoch 1 is bad; 2 cannot be applied over a hole: only epoch 0 left.
        assert [e.index for e in fresh.epochs()] == [0]

    def test_flipped_kind_byte_ends_sequence(self, tmp_path):
        # The frame CRC covers the kind byte: a delta relabelled as a full
        # epoch must not become the recovery base.
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        path = os.path.join(store.directory, "epoch-000001.ckpt")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        assert data[5] == 1  # incremental
        data[5] = 0  # full
        with open(path, "wb") as fh:
            fh.write(data)
        fresh = FileStore(store.directory)
        assert [(e.index, e.kind) for e in fresh.epochs()] == [(0, FULL)]
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 7  # the base epoch's state

    def test_version_1_frames_still_read(self, tmp_path):
        import struct
        import zlib as _zlib

        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        for index in range(3):
            path = os.path.join(store.directory, f"epoch-{index:06d}.ckpt")
            with open(path, "rb") as fh:
                data = bytearray(fh.read())
            # rewrite the header as the payload-only CRC frame of version 1
            payload = bytes(data[14:])
            data[:14] = struct.pack(
                "<4sBBII", b"RCKP", 1, data[5], len(payload),
                _zlib.crc32(payload),
            )
            with open(path, "wb") as fh:
                fh.write(data)
        fresh = FileStore(store.directory)
        assert [e.index for e in fresh.epochs()] == [0, 1, 2]
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert structurally_equal(recovered, root)

    def test_bad_magic_rejected(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        path = os.path.join(store.directory, "epoch-000000.ckpt")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[:4] = b"XXXX"
        with open(path, "wb") as fh:
            fh.write(data)
        assert FileStore(store.directory).epochs() == []

    def test_append_continues_numbering(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        fresh = FileStore(store.directory)
        index = fresh.append(INCREMENTAL, b"")
        assert index == 3

    def test_missing_manifest_raises_on_recover(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        os.remove(store.manifest_path)
        with pytest.raises(StorageError, match="missing manifest"):
            FileStore(store.directory).recover()

    def test_corrupt_manifest_raises(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        with open(store.manifest_path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(StorageError, match="corrupt manifest"):
            FileStore(store.directory).recover()

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_append_after_a_lost_manifest_extends_the_chain(
        self, tmp_path, damage
    ):
        # the epochs read as implied-linear, so the next AUTO append
        # must take the newest one as its parent, not start a new root
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        if damage == "missing":
            os.remove(store.manifest_path)
        else:
            with open(store.manifest_path, "w") as fh:
                fh.write("{not json")
        reopened = FileStore(store.directory)
        root.mid.leaf.value = 5
        delta = Checkpoint()
        delta.checkpoint(root)
        reopened.append(INCREMENTAL, delta.getvalue())
        assert [(e.index, e.parent) for e in reopened.epochs()] == [
            (0, None),
            (1, 0),
            (2, 1),
            (3, 2),
        ]
        recovered = reopened.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_stray_files_ignored(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        for name in ("epoch-junk.ckpt", "README"):
            with open(os.path.join(store.directory, name), "w"):
                pass
        assert len(FileStore(store.directory).epochs()) == 3

    def test_non_canonical_epoch_names_are_not_epochs(self, tmp_path):
        # epoch-1.ckpt next to epoch-000001.ckpt is not a second epoch 1
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        stray = ("epoch-1.ckpt", "epoch-0000002.ckpt", "epoch-+00001.ckpt")
        for name in stray:
            shutil.copy(
                _epoch_file(store.directory, 1),
                os.path.join(store.directory, name),
            )
        assert [e.index for e in FileStore(store.directory).epochs()] == [0, 1, 2]
        assert [e.index for e in store.epochs()] == [0, 1, 2]


class TestCompressedFileStore:
    """Compressed frames are no longer written, but old stores still read."""

    def test_roundtrip_with_compression(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        root = _persist_history(FileStore(directory))
        for index in range(3):
            _compress_epoch_file(_epoch_file(directory, index))
        fresh = FileStore(directory)
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_mixed_plain_and_compressed_chain(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        root = _persist_history(store)  # plain epochs 0-2
        root.mid.leaf.value = 4242
        delta = Checkpoint()
        delta.checkpoint(root)
        store.append(INCREMENTAL, delta.getvalue())
        _compress_epoch_file(_epoch_file(directory, 3))  # compressed epoch 3
        recovered = FileStore(directory).recover()[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 4242

    def test_corrupt_compressed_payload_rejected(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        # Craft a frame whose CRC matches garbage that fails to inflate.
        garbage = b"not-deflate-data"
        header = struct.pack(
            "<4sBBII", b"RCKP", 1, 2, len(garbage), zlib.crc32(garbage)
        )
        with open(_epoch_file(store.directory, 1), "wb") as fh:
            fh.write(header + garbage)
        fresh = FileStore(store.directory)
        assert [e.index for e in fresh.epochs()] == [0]
        status, _, _, detail = read_frame(_epoch_file(store.directory, 1))
        assert (status, detail) == (
            CORRUPT, "CRC intact but deflate stream invalid"
        )


class TestFileStoreEpochCache:
    """epochs() must verify each epoch file at most once per content."""

    @staticmethod
    def _count_reads(monkeypatch):
        calls = {"n": 0}
        original = FileStore._read_epoch

        def counting(path):
            calls["n"] += 1
            return original(path)

        monkeypatch.setattr(FileStore, "_read_epoch", staticmethod(counting))
        return calls

    def test_repeated_epochs_read_each_file_once(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "ckpt")
        _persist_history(FileStore(directory))
        reader = FileStore(directory)  # cold cache: knows nothing yet
        calls = self._count_reads(monkeypatch)
        first = reader.epochs()
        assert calls["n"] == 3
        second = reader.epochs()
        assert calls["n"] == 3  # all served from the verified cache
        assert second == first

    def test_writer_never_rereads_own_appends(self, tmp_path, monkeypatch):
        calls = self._count_reads(monkeypatch)
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        epochs = store.epochs()
        assert calls["n"] == 0  # appends seeded the cache
        assert [e.kind for e in epochs] == [FULL, INCREMENTAL, INCREMENTAL]
        recovered = store.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert calls["n"] == 0

    def test_only_new_files_are_scanned(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "ckpt")
        _persist_history(FileStore(directory))
        reader = FileStore(directory)
        reader.epochs()  # warm the cache on epochs 0-2
        writer = FileStore(directory)  # second handle appends epoch 3
        writer.append(INCREMENTAL, b"")
        calls = self._count_reads(monkeypatch)
        assert [e.index for e in reader.epochs()] == [0, 1, 2, 3]
        assert calls["n"] == 1  # only the new file was read

    def test_cached_payload_is_decompressed(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        plain = store.epochs()
        for index in range(3):
            _compress_epoch_file(_epoch_file(store.directory, index))
        cold = FileStore(store.directory)
        assert cold.epochs() == plain
        assert cold.epochs() == plain  # served from the verified cache
        recovered = cold.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_external_change_invalidates_entry(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        _persist_history(store)
        assert len(store.epochs()) == 3  # cache is warm
        # Another process truncates the last epoch mid-write.
        path = os.path.join(directory, "epoch-000002.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"RCKP")
        assert [e.index for e in store.epochs()] == [0, 1]

    def test_deleted_files_are_dropped_from_cache(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        _persist_history(store)
        store.epochs()
        os.remove(os.path.join(directory, "epoch-000001.ckpt"))
        os.remove(os.path.join(directory, "epoch-000002.ckpt"))
        assert [e.index for e in store.epochs()] == [0]
        assert set(store._verified) == {0}

    def test_compaction_with_warm_cache(self, tmp_path):
        from repro.core.storage import compact

        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        root = _persist_history(store)
        store.epochs()  # warm
        new_base = compact(store)
        epochs = store.epochs()
        assert [e.index for e in epochs] == [new_base]
        assert epochs[0].kind == FULL
        recovered = store.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestNextIndexCache:
    """Appends must not rescan the directory per epoch (was O(n²))."""

    def test_directory_scanned_once_across_appends(self, tmp_path, monkeypatch):
        import repro.core.storage as storage_module

        store = FileStore(str(tmp_path / "ckpt"))
        real_listdir = os.listdir
        calls = []

        def counting_listdir(path):
            calls.append(path)
            return real_listdir(path)

        monkeypatch.setattr(storage_module.os, "listdir", counting_listdir)
        for index in range(20):
            assert store.append(INCREMENTAL, b"x") == index
        # One scan to seat the counter; every later append uses the cache.
        scans = [path for path in calls if path == store.directory]
        assert len(scans) <= 1

    def test_cache_survives_compaction(self, tmp_path):
        from repro.core.storage import compact

        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        new_base = compact(store)  # removes epochs below the new base
        assert store.append(INCREMENTAL, b"after") == new_base + 1

    def test_fresh_store_continues_the_sequence(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        first = FileStore(directory)
        first.append(FULL, b"a")
        first.append(INCREMENTAL, b"b")
        second = FileStore(directory)
        assert second.append(INCREMENTAL, b"c") == 2


class TestOrphanQuarantine:
    """Stranded ``*.tmp`` files are moved aside when the store opens."""

    def test_orphan_tmp_quarantined_on_init(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        orphan = os.path.join(directory, "epoch-000004.ckpt.tmp")
        with open(orphan, "wb") as fh:
            fh.write(b"partial write")
        store = FileStore(directory)
        assert not os.path.exists(orphan)
        moved = os.path.join(store.quarantine_dir, "epoch-000004.ckpt.tmp")
        assert os.path.exists(moved)
        assert store.quarantined == [moved]
        with open(moved, "rb") as fh:
            assert fh.read() == b"partial write"

    def test_quarantine_collisions_get_suffixes(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        name = "epoch-000001.ckpt.tmp"
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(b"first")
        FileStore(directory)
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(b"second")
        store = FileStore(directory)
        quarantined = sorted(os.listdir(store.quarantine_dir))
        assert quarantined == [name, f"{name}.0"]

    def test_clean_directory_gets_no_quarantine_dir(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        store.append(FULL, b"x")
        assert not os.path.exists(store.quarantine_dir)
        assert store.quarantined == []

    def test_quarantined_orphans_do_not_shadow_epochs(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        store.append(FULL, b"base")
        with open(os.path.join(directory, "epoch-000001.ckpt.tmp"), "wb") as fh:
            fh.write(b"torn")
        reopened = FileStore(directory)
        # The orphan index is reusable: nothing durable occupies it.
        assert reopened.append(INCREMENTAL, b"delta") == 1
        assert [e.data for e in reopened.epochs()] == [b"base", b"delta"]

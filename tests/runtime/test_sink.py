"""Unit tests for sinks and the sink coercion."""

from pathlib import Path

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import structurally_equal
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
    RetryingStore,
)
from repro.runtime import BufferSink, NullSink, Sink, StoreSink
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.sink import sink_for
from tests.conftest import build_root


def _base_and_delta(root):
    base = FullCheckpoint()
    base.checkpoint(root)
    root.mid.leaf.value = 31
    delta = Checkpoint()
    delta.checkpoint(root)
    return base.getvalue(), delta.getvalue()


class TestSinkFor:
    def test_none_gives_null_sink(self):
        assert isinstance(sink_for(None), NullSink)

    def test_sink_passes_through(self):
        sink = BufferSink()
        assert sink_for(sink) is sink

    def test_store_is_wrapped(self):
        store = MemoryStore()
        sink = sink_for(store)
        assert isinstance(sink, StoreSink)
        assert sink.store is store

    def test_path_makes_a_file_store(self, tmp_path):
        sink = sink_for(str(tmp_path / "ckpt"))
        assert isinstance(sink.store, FileStore)
        pathlike = sink_for(Path(tmp_path) / "ckpt2")
        assert isinstance(pathlike.store, FileStore)

    def test_garbage_rejected(self):
        with pytest.raises(StorageError, match="cannot use"):
            sink_for(42)

    def test_retry_wraps_a_store_but_not_a_writer(self, tmp_path):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        store = MemoryStore()
        wrapped = sink_for(store, retry=policy).store
        assert isinstance(wrapped, RetryingStore) and wrapped.backing is store
        # the writer stays on top, so compaction drains its queue before
        # reading the lineage: no committed delta is lost
        root = build_root()
        writer = BackgroundWriter(FileStore(str(tmp_path / "ckpt")))
        session = CheckpointSession(
            roots=root,
            sink=writer,
            retry=policy,
            policy=EpochPolicy.bounded_chain(2),
        )
        assert session.sink.store is writer
        session.base()
        for step in range(5):
            root.mid.leaf.value = step
            session.commit()
        session.flush()
        recovered = session.recover()[root._ckpt_info.object_id]
        session.close()
        assert structurally_equal(root, recovered, compare_ids=True)


class TestNullSink:
    def test_counts_discards(self):
        sink = NullSink()
        assert sink.put(FULL, b"x") is None
        sink.put(INCREMENTAL, b"y")
        assert sink.discarded == 2
        assert not sink.can_compact

    def test_recover_and_compact_raise(self):
        with pytest.raises(StorageError, match="cannot recover"):
            NullSink().recover()
        with pytest.raises(StorageError, match="cannot compact"):
            NullSink().compact()


class TestBufferSink:
    def test_epochs_addressable(self):
        sink = BufferSink()
        sink.put(FULL, b"base")
        sink.put(INCREMENTAL, b"delta")
        assert len(sink) == 2
        assert sink.data(0) == b"base"
        assert sink.data(1) == b"delta"

    def test_recovery_line_replay(self):
        root = build_root()
        base, delta = _base_and_delta(root)
        sink = BufferSink()
        sink.put(FULL, base)
        sink.put(INCREMENTAL, delta)
        recovered = sink.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestStoreSink:
    def test_file_store_roundtrip(self, tmp_path):
        root = build_root()
        base, delta = _base_and_delta(root)
        sink = sink_for(str(tmp_path / "ckpt"))
        assert sink.put(FULL, base) == 0
        assert sink.put(INCREMENTAL, delta) == 1
        recovered = sink.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert [e.kind for e in sink.epochs()] == [FULL, INCREMENTAL]

    def test_compact_folds_the_line(self, tmp_path):
        root = build_root()
        base, delta = _base_and_delta(root)
        sink = sink_for(str(tmp_path / "ckpt"))
        sink.put(FULL, base)
        sink.put(INCREMENTAL, delta)
        new_base = sink.compact()
        epochs = sink.epochs()
        assert [e.index for e in epochs] == [new_base]
        recovered = sink.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_background_writer_flushed_before_recovery(self, tmp_path):
        root = build_root()
        base, delta = _base_and_delta(root)
        backing = FileStore(str(tmp_path / "ckpt"))
        writer = BackgroundWriter(backing)
        sink = sink_for(writer)
        sink.put(FULL, base)
        sink.put(INCREMENTAL, delta)
        recovered = sink.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        sink.close()

    def test_background_writer_compaction_unwraps(self, tmp_path):
        root = build_root()
        base, delta = _base_and_delta(root)
        backing = FileStore(str(tmp_path / "ckpt"))
        writer = BackgroundWriter(backing)
        sink = sink_for(writer)
        sink.put(FULL, base)
        sink.put(INCREMENTAL, delta)
        new_base = sink.compact()  # flushes the queue, compacts the backing
        assert [e.index for e in backing.epochs()] == [new_base]
        sink.close()

    def test_flush_and_close_tolerate_plain_stores(self):
        sink = StoreSink(MemoryStore())  # no flush/close methods
        sink.flush()
        sink.close()


class TestSinkBase:
    def test_put_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Sink().put(FULL, b"")

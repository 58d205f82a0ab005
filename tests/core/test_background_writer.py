"""Unit tests for the asynchronous stable-storage writer."""

import threading
import time

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import structurally_equal
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
    RetryingStore,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MemoryExporter, Tracer
from tests.conftest import build_root


class _FailingStore(MemoryStore):
    def __init__(self, fail_on: int) -> None:
        super().__init__()
        self._fail_on = fail_on
        self._calls = 0

    def append(self, kind, data):
        self._calls += 1
        if self._calls == self._fail_on:
            raise OSError("disk full")
        return super().append(kind, data)


class _SlowStore(MemoryStore):
    def append(self, kind, data):
        time.sleep(0.01)
        return super().append(kind, data)


class TestBackgroundWriter:
    def test_epochs_written_in_order(self):
        backing = MemoryStore()
        with BackgroundWriter(backing) as writer:
            writer.append(FULL, b"base")
            writer.append(INCREMENTAL, b"d1")
            writer.append(INCREMENTAL, b"d2")
            writer.flush()
            assert [(e.kind, e.data) for e in backing.epochs()] == [
                (FULL, b"base"),
                (INCREMENTAL, b"d1"),
                (INCREMENTAL, b"d2"),
            ]

    def test_append_does_not_block_on_slow_store(self):
        backing = _SlowStore()
        with BackgroundWriter(backing) as writer:
            start = time.perf_counter()
            for _ in range(5):
                writer.append(INCREMENTAL, b"x" * 1000)
            queued_in = time.perf_counter() - start
            writer.flush()
        # Five 10ms writes would block 50ms synchronously.
        assert queued_in < 0.04
        assert len(backing.epochs()) == 5

    def test_write_failure_surfaces(self):
        writer = BackgroundWriter(_FailingStore(fail_on=2))
        writer.append(FULL, b"ok")
        writer.append(INCREMENTAL, b"boom")
        with pytest.raises(StorageError, match="disk full"):
            writer.flush()
        writer.close()

    def test_closed_writer_rejects_appends(self):
        writer = BackgroundWriter(MemoryStore())
        writer.close()
        with pytest.raises(StorageError, match="closed"):
            writer.append(FULL, b"")

    def test_close_is_idempotent(self):
        writer = BackgroundWriter(MemoryStore())
        writer.close()
        writer.close()

    def test_unknown_kind_rejected_synchronously(self):
        with BackgroundWriter(MemoryStore()) as writer:
            with pytest.raises(StorageError, match="unknown checkpoint kind"):
                writer.append("bogus", b"")

    def test_recover_flushes_first(self):
        root = build_root()
        base = FullCheckpoint()
        base.checkpoint(root)
        backing = MemoryStore()
        with BackgroundWriter(backing) as writer:
            writer.append(FULL, base.getvalue())
            root.mid.leaf.value = 9
            delta = Checkpoint()
            delta.checkpoint(root)
            writer.append(INCREMENTAL, delta.getvalue())
            table = writer.recover()  # implicit flush
            recovered = table[root._ckpt_info.object_id]
            assert structurally_equal(root, recovered, compare_ids=True)

    def test_file_backed_end_to_end(self, tmp_path):
        root = build_root()
        base = FullCheckpoint()
        base.checkpoint(root)
        with BackgroundWriter(FileStore(str(tmp_path / "ckpt"))) as writer:
            writer.append(FULL, base.getvalue())
            writer.flush()
        fresh = FileStore(str(tmp_path / "ckpt"))
        recovered = fresh.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_concurrent_producers(self):
        backing = MemoryStore()
        with BackgroundWriter(backing, max_queued=8) as writer:
            errors = []

            def produce(tag):
                try:
                    for i in range(20):
                        writer.append(INCREMENTAL, f"{tag}-{i}".encode())
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=produce, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            writer.flush()
            assert not errors
            assert len(backing.epochs()) == 80


class _GatedFailingStore(MemoryStore):
    """Blocks every append on a gate; fails on the Nth call once released.

    Lets a test queue a known number of epochs *behind* the failing write
    before the writer thread processes any of them.
    """

    def __init__(self, fail_on: int) -> None:
        super().__init__()
        self.gate = threading.Event()
        self._fail_on = fail_on
        self._calls = 0

    def append(self, kind, data):
        assert self.gate.wait(5), "test gate never released"
        self._calls += 1
        if self._calls == self._fail_on:
            raise OSError("disk full")
        return super().append(kind, data)


class TestBackgroundWriterFailStop:
    def test_failure_mid_queue_counts_discarded_epochs(self):
        backing = _GatedFailingStore(fail_on=2)
        writer = BackgroundWriter(backing)
        for i in range(5):  # epoch 0 writes, 1 fails, 2-4 must be discarded
            writer.append(INCREMENTAL, b"epoch-%d" % i)
        backing.gate.set()
        with pytest.raises(StorageError, match=r"disk full.*3 queued epoch"):
            writer.flush()
        assert writer.dropped == 3
        writer.close()

    def test_nothing_written_past_the_hole(self):
        backing = _GatedFailingStore(fail_on=2)
        writer = BackgroundWriter(backing)
        for i in range(5):
            writer.append(INCREMENTAL, b"epoch-%d" % i)
        backing.gate.set()
        with pytest.raises(StorageError):
            writer.flush()
        # Only the pre-failure epoch is durable: an epoch written past the
        # failed one could never participate in a recovery line.
        assert [e.data for e in backing.epochs()] == [b"epoch-0"]
        writer.close()

    def test_append_raises_permanently_after_failure(self):
        writer = BackgroundWriter(_FailingStore(fail_on=1))
        writer.append(FULL, b"boom")
        writer._idle.wait(5)  # let the writer thread hit the failure
        with pytest.raises(StorageError, match="disk full"):
            writer.append(FULL, b"after")
        with pytest.raises(StorageError, match="disk full"):
            writer.append(FULL, b"after-again")
        writer.close()  # append already reported the error: close is clean

    def test_close_surfaces_failure_and_stops_thread(self):
        writer = BackgroundWriter(_FailingStore(fail_on=1))
        writer.append(FULL, b"boom")
        with pytest.raises(StorageError, match="disk full"):
            writer.close()
        assert not writer._thread.is_alive()
        writer.close()  # idempotent even after a surfaced failure

    def test_flush_then_close_raises_once(self):
        writer = BackgroundWriter(_FailingStore(fail_on=1))
        writer.append(FULL, b"boom")
        with pytest.raises(StorageError, match="disk full"):
            writer.flush()
        writer.close()  # error already surfaced: shutdown is clean
        assert not writer._thread.is_alive()


class _TransientStore(MemoryStore):
    """Every epoch's first ``failures`` append attempts raise OSError."""

    def __init__(self, failures: int = 2) -> None:
        super().__init__()
        self._failures = failures
        self._seen: dict = {}

    def append(self, kind, data, **lineage):
        count = self._seen.get(data, 0)
        if count < self._failures:
            self._seen[data] = count + 1
            raise OSError(f"transient glitch {count + 1}")
        return super().append(kind, data, **lineage)


class TestBackgroundWriterRetry:
    def test_transient_faults_lose_no_acknowledged_epochs(self):
        from repro.core.retry import RetryPolicy

        backing = _TransientStore(failures=2)
        writer = BackgroundWriter(
            RetryingStore(backing, RetryPolicy(max_attempts=4, base_delay=0.0))
        )
        payloads = [b"epoch-%d" % i for i in range(5)]
        for payload in payloads:
            writer.append(INCREMENTAL, payload)
        writer.flush()
        writer.close()
        assert [e.data for e in backing.epochs()] == payloads
        assert writer.dropped == 0
        # 2 failed attempts per epoch, each retried on the writer thread
        assert sum(backing._seen.values()) == 10

    def test_exhausted_retry_is_still_fail_stop(self):
        from repro.core.retry import RetryPolicy

        backing = _TransientStore(failures=99)
        writer = BackgroundWriter(
            RetryingStore(backing, RetryPolicy(max_attempts=2, base_delay=0.0))
        )
        writer.append(INCREMENTAL, b"doomed")
        writer.append(INCREMENTAL, b"behind")
        with pytest.raises(StorageError, match="transient glitch"):
            writer.flush()
        assert backing.epochs() == []
        writer.close()

    def test_without_retry_first_transient_is_fatal(self):
        writer = BackgroundWriter(_TransientStore(failures=1))
        writer.append(INCREMENTAL, b"one-shot")
        with pytest.raises(StorageError, match="transient glitch"):
            writer.flush()
        writer.close()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestBackgroundWriterDegradation:
    """The writer *thread* dying must degrade, never silently drop.

    Each test kills the drain thread on purpose, so the unhandled-thread
    -exception warning is the expected signal, not a defect.
    """

    def kill_thread(self, writer):
        # An unpackable queue item escapes the drain loop's guarded
        # region, which is exactly the "writer thread died on a bug"
        # failure mode degradation exists for.
        writer._queue.put("garbage")
        writer._thread.join(5)
        assert not writer._thread.is_alive()

    def test_appends_degrade_to_synchronous_writes(self):
        backing = MemoryStore()
        writer = BackgroundWriter(backing)
        self.kill_thread(writer)
        index = writer.append(INCREMENTAL, b"sync-epoch")
        assert index == 0  # the real backing index, not a queue position
        assert writer.degraded
        assert writer.sync_writes == 1
        assert writer.degradation_events
        assert [e.data for e in backing.epochs()] == [b"sync-epoch"]
        writer.close()

    def test_queued_epochs_are_adopted_not_dropped(self):
        backing = _GatedFailingStore(fail_on=-1)  # gate only, never fails
        writer = BackgroundWriter(backing)
        writer.append(INCREMENTAL, b"a")  # thread takes it, blocks on gate
        writer._queue.put("garbage")  # thread will die after writing "a"
        writer.append(INCREMENTAL, b"b")
        writer.append(INCREMENTAL, b"c")
        backing.gate.set()
        writer._thread.join(5)
        assert not writer._thread.is_alive()
        writer.flush()  # adopts the orphaned queue on this thread
        assert writer.degraded
        assert writer.dropped == 0
        assert [e.data for e in backing.epochs()] == [b"a", b"b", b"c"]
        writer.close()

    def test_epochs_call_also_degrades(self):
        backing = MemoryStore()
        writer = BackgroundWriter(backing)
        writer.append(INCREMENTAL, b"x")
        writer.flush()
        self.kill_thread(writer)
        # stranded by the dead thread (queue items carry lineage kwargs)
        writer._queue.put(
            (INCREMENTAL, b"y", {"parent": None, "branch": None, "name": None})
        )
        assert [e.data for e in writer.epochs()] == [b"x", b"y"]
        assert writer.degraded
        writer.close()

    def test_degraded_write_failure_is_traced_and_counted(self):
        class _BrokenStore(MemoryStore):
            def append(self, kind, data, **lineage):
                raise OSError("disk full")

        exporter = MemoryExporter()
        metrics = MetricsRegistry()
        writer = BackgroundWriter(_BrokenStore())
        writer.instrument(Tracer([exporter]), metrics)
        self.kill_thread(writer)
        with pytest.raises(StorageError, match="disk full"):
            writer.append(INCREMENTAL, b"lost")
        # the same record the writer thread leaves for a failed write
        assert len(exporter.of_type("writer.failed")) == 1
        assert metrics.counter("writer_failures_total").value == 1
        writer.close()


class TestBackgroundWriterTimeouts:
    def test_flush_timeout_names_queued_count(self):
        backing = _GatedFailingStore(fail_on=-1)
        writer = BackgroundWriter(backing)
        for i in range(3):
            writer.append(INCREMENTAL, b"epoch-%d" % i)
        with pytest.raises(
            StorageError, match=r"3 epoch\(s\) still queued, not durable"
        ):
            writer.flush(timeout=0.05)
        backing.gate.set()
        writer.close()

    def test_close_timeout_names_queued_count(self):
        backing = _GatedFailingStore(fail_on=-1)
        writer = BackgroundWriter(backing)
        writer.append(INCREMENTAL, b"stuck")
        with pytest.raises(
            StorageError, match=r"1 epoch\(s\) still queued, not durable"
        ):
            writer.close(timeout=0.05)
        backing.gate.set()
        writer._thread.join(5)

    def test_flush_without_timeout_still_blocks_to_completion(self):
        backing = _SlowStore()
        writer = BackgroundWriter(backing)
        for i in range(3):
            writer.append(INCREMENTAL, b"epoch-%d" % i)
        writer.flush()  # no timeout: waits as long as it takes
        assert len(backing.epochs()) == 3
        writer.close()

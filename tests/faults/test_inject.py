"""Per-kind behaviour of the fault-injecting store wrapper."""

import os

import pytest

from repro.core.errors import CheckpointError
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    AppendReceipt,
    FileStore,
    MemoryStore,
    RetryingStore,
)
from repro.runtime.sink import StoreSink
from repro.faults import (
    BITFLIP,
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_TMP,
    STALL,
    TORN,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
    FaultyStore,
    InjectedCrash,
    TransientFault,
)

PAYLOAD = b"payload-bytes-for-fault-injection"


def make_store(tmp_path, spec):
    backing = FileStore(str(tmp_path / "store"))
    return backing, FaultyStore(backing, FaultPlan.single(spec))


class TestTransient:
    def test_raises_then_succeeds(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, TRANSIENT, attempts=2))
        with pytest.raises(TransientFault):
            store.append(FULL, PAYLOAD)
        with pytest.raises(TransientFault):
            store.append(FULL, PAYLOAD)
        assert store.append(FULL, PAYLOAD) == 0
        assert [epoch.data for epoch in backing.epochs()] == [PAYLOAD]
        assert store.ops == 1
        assert len(store.injected) == 2

    def test_is_an_oserror(self):
        assert issubclass(TransientFault, OSError)


class TestStall:
    def test_sleeps_then_appends(self, tmp_path):
        naps = []
        backing = FileStore(str(tmp_path / "store"))
        store = FaultyStore(
            backing,
            FaultPlan.single(FaultSpec(0, STALL, param=0.25)),
            sleep=naps.append,
        )
        assert store.append(FULL, PAYLOAD) == 0
        assert naps == [0.25]
        assert backing.epochs()[0].data == PAYLOAD


class TestCrashPoints:
    def test_crash_before_leaves_nothing(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, CRASH_BEFORE))
        with pytest.raises(InjectedCrash):
            store.append(FULL, PAYLOAD)
        assert backing.epochs() == []

    def test_crash_after_leaves_durable_epoch(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, CRASH_AFTER))
        with pytest.raises(InjectedCrash):
            store.append(FULL, PAYLOAD)
        assert [epoch.data for epoch in backing.epochs()] == [PAYLOAD]

    def test_crash_tmp_leaves_partial_tmp_file(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(1, CRASH_TMP))
        store.append(FULL, PAYLOAD)
        with pytest.raises(InjectedCrash):
            store.append(INCREMENTAL, PAYLOAD)
        tmps = [
            name
            for name in os.listdir(backing.directory)
            if name.endswith(".tmp")
        ]
        assert tmps == ["epoch-000001.ckpt.tmp"]
        # The durable prefix is untouched.
        assert [epoch.index for epoch in backing.epochs()] == [0]

    def test_injected_crash_is_not_an_exception(self):
        assert not issubclass(InjectedCrash, Exception)

    def test_crash_is_not_retried(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, CRASH_BEFORE))
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        with pytest.raises(InjectedCrash):
            policy.run(lambda: store.append(FULL, PAYLOAD))
        assert backing.epochs() == []


class TestByteDamage:
    def test_torn_truncates_at_requested_byte(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, TORN, param=9))
        with pytest.raises(InjectedCrash):
            store.append(FULL, PAYLOAD)
        path = backing._epoch_path(0)
        assert os.path.getsize(path) == 9
        assert backing.epochs() == []

    def test_torn_never_leaves_whole_file(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, TORN, param=10 ** 6))
        with pytest.raises(InjectedCrash):
            store.append(FULL, PAYLOAD)
        intact_size = 14 + len(PAYLOAD)
        assert os.path.getsize(backing._epoch_path(0)) < intact_size

    def test_bitflip_is_silent_but_detected_on_read(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(0, BITFLIP, param=130))
        assert store.append(FULL, PAYLOAD) == 0  # caller sees success
        # The CRC catches the flip on read and discards the epoch.
        assert backing.epochs() == []

    def test_byte_faults_require_file_store(self):
        store = FaultyStore(
            MemoryStore(), FaultPlan.single(FaultSpec(0, TORN, param=3))
        )
        with pytest.raises(CheckpointError, match="FileStore"):
            store.append(FULL, PAYLOAD)


class TestPassthrough:
    def test_no_fault_ops_pass_straight_through(self, tmp_path):
        backing, store = make_store(tmp_path, FaultSpec(5, CRASH_BEFORE))
        for step in range(3):
            assert store.append(FULL, PAYLOAD) == step
        assert store.ops == 3
        assert store.injected == []
        assert store.epochs() == backing.epochs()

    def test_compaction_prunes_like_the_bare_store(self, tmp_path):
        # prune() passes through the fault layer, so compaction deletes
        # the superseded epochs it would delete on the bare FileStore
        from repro.runtime.policy import EpochPolicy
        from repro.runtime.session import CheckpointSession
        from tests.conftest import build_root

        def epoch_files(store, directory):
            root = build_root()
            session = CheckpointSession(
                roots=root,
                sink=StoreSink(store),
                policy=EpochPolicy.bounded_chain(3),
            )
            session.base()
            for step in range(7):
                root.mid.leaf.value = step
                session.commit()
            return sorted(
                name for name in os.listdir(directory) if name.endswith(".ckpt")
            )

        bare_dir, faulty_dir = str(tmp_path / "bare"), str(tmp_path / "faulty")
        bare = epoch_files(FileStore(bare_dir), bare_dir)
        faulty = epoch_files(
            FaultyStore(FileStore(faulty_dir), FaultPlan([])), faulty_dir
        )
        assert faulty == bare
        assert len(bare) < 8


class TestFaultySink:
    """A session sink over a faulty store: the crash matrix's store path."""

    def test_wraps_store_and_exposes_it(self, tmp_path):
        backing = FileStore(str(tmp_path / "store"))
        plan = FaultPlan.single(FaultSpec(0, TRANSIENT, attempts=1))
        sink = StoreSink(
            RetryingStore(
                FaultyStore(backing, plan),
                RetryPolicy(max_attempts=3, base_delay=0.0),
            )
        )
        assert isinstance(sink.store.backing, FaultyStore)
        receipt = AppendReceipt()
        sink.put(FULL, PAYLOAD, receipt=receipt)
        # The retry policy absorbed the single transient fault.
        assert receipt.retries == 1
        assert [epoch.data for epoch in backing.epochs()] == [PAYLOAD]

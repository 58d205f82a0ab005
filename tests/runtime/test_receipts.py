"""Commit receipts: durability states, strategy fallback, escalation."""

import pytest

from repro.core.retry import RetryPolicy
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
    RetryingStore,
)
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.sink import BufferSink, NullSink
from repro.runtime.strategy import Strategy
from tests.conftest import build_root


class _BrokenSpecialized(Strategy):
    """A 'specialized' routine that partially runs, then dies.

    Records the first root through the incremental driver (so its flags
    clear — the partial-commit hazard the fallback must handle) and
    raises before touching the rest.
    """

    name = "broken_spec"

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.calls = 0

    def write(self, roots, out):
        from repro.core.checkpoint import Checkpoint

        self.calls += 1
        if self.calls <= self.fail_times:
            if roots:
                Checkpoint(out).checkpoint(roots[0])
            raise RuntimeError("specialized routine hit an unproved shape")


class TestDurabilityStates:
    def test_memory_store_commits_are_durable(self):
        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        receipt = session.base().receipt
        assert receipt.durability == "durable"
        assert receipt.retries == 0
        assert not receipt.degraded

    def test_file_store_commits_are_durable(self, tmp_path):
        session = CheckpointSession(
            roots=build_root(), sink=str(tmp_path / "ckpts")
        )
        assert session.base().receipt.durability == "durable"

    def test_background_writer_commits_are_queued(self, tmp_path):
        writer = BackgroundWriter(FileStore(str(tmp_path / "ckpts")))
        session = CheckpointSession(roots=build_root(), sink=writer)
        try:
            assert session.base().receipt.durability == "queued"
        finally:
            session.close()

    def test_null_sink_commits_are_discarded(self):
        session = CheckpointSession(roots=build_root(), sink=NullSink())
        assert session.base().receipt.durability == "discarded"

    def test_buffer_sink_commits_are_durable(self):
        session = CheckpointSession(roots=build_root(), sink=BufferSink())
        assert session.base().receipt.durability == "durable"

    def test_background_writer_commits_report_no_index(self, tmp_path):
        # A queued epoch has no index yet: the writer thread's append to
        # the backing store assigns it.
        store = FileStore(str(tmp_path / "ckpts"))
        root = build_root()
        session = CheckpointSession(roots=root, sink=BackgroundWriter(store))
        try:
            results = [session.base()]
            for step in range(5):
                root.mid.leaf.value = step
                results.append(session.commit())
            session.flush()
        finally:
            session.close()
        assert [r.epoch_index for r in results] == [None] * 6
        assert [e.index for e in store.epochs()] == list(range(6))
        assert all(r.receipt.durability == "queued" for r in results)

    def test_none_sink_commits_are_discarded(self):
        session = CheckpointSession(roots=build_root(), sink=None)
        assert session.base().receipt.durability == "discarded"

    def test_commit_bytes_carries_a_receipt(self):
        session = CheckpointSession(sink=MemoryStore())
        result = session.commit_bytes(FULL, b"\x00")
        assert result.receipt.durability == "durable"


class _FlakyStore(MemoryStore):
    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.attempts = 0

    def append(self, kind, data, **lineage):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError(f"flaky append {self.attempts}")
        return super().append(kind, data, **lineage)


class TestReceiptRetries:
    def test_receipt_counts_transient_retries(self):
        store = _FlakyStore(failures=2)
        session = CheckpointSession(
            roots=build_root(),
            sink=store,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        receipt = session.base().receipt
        assert receipt.retries == 2
        assert any("retry" in event for event in receipt.events)

    def test_later_commits_count_only_their_own_retries(self):
        store = _FlakyStore(failures=1)
        session = CheckpointSession(
            roots=build_root(),
            sink=store,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        assert session.base().receipt.retries == 1
        assert session.commit().receipt.retries == 0


class TestStrategyFallback:
    def make_session(self, root=None, fail_times=1):
        broken = _BrokenSpecialized(fail_times=fail_times)
        session = CheckpointSession(
            roots=root if root is not None else build_root(),
            strategy=broken,
            sink=MemoryStore(),
            policy=EpochPolicy.delta_only(),
        )
        return session, broken

    def test_failed_specialized_commit_falls_back(self):
        session, _ = self.make_session()
        session.base()
        result = session.commit()
        assert result.strategy == "checking"
        assert result.receipt.degraded
        assert session.degradations == 1
        assert any("fell back" in event for event in result.receipt.events)

    def test_next_commit_escalates_to_full(self):
        session, _ = self.make_session()
        session.base()
        session.commit()  # degrades
        repaired = session.commit()
        assert repaired.kind == FULL
        assert repaired.strategy == "full"
        assert repaired.receipt.escalated
        # The chain is repaired: the escalation flag does not persist.
        after = session.commit()
        assert after.kind == INCREMENTAL
        assert not after.receipt.escalated

    def test_explicit_kind_does_not_consume_escalation(self):
        session, _ = self.make_session()
        session.base()
        session.commit()  # degrades, schedules escalation
        labeled = session.commit(kind=INCREMENTAL)
        assert labeled.kind == INCREMENTAL  # caller forced the label
        escalated = session.commit()
        assert escalated.kind == FULL
        assert escalated.receipt.escalated

    def test_degraded_commit_loses_no_data(self):
        """The partial-commit hazard: flags cleared mid-failure still land.

        The broken strategy records root (clearing its flags) before
        raising; the fallback re-records what is *still* flagged and the
        escalated full re-records everything, so recovery after the full
        sees every mutation.
        """
        root = build_root()
        session, _ = self.make_session(root=root)
        session.base()
        root.mid.leaf.value = 4321
        session.commit()  # degraded delta
        session.commit()  # escalated full
        table = session.recover()
        recovered = table[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 4321

    def test_generic_strategy_failure_is_not_absorbed(self):
        def broken_driver(out):
            class _Driver:
                def checkpoint(self, root):
                    raise RuntimeError("driver bug")

            return _Driver()

        from repro.runtime.strategy import DriverStrategy

        session = CheckpointSession(
            roots=build_root(),
            strategy=DriverStrategy("broken", broken_driver),
            sink=MemoryStore(),
        )
        with pytest.raises(RuntimeError, match="driver bug"):
            session.commit()
        assert session.degradations == 0
        assert not session._escalate_full

    def test_recovery_after_only_degraded_delta_is_consistent(self):
        """Even before the escalated full lands, the store recovers."""
        root = build_root()
        session, _ = self.make_session(root=root)
        session.base()
        root.mid.leaf.value = 99
        session.commit()  # degraded delta only
        table = session.recover()
        assert table[root._ckpt_info.object_id].mid.leaf.value == 99


class _DeadReplica(MemoryStore):
    def append(self, kind, data, **lineage):
        raise OSError("volume pulled")


class TestReplicaReceipts:
    def make_replicated(self, children=None, **kwargs):
        from repro.core.replica import ReplicatedStore

        children = children or [MemoryStore(), MemoryStore(), MemoryStore()]
        return ReplicatedStore(children, **kwargs)

    def test_receipt_reports_full_ack(self):
        store = self.make_replicated()
        session = CheckpointSession(roots=build_root(), sink=store)
        receipt = session.base().receipt
        assert receipt.replicas_acked == ["r0", "r1", "r2"]
        assert receipt.replica_quorum == 2
        assert receipt.degraded_replicas == []
        assert receipt.durability == "durable"

    def test_receipt_reports_degraded_replica(self):
        store = self.make_replicated(
            [MemoryStore(), MemoryStore(), _DeadReplica()]
        )
        session = CheckpointSession(roots=build_root(), sink=store)
        receipt = session.base().receipt
        assert receipt.replicas_acked == ["r0", "r1"]
        assert receipt.degraded_replicas == ["r2"]
        assert receipt.durability == "quorum"

    def test_single_store_receipt_has_no_replica_fields(self):
        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        receipt = session.base().receipt
        assert receipt.replicas_acked is None
        assert receipt.replica_quorum is None
        assert receipt.degraded_replicas is None

    def test_receipt_through_background_writer(self):
        store = self.make_replicated()
        writer = BackgroundWriter(store)
        session = CheckpointSession(roots=build_root(), sink=writer)
        try:
            session.base()
            session.flush()
            result = session.commit()
            session.flush()
        finally:
            session.close()
        # a queued epoch has not reached the replicas when the commit
        # returns, so its receipt names no acks
        assert result.receipt.durability == "queued"
        assert result.receipt.replicas_acked is None
        assert result.receipt.degraded_replicas is None
        assert len(store.epochs()) == 2

    def test_receipt_counts_per_replica_retries(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        store = self.make_replicated(
            [
                RetryingStore(_FlakyStore(failures=2), policy),
                MemoryStore(),
                MemoryStore(),
            ]
        )
        session = CheckpointSession(roots=build_root(), sink=store)
        receipt = session.base().receipt
        assert receipt.retries == 2
        assert sum("retry" in event for event in receipt.events) == 2
        assert receipt.replicas_acked == ["r0", "r1", "r2"]
        assert receipt.durability == "durable"

"""ReplicatedStore: quorum writes, checksums, breaker, scrub, Scrubber."""

import threading

import pytest

from repro.core.errors import StorageError
from repro.core.replica import (
    FENCED,
    HEALTHY,
    SUSPECT,
    ChecksumError,
    ReplicatedStore,
    ScrubReport,
    Scrubber,
    frame_record,
    is_framed,
    unframe_record,
)
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    AppendReceipt,
    BackgroundWriter,
    FileStore,
    MemoryStore,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MemoryExporter, Tracer


class _DeadStore(MemoryStore):
    """A replica whose volume is gone: every operation raises OSError."""

    def __init__(self, dead=True):
        super().__init__()
        self.dead = dead

    def _check(self):
        if self.dead:
            raise OSError("volume pulled")

    def append(self, kind, data, **lineage):
        self._check()
        return super().append(kind, data, **lineage)

    def epoch_map(self):
        self._check()
        return super().epoch_map()

    def put_epoch(self, epoch, overwrite=False):
        self._check()
        return super().put_epoch(epoch, overwrite=overwrite)

    def quarantine_epoch(self, index, reason=""):
        self._check()
        return super().quarantine_epoch(index, reason)


def three_way(**kwargs):
    return ReplicatedStore(
        [MemoryStore(), MemoryStore(), MemoryStore()], **kwargs
    )


class TestFraming:
    def test_roundtrip(self):
        framed = frame_record(b"payload bytes")
        assert is_framed(framed)
        assert unframe_record(framed) == b"payload bytes"

    def test_unframed_rejected(self):
        with pytest.raises(ChecksumError):
            unframe_record(b"no header here")

    def test_corrupted_payload_rejected(self):
        framed = bytearray(frame_record(b"payload bytes"))
        framed[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            unframe_record(bytes(framed))

    def test_corrupted_digest_rejected(self):
        framed = bytearray(frame_record(b"payload bytes"))
        framed[10] ^= 0xFF  # inside the digest
        with pytest.raises(ChecksumError):
            unframe_record(bytes(framed))


class TestQuorumWrites:
    def test_append_fans_out_to_every_replica(self):
        store = three_way()
        assert store.append(FULL, b"base") == 0
        assert store.append(INCREMENTAL, b"delta") == 1
        for rep in store.replica_status():
            assert rep["acks"] == 2
        # the children hold framed records; the front unframes them
        epochs = store.epochs()
        assert [e.data for e in epochs] == [b"base", b"delta"]

    def test_children_store_framed_records(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        for child in children:
            raw = child.epoch_map()[0].data
            assert is_framed(raw)
            assert unframe_record(raw) == b"base"

    def test_default_quorum_is_majority(self):
        assert three_way().quorum == 2
        assert ReplicatedStore([MemoryStore()] * 5).quorum == 3

    def test_quorum_bounds_validated(self):
        with pytest.raises(StorageError):
            three_way(quorum=4)
        with pytest.raises(StorageError):
            three_way(quorum=0)
        with pytest.raises(StorageError):
            ReplicatedStore([])

    def test_commit_survives_one_dead_replica(self):
        store = ReplicatedStore([MemoryStore(), MemoryStore(), _DeadStore()])
        receipt = AppendReceipt()
        assert store.append(FULL, b"base", receipt=receipt) == 0
        assert receipt.replicas_acked == ["r0", "r1"]
        assert "r2" in receipt.degraded_replicas
        assert receipt.replica_quorum == 2
        assert receipt.durability == "quorum"

    def test_quorum_loss_raises(self):
        store = ReplicatedStore([MemoryStore(), _DeadStore(), _DeadStore()])
        receipt = AppendReceipt()
        with pytest.raises(StorageError, match="write quorum lost"):
            store.append(FULL, b"base", receipt=receipt)
        # who acked is on record; the failed epoch is not called durable
        assert receipt.replicas_acked == ["r0"]
        assert receipt.degraded_replicas == ["r1", "r2"]
        assert receipt.durability not in ("durable", "quorum")

    def test_all_ack_quorum_fails_on_single_death(self):
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), _DeadStore()], quorum=3
        )
        with pytest.raises(StorageError, match="write quorum lost"):
            store.append(FULL, b"base")

    def test_durability_is_durable_when_all_ack(self):
        store = three_way()
        receipt = AppendReceipt()
        store.append(FULL, b"base", receipt=receipt)
        assert receipt.durability == "durable"

    def test_invalid_kind_rejected(self):
        with pytest.raises(StorageError, match="unknown checkpoint kind"):
            three_way().append("exotic", b"x")


class TestQuorumReads:
    def test_divergent_copy_is_outvoted(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        # silently diverge one replica's record *through its framing*
        epoch = children[1].epoch_map()[1]
        rotten = bytearray(epoch.data)
        rotten[-1] ^= 0xFF
        children[1].put_epoch(epoch._replace(data=bytes(rotten)), overwrite=True)
        assert [e.data for e in store.epochs()] == [b"base", b"delta"]

    def test_chain_stops_at_first_unreadable_index(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        store.append(INCREMENTAL, b"tail")
        for child in children:
            epoch = child.epoch_map()[1]
            bad = bytearray(epoch.data)
            bad[-1] ^= 0xFF
            child.put_epoch(epoch._replace(data=bytes(bad)), overwrite=True)
        # index 1 has no checksum-valid copy anywhere: prefix semantics
        assert [e.data for e in store.epochs()] == [b"base"]

    def test_epoch_map_returns_unframed_quorum_view(self):
        store = three_way()
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        mapping = store.epoch_map()
        assert mapping[0].data == b"base"
        assert mapping[1].data == b"delta"


class TestBreaker:
    def test_suspect_then_fence_then_probe_heals(self):
        dead = _DeadStore()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), dead],
            suspect_after=1,
            fence_after=2,
            probe_after=2,
            probe_jitter=0,
        )
        store.append(FULL, b"e0")
        states = {s["name"]: s for s in store.replica_status()}
        assert states["r2"]["state"] == SUSPECT
        store.append(INCREMENTAL, b"e1")
        states = {s["name"]: s for s in store.replica_status()}
        assert states["r2"]["state"] == FENCED
        assert states["r2"]["fences"] == 1
        # fenced: skipped while the probe countdown runs
        store.append(INCREMENTAL, b"e2")
        dead.dead = False  # the volume comes back
        store.append(INCREMENTAL, b"e3")  # probe fires here
        states = {s["name"]: s for s in store.replica_status()}
        assert states["r2"]["state"] == HEALTHY
        # the probe caught the replica up before handing it the append
        assert len(dead.epochs()) == 4
        assert [unframe_record(e.data) for e in dead.epochs()] == [
            b"e0", b"e1", b"e2", b"e3",
        ]

    def test_failed_probe_rearms_countdown(self):
        dead = _DeadStore()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), dead],
            suspect_after=1,
            fence_after=1,
            probe_after=1,
            probe_jitter=0,
        )
        store.append(FULL, b"e0")  # fence immediately
        store.append(INCREMENTAL, b"e1")  # probe, fails, re-arms
        states = {s["name"]: s for s in store.replica_status()}
        assert states["r2"]["state"] == FENCED
        assert states["r2"]["probe_in"] == 1

    def test_fenced_replica_never_blocks_commits(self):
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), _DeadStore()],
            fence_after=1,
        )
        for step in range(10):
            kind = FULL if step == 0 else INCREMENTAL
            assert store.append(kind, b"x%d" % step) == step
        assert len(store.epochs()) == 10


class TestScrub:
    def test_scrub_clean_store(self):
        store = three_way()
        store.append(FULL, b"base")
        report = store.scrub()
        assert report.clean and report.healed
        assert report.epochs_checked == 1

    def test_scrub_repairs_divergence_and_quarantines(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        epoch = children[2].epoch_map()[1]
        bad = bytearray(epoch.data)
        bad[-2] ^= 0xFF
        children[2].put_epoch(epoch._replace(data=bytes(bad)), overwrite=True)
        report = store.scrub()
        assert not report.clean and report.healed
        assert report.repaired == [
            {"replica": "r2", "index": 1, "action": "replaced"}
        ]
        assert len(report.quarantined) == 1  # copied aside, never deleted
        assert children[2].quarantined[0][0] == 1
        # post-repair: byte-identical records everywhere
        assert (
            children[2].epoch_map()[1].data == children[0].epoch_map()[1].data
        )

    def test_scrub_copies_missing_epochs(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        fresh = MemoryStore()  # an empty replacement volume
        rebuilt = ReplicatedStore([children[0], children[1], fresh])
        report = rebuilt.scrub()
        assert report.repaired == [
            {"replica": "r2", "index": 0, "action": "copied"}
        ]
        assert unframe_record(fresh.epoch_map()[0].data) == b"base"

    def test_scrub_reports_unrepairable(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        for child in children:
            epoch = child.epoch_map()[0]
            bad = bytearray(epoch.data)
            bad[-1] ^= 0xFF
            child.put_epoch(epoch._replace(data=bytes(bad)), overwrite=True)
        report = store.scrub()
        assert report.unrepairable == [0]
        assert not report.healed

    def test_scrub_report_to_dict(self):
        report = ScrubReport(replicas=["r0"], epochs_checked=3)
        data = report.to_dict()
        assert data["clean"] is True
        assert data["healed"] is True


class TestFileStoreReplicas:
    def test_file_and_memory_mix(self, tmp_path):
        children = [
            FileStore(str(tmp_path / "r0")),
            FileStore(str(tmp_path / "r1")),
            MemoryStore(),
        ]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        assert [e.data for e in store.epochs()] == [b"base", b"delta"]
        # repaired/replicated file stores hold byte-identical files
        a = (tmp_path / "r0" / "epoch-000001.ckpt").read_bytes()
        b = (tmp_path / "r1" / "epoch-000001.ckpt").read_bytes()
        assert a == b

    def test_scrub_quarantines_into_subdirectory(self, tmp_path):
        dirs = [str(tmp_path / f"r{i}") for i in range(3)]
        children = [FileStore(d) for d in dirs]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        victim = FileStore(dirs[1])
        epoch = victim.epoch_map()[0]
        bad = bytearray(epoch.data)
        bad[0] ^= 0xFF
        victim.put_epoch(epoch._replace(data=bytes(bad)), overwrite=True)
        rebuilt = ReplicatedStore([FileStore(d) for d in dirs])
        report = rebuilt.scrub()
        assert report.healed and report.repaired
        quarantine = tmp_path / "r1" / "quarantine"
        assert quarantine.is_dir()
        assert list(quarantine.iterdir())  # the divergent record survives

    def test_recover_through_quorum(self, tmp_path):
        from repro.runtime.session import CheckpointSession
        from repro.runtime.sink import StoreSink
        from repro.synthetic.structures import build_structures, element_at

        dirs = [str(tmp_path / f"r{i}") for i in range(3)]
        store = ReplicatedStore([FileStore(d) for d in dirs])
        roots = build_structures(2, 2, 2, 1)
        session = CheckpointSession(roots=roots, sink=StoreSink(store))
        session.base()
        element_at(roots[0], 0, 1).v0 = 4242
        session.commit()
        table = ReplicatedStore([FileStore(d) for d in dirs]).recover()
        values = [
            getattr(table[i], "v0", None)
            for i in sorted(table.ids())
        ]
        assert 4242 in values


class TestObservability:
    def test_events_and_counters(self):
        exporter = MemoryExporter()
        tracer = Tracer([exporter])
        metrics = MetricsRegistry()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), _DeadStore()], fence_after=1
        )
        store.instrument(tracer, metrics)
        store.append(FULL, b"base")
        assert exporter.of_type("replica.append")
        assert exporter.of_type("replica.state")
        counters = metrics.snapshot()["counters"]
        assert counters.get("replica_acks_total{replica=r0}") == 1
        assert counters.get("replica_acks_total{replica=r1}") == 1
        assert (
            counters.get("replica_breaker_transitions_total{replica=r2,to=fenced}")
            == 1
        )

    def test_instrument_only_replaces_defaults(self):
        store = three_way()
        tracer = Tracer([MemoryExporter()])
        metrics = MetricsRegistry()
        store.instrument(tracer, metrics)
        other = Tracer([MemoryExporter()])
        store.instrument(other, MetricsRegistry())
        assert store.tracer is tracer
        assert store.metrics is metrics


class TestScrubber:
    def test_run_once_and_history_bound(self):
        store = three_way()
        store.append(FULL, b"base")
        scrubber = Scrubber(store, keep=2)
        for _ in range(5):
            scrubber.run_once()
        assert scrubber.runs == 5
        assert len(scrubber.reports) == 2

    def test_background_thread_scrubs(self):
        children = [MemoryStore(), MemoryStore(), MemoryStore()]
        store = ReplicatedStore(children)
        store.append(FULL, b"base")
        epoch = children[0].epoch_map()[0]
        bad = bytearray(epoch.data)
        bad[-1] ^= 0xFF
        children[0].put_epoch(epoch._replace(data=bytes(bad)), overwrite=True)
        with Scrubber(store, interval=0.01) as scrubber:
            deadline = threading.Event()
            for _ in range(200):
                if scrubber.runs:
                    break
                deadline.wait(0.01)
        assert scrubber.runs >= 1
        assert (
            children[0].epoch_map()[0].data == children[1].epoch_map()[0].data
        )

    def test_stop_is_idempotent(self):
        scrubber = Scrubber(three_way(), interval=60.0)
        scrubber.start()
        scrubber.stop(timeout=2.0)
        scrubber.stop(timeout=2.0)


class TestLifecycle:
    def test_flush_repairs_behind_replicas(self):
        dead = _DeadStore()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), dead], fence_after=1
        )
        store.append(FULL, b"e0")
        store.append(INCREMENTAL, b"e1")
        dead.dead = False
        store.flush()
        assert len(dead.epochs()) == 2
        states = {s["name"]: s for s in store.replica_status()}
        assert states["r2"]["state"] == HEALTHY

    def test_undurable_counts(self):
        dead = _DeadStore()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), dead], fence_after=1
        )
        store.append(FULL, b"e0")
        store.append(INCREMENTAL, b"e1")
        counts = store.undurable_counts()
        assert counts == {"r0": 0, "r1": 0, "r2": 2}

    def test_background_writer_flush_reaches_children(self):
        store = three_way()
        writer = BackgroundWriter(store)
        try:
            writer.append(FULL, b"base")
            writer.flush(timeout=5.0)
            assert len(store.epochs()) == 1
        finally:
            writer.close(timeout=5.0)

    def test_background_writer_error_names_undurable_replicas(self):
        dead = _DeadStore()
        store = ReplicatedStore(
            [MemoryStore(), MemoryStore(), dead], fence_after=1
        )
        writer = BackgroundWriter(store)
        try:
            writer.append(FULL, b"base")
            writer.flush(timeout=5.0)
        finally:
            writer.close(timeout=5.0)
        # the degraded replica is visible through undurable_counts even
        # though the quorum made the commit itself succeed
        assert store.undurable_counts()["r2"] == 1

    def test_flush_runs_each_child_once_and_propagates_errors(self):
        class _BrokenFlush(MemoryStore):
            def __init__(self):
                super().__init__()
                self.flushes = []

            def flush(self, timeout=None):
                self.flushes.append(timeout)
                raise TypeError("bug inside the child's flush")

        broken = _BrokenFlush()
        store = ReplicatedStore([MemoryStore(), broken, MemoryStore()])
        store.append(FULL, b"base")
        with pytest.raises(TypeError, match="inside the child"):
            store.flush(timeout=2.0)
        assert broken.flushes == [2.0]

"""Replica-targeted fault injection and the crash simulator's replica path."""

import pytest

from repro.core.errors import StorageError
from repro.core.replica import ReplicatedStore, unframe_record
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore
from repro.faults.inject import FaultyStore, ReplicaFaultStore
from repro.faults.plan import (
    CORRUPT_REPLICA,
    CRASH_AFTER,
    CRASH_RESTORE,
    KILL_REPLICA,
    TORN_REPLICA,
    FaultPlan,
    FaultSpec,
)
from repro.faults.crashsim import CrashSim, Scenario, build_replica_matrix


def replicated_with_faults(plan, replicas=3, **kwargs):
    children = [
        ReplicaFaultStore(MemoryStore(), plan, ordinal)
        for ordinal in range(replicas)
    ]
    return ReplicatedStore(children, **kwargs), children


class TestReplicaFaultStore:
    def test_kill_makes_replica_raise_oserror(self):
        plan = FaultPlan.single(FaultSpec(1, KILL_REPLICA, replica=0))
        wrapped = ReplicaFaultStore(MemoryStore(), plan, 0)
        wrapped.append(FULL, b"e0")
        with pytest.raises(OSError, match="replica death"):
            wrapped.append(INCREMENTAL, b"e1")
        with pytest.raises(OSError):
            wrapped.epochs()

    def test_spec_only_fires_on_matching_ordinal(self):
        plan = FaultPlan.single(FaultSpec(0, KILL_REPLICA, replica=2))
        bystander = ReplicaFaultStore(MemoryStore(), plan, 0)
        bystander.append(FULL, b"e0")
        assert bystander.injected == []

    def test_corrupt_damages_through_child_framing(self):
        plan = FaultPlan.single(
            FaultSpec(1, CORRUPT_REPLICA, param=7, replica=1)
        )
        store, children = replicated_with_faults(plan)
        store.append(FULL, b"base")
        store.append(INCREMENTAL, b"delta")
        # the damaged copy is readable by the child (its CRC was
        # recomputed by put_epoch) but fails the end-to-end sha256
        raw = children[1].backing.epoch_map()[1].data
        with pytest.raises(Exception):
            unframe_record(raw)
        # the quorum outvotes it
        assert [e.data for e in store.epochs()] == [b"base", b"delta"]

    def test_torn_write_truncates_acked_record(self, tmp_path):
        plan = FaultPlan.single(
            FaultSpec(1, TORN_REPLICA, param=4, replica=0)
        )
        child = FileStore(str(tmp_path / "r0"))
        wrapped = ReplicaFaultStore(child, plan, 0)
        wrapped.append(FULL, b"e0" * 50)
        wrapped.append(INCREMENTAL, b"e1" * 50)
        assert any("tore epoch 1" in note for note in wrapped.injected)
        path = tmp_path / "r0" / "epoch-000001.ckpt"
        assert path.stat().st_size <= 4

    def test_faulty_store_rejects_replica_kinds(self):
        plan = FaultPlan.single(FaultSpec(0, KILL_REPLICA, replica=0))
        with pytest.raises(Exception, match="ReplicaFaultStore"):
            FaultyStore(MemoryStore(), plan)


class TestReplicaScenario:
    def test_session_kinds_rejected(self):
        with pytest.raises(StorageError):
            Scenario(
                name="bad",
                plan=FaultPlan.single(FaultSpec(0, CRASH_RESTORE)),
                path="replica",
            )

    def test_out_of_range_replica_rejected(self):
        with pytest.raises(StorageError, match="targets replica 5"):
            Scenario(
                name="bad",
                plan=FaultPlan.single(FaultSpec(0, KILL_REPLICA, replica=5)),
                path="replica",
            )

    def test_quorum_survival_accounting(self):
        lossy = Scenario(
            name="x",
            plan=FaultPlan(
                [
                    FaultSpec(0, KILL_REPLICA, replica=0),
                    FaultSpec(1, KILL_REPLICA, replica=2),
                ]
            ),
            path="replica",
        )
        assert lossy.killed == 2
        assert lossy.quorum_size == 2
        assert not lossy.quorum_survives
        wide = Scenario(name="y", plan=lossy.plan, path="replica", replicas=5)
        assert wide.quorum_survives


class TestBuildReplicaMatrix:
    def test_shape(self):
        scenarios = build_replica_matrix()
        assert len(scenarios) >= 20
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        assert all(s.path == "replica" for s in scenarios)
        assert "replica-quorum-loss" in names
        assert "replica-allack-kill" in names
        assert any(s.replicas == 5 for s in scenarios)

    def test_quorum_survivors_dominate(self):
        scenarios = build_replica_matrix()
        survivors = [s for s in scenarios if s.quorum_survives]
        assert len(survivors) >= len(scenarios) - 2


class TestReplicaSim:
    def run_one(self, tmp_path, name, *specs):
        scenario = Scenario(name=name, plan=FaultPlan(specs), path="replica")
        return CrashSim(str(tmp_path)).run_scenario(scenario)

    def test_single_kill_recovers_identically(self, tmp_path):
        result = self.run_one(
            tmp_path, "kill-mid", FaultSpec(3, KILL_REPLICA, replica=1)
        )
        assert result.ok, result.detail
        assert not result.crashed  # a pulled volume never stalls commits
        assert result.path == "replica"

    def test_corruption_scrubbed_and_identical(self, tmp_path):
        result = self.run_one(
            tmp_path,
            "rot-mid",
            FaultSpec(2, CORRUPT_REPLICA, param=33, replica=2),
        )
        assert result.ok, result.detail
        assert any("scrub repaired" in note for note in result.injected)

    def test_quorum_loss_recovers_surviving_prefix(self, tmp_path):
        result = self.run_one(
            tmp_path,
            "double-kill",
            FaultSpec(1, KILL_REPLICA, replica=0),
            FaultSpec(2, KILL_REPLICA, replica=1),
        )
        assert result.crashed  # commits must stop at quorum loss
        assert result.ok, result.detail  # ...but the prefix recovers

    def test_process_crash_on_fanout_stream(self, tmp_path):
        result = self.run_one(
            tmp_path, "crash-after", FaultSpec(2, CRASH_AFTER)
        )
        assert result.crashed
        assert result.ok, result.detail

"""The crash simulator: prove recovery, don't assume it.

:class:`CrashSim` runs one deterministic session workload under a fault
plan, treats :class:`~repro.faults.inject.InjectedCrash` as process
death, simulates a restart, and compares what the restarted process
recovers against a fault-free *reference* run of the same script (same
structures, same mutation schedule, same object identifiers — the id
allocator is pinned). A :class:`Scenario`'s ``path`` picks the store
stack the session commits through, the script it runs, and the restart
check:

``store``
    ``StoreSink(RetryingStore(FaultyStore(FileStore)))`` under the linear
    script. The restart repairs the directory with
    :class:`~repro.fsck.manager.RecoveryManager`, recovers from a fresh
    store, and demands the recovered table be byte-identical to the
    reference at the durable epoch count and ``fsck`` report the
    directory consistent.
``background``
    The same retrying ``FaultyStore(FileStore)`` stack behind a
    :class:`~repro.core.storage.BackgroundWriter`, so retries run on the
    writer thread; the same check.
``branch``
    The ``store`` stack under the time-travel script (commit, named pin,
    restore, fork), with the ``crash-restore`` / ``crash-fork`` points
    armed on the session itself. The restart demands that every epoch
    surviving repair, on both sides of every branch point, materialize
    byte-identically.
``replica``
    A :class:`~repro.core.replica.ReplicatedStore` over retrying
    :class:`~repro.faults.inject.ReplicaFaultStore` children under the
    linear script. The restart scrubs, fscks every replica, requires
    byte-identical replicas, recovers through the quorum view, and flags
    a commit that stalled while the write quorum survived.

:func:`build_matrix` generates the seeded scenario matrix over all four
paths; ``python -m repro.faults`` runs it.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence

from repro.core.checkpointable import Checkpointable
from repro.core.errors import StorageError
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.replica import ReplicatedStore
from repro.core.restore import ObjectTable
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    _HEADER,
    BackgroundWriter,
    FileStore,
    RetryingStore,
)
from repro.core.streams import DataOutputStream
from repro.faults.inject import FaultyStore, InjectedCrash, ReplicaFaultStore
from repro.faults.plan import (
    ALL_KINDS,
    BITFLIP,
    CORRUPT_REPLICA,
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_FORK,
    CRASH_RESTORE,
    CRASH_TMP,
    KILL_REPLICA,
    REPLICA_KINDS,
    SESSION_KINDS,
    STALL,
    TORN,
    TORN_REPLICA,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.fsck.manager import RecoveryManager
from repro.obs.tracer import NULL_TRACER
from repro.runtime.session import CheckpointSession
from repro.runtime.sink import StoreSink

#: the store stacks a scenario can commit through
PATHS = ("store", "background", "branch", "replica")

#: epochs the branching script appends on a fault-free run
BRANCH_SCRIPT_EPOCHS = 7

#: the retry policy every path commits under
_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0005, max_delay=0.002)


def table_fingerprint(table: ObjectTable) -> bytes:
    """A canonical byte image of a recovered object table.

    Objects are re-recorded in identifier order — two tables with the
    same objects, ids, classes, and field values produce identical
    bytes, so "byte-identical recovery" is a plain ``==``.
    """
    out = DataOutputStream()
    for object_id in sorted(table.ids()):
        obj = table[object_id]
        out.write_int32(object_id)
        out.write_int32(obj._ckpt_serial)
        obj.record(out)
    return out.getvalue()


@dataclass
class Workload:
    """A deterministic session workload and the two scripts that commit it.

    ``build`` returns fresh root objects; ``mutate(roots, step)`` applies
    the step-th deterministic modification. The workload must not depend
    on wall clock, randomness, or prior runs — determinism is what makes
    byte-level comparison across runs meaningful.
    """

    build: Callable[[], Sequence[Checkpointable]]
    mutate: Callable[[Sequence[Checkpointable], int], None]
    #: total epochs the linear script commits (one base + epochs-1 deltas)
    epochs: ClassVar[int] = 6

    def run(self, session: CheckpointSession) -> None:
        """The linear script: a base, then one delta per mutation."""
        session.base()
        for step in range(1, self.epochs):
            self.mutate(session.roots(), step)
            session.commit()
        session.flush()

    def run_branching(self, session: CheckpointSession) -> None:
        """The time-travel script: commit, pin, restore, fork.

        Epoch map of the fault-free run (store append order)::

            0  full   main                base
            1  delta  main                mutate 1
            2  delta  main   name="pin"   mutate 2
            3  delta  main                mutate 3
               -- restore("pin"): auto-fork branch main@2, parent 2 --
            4  delta  main@2 parent=2     mutate 4
               -- fork(at=0, branch="alt"): parent 0 --
            5  delta  alt    parent=0     mutate 5
            6  delta  alt                 mutate 6
        """
        session.base()
        self.mutate(session.roots(), 1)
        session.commit()
        self.mutate(session.roots(), 2)
        session.checkpoint("pin")
        self.mutate(session.roots(), 3)
        session.commit()
        session.restore("pin")
        self.mutate(session.roots(), 4)
        session.commit()
        session.fork(at=0, branch="alt")
        self.mutate(session.roots(), 5)
        session.commit()
        self.mutate(session.roots(), 6)
        session.commit()
        session.flush()


def default_workload() -> Workload:
    """Three compound structures, two lists of three elements each."""
    from repro.synthetic.structures import build_structures, element_at

    def build():
        return build_structures(3, 2, 3, 1)

    def mutate(roots, step):
        compound = roots[step % len(roots)]
        element = element_at(compound, step % 2, step % 3)
        element.v0 = step * 1000 + 7

    return Workload(build=build, mutate=mutate)


@dataclass
class Scenario:
    """One fault-injection run: a plan on one path.

    Session crash points (``crash-restore`` / ``crash-fork``) need the
    ``branch`` path's script; replica-scoped kinds need the ``replica``
    path, whose group has ``replicas`` members and a write ``quorum``
    (``None``: a majority). Every other kind runs on the store's append
    stream — on the ``replica`` path, replica 0's.
    """

    name: str
    plan: FaultPlan
    path: str
    replicas: int = 3
    quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.path not in PATHS:
            raise StorageError(f"unknown scenario path {self.path!r}")
        if self.replicas < 1:
            raise StorageError("a scenario needs >= 1 replica")
        for spec in self.plan:
            if spec.kind in SESSION_KINDS and self.path != "branch":
                raise StorageError(
                    f"fault kind {spec.kind!r} needs the branch path's session"
                )
            if spec.kind in REPLICA_KINDS and self.path != "replica":
                raise StorageError(
                    f"fault kind {spec.kind!r} needs the replica path"
                )
            if spec.kind in REPLICA_KINDS and not (
                0 <= spec.replica < self.replicas
            ):
                raise StorageError(
                    f"fault targets replica {spec.replica} but the "
                    f"scenario has {self.replicas}"
                )

    @property
    def killed(self) -> int:
        """Distinct replicas a kill-replica spec takes down."""
        return len({s.replica for s in self.plan if s.kind == KILL_REPLICA})

    @property
    def quorum_size(self) -> int:
        return self.quorum or (self.replicas // 2 + 1)

    @property
    def quorum_survives(self) -> bool:
        """Whether enough replicas outlive the plan to keep committing."""
        return (self.replicas - self.killed) >= self.quorum_size


@dataclass
class ScenarioResult:
    """What one scenario did and whether recovery held."""

    name: str
    path: str
    crashed: bool
    durable_epochs: int
    #: recovered table byte-identical to the reference at that epoch count
    recovered_identical: bool
    #: fsck reports the repaired directory consistent
    fsck_consistent: bool
    #: faults the store actually injected
    injected: List[str] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.recovered_identical and self.fsck_consistent

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "crashed": self.crashed,
            "durable_epochs": self.durable_epochs,
            "recovered_identical": self.recovered_identical,
            "fsck_consistent": self.fsck_consistent,
            "injected": list(self.injected),
            "detail": self.detail,
            "ok": self.ok,
        }


class _CrashPointSession(CheckpointSession):
    """A session that dies entering (param 0) or leaving (param 1) a
    restore/fork call — the process-death analog one layer above the
    store, where no append is in flight but session state is."""

    def __init__(self, plan: FaultPlan, **kwargs) -> None:
        super().__init__(**kwargs)
        self._crash_at: Dict[str, int] = {
            s.kind: int(s.param) for s in plan if s.kind in SESSION_KINDS
        }
        #: the session crash points that fired
        self.crash_log: List[str] = []

    def _maybe_crash(self, kind: str, point: int, where: str) -> None:
        if self._crash_at.get(kind) == point:
            self.crash_log.append(where)
            raise InjectedCrash(f"injected {where}")

    def restore(self, target, roots=None):
        self._maybe_crash(
            CRASH_RESTORE, 0, f"crash entering restore({target!r})"
        )
        table = super().restore(target, roots=roots)
        self._maybe_crash(
            CRASH_RESTORE, 1, f"crash leaving restore({target!r})"
        )
        return table

    def fork(self, at=None, branch=None, roots=None):
        self._maybe_crash(CRASH_FORK, 0, f"crash entering fork({branch!r})")
        table = super().fork(at=at, branch=branch, roots=roots)
        self._maybe_crash(CRASH_FORK, 1, f"crash leaving fork({branch!r})")
        return table


def _replica_dirs(scenario: Scenario, directory: str) -> List[str]:
    return [
        os.path.join(directory, f"replica-{i}")
        for i in range(scenario.replicas)
    ]


def _replica_states(store: ReplicatedStore) -> List[str]:
    """The replicas a run left fenced, suspect, or behind."""
    return [
        f"{state['name']}: {state['state']}"
        + (" behind" if state["behind"] else "")
        for state in store.replica_status()
        if state["state"] != "healthy" or state["behind"]
    ]


def _replicas_identical(dirs: Sequence[str]) -> bool:
    """Whether every replica directory holds the same epoch files."""

    def epoch_files(directory: str) -> List[str]:
        return sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("epoch-") and name.endswith(".ckpt")
        )

    names = epoch_files(dirs[0])
    for other in dirs[1:]:
        if epoch_files(other) != names:
            return False
        _, mismatch, errors = filecmp.cmpfiles(
            dirs[0], other, names, shallow=False
        )
        if mismatch or errors:
            return False
    return True


class CrashSim:
    """Run scenarios under injected faults and verify recovery.

    ``root_dir`` is the working directory (each run gets its own
    subdirectory); ``tracer`` receives one ``crashsim.scenario`` span per
    scenario.
    """

    def __init__(self, root_dir: str, tracer=None) -> None:
        self.root_dir = root_dir
        #: observability hook; the no-op singleton unless one is supplied
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workload = default_workload()
        os.makedirs(root_dir, exist_ok=True)
        #: all runs allocate ids from this base, so runs are comparable
        self._id_base = DEFAULT_ALLOCATOR.last_allocated + 1
        self._id_high = self._id_base
        #: per script (branching or not): fingerprint per epoch index
        self._references: Dict[bool, Dict[int, bytes]] = {}

    @contextmanager
    def _pinned_ids(self):
        """Allocate ids from this simulator's base, then move past them."""
        DEFAULT_ALLOCATOR.reset(self._id_base)
        try:
            yield
        finally:
            self._id_high = max(self._id_high, DEFAULT_ALLOCATOR.last_allocated)
            DEFAULT_ALLOCATOR.advance_past(self._id_high)

    def _fingerprint(self, rebuild, *args) -> bytes:
        with self._pinned_ids():
            return table_fingerprint(rebuild(*args))

    def _script(self, branching: bool):
        return self.workload.run_branching if branching else self.workload.run

    # -- reference run -----------------------------------------------------

    def reference(self, branching: bool = False) -> Dict[int, bytes]:
        """Fingerprints of a fault-free run of one script, per epoch index.

        Key ``i`` maps to the table materialized at epoch ``i``; on the
        linear script that is the table recovered from the first
        ``i + 1`` epochs.
        """
        if branching not in self._references:
            directory = os.path.join(
                self.root_dir,
                "reference-branching" if branching else "reference",
            )
            shutil.rmtree(directory, ignore_errors=True)
            with self._pinned_ids():
                session = CheckpointSession(
                    roots=self.workload.build(),
                    sink=StoreSink(FileStore(directory)),
                )
                self._script(branching)(session)
            store = FileStore(directory)
            self._references[branching] = {
                index: self._fingerprint(store.materialize, index)
                for index in store.lineage().indices()
            }
        return self._references[branching]

    # -- scenario runs -----------------------------------------------------

    def _open(self, scenario: Scenario, directory: str):
        """The path's store stack: a session sink and its fault wrappers."""
        stream = FaultPlan([s for s in scenario.plan if s.kind in ALL_KINDS])
        if scenario.path != "replica":
            faulty = FaultyStore(FileStore(directory), stream)
            retrying = RetryingStore(faulty, _RETRY)
            if scenario.path == "background":
                return StoreSink(BackgroundWriter(retrying)), [faulty]
            return StoreSink(retrying), [faulty]
        targeted = FaultPlan(
            [s for s in scenario.plan if s.kind in REPLICA_KINDS]
        )
        children: List[RetryingStore] = []
        faults: list = []
        for ordinal, child_dir in enumerate(_replica_dirs(scenario, directory)):
            child = FileStore(child_dir)
            # append-stream kinds ride replica 0's stream
            stream_faults = []
            if ordinal == 0 and len(stream):
                child = FaultyStore(child, stream)
                stream_faults = [child]
            replica_faults = ReplicaFaultStore(child, targeted, ordinal)
            children.append(RetryingStore(replica_faults, _RETRY))
            faults += [replica_faults, *stream_faults]
        store = ReplicatedStore(
            children,
            quorum=scenario.quorum,
            # tight breaker so a six-epoch workload exercises
            # fence + probe, not just suspicion
            suspect_after=1,
            fence_after=2,
            probe_after=2,
            probe_jitter=1,
        )
        return StoreSink(store), faults

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        with self.tracer.span(
            "crashsim.scenario", name=scenario.name, path=scenario.path
        ) as span:
            result = self._run_scenario(scenario)
            span.add(
                crashed=result.crashed,
                durable_epochs=result.durable_epochs,
                ok=result.ok,
            )
        return result

    def _run_scenario(self, scenario: Scenario) -> ScenarioResult:
        directory = os.path.join(self.root_dir, f"run-{scenario.name}")
        shutil.rmtree(directory, ignore_errors=True)
        branching = scenario.path == "branch"
        reference = self.reference(branching)
        sink, faults = self._open(scenario, directory)
        result = ScenarioResult(
            name=scenario.name,
            path=scenario.path,
            crashed=False,
            durable_epochs=0,
            recovered_identical=False,
            fsck_consistent=False,
        )
        with self._pinned_ids():
            session = _CrashPointSession(
                scenario.plan, roots=self.workload.build(), sink=sink
            )
            try:
                self._script(branching)(session)
            except (InjectedCrash, StorageError, OSError) as exc:
                result.crashed = True
                result.detail = f"{type(exc).__name__}: {exc}"
            finally:
                # A dead process cannot close anything, but the simulator
                # must not leak writer threads across hundreds of scenarios.
                try:
                    sink.store.close(timeout=5.0)
                except (StorageError, OSError):
                    pass
        if scenario.path == "replica":
            result.injected = _replica_states(sink.store)
        result.injected += [note for fault in faults for note in fault.injected]
        result.injected += session.crash_log

        # -- simulated restart -------------------------------------------
        if scenario.path == "replica":
            self._restart_replicas(scenario, directory, reference, result)
        else:
            result.fsck_consistent = self._repair(directory)
            fresh = FileStore(directory)
            if branching:
                self._check_every_epoch(fresh, reference, result)
            else:
                self._check_recovery(fresh, reference, result)
        return result

    def _repair(self, directory: str) -> bool:
        """Repair with fsck; whether a fresh scan finds it consistent."""
        RecoveryManager(directory, tracer=self.tracer).repair()
        return RecoveryManager(directory, tracer=self.tracer).scan().consistent

    def _check_every_epoch(self, store, reference, result) -> None:
        """Every survivor, on both sides of every branch point, must
        materialize as the reference epoch of the same index."""
        surviving = store.lineage().indices()
        result.durable_epochs = len(surviving)
        result.recovered_identical = True
        for index in surviving:
            recovered = self._fingerprint(store.materialize, index)
            if recovered != reference.get(index):
                result.recovered_identical = False
                result.detail += f"; epoch {index} diverged from reference"

    def _check_recovery(self, store, reference, result) -> None:
        """Recovery must rebuild the reference at the durable epoch count."""
        durable = len(store.epochs())
        result.durable_epochs = durable
        if durable == 0:
            result.recovered_identical = True  # nothing durable, nothing lost
            return
        expected = reference.get(durable - 1)
        if expected is None:
            result.detail += f"; no reference for {durable} durable epochs"
        result.recovered_identical = (
            expected is not None
            and self._fingerprint(store.recover) == expected
        )

    def _restart_replicas(self, scenario, directory, reference, result) -> None:
        """Scrub, fsck every replica, demand identical replicas, recover."""
        dirs = _replica_dirs(scenario, directory)
        # a killed volume comes back *readable*: its content is whatever
        # it held at death, behind and possibly damaged
        restarted = ReplicatedStore(
            [FileStore(d) for d in dirs], quorum=scenario.quorum
        )
        scrub = restarted.scrub()
        consistent = True
        for replica_dir in dirs:
            if not self._repair(replica_dir):
                consistent = False
                result.detail += (
                    f"; fsck inconsistent: {os.path.basename(replica_dir)}"
                )
        healed = scrub.healed
        if healed and not _replicas_identical(dirs):
            healed = False
            result.detail += "; replicas differ after scrub"
        result.fsck_consistent = consistent and healed
        self._check_recovery(restarted, reference, result)
        # A replica loss the quorum absorbs must never surface as a failed
        # commit (a process crash is different: dying is what it injects).
        if (
            result.crashed
            and scenario.quorum_survives
            and not any(s.crashes for s in scenario.plan)
        ):
            result.recovered_identical = False
            result.detail += (
                "; commit stalled although the write quorum survived"
            )
        if scrub.repaired:
            result.injected.append(
                f"scrub repaired {len(scrub.repaired)} record(s), "
                f"quarantined {len(scrub.quarantined)}"
            )

    def run_matrix(self, scenarios: Sequence[Scenario]) -> List[ScenarioResult]:
        return [self.run_scenario(scenario) for scenario in scenarios]


# ---------------------------------------------------------------------------
# The seeded matrix
# ---------------------------------------------------------------------------


def _scenario(name: str, path: str, *specs: FaultSpec, **group) -> Scenario:
    return Scenario(name, FaultPlan(specs), path, **group)


def build_branch_matrix() -> List[Scenario]:
    """Scenarios for the branching script: every crash point plus the
    session-level restore/fork crash points."""
    scenarios = [
        _scenario(f"branch-{kind}-op{op}", "branch", FaultSpec(op, kind))
        for kind in (CRASH_BEFORE, CRASH_AFTER, CRASH_TMP)
        for op in range(BRANCH_SCRIPT_EPOCHS)
    ]
    # Torn writes before the pin, on the auto-fork branch, at the tail.
    scenarios += [
        _scenario(
            f"branch-torn-op{op}", "branch", FaultSpec(op, TORN, param=7)
        )
        for op in (1, 4, 6)
    ]
    # Silent corruption on a shared ancestor: children of both branches
    # must be stranded together, the other branch must survive.
    scenarios += [
        _scenario(
            f"branch-bitflip-op1-b{bit}",
            "branch",
            FaultSpec(1, BITFLIP, param=bit),
        )
        for bit in (3, 203)
    ]
    scenarios += [
        _scenario(
            f"branch-{kind}-{label}", "branch", FaultSpec(0, kind, param=point)
        )
        for kind in (CRASH_RESTORE, CRASH_FORK)
        for point, label in ((0, "enter"), (1, "exit"))
    ]
    scenarios.append(
        _scenario(
            "branch-transient-op4-x2",
            "branch",
            FaultSpec(4, TRANSIENT, attempts=2),
        )
    )
    return scenarios


def build_replica_matrix() -> List[Scenario]:
    """The replica acceptance scenarios.

    Every replica dies at every interesting op; silent corruption and
    torn acked writes on each replica; combined loss+rot; quorum loss;
    all-ack quorums; a wider 5-replica group. Every scenario where the
    write quorum survives must recover byte-identically.
    """
    epochs = default_workload().epochs
    # A pulled volume: each replica, early / middle / last op.
    scenarios = [
        _scenario(
            f"replica-kill-r{replica}-op{op}",
            "replica",
            FaultSpec(op, KILL_REPLICA, replica=replica),
        )
        for replica in range(3)
        for op in (0, epochs // 2, epochs - 1)
    ]
    # Silent bit rot through the child store's own framing: only the
    # end-to-end sha256 can see it. Header-ish and payload offsets.
    scenarios += [
        _scenario(
            f"replica-corrupt-r{replica}-b{offset}",
            "replica",
            FaultSpec(
                epochs // 2, CORRUPT_REPLICA, param=offset, replica=replica
            ),
        )
        for replica in range(3)
        for offset in (5, 100)
    ]
    # A torn write the replica acked before the power failed.
    scenarios += [
        _scenario(
            f"replica-torn-r{replica}",
            "replica",
            FaultSpec(epochs - 1, TORN_REPLICA, param=10, replica=replica),
        )
        for replica in range(3)
    ]
    # Loss and rot together, quorum still intact.
    scenarios.append(
        _scenario(
            "replica-kill-r0-corrupt-r2",
            "replica",
            FaultSpec(1, KILL_REPLICA, replica=0),
            FaultSpec(3, CORRUPT_REPLICA, param=40, replica=2),
        )
    )
    scenarios.append(
        _scenario(
            "replica-kill-r1-torn-r2",
            "replica",
            FaultSpec(2, KILL_REPLICA, replica=1),
            FaultSpec(4, TORN_REPLICA, param=8, replica=2),
        )
    )
    # Quorum loss: two of three volumes die; commits must stop, and the
    # surviving prefix must still recover byte-identically.
    scenarios.append(
        _scenario(
            "replica-quorum-loss",
            "replica",
            FaultSpec(1, KILL_REPLICA, replica=1),
            FaultSpec(3, KILL_REPLICA, replica=2),
        )
    )
    # quorum=N (all must ack): a single death fails commits...
    scenarios.append(
        _scenario(
            "replica-allack-kill",
            "replica",
            FaultSpec(2, KILL_REPLICA, replica=1),
            quorum=3,
        )
    )
    # ...while transient blips on the fan-out stream are absorbed.
    scenarios.append(
        _scenario(
            "replica-allack-transient",
            "replica",
            FaultSpec(1, TRANSIENT, attempts=2),
            quorum=3,
        )
    )
    # A wider group: five replicas, majority quorum, two deaths survive.
    scenarios.append(
        _scenario(
            "replica-5wide-kill2",
            "replica",
            FaultSpec(1, KILL_REPLICA, replica=0),
            FaultSpec(2, KILL_REPLICA, replica=4),
            replicas=5,
        )
    )
    scenarios.append(
        _scenario(
            "replica-5wide-rot3",
            "replica",
            FaultSpec(1, CORRUPT_REPLICA, param=12, replica=1),
            FaultSpec(3, TORN_REPLICA, param=6, replica=2),
            FaultSpec(4, CORRUPT_REPLICA, param=80, replica=3),
            replicas=5,
        )
    )
    return scenarios


def build_matrix(seed: int = 20260806) -> List[Scenario]:
    """The acceptance matrix: 128 distinct runs over the four paths.

    Systematic coverage first — crash points at early, middle and last
    ops, torn writes at every byte through the header and into the
    payload, bit flips in header and payload, transient bursts against
    the retry policy, stalls — then seeded random plans, the branching
    script's matrix (which sweeps every op's crash points itself), and
    the replica matrix.
    """
    epochs = default_workload().epochs
    # Crash points: before / after / mid-append (tmp).
    scenarios = [
        _scenario(f"{path}-{kind}-op{op}", path, FaultSpec(op, kind))
        for path in ("store", "background", "replica")
        for kind in (CRASH_BEFORE, CRASH_AFTER, CRASH_TMP)
        for op in (0, epochs // 2, epochs - 1)
    ]
    # Torn writes: every byte boundary through the frame header, then
    # strides into the payload (clamped to file size at injection time).
    scenarios += [
        _scenario(
            f"store-torn-b{offset}",
            "store",
            FaultSpec(epochs // 2, TORN, param=offset),
        )
        for offset in [*range(_HEADER.size + 1), 20, 40, 80]
    ]
    # Silent bit flips: header bits and payload bits.
    scenarios += [
        _scenario(
            f"store-bitflip-b{bit}", "store", FaultSpec(1, BITFLIP, param=bit)
        )
        for bit in (0, 37, 111, 400, 1600)
    ]
    # Transient bursts the retry policy must absorb, on every path.
    scenarios += [
        _scenario(
            f"{path}-transient-x{attempts}",
            path,
            FaultSpec(1, TRANSIENT, attempts=attempts),
        )
        for path in PATHS
        for attempts in (1, 2, 3)
    ]
    # Stalls (slow disk) on the async path.
    scenarios += [
        _scenario(
            f"background-stall-op{op}",
            "background",
            FaultSpec(op, STALL, param=0.002),
        )
        for op in (0, 2)
    ]
    # Seeded random plans for everything the grid above missed.
    for extra in range(8):
        path = "background" if extra % 3 == 2 else "store"
        scenarios.append(
            Scenario(
                f"{path}-seeded-{extra}",
                FaultPlan.generate(seed + extra, ops=epochs),
                path,
            )
        )
    return scenarios + build_branch_matrix() + build_replica_matrix()


def run(root_dir: str, seed: int = 20260806) -> dict:
    """Run the full matrix; returns a JSON-serializable summary."""
    sim = CrashSim(root_dir)
    results = sim.run_matrix(build_matrix(seed=seed))
    return {
        "seed": seed,
        "epochs": sim.workload.epochs,
        "total": len(results),
        "failures": sum(1 for result in results if not result.ok),
        "scenarios": [result.to_dict() for result in results],
    }


def summarize(summary: dict) -> str:
    lines = [
        f"crashsim: {summary['total']} scenarios, "
        f"{summary['failures']} failure(s) (seed {summary['seed']})"
    ]
    for entry in summary["scenarios"]:
        if not entry["ok"]:
            lines.append(
                f"  FAIL {entry['name']} [{entry['path']}]: "
                f"durable={entry['durable_epochs']} "
                f"identical={entry['recovered_identical']} "
                f"fsck={entry['fsck_consistent']} {entry['detail']}"
            )
    return "\n".join(lines)


def save_json(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)

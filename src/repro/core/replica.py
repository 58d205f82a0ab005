"""Replicated, self-healing checkpoint storage.

The paper's checkpoints are only as durable as the single store behind
them; this module fans every epoch out to N child stores and keeps the
copies honest. Three mechanisms compose:

**Quorum writes.** :meth:`ReplicatedStore.append` frames the payload
with an end-to-end sha256 checksum and appends it to every replica,
acking the commit once a configurable *write quorum* (default: a
majority) has durably persisted it. A replica that fails keeps the
commit alive as long as the quorum holds — durability degrades, it does
not stall.

**End-to-end checksums.** The frame (``RSUM`` magic, version, sha256
digest, payload) travels *inside* the child store's own CRC frame, so
the digest is computed once at commit time and verified on every read —
bit rot on one volume is detected when it is read, not only when fsck
happens to run, and a damaged copy is simply outvoted by its peers.

**Self-healing.** Each replica runs a health state machine
(``healthy → suspect → fenced``) driven by a circuit breaker over its
failures; a fenced replica is skipped (so a dead volume cannot stall
commits) until a seeded-jitter probe countdown reopens it, at which
point it is caught up from its peers — missing epochs copied in,
divergent records quarantined (never deleted) and rewritten from a
checksum-valid quorum copy. :class:`Scrubber` runs the same
compare-and-repair sweep proactively in the background.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import StorageError
from repro.core.lineage import AUTO
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    AppendReceipt,
    CheckpointStore,
    Epoch,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

_FRAME_MAGIC = b"RSUM"
_FRAME_VERSION = 1
_DIGEST_SIZE = hashlib.sha256().digest_size  # 32
_FRAME_OVERHEAD = len(_FRAME_MAGIC) + 1 + _DIGEST_SIZE

#: replica health states
HEALTHY = "healthy"
SUSPECT = "suspect"
FENCED = "fenced"

_VALID_KINDS = (FULL, INCREMENTAL)


class ChecksumError(StorageError):
    """An end-to-end record checksum did not match its payload."""


def frame_record(data: bytes) -> bytes:
    """Wrap ``data`` in the end-to-end checksum frame."""
    payload = bytes(data)
    digest = hashlib.sha256(payload).digest()
    return _FRAME_MAGIC + bytes([_FRAME_VERSION]) + digest + payload


def is_framed(data: bytes) -> bool:
    """Whether ``data`` starts with a well-formed checksum frame header."""
    return (
        len(data) >= _FRAME_OVERHEAD
        and bytes(data[:4]) == _FRAME_MAGIC
        and data[4] == _FRAME_VERSION
    )


def unframe_record(data: bytes) -> bytes:
    """Verify and strip the checksum frame; raises :class:`ChecksumError`."""
    if not is_framed(data):
        raise ChecksumError(
            "record is not checksum-framed (missing RSUM header)"
        )
    digest = bytes(data[5:_FRAME_OVERHEAD])
    payload = bytes(data[_FRAME_OVERHEAD:])
    if hashlib.sha256(payload).digest() != digest:
        raise ChecksumError(
            "record payload does not match its sha256 checksum"
        )
    return payload


@dataclass
class ReplicaState:
    """One replica's health, as the circuit breaker sees it."""

    name: str
    store: CheckpointStore
    state: str = HEALTHY
    #: consecutive failures since the last success
    failures: int = 0
    #: missed at least one committed epoch; must catch up before appending
    behind: bool = False
    #: appends remaining until a fenced replica is probed again
    probe_in: int = 0
    #: total successful appends acked by this replica
    acks: int = 0
    #: total fence transitions (breaker openings)
    fences: int = 0
    last_error: Optional[str] = None

    def status(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "behind": self.behind,
            "probe_in": self.probe_in,
            "acks": self.acks,
            "fences": self.fences,
            "last_error": self.last_error,
        }


@dataclass
class ScrubReport:
    """What one scrub pass found and fixed."""

    replicas: List[str] = field(default_factory=list)
    #: epochs with a checksum-valid quorum copy that were examined
    epochs_checked: int = 0
    #: {"replica", "index", "action"} for every repair performed
    repaired: List[dict] = field(default_factory=list)
    #: quarantine destinations for divergent/corrupt records
    quarantined: List[str] = field(default_factory=list)
    #: indices with no checksum-valid copy anywhere (cannot be repaired)
    unrepairable: List[int] = field(default_factory=list)
    #: repair attempts that themselves failed
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no replica needed any repair."""
        return not self.repaired and not self.unrepairable and not self.errors

    @property
    def healed(self) -> bool:
        """True when every detected problem was actually repaired."""
        return not self.unrepairable and not self.errors

    def to_dict(self) -> dict:
        return {
            "replicas": list(self.replicas),
            "epochs_checked": self.epochs_checked,
            "repaired": [dict(r) for r in self.repaired],
            "quarantined": list(self.quarantined),
            "unrepairable": list(self.unrepairable),
            "errors": list(self.errors),
            "clean": self.clean,
            "healed": self.healed,
        }


class ReplicatedStore(CheckpointStore):
    """Quorum-replicated front over N child stores.

    ``replicas`` is any mix of :class:`~repro.core.storage.FileStore` /
    :class:`~repro.core.storage.MemoryStore` (anything implementing the
    store interface plus the ``epoch_map``/``put_epoch``/
    ``quarantine_epoch`` repair primitives). ``quorum`` defaults to a
    majority (``N // 2 + 1``); ``quorum=N`` makes every commit wait for
    all replicas, ``quorum=1`` makes replication purely asynchronous
    repair fodder. To retry a replica's transient failures, wrap that
    child in a :class:`~repro.core.storage.RetryingStore`.

    The breaker fences a replica after ``fence_after`` consecutive
    failures (passing through ``suspect`` at ``suspect_after``); a
    fenced replica is skipped for ``probe_after`` appends plus a
    deterministic seeded jitter, then probed: caught up from its peers
    and handed the in-flight epoch. Success heals it; failure re-fences
    it with a fresh countdown.
    """

    def __init__(
        self,
        replicas: Sequence[CheckpointStore],
        quorum: Optional[int] = None,
        suspect_after: int = 1,
        fence_after: int = 3,
        probe_after: int = 4,
        probe_jitter: int = 3,
        seed: int = 20260807,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        stores = list(replicas)
        if not stores:
            raise StorageError("a replicated store needs at least 1 replica")
        if names is None:
            names = [f"r{i}" for i in range(len(stores))]
        if len(names) != len(stores):
            raise StorageError("one name per replica, please")
        if quorum is None:
            quorum = len(stores) // 2 + 1
        if not 1 <= quorum <= len(stores):
            raise StorageError(
                f"write quorum {quorum} is not satisfiable with "
                f"{len(stores)} replica(s)"
            )
        self._quorum = quorum
        self._suspect_after = max(1, suspect_after)
        self._fence_after = max(self._suspect_after, fence_after)
        self._probe_after = max(1, probe_after)
        self._probe_jitter = max(0, probe_jitter)
        self._rng = random.Random(seed)
        self._states = [
            ReplicaState(name=name, store=store)
            for name, store in zip(names, stores)
        ]
        #: observability hooks; no-op singletons until :meth:`instrument`
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        # Guards the replica state machines and the RNG: a Scrubber
        # thread repairs replicas while the committing thread appends,
        # and both walk the same ReplicaState records.
        self._lock = threading.RLock()

    # -- observability ----------------------------------------------------

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (only replaces no-op defaults)."""
        with self._lock:
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            if self.metrics is NULL_METRICS:
                self.metrics = metrics

    def _transition(self, rep: ReplicaState, new_state: str, reason: str):
        # caller holds _lock
        old = rep.state
        if old == new_state:
            return
        rep.state = new_state
        if new_state == FENCED:
            rep.fences += 1
            rep.probe_in = self._probe_after + self._rng.randrange(
                self._probe_jitter + 1
            )
        self.tracer.event(
            "replica.state",
            replica=rep.name,
            old=old,
            new=new_state,
            reason=reason,
            failures=rep.failures,
        )
        self.metrics.counter(
            "replica_breaker_transitions_total", replica=rep.name, to=new_state
        ).inc()

    def _note_failure(
        self, rep: ReplicaState, exc: BaseException, fatal: bool = False
    ) -> None:
        # caller holds _lock
        rep.failures += 1
        rep.behind = True
        rep.last_error = str(exc)
        self.metrics.counter("replica_failures_total", replica=rep.name).inc()
        if fatal or rep.failures >= self._fence_after:
            if rep.state == FENCED:
                # failed probe: re-arm the countdown with fresh jitter
                rep.probe_in = self._probe_after + self._rng.randrange(
                    self._probe_jitter + 1
                )
            else:
                self._transition(rep, FENCED, str(exc))
        elif rep.failures >= self._suspect_after:
            self._transition(rep, SUSPECT, str(exc))

    def _note_success(self, rep: ReplicaState) -> None:
        # caller holds _lock
        if rep.state != HEALTHY:
            self._transition(rep, HEALTHY, "append succeeded")
        rep.failures = 0
        rep.behind = False
        rep.last_error = None
        rep.acks += 1
        self.metrics.counter("replica_acks_total", replica=rep.name).inc()

    # -- quorum reads -----------------------------------------------------

    def _replica_maps(self) -> Dict[str, Dict[int, Epoch]]:
        # caller holds _lock; a replica that cannot even enumerate its
        # epochs contributes an empty map (and will look entirely behind)
        maps: Dict[str, Dict[int, Epoch]] = {}
        for rep in self._states:
            try:
                maps[rep.name] = rep.store.epoch_map()
            except (StorageError, OSError) as exc:
                rep.last_error = str(exc)
                maps[rep.name] = {}
        return maps

    @staticmethod
    def _vote_key(epoch: Epoch) -> tuple:
        return (
            epoch.kind,
            epoch.parent,
            epoch.branch,
            epoch.name,
            bytes(epoch.data),
        )

    def _quorum_map(
        self, maps: Dict[str, Dict[int, Epoch]]
    ) -> Dict[int, Epoch]:
        """Per index, the majority checksum-valid copy (framed bytes).

        A copy only votes if its end-to-end checksum verifies; ties
        break deterministically. Indices with no valid copy anywhere are
        absent from the result — they are unrepairable.
        """
        by_index: Dict[int, List[Epoch]] = {}
        for replica_map in maps.values():
            for index, epoch in replica_map.items():
                by_index.setdefault(index, []).append(epoch)
        chosen: Dict[int, Epoch] = {}
        for index, copies in by_index.items():
            votes: Dict[tuple, List[Epoch]] = {}
            for epoch in copies:
                try:
                    unframe_record(epoch.data)
                except ChecksumError:
                    continue  # bit rot: this copy does not get a vote
                votes.setdefault(self._vote_key(epoch), []).append(epoch)
            if not votes:
                continue
            best = max(votes, key=lambda key: (len(votes[key]), repr(key)))
            chosen[index] = votes[best][0]
        return chosen

    def epochs(self) -> List[Epoch]:
        """The quorum view, checksum-verified and unframed.

        Walks indices from 0 and stops at the first index with no
        checksum-valid copy on any replica — a delta chain cannot be
        applied across a hole (matching single-store semantics).
        """
        with self._lock:
            chosen = self._quorum_map(self._replica_maps())
        result: List[Epoch] = []
        index = 0
        while index in chosen:
            framed = chosen[index]
            result.append(framed._replace(data=unframe_record(framed.data)))
            index += 1
        return result

    def epoch_map(self) -> Dict[int, Epoch]:
        with self._lock:
            chosen = self._quorum_map(self._replica_maps())
        return {
            index: epoch._replace(data=unframe_record(epoch.data))
            for index, epoch in chosen.items()
        }

    def _serial_translation(self, registry):
        last_exc: Optional[StorageError] = None
        with self._lock:
            stores = [rep.store for rep in self._states]
        for store in stores:
            try:
                return store._serial_translation(registry)
            except StorageError as exc:
                last_exc = exc
        if last_exc is not None:
            raise last_exc
        return None

    # -- repair -----------------------------------------------------------

    def _repair_replica(
        self,
        rep: ReplicaState,
        maps: Dict[str, Dict[int, Epoch]],
        chosen: Dict[int, Epoch],
        report: Optional[ScrubReport] = None,
    ) -> None:
        """Bring ``rep`` in line with the quorum copy (caller holds _lock).

        Missing epochs are copied in; divergent or checksum-invalid
        records are quarantined via the child store's own quarantine
        discipline and rewritten byte-for-byte from the quorum copy.
        Raises on the first repair that fails (scrub catches and records;
        append lets it fail the replica's breaker instead).
        """
        own = maps.get(rep.name, {})
        for index in sorted(chosen):
            quorum_copy = chosen[index]
            mine = own.get(index)
            if mine is not None and self._vote_key(mine) == self._vote_key(
                quorum_copy
            ):
                continue
            action = "copied" if mine is None else "replaced"
            if mine is not None:
                token = rep.store.quarantine_epoch(
                    index, reason="diverges from quorum copy"
                )
                if token is not None and report is not None:
                    report.quarantined.append(f"{rep.name}:{token}")
            else:
                # The file may exist but be unreadable (torn write):
                # epoch_map skipped it, yet a plain put would collide.
                token = rep.store.quarantine_epoch(
                    index, reason="unreadable record"
                )
                if token is not None:
                    action = "replaced"
                    if report is not None:
                        report.quarantined.append(f"{rep.name}:{token}")
            rep.store.put_epoch(quorum_copy, overwrite=True)
            own[index] = quorum_copy
            self.tracer.event(
                "scrub.repair", replica=rep.name, index=index, action=action
            )
            self.metrics.counter(
                "scrub_repairs_total", replica=rep.name
            ).inc()
            if report is not None:
                report.repaired.append(
                    {"replica": rep.name, "index": index, "action": action}
                )

    def _catch_up(self, rep: ReplicaState) -> None:
        """Read-repair ``rep`` from its peers before it rejoins appends.

        A replica that missed an append would assign the wrong index to
        the next one; it must hold every quorum-committed epoch before
        its ack can count again. Caller holds ``_lock``.
        """
        maps = self._replica_maps()
        chosen = self._quorum_map(maps)
        self._repair_replica(rep, maps, chosen)
        rep.behind = False

    def scrub(self, report: Optional[ScrubReport] = None) -> ScrubReport:
        """One full compare-and-repair sweep over every replica.

        Builds the checksum-valid quorum copy of each epoch, then
        byte-compares every replica's record against it: missing or
        divergent records are repaired (divergent ones quarantined
        first, never deleted). Indices that exist somewhere but have no
        valid copy anywhere are reported as unrepairable and left
        untouched.
        """
        if report is None:
            report = ScrubReport()
        with self._lock:
            report.replicas = [rep.name for rep in self._states]
            maps = self._replica_maps()
            chosen = self._quorum_map(maps)
            report.epochs_checked = len(chosen)
            seen = set()
            for replica_map in maps.values():
                seen.update(replica_map)
            report.unrepairable = sorted(seen - set(chosen))
            for rep in self._states:
                try:
                    self._repair_replica(rep, maps, chosen, report)
                except (StorageError, OSError) as exc:
                    self._note_failure(rep, exc)
                    report.errors.append(f"{rep.name}: {exc}")
                else:
                    if rep.behind:
                        rep.behind = False
            self.tracer.event(
                "scrub.done",
                replicas=list(report.replicas),
                epochs_checked=report.epochs_checked,
                repaired=len(report.repaired),
                quarantined=len(report.quarantined),
                unrepairable=len(report.unrepairable),
                errors=len(report.errors),
            )
            self.metrics.counter("scrub_runs_total").inc()
        return report

    # -- quorum writes ----------------------------------------------------

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> int:
        """Fan the framed epoch out; returns its index once a quorum acked.

        ``receipt`` goes to every child append (so their retries count on
        it), then gets the acks, quorum, missed replicas and ``"durable"``
        (all acked) or ``"quorum"``. A lost quorum raises, with the
        receipt's durability put back to what it was before the fan-out.
        """
        if kind not in _VALID_KINDS:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        framed = frame_record(data)
        prior = receipt.durability if receipt is not None else None
        with self._lock:
            acked: List[str] = []
            degraded: List[str] = []
            index: Optional[int] = None
            # Catch-up is a pre-pass: a recovering replica must be
            # repaired to the pre-commit state *before* any peer takes
            # the in-flight epoch, or it would copy that epoch in and
            # then assign the next index to its own append (index skew).
            participants: List[ReplicaState] = []
            for rep in self._states:
                if rep.state == FENCED:
                    rep.probe_in -= 1
                    if rep.probe_in > 0:
                        degraded.append(rep.name)
                        continue
                    self.tracer.event("replica.probe", replica=rep.name)
                    self.metrics.counter(
                        "replica_probes_total", replica=rep.name
                    ).inc()
                if rep.behind or rep.state == FENCED:
                    try:
                        self._catch_up(rep)
                    except (StorageError, OSError) as exc:
                        self._note_failure(rep, exc)
                        degraded.append(rep.name)
                        continue
                participants.append(rep)
            for rep in participants:
                try:
                    got = rep.store.append(
                        kind,
                        framed,
                        parent=parent,
                        branch=branch,
                        name=name,
                        receipt=receipt,
                    )
                except (StorageError, OSError) as exc:
                    self._note_failure(rep, exc)
                    degraded.append(rep.name)
                    continue
                if index is None:
                    index = got
                elif got != index:
                    # index skew means this replica's history silently
                    # diverged; fence it hard rather than trust its ack
                    self._note_failure(
                        rep,
                        StorageError(
                            f"index skew: replica assigned {got}, "
                            f"quorum assigned {index}"
                        ),
                        fatal=True,
                    )
                    degraded.append(rep.name)
                    continue
                self._note_success(rep)
                acked.append(rep.name)
            self.tracer.event(
                "replica.append",
                index=index,
                kind=kind,
                acked=list(acked),
                degraded=list(degraded),
                quorum=self._quorum,
            )
            if receipt is not None:
                receipt.replicas_acked = list(acked)
                receipt.replica_quorum = self._quorum
                receipt.degraded_replicas = list(degraded)
                if len(acked) == len(self._states):
                    receipt.durability = "durable"
                elif len(acked) >= self._quorum:
                    receipt.durability = "quorum"
                else:
                    receipt.durability = prior
            if len(acked) < self._quorum:
                raise StorageError(
                    f"write quorum lost: {len(acked)} of "
                    f"{len(self._states)} replica(s) acked, "
                    f"quorum is {self._quorum}"
                    + (
                        f" (degraded: {', '.join(degraded)})"
                        if degraded
                        else ""
                    )
                )
            return index  # type: ignore[return-value]

    # -- introspection ----------------------------------------------------

    @property
    def quorum(self) -> int:
        return self._quorum

    def replica_status(self) -> List[dict]:
        with self._lock:
            return [rep.status() for rep in self._states]

    def undurable_counts(self) -> Dict[str, int]:
        """Per replica, how many quorum-committed epochs it is missing."""
        with self._lock:
            maps = self._replica_maps()
            chosen = self._quorum_map(maps)
            counts: Dict[str, int] = {}
            for rep in self._states:
                own = maps.get(rep.name, {})
                missing = 0
                for index, quorum_copy in chosen.items():
                    mine = own.get(index)
                    if mine is None or self._vote_key(
                        mine
                    ) != self._vote_key(quorum_copy):
                        missing += 1
                counts[rep.name] = missing
            return counts

    # -- lifecycle --------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> None:
        """Repair behind/fenced replicas now, then flush every child.

        ``timeout`` is forwarded to each child's flush; the catch-up
        sweep itself is synchronous. Repair failures stay on
        the breaker (they do not raise) — flush means "as durable as
        the healthy replica set allows", and the health state records
        who is not.
        """
        with self._lock:
            for rep in self._states:
                if rep.behind or rep.state != HEALTHY:
                    try:
                        self._catch_up(rep)
                    except (StorageError, OSError) as exc:
                        self._note_failure(rep, exc)
                        continue
                    self._transition(rep, HEALTHY, "flush catch-up")
                    rep.failures = 0
            stores = [rep.store for rep in self._states]
        for store in stores:
            store.flush(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        with self._lock:
            stores = [rep.store for rep in self._states]
        for store in stores:
            store.close(timeout)


class Scrubber:
    """Background scrub job over a :class:`ReplicatedStore`.

    :meth:`run_once` performs one sweep; :meth:`start` runs sweeps every
    ``interval`` seconds on a daemon thread until :meth:`stop`. Reports
    accumulate in :attr:`reports` (newest last, bounded).
    """

    def __init__(
        self, store: ReplicatedStore, interval: float = 30.0, keep: int = 16
    ) -> None:
        self.store = store
        self.interval = interval
        self._keep = max(1, keep)
        #: guards the report history and the thread handle
        self._lock = threading.Lock()
        self._reports: List[ScrubReport] = []
        self._runs = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def run_once(self) -> ScrubReport:
        report = self.store.scrub()
        with self._lock:
            self._runs += 1
            self._reports.append(report)
            del self._reports[: -self._keep]
        return report

    @property
    def reports(self) -> List[ScrubReport]:
        with self._lock:
            return list(self._reports)

    @property
    def runs(self) -> int:
        with self._lock:
            return self._runs

    def start(self) -> "Scrubber":
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="checkpoint-scrubber", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except (StorageError, OSError):
                continue  # the next sweep retries; breakers hold the state

    def stop(self, timeout: Optional[float] = None) -> None:
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout)

    def __enter__(self) -> "Scrubber":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

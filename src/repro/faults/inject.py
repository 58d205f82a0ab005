"""Fault-injecting wrappers around stores.

Both wrappers are :class:`~repro.core.storage.StoreDecorator` layers:
they override ``append`` (``ReplicaFaultStore`` also every read) and
pass the rest of the store protocol through unchanged.

:class:`FaultyStore` wraps any :class:`~repro.core.storage.CheckpointStore`
and executes a :class:`~repro.faults.plan.FaultPlan` against its
``append`` stream: transient errors, stalls, torn writes, bit flips, and
crash points. Faults that manipulate bytes on disk (``torn``,
``bitflip``, ``crash-tmp``) require a file-backed store underneath.

A whole :class:`~repro.runtime.session.CheckpointSession` commits
through a plan unchanged when its sink's store is wrapped; a
:class:`~repro.core.storage.RetryingStore` above the fault layer absorbs
the transient faults::

    faulty = FaultyStore(FileStore(path), plan)
    sink = StoreSink(RetryingStore(faulty, RetryPolicy()))
    session = CheckpointSession(roots=root, sink=sink)

:class:`ReplicaFaultStore` arms replica-scoped kinds on one child of a
:class:`~repro.core.replica.ReplicatedStore`.

Two exception types carry the injections:

- :class:`TransientFault` — an ``OSError`` subclass, so the default
  retry classifier treats it as retryable;
- :class:`InjectedCrash` — a ``BaseException`` subclass: it models the
  *process dying*, so nothing in the runtime (retry policies, strategy
  fallback) may catch and absorb it. Only the crash simulator does.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from repro.core.errors import CheckpointError
from repro.core.storage import (
    CheckpointStore,
    Epoch,
    FileStore,
    StoreDecorator,
)
from repro.faults.plan import (
    BITFLIP,
    CORRUPT_REPLICA,
    CRASH_AFTER,
    CRASH_BEFORE,
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


class TransientFault(OSError):
    """An injected, retryable I/O failure."""


class InjectedCrash(BaseException):
    """The simulated process died at an injected crash point.

    Deliberately **not** an ``Exception``: generic error handling in the
    runtime must not be able to swallow a crash, exactly as it could not
    swallow a real ``kill -9``.
    """


def _file_store(store: CheckpointStore) -> FileStore:
    if not isinstance(store, FileStore):
        raise CheckpointError(
            "torn/bitflip/crash-tmp faults need a FileStore backing, got "
            f"{type(store).__name__}"
        )
    return store


def _truncate(path: str, at_byte: int) -> int:
    """Cut the file at ``path`` to ``at_byte`` bytes; returns the length kept.

    At least the last byte is always lost, so the file's size (and with it
    the store's stat signature of it) changes: a store drops the epoch's
    verified-cache entry on its next read without being told.
    """
    keep = min(int(at_byte), max(os.path.getsize(path) - 1, 0))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


class FaultyStore(StoreDecorator):
    """Execute a fault plan against the wrapped store's append stream.

    ``ops`` counts *logical* append operations: a transient fault does
    not advance the counter until the operation finally succeeds, so a
    retrying caller re-enters the same fault spec until its ``attempts``
    are exhausted — exactly how a flaky disk behaves.
    """

    def __init__(
        self,
        backing: CheckpointStore,
        plan: FaultPlan,
        sleep=time.sleep,
    ) -> None:
        for spec in plan:
            if spec.kind in SESSION_KINDS:
                raise CheckpointError(
                    f"fault kind {spec.kind!r} is a session-level crash "
                    "point; it cannot run on a store's append stream"
                )
            if spec.kind in REPLICA_KINDS:
                raise CheckpointError(
                    f"fault kind {spec.kind!r} targets one replica of a "
                    "ReplicatedStore; arm it with ReplicaFaultStore"
                )
        super().__init__(backing)
        self.plan = plan
        self._sleep = sleep
        #: logical append operations completed or crashed
        self.ops = 0
        #: human-readable record of every fault actually injected
        self.injected: List[str] = []
        self._transient_fired: Dict[int, int] = {}

    # -- injection ---------------------------------------------------------

    def _inject_transient(self, spec: FaultSpec) -> None:
        fired = self._transient_fired.get(spec.op, 0)
        if fired < spec.attempts:
            self._transient_fired[spec.op] = fired + 1
            self.injected.append(f"transient #{fired + 1} at op {spec.op}")
            raise TransientFault(f"injected transient fault at op {spec.op}")

    def _epoch_path(self, index: int) -> str:
        return _file_store(self.backing)._epoch_path(index)

    def _tear(self, index: int, at_byte: int) -> None:
        keep = _truncate(self._epoch_path(index), at_byte)
        self.injected.append(f"torn epoch {index} at byte {keep}")

    def _flip(self, index: int, bit: int) -> None:
        path = self._epoch_path(index)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        if not data:
            return
        position = int(bit) % (len(data) * 8)
        data[position // 8] ^= 1 << (position % 8)
        with open(path, "wb") as handle:
            handle.write(data)
        self.injected.append(f"flipped bit {position} of epoch {index}")

    def _orphan_tmp(self, kind: str, data: bytes) -> None:
        store = _file_store(self.backing)
        index = store._next_index()
        path = store._epoch_path(index) + ".tmp"
        with open(path, "wb") as handle:
            handle.write(bytes(data)[: max(1, len(data) // 2)])
        self.injected.append(f"orphaned {os.path.basename(path)}")

    # -- CheckpointStore interface -----------------------------------------

    def append(self, kind: str, data: bytes, **lineage) -> int:
        spec = self.plan.for_op(self.ops)
        if spec is None:
            index = self.backing.append(kind, data, **lineage)
            self.ops += 1
            return index
        if spec.kind == TRANSIENT:
            self._inject_transient(spec)
            index = self.backing.append(kind, data, **lineage)
            self.ops += 1
            return index
        if spec.kind == STALL:
            self.injected.append(f"stalled {spec.param:.3f}s at op {spec.op}")
            self._sleep(spec.param)
            index = self.backing.append(kind, data, **lineage)
            self.ops += 1
            return index
        if spec.kind == CRASH_BEFORE:
            self.ops += 1
            self.injected.append(f"crash before append at op {spec.op}")
            raise InjectedCrash(f"crash before append at op {spec.op}")
        if spec.kind == CRASH_TMP:
            self.ops += 1
            self._orphan_tmp(kind, data)
            raise InjectedCrash(f"crash mid-append (tmp left) at op {spec.op}")
        # The remaining kinds manipulate the file the append produced.
        index = self.backing.append(kind, data, **lineage)
        self.ops += 1
        if spec.kind == TORN:
            self._tear(index, int(spec.param))
            raise InjectedCrash(f"crash mid-write of epoch {index}")
        if spec.kind == BITFLIP:
            self._flip(index, int(spec.param))
            return index  # silent corruption: the caller never knows
        if spec.kind == CRASH_AFTER:
            self.injected.append(f"crash after append of epoch {index}")
            raise InjectedCrash(f"crash after append of epoch {index}")
        raise AssertionError(f"unhandled fault kind {spec.kind!r}")


class ReplicaFaultStore(StoreDecorator):
    """Execute replica-targeted faults against *one* replica's stream.

    Wrap each child of a :class:`~repro.core.replica.ReplicatedStore`
    with one of these (same plan, distinct ``replica`` ordinals); a spec
    only fires on the wrapper whose ordinal matches. ``op`` counts
    appends the replicated store fans out, so every wrapper sees the
    same op numbering.

    ``kill-replica`` makes every subsequent append, read and repair
    raise ``OSError`` (a pulled volume — the process survives). ``corrupt-replica-record``
    and ``torn-replica-write`` let the append succeed, then damage the
    stored record *through* :meth:`put_epoch`, which recomputes the
    child store's CRC frame — so the damage is invisible to the child
    and only the replicated store's end-to-end sha256 (or a byte-compare
    scrub) can catch it. Torn damage on a file-backed child truncates
    the file directly instead, modelling a physically torn write.
    """

    def __init__(
        self,
        backing: CheckpointStore,
        plan: FaultPlan,
        replica: int,
    ) -> None:
        super().__init__(backing)
        self.plan = plan
        self.replica = replica
        #: append operations observed by this wrapper
        self.ops = 0
        #: whether kill-replica has fired
        self.dead = False
        #: human-readable record of every fault actually injected
        self.injected: List[str] = []

    def _check_dead(self) -> None:
        if self.dead:
            raise OSError(
                f"injected replica death: replica {self.replica} is gone"
            )

    def _damage_record(self, index: int, spec: FaultSpec) -> None:
        epoch = self.backing.epoch_map().get(index)
        if epoch is None or not epoch.data:
            return
        if spec.kind == CORRUPT_REPLICA:
            data = bytearray(epoch.data)
            position = int(spec.param) % len(data)
            data[position] ^= 0xFF
            self.backing.put_epoch(
                epoch._replace(data=bytes(data)), overwrite=True
            )
            self.injected.append(
                f"replica {self.replica}: corrupted byte {position} of "
                f"epoch {index}"
            )
            return
        # torn-replica-write
        keep = min(int(spec.param), max(len(epoch.data) - 1, 0))
        if isinstance(self.backing, FileStore):
            _truncate(self.backing._epoch_path(index), keep)
        else:
            self.backing.put_epoch(
                epoch._replace(data=bytes(epoch.data[:keep])),
                overwrite=True,
            )
        self.injected.append(
            f"replica {self.replica}: tore epoch {index} at byte {keep}"
        )

    # -- CheckpointStore interface -----------------------------------------

    def append(self, kind: str, data: bytes, **lineage) -> int:
        spec = self.plan.for_op(self.ops)
        self.ops += 1
        if (
            spec is not None
            and spec.kind == KILL_REPLICA
            and spec.replica == self.replica
        ):
            self.dead = True
            self.injected.append(
                f"replica {self.replica} died at op {spec.op}"
            )
        self._check_dead()
        index = self.backing.append(kind, data, **lineage)
        if (
            spec is not None
            and spec.replica == self.replica
            and spec.kind in (CORRUPT_REPLICA, TORN_REPLICA)
        ):
            self._damage_record(index, spec)
        return index

    def epochs(self) -> List[Epoch]:
        self._check_dead()
        return self.backing.epochs()

    def epoch_map(self) -> Dict[int, Epoch]:
        self._check_dead()
        return self.backing.epoch_map()

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        self._check_dead()
        self.backing.put_epoch(epoch, overwrite=overwrite)

    def quarantine_epoch(self, index: int, reason: str = ""):
        self._check_dead()
        return self.backing.quarantine_epoch(index, reason)

    def recover(self, registry=None, at=None):
        self._check_dead()
        return self.backing.recover(registry, at=at)

    def _serial_translation(self, registry):
        self._check_dead()
        return self.backing._serial_translation(registry)


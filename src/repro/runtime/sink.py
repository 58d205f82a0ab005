"""Sinks: where committed epochs go.

The paper drains the checkpoint output stream to stable storage; the
consumers in this repository grew three different drains — raw
:class:`~repro.core.streams.DataOutputStream` byte buffers, the
:class:`~repro.core.storage.MemoryStore`/:class:`~repro.core.storage.FileStore`
stores, and the asynchronous :class:`~repro.core.storage.BackgroundWriter`.
A :class:`Sink` unifies them behind one ``put(kind, data)`` path so the
:class:`~repro.runtime.session.CheckpointSession` commits identically no
matter what is underneath:

- :class:`NullSink` — discard (measurement-only sessions),
- :class:`BufferSink` — keep epochs in process (tests, examples, replay),
- :class:`StoreSink` — append to any :class:`~repro.core.storage.CheckpointStore`,
  including a :class:`~repro.core.storage.BackgroundWriter` front (whose
  queue is flushed before recovery or compaction).

A ``put`` may carry the session's receipt; the sink hands it to the
store stack, whose layers write what they know onto it.

:func:`sink_for` coerces what a caller naturally has — ``None``, a store,
a directory path, or a sink — into a sink.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

from repro.core.errors import StorageError
from repro.core.lineage import AUTO, EpochRef, Lineage
from repro.core.registry import ClassRegistry
from repro.core.restore import ObjectTable
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    AppendReceipt,
    BackgroundWriter,
    CheckpointStore,
    Epoch,
    FileStore,
    MemoryStore,
    RetryingStore,
    compact as storage_compact,
)
from repro.obs.metrics import NULL_METRICS, DEFAULT_LATENCY_BUCKETS
from repro.obs.tracer import NULL_TRACER


class Sink:
    """One ``commit()`` target; epochs enter in order through :meth:`put`."""

    #: whether :meth:`compact` is meaningful for this sink
    can_compact: bool = False
    #: observability hooks; the no-op singletons until :meth:`instrument`
    tracer = NULL_TRACER
    metrics = NULL_METRICS

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (a session passes its own down).

        Hooks already set explicitly are kept — only the no-op defaults
        are replaced, so a sink instrumented at construction time wins
        over the session-level wiring.
        """
        if self.tracer is NULL_TRACER:
            self.tracer = tracer
        if self.metrics is NULL_METRICS:
            self.metrics = metrics

    def put(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> Optional[int]:
        """Accept one epoch; returns its index when the sink assigns one.

        The lineage keywords (see
        :meth:`repro.core.storage.CheckpointStore.append`) place the
        epoch in the store's lineage graph; sinks without a store
        ignore them. ``receipt`` gets the epoch's durability state.
        """
        raise NotImplementedError

    def lineage(self) -> Lineage:
        """The epoch lineage graph of the sink's durable store."""
        raise StorageError(f"{type(self).__name__} keeps no epoch lineage")

    def materialize(
        self, target: EpochRef, registry: Optional[ClassRegistry] = None
    ) -> ObjectTable:
        """The object table exactly as it was live at epoch ``target``."""
        raise StorageError(f"{type(self).__name__} cannot restore state")

    def flush(self) -> None:
        """Block until everything put so far is durable (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink accepts no further epochs."""

    def recover(self, registry: Optional[ClassRegistry] = None) -> ObjectTable:
        """Rebuild the object table from the sink's recovery line."""
        raise StorageError(f"{type(self).__name__} cannot recover state")

    def compact(
        self,
        registry: Optional[ClassRegistry] = None,
        keep_history: bool = False,
        branch: Optional[str] = None,
    ) -> int:
        """Fold the recovery line into a fresh full epoch (see storage)."""
        raise StorageError(f"{type(self).__name__} cannot compact")


class NullSink(Sink):
    """Swallows every epoch: sessions that only measure, never persist."""

    def __init__(self) -> None:
        self.discarded = 0

    def put(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> Optional[int]:
        self.discarded += 1
        if receipt is not None:
            receipt.durability = "discarded"
        return None


class StoreSink(Sink):
    """Drain epochs into any :class:`~repro.core.storage.CheckpointStore`.

    A :class:`~repro.core.storage.BackgroundWriter` works transparently:
    ``flush``/``close`` delegate to it, and recovery/compaction flush the
    queue first, then operate on the durable backing store. To retry
    transient append failures on the committing thread, give the sink a
    :class:`~repro.core.storage.RetryingStore`.
    """

    can_compact = True

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store

    def instrument(self, tracer, metrics) -> None:
        super().instrument(tracer, metrics)
        self.store.instrument(self.tracer, self.metrics)

    def put(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> Optional[int]:
        instrumented = self.tracer.enabled or self.metrics.enabled
        start = time.perf_counter() if instrumented else 0.0
        index = self.store.append(
            kind, data, parent=parent, branch=branch, name=name,
            receipt=receipt,
        )
        if not instrumented:
            return index
        elapsed = time.perf_counter() - start
        self.tracer.event(
            "sink.put", kind=kind, bytes=len(data), index=index,
            wall_seconds=elapsed, branch=branch, name=name,
        )
        self.metrics.histogram(
            "sink_put_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(elapsed)
        return index

    def flush(self) -> None:
        self.store.flush()

    def close(self) -> None:
        self.store.close()

    def _durable_store(self) -> CheckpointStore:
        """The synchronous store, with any async front flushed."""
        store = self.store
        if isinstance(store, BackgroundWriter):
            store.flush()
            return store.backing
        return store

    def recover(self, registry: Optional[ClassRegistry] = None) -> ObjectTable:
        return self.store.recover(registry)

    def materialize(
        self, target: EpochRef, registry: Optional[ClassRegistry] = None
    ) -> ObjectTable:
        return self._durable_store().materialize(target, registry)

    def lineage(self) -> Lineage:
        return Lineage(self._durable_store().epochs())

    def compact(
        self,
        registry: Optional[ClassRegistry] = None,
        keep_history: bool = False,
        branch: Optional[str] = None,
    ) -> int:
        return storage_compact(
            self._durable_store(),
            registry,
            keep_history=keep_history,
            branch=branch,
        )

    def epochs(self) -> List[Epoch]:
        """The durable epochs of the underlying store."""
        return self._durable_store().epochs()


class BufferSink(StoreSink):
    """In-process sink over a private :class:`~repro.core.storage.MemoryStore`.

    The session-API replacement for collecting raw checkpoint bytes in a
    list: epochs stay addressable by kind and index, and the standard
    recovery line (latest full + following deltas) replays them.
    """

    def __init__(self) -> None:
        super().__init__(MemoryStore())

    def data(self, index: int) -> bytes:
        """The payload of epoch ``index``."""
        return self.store.epochs()[index].data

    def __len__(self) -> int:
        return len(self.store.epochs())


def sink_for(target, retry: Optional[RetryPolicy] = None) -> Sink:
    """Coerce ``target`` into a :class:`Sink`.

    - ``None`` → :class:`NullSink` (nothing is persisted),
    - a :class:`Sink` → itself,
    - a :class:`~repro.core.storage.CheckpointStore` (including
      :class:`~repro.core.storage.BackgroundWriter`) → :class:`StoreSink`,
    - a directory path → :class:`StoreSink` over a new
      :class:`~repro.core.storage.FileStore` there.

    ``retry`` wraps the store this function coerces in a
    :class:`~repro.core.storage.RetryingStore` (an existing sink passed
    in keeps whatever store stack it already has). A
    :class:`~repro.core.storage.BackgroundWriter` is not wrapped: a
    queued append cannot fail transiently, and its retries belong under
    it, on the writer thread.
    """
    if target is None:
        return NullSink()
    if isinstance(target, Sink):
        return target
    if isinstance(target, (str, os.PathLike)):
        target = FileStore(os.fspath(target))
    if isinstance(target, CheckpointStore):
        # a retry layer in front of a writer would also hide it from
        # _durable_store, so compaction would not drain the queue first
        if retry is not None and not isinstance(target, BackgroundWriter):
            target = RetryingStore(target, retry)
        return StoreSink(target)
    raise StorageError(
        f"cannot use {target!r} as a checkpoint sink (expected None, a "
        "Sink, a CheckpointStore, or a directory path)"
    )

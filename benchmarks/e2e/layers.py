"""Outside-in layer timing: spans recorded around calls into each layer.

The traced run swaps the program's classes for the ``Timed*`` subclasses
below; nothing under ``src/`` changes. They are subclasses, never
``__getattr__`` proxies, because the program gates behaviour on
``isinstance``: ``storage.compact`` deletes superseded epochs only for a
``FileStore``, the session decides fallback and chain repair by strategy
class (``_can_fall_back``, ``_is_full_driver``), and ``StoreSink`` looks
for a ``BackgroundWriter``. A proxy would change what runs.

Each span is ``{id, parent, commit_seq, name, start_ns, end_ns, attrs}``.
Spans stay in memory and are written as JSONL when the repetition ends.
A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.core.replica import ReplicatedStore
from repro.core.storage import FileStore
from repro.runtime.sink import StoreSink
from repro.runtime.strategy import (
    DifferentialStrategy,
    DriverStrategy,
    SpecializedStrategy,
)

from catalog import median, percentile


def wchar() -> int:
    """Bytes this process has passed to write(2) so far (Linux only)."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("/proc/self/io has no wchar line")


class SpanRecorder:
    """In-memory span list for one single-threaded repetition."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[dict] = []
        #: sequence number of the commit in flight (None outside commits)
        self.commit_seq: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the ``with`` body; yields the span's mutable ``attrs``."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "commit_seq": self.commit_seq,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wchar(self) -> int:
        """``wchar()`` in a ``trace.wchar`` span of its own.

        The procfs read is the tracer's cost, not the layer's: taken
        outside the layer's span and inside a span of its own, it is
        counted in no layer's duration or self time.
        """
        with self.span("trace.wchar"):
            return wchar()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")


# -- timed subclasses of the program's layers ---------------------------------


class TimedFileStore(FileStore):
    def __init__(self, directory: str, recorder: SpanRecorder, **kwargs):
        self.recorder = recorder
        super().__init__(directory, **kwargs)

    def append(self, kind, data, **lineage):
        before = self.recorder.wchar()
        with self.recorder.span("store.append", bytes=len(data)) as attrs:
            index = super().append(kind, data, **lineage)
        attrs["wchar"] = self.recorder.wchar() - before
        return index

    def epochs(self):
        with self.recorder.span("store.epochs"):
            return super().epochs()

    def recovery_line(self, at=None):
        with self.recorder.span("store.recovery_line") as attrs:
            line = super().recovery_line(at)
            _note_line(attrs, line)
        return line

    def recover(self, registry=None, at=None):
        with self.recorder.span("store.recover"):
            return super().recover(registry, at)

    def remove(self, indices) -> None:
        with self.recorder.span("store.remove"):
            super().remove(indices)


class TimedReplicatedStore(ReplicatedStore):
    def __init__(self, replicas, recorder: SpanRecorder, **kwargs):
        self.recorder = recorder
        super().__init__(replicas, **kwargs)

    def append(self, kind, data, **lineage):
        with self.recorder.span("replica.append", bytes=len(data)):
            return super().append(kind, data, **lineage)

    def epochs(self):
        with self.recorder.span("replica.epochs"):
            return super().epochs()

    def recovery_line(self, at=None):
        with self.recorder.span("replica.recovery_line") as attrs:
            line = super().recovery_line(at)
            _note_line(attrs, line)
        return line

    def recover(self, registry=None, at=None):
        with self.recorder.span("replica.recover"):
            return super().recover(registry, at)


def _note_line(attrs: dict, line) -> None:
    attrs["epochs"] = len(line)
    attrs["bytes"] = sum(len(epoch.data) for epoch in line)


class TimedStoreSink(StoreSink):
    def __init__(self, store, recorder: SpanRecorder, **kwargs):
        self.recorder = recorder
        super().__init__(store, **kwargs)

    def put(self, kind, data, **lineage):
        with self.recorder.span("sink.put", bytes=len(data)):
            return super().put(kind, data, **lineage)

    def compact(self, registry=None, keep_history=False, branch=None):
        before = self.recorder.wchar()
        with self.recorder.span("sink.compact") as attrs:
            index = super().compact(registry, keep_history, branch)
        attrs["wchar"] = self.recorder.wchar() - before
        return index

    def materialize(self, target, registry=None):
        with self.recorder.span("sink.materialize"):
            return super().materialize(target, registry)

    def lineage(self):
        with self.recorder.span("sink.lineage"):
            return super().lineage()


@contextmanager
def _write_span(recorder: SpanRecorder, out) -> Iterator[dict]:
    with recorder.span("strategy.write") as attrs:
        before = out.size
        yield attrs
        attrs["bytes"] = out.size - before


class TimedDriverStrategy(DriverStrategy):
    def __init__(self, name, driver_factory, recorder: SpanRecorder):
        super().__init__(name, driver_factory)
        self.recorder = recorder

    def write(self, roots, out) -> None:
        with _write_span(self.recorder, out):
            super().write(roots, out)


class TimedSpecializedStrategy(SpecializedStrategy):
    def __init__(self, checkpointer, recorder: SpanRecorder, name=None):
        super().__init__(checkpointer, name=name)
        self.recorder = recorder

    def write(self, roots, out) -> None:
        with _write_span(self.recorder, out):
            super().write(roots, out)


class TimedDifferentialStrategy(DifferentialStrategy):
    def __init__(self, recorder: SpanRecorder, **kwargs):
        super().__init__(**kwargs)
        self.recorder = recorder

    def write(self, roots, out) -> None:
        with _write_span(self.recorder, out) as attrs:
            super().write(roots, out)
            stats = self.last_stats
            attrs["blocks"] = stats["blocks"]
            attrs["walked"] = stats["walked"]
            attrs["skipped"] = stats["skipped"]


# -- span analysis ------------------------------------------------------------


def _duration(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def _children(spans: List[dict]) -> Dict[int, List[dict]]:
    found: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            found[span["parent"]].append(span)
    return found


def self_ns(span: dict, children: List[dict]) -> int:
    """Duration minus the union of the children's (clipped) intervals."""
    covered = 0
    reach = span["start_ns"]
    for child in sorted(children, key=lambda c: c["start_ns"]):
        start = max(child["start_ns"], reach)
        end = min(child["end_ns"], span["end_ns"])
        if end > start:
            covered += end - start
            reach = end
    return _duration(span) - covered


def _ancestors(span: dict, spans: List[dict]) -> Iterator[dict]:
    while span["parent"] is not None:
        span = spans[span["parent"]]
        yield span


def _under(span: dict, spans: List[dict], name: str) -> bool:
    return any(a["name"] == name for a in _ancestors(span, spans))


def _ms(values_ns) -> List[float]:
    return [value / 1e6 for value in values_ns]


def _outermost_line(root: dict, spans, children) -> Optional[dict]:
    """The first recovery-line span below ``root`` (breadth-first)."""
    queue = list(children.get(root["id"], ()))
    while queue:
        span = queue.pop(0)
        if span["name"].endswith(".recovery_line"):
            return span
        queue.extend(children.get(span["id"], ()))
    return None


def layer_metrics(spans: List[dict], facts: dict) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct`` (run.py adds it).

    ``facts`` carries what the repetition counted outside any span: final
    manifest bytes and epoch-file count, receipt retries and degraded
    commits. A layer a workload never calls reports 0.
    """
    children = _children(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    commit_ids = {span["id"] for span in by_name["session.commit"]}

    def in_commit(span: dict) -> bool:
        return any(a["id"] in commit_ids for a in _ancestors(span, spans))

    # the tracer's own procfs reads, charged to no layer's duration
    tracer: Dict[int, int] = defaultdict(int)
    for span in by_name["trace.wchar"]:
        for ancestor in _ancestors(span, spans):
            tracer[ancestor["id"]] += _duration(span)

    def net(span: dict) -> int:
        return _duration(span) - tracer[span["id"]]

    metrics: Dict[str, float] = {}

    commit_self = [
        self_ns(span, children.get(span["id"], ()))
        for span in by_name["session.commit"]
    ]
    metrics["session.commit.self_ms.p50"] = median(_ms(commit_self))

    writes = [s for s in by_name["strategy.write"] if in_commit(s)]
    write_ms = _ms(net(s) for s in writes)
    metrics["strategy.write.ms.p50"] = median(write_ms)
    metrics["strategy.write.ms.p99"] = percentile(write_ms, 99)
    metrics["strategy.write.bytes.mean"] = (
        sum(s["attrs"]["bytes"] for s in writes) / len(writes) if writes else 0.0
    )
    # one compile per set-up
    metrics["spec.compile_s"] = median(
        [net(s) / 1e9 for s in by_name["spec.compile"]]
    )

    blocked = [s for s in writes if "blocks" in s["attrs"]]
    total_blocks = sum(s["attrs"]["blocks"] for s in blocked)
    metrics["blocks.skipped_ratio"] = (
        sum(s["attrs"]["skipped"] for s in blocked) / total_blocks
        if total_blocks
        else 0.0
    )
    walked = [s["attrs"]["walked"] for s in blocked]
    metrics["blocks.walked.p50"] = median(walked)
    metrics["blocks.walked.p99"] = percentile(walked, 99)

    puts = [s for s in by_name["sink.put"] if in_commit(s)]
    put_ms = _ms(net(s) for s in puts)
    metrics["sink.put.ms.p50"] = median(put_ms)
    metrics["sink.put.ms.p99"] = percentile(put_ms, 99)

    compactions = by_name["sink.compact"]
    metrics["sink.compact.ms.p50"] = median(
        _ms(net(s) for s in compactions)
    )
    metrics["sink.compact.count"] = len(compactions)
    metrics["sink.compact.wchar_bytes"] = sum(
        s["attrs"]["wchar"] for s in compactions
    )

    # appends a commit's put caused (not the compaction's new base)
    appends = [
        s for s in by_name["store.append"]
        if _under(s, spans, "sink.put") and in_commit(s)
    ]
    append_ms = _ms(net(s) for s in appends)
    metrics["store.append.ms.p50"] = median(append_ms)
    metrics["store.append.ms.p99"] = percentile(append_ms, 99)
    decile = max(1, len(append_ms) // 10)
    first = median(append_ms[:decile])
    metrics["store.append.growth"] = (
        median(append_ms[-decile:]) / first if first else 0.0
    )
    metrics["store.append.wchar_bytes.mean"] = (
        sum(s["attrs"]["wchar"] for s in appends) / len(appends)
        if appends
        else 0.0
    )
    metrics["store.manifest_bytes.final"] = facts["manifest_bytes"]
    metrics["store.epochs.final"] = facts["epochs_final"]

    fanouts = [
        s for s in by_name["replica.append"]
        if _under(s, spans, "sink.put") and in_commit(s)
    ]
    metrics["replica.append.ms.p50"] = median(_ms(net(s) for s in fanouts))
    metrics["replica.append.ms.p99"] = percentile(
        _ms(net(s) for s in fanouts), 99
    )
    child_ms: List[float] = []
    ratios: List[float] = []
    replica_self: List[int] = []
    for span in fanouts:
        kids = [c for c in children.get(span["id"], ()) if c["name"] == "store.append"]
        child_ms.extend(_ms(_duration(c) for c in kids))
        slowest = max((_duration(c) for c in kids), default=0)
        if slowest:
            ratios.append(net(span) / slowest)
        replica_self.append(self_ns(span, children.get(span["id"], ())))
    metrics["replica.child_append.ms.p50"] = median(child_ms)
    metrics["replica.serial_ratio"] = median(ratios)
    metrics["replica.self_ms.p50"] = median(_ms(replica_self))

    restores = by_name["session.restore"]
    metrics["restore.ms.p50"] = median(_ms(net(s) for s in restores))
    replayed = [_outermost_line(s, spans, children) for s in restores]
    metrics["restore.epochs_replayed.p50"] = median(
        [line["attrs"]["epochs"] for line in replayed if line is not None]
    )

    recovered = [
        _outermost_line(s, spans, children) for s in by_name["session.recover"]
    ]
    recovered = [line for line in recovered if line is not None]
    metrics["recover.epochs_replayed"] = median(
        [line["attrs"]["epochs"] for line in recovered]
    )
    metrics["recover.bytes_replayed"] = median(
        [line["attrs"]["bytes"] for line in recovered]
    )
    metrics["sink.retries"] = facts["retries"]
    metrics["replica.degraded_commits"] = facts["degraded"]
    return metrics

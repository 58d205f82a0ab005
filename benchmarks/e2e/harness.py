"""The four workloads and one repetition of a workload.

A repetition drives the public API the way an application does: build a
heap, mutate it, call ``CheckpointSession.commit()`` in a closed loop
(one application thread, mutate then commit, no think time, no other
thread), then restart cold from the store directories. Every recovered
and restored root must have the ``state_digest`` recorded live for its
epoch. ``run.py`` runs each repetition in its own subprocess.

Every timed interval is recorded as its ``perf_counter`` start and end;
``speed.HostSpeed`` samples the host's speed on a timer meanwhile, and the
result holds each time both at the reference speed and as the wall clock
read it, less the sampler's own time.

The heaps come from :mod:`repro.synthetic` (``SyntheticWorkload`` and its
modification helpers); the benchmark writes no generator of its own.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import CheckpointError
from repro.core.replica import ReplicatedStore
from repro.core.restore import state_digest
from repro.core.storage import FileStore
from repro.core.streams import DataOutputStream
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.sink import StoreSink
from repro.runtime.strategy import (
    DifferentialStrategy,
    DriverStrategy,
    SpecializedStrategy,
)
from repro.spec.specclass import SpecClass, SpecCompiler
from repro.synthetic.runner import SyntheticConfig, SyntheticWorkload
from repro.synthetic.structures import element_at, structure_objects
from repro.synthetic.workload import apply_modifications, draw_modified_positions

import speed
from layers import (
    SpanRecorder,
    TimedDifferentialStrategy,
    TimedDriverStrategy,
    TimedFileStore,
    TimedReplicatedStore,
    TimedSpecializedStrategy,
    TimedStoreSink,
    layer_metrics,
    wchar,
)

Interval = Tuple[float, float]


@dataclass(frozen=True)
class Size:
    """Heap shape and loop length of one repetition."""

    structures: int
    lists: int
    length: int
    commits: int
    #: steps between pins (long-chain) or sweeps (sparse-1pct)
    period: int = 0
    #: set-ups (setup_s is their median); the loop runs on the first, the
    #: others are spread over the loop and thrown away. Small heaps set up
    #: more often, so that each workload spends about a second on it
    setups: int = 3
    #: cold restarts (recover_s is their median), likewise; the largest
    #: heap restarts only twice, to keep a run within its time
    recoveries: int = 3


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    smoke: Size
    setup: Callable[["Repetition"], None]
    step: Callable[["Repetition", int], None]


class Repetition:
    """State of one repetition: heap, session, samples and checks."""

    def __init__(
        self,
        size: Size,
        seed: int,
        workdir: str,
        recorder: Optional[SpanRecorder],
    ) -> None:
        self.size = size
        self.rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.session: Optional[CheckpointSession] = None
        self.heap: Optional[SyntheticWorkload] = None
        #: per-structure element lists, for workloads that write by index
        self.elements: List[list] = []
        self.store_dirs: List[str] = []
        self.reopen: Callable[[], object] = lambda: None
        self.speed = speed.HostSpeed()
        #: (start, end) perf_counter seconds of each commit and restore
        self.commits: List[Interval] = []
        self.restores: List[Interval] = []
        self.pins: Dict[str, List[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.retries = 0
        self.payload = 0
        self.restores_attempted = 0
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        #: time spent on digest checks inside the loop (not loop work)
        self.check_seconds = 0.0

    # -- building blocks the workloads choose from ---------------------------

    def span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def file_store(self, directory: str) -> FileStore:
        if self.recorder is None:
            return FileStore(directory)
        return TimedFileStore(directory, self.recorder)

    def replicated(self, directories: List[str], quorum: int) -> ReplicatedStore:
        children = [self.file_store(d) for d in directories]
        if self.recorder is None:
            return ReplicatedStore(children, quorum=quorum)
        return TimedReplicatedStore(children, self.recorder, quorum=quorum)

    def sink(self, store) -> StoreSink:
        if self.recorder is None:
            return StoreSink(store)
        return TimedStoreSink(store, self.recorder)

    def incremental(self) -> DriverStrategy:
        if self.recorder is None:
            return DriverStrategy("incremental", Checkpoint)
        return TimedDriverStrategy("incremental", Checkpoint, self.recorder)

    def heap_of(self, **config) -> SyntheticWorkload:
        size = self.size
        self.heap = SyntheticWorkload(
            SyntheticConfig(
                num_structures=size.structures,
                num_lists=size.lists,
                list_length=size.length,
                seed=self.seed,
                **config,
            )
        )
        return self.heap

    def index_elements(self) -> None:
        self.elements = [
            structure_objects(root)[1:] for root in self.session.roots()
        ]

    # -- the operations the loop times ---------------------------------------

    def commit(self, name: Optional[str] = None) -> None:
        session = self.session
        self.attempted += 1
        recorder = self.recorder
        try:
            if recorder is None:
                start = time.perf_counter()
                result = session.commit(name=name)
                end = time.perf_counter()
            else:
                recorder.commit_seq = self.attempted
                try:
                    with recorder.span("session.commit", pin=name):
                        start = time.perf_counter()
                        result = session.commit(name=name)
                        end = time.perf_counter()
                finally:
                    recorder.commit_seq = None
        except (CheckpointError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"commit {self.attempted}: {exc!r}")
            return
        self.commits.append((start, end))
        self.payload += result.size
        receipt = result.receipt
        self.retries += receipt.retries
        if receipt.degraded or receipt.degraded_replicas:
            self.degraded += 1
        if name is not None:
            start = time.perf_counter()
            self.pins[name] = self.digests()
            self.check_seconds += self.speed.work(start, time.perf_counter())

    def restore(self, name: str) -> None:
        self.restores_attempted += 1
        try:
            with self.span("session.restore"):
                start = time.perf_counter()
                self.session.restore(name)
                end = time.perf_counter()
        except (CheckpointError, OSError) as exc:
            self.errors.append(f"restore {name}: {exc!r}")
            return
        self.restores.append((start, end))
        start = time.perf_counter()
        if self.digests() != self.pins[name]:
            self.mismatches.append(f"restore of {name} diverged from its pin")
        self.check_seconds += self.speed.work(start, time.perf_counter())

    def digests(self) -> List[str]:
        return [state_digest(root, True) for root in self.session.roots()]


# -- the four workloads -------------------------------------------------------


def _paper_setup(rep: Repetition) -> None:
    heap = rep.heap_of(percent_modified=0.25, modified_lists=1, last_only=True)
    spec = SpecClass(heap.shape, heap.pattern, name="paper_fig10")
    with rep.span("spec.compile"):
        checkpointer = SpecCompiler().compile(spec)
    if rep.recorder is None:
        strategy = SpecializedStrategy(checkpointer)
    else:
        strategy = TimedSpecializedStrategy(checkpointer, rep.recorder)
    directory = os.path.join(rep.workdir, "store")
    rep.store_dirs = [directory]
    rep.reopen = lambda: rep.file_store(directory)
    rep.session = CheckpointSession(
        roots=heap.structures,
        strategy=strategy,
        policy=EpochPolicy.bounded_chain(64),
        sink=rep.sink(rep.file_store(directory)),
    )
    rep.session.base()


def _paper_step(rep: Repetition, step: int) -> None:
    positions = draw_modified_positions(
        rep.size.structures, rep.heap.eligible, 0.25, rep.rng.randrange(1 << 30)
    )
    apply_modifications(rep.session.roots(), positions)
    rep.commit()


def _long_setup(rep: Repetition) -> None:
    heap = rep.heap_of(percent_modified=0.0)
    directory = os.path.join(rep.workdir, "store")
    rep.store_dirs = [directory]
    rep.reopen = lambda: rep.file_store(directory)
    rep.session = CheckpointSession(
        roots=heap.structures,
        strategy=rep.incremental(),
        sink=rep.sink(rep.file_store(directory)),
    )
    rep.session.base()


def _long_step(rep: Repetition, step: int) -> None:
    size = rep.size
    rng = rep.rng
    if step % size.period == size.period // 2:
        # always the latest pin: the restored pin decides the branch names
        # written into the manifest and the chain a restore replays, so a
        # seeded choice would make bytes and restore time vary by seed
        rep.restore(f"pin-{step - size.period // 2 + 1}")
    root = rep.session.roots()[rng.randrange(size.structures)]
    element = element_at(root, rng.randrange(size.lists), rng.randrange(size.length))
    element.v0 += 1
    rep.commit(name=f"pin-{step}" if step % size.period == 1 else None)


def _sparse_setup(rep: Repetition) -> None:
    heap = rep.heap_of(percent_modified=0.0)
    if rep.recorder is None:
        strategy = DifferentialStrategy()
    else:
        strategy = TimedDifferentialStrategy(rep.recorder)
    directory = os.path.join(rep.workdir, "store")
    rep.store_dirs = [directory]
    rep.reopen = lambda: rep.file_store(directory)
    rep.session = CheckpointSession(
        roots=heap.structures,
        strategy=strategy,
        sink=rep.sink(rep.file_store(directory)),
    )
    rep.session.base()
    with rep.span("blocks.partition"):
        strategy.tier.partition(rep.session.roots())
    rep.index_elements()


def _sparse_step(rep: Repetition, step: int) -> None:
    rng = rep.rng
    elements = rep.elements
    if step % rep.size.period == 0:
        # one element in every structure: every block turns dirty
        for members in elements:
            members[rng.randrange(len(members))].v0 += 1
    else:
        run = max(1, len(elements) // 100)
        first = rng.randrange(len(elements) - run + 1)
        for members in elements[first : first + run]:
            for element in members:
                element.v0 += 1
    rep.commit()


def _replicated_setup(rep: Repetition) -> None:
    heap = rep.heap_of(percent_modified=0.0)
    directories = [os.path.join(rep.workdir, f"r{i}") for i in range(3)]
    rep.store_dirs = directories
    rep.reopen = lambda: rep.replicated(directories, quorum=2)
    rep.session = CheckpointSession(
        roots=heap.structures,
        strategy=rep.incremental(),
        policy=EpochPolicy.bounded_chain(64),
        sink=rep.sink(rep.replicated(directories, quorum=2)),
    )
    rep.session.base()
    rep.index_elements()


def _replicated_step(rep: Repetition, step: int) -> None:
    rng = rep.rng
    elements = rep.elements
    for _ in range(50):
        members = elements[rng.randrange(len(elements))]
        members[rng.randrange(len(members))].v0 += 1
    rep.commit()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # the paper's Fig. 10 pattern through its own specialized routine;
        # the only workload with periodic compaction pauses
        Workload(
            "paper-synthetic",
            full=Size(1000, 5, 10, 1000, setups=5, recoveries=5),
            smoke=Size(100, 5, 10, 150),
            setup=_paper_setup,
            step=_paper_step,
        ),
        # near-zero walk, so commit time is storage and lineage; pins and
        # restores interleave reads with writes on one store
        Workload(
            "long-chain",
            full=Size(100, 2, 3, 2000, period=100, setups=51, recoveries=15),
            smoke=Size(100, 2, 3, 200, period=20),
            setup=_long_setup,
            step=_long_step,
        ),
        # clustered 1% writes let the block tier skip; every 10th step
        # dirties every block; the heaviest cold recovery
        Workload(
            "sparse-1pct",
            full=Size(1000, 5, 20, 1000, period=10, recoveries=2),
            smoke=Size(100, 5, 20, 100, period=10),
            setup=_sparse_setup,
            step=_sparse_step,
        ),
        # quorum-2 fan-out to three FileStores dominates; compaction runs
        # through the replicated front
        Workload(
            "replicated-3way",
            full=Size(100, 5, 10, 1000, setups=31, recoveries=11),
            smoke=Size(50, 5, 10, 150),
            setup=_replicated_setup,
            step=_replicated_step,
        ),
    )
}


# -- one repetition -----------------------------------------------------------


def _tree_bytes(directory: str) -> int:
    total = 0
    for parent, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


def _epoch_files(directory: str) -> int:
    return sum(
        1
        for name in os.listdir(directory)
        if name.startswith("epoch-") and name.endswith(".ckpt")
    )


def _full_size(roots) -> int:
    out = DataOutputStream()
    driver = FullCheckpoint(out)
    for root in roots:
        driver.checkpoint(root)
    return out.size


def run_repetition(
    name: str,
    seed: int,
    smoke: bool,
    traced: bool,
    workdir: str,
    trace_path: Optional[str] = None,
) -> dict:
    """Run one repetition of workload ``name``; returns its raw samples."""
    workload = WORKLOADS[name]
    size = workload.smoke if smoke else workload.full
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    recorder = SpanRecorder() if traced else None
    rep = Repetition(size, seed, workdir, recorder)
    try:
        return _measure(workload, rep, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(action: Callable[[], object]) -> Tuple[Interval, object]:
    """``action()`` after a collection, with the interval it ran in."""
    gc.collect()
    start = time.perf_counter()
    value = action()
    return (start, time.perf_counter()), value


def _set_up(workload: Workload, rep: Repetition) -> Interval:
    """One timed set-up of ``rep`` into its existing, empty ``workdir``."""

    def set_up() -> None:
        with rep.span("setup"):
            workload.setup(rep)

    interval, _ = _timed(set_up)
    return interval


def _spare_set_up(workload: Workload, rep: Repetition, step: int) -> Tuple[Interval, int]:
    """A set-up like the loop's own, in a directory of its own, thrown away.

    Returns its interval and the bytes it wrote, which are not loop writes.
    """
    spare = Repetition(
        rep.size, rep.seed, os.path.join(rep.workdir, f"spare-{step}"), rep.recorder
    )
    os.makedirs(spare.workdir)
    written = wchar()
    interval = _set_up(workload, spare)
    spare.session.close()
    written = wchar() - written
    shutil.rmtree(spare.workdir)
    del spare
    gc.collect()
    return interval, written


def _loop(
    workload: Workload, rep: Repetition, setups: List[Interval]
) -> Tuple[List[Tuple[float, float, float]], int]:
    """The timed closed loop: ``(start, end, seconds of loop work)`` a step.

    The set-ups after the first are spread evenly over the loop, between
    steps, so that ``setup_s`` samples the whole run and not the host's
    speed at its first moment. Returns the steps and the bytes the spare
    set-ups wrote. Speed probes, digest checks and set-ups are not loop
    work.
    """
    size = rep.size
    spares = {size.commits * k // size.setups for k in range(1, size.setups)}
    steps = []
    spare_bytes = 0
    for step in range(1, size.commits + 1):
        checks = rep.check_seconds
        start = time.perf_counter()
        workload.step(rep, step)
        end = time.perf_counter()
        work = rep.speed.work(start, end) - (rep.check_seconds - checks)
        steps.append((start, end, work))
        if step in spares:
            interval, written = _spare_set_up(workload, rep, step)
            setups.append(interval)
            spare_bytes += written
    return steps, spare_bytes


def _recover(rep: Repetition, ids: List[int], final: List[str]) -> List[Interval]:
    """``size.recoveries`` cold restarts, each checked against the live state."""
    intervals: List[Interval] = []

    def recover():
        with rep.span("session.recover"):
            return rep.reopen().recover()

    for attempt in range(rep.size.recoveries):
        try:
            interval, table = _timed(recover)
        except (CheckpointError, OSError) as exc:
            rep.errors.append(f"recover {attempt}: {exc!r}")
            continue
        intervals.append(interval)
        got = [
            state_digest(table[object_id], True) if object_id in table else None
            for object_id in ids
        ]
        if got != final:
            rep.mismatches.append(f"recover {attempt} diverged from live state")
        del table
    return intervals


def _measure(workload: Workload, rep: Repetition, trace_path) -> dict:
    host = rep.speed
    with host:
        setups = [_set_up(workload, rep)]
        gc.collect()
        written_before = wchar()
        steps, spare_bytes = _loop(workload, rep, setups)
        written = wchar() - written_before - spare_bytes

        session = rep.session
        session.flush()
        roots = list(session.roots())
        final = rep.digests()
        full_bytes = _full_size(roots)
        session.close()
        ids = [root._ckpt_info.object_id for root in roots]
        del roots
        recoveries = _recover(rep, ids, final)

    stored = sum(_tree_bytes(d) for d in rep.store_dirs)
    epoch_files = {
        os.path.basename(d): _epoch_files(d) for d in rep.store_dirs
    }
    manifest_bytes = sum(
        os.path.getsize(os.path.join(d, "manifest.json")) for d in rep.store_dirs
    )

    def wall(intervals: List[Interval], unit: float = 1.0) -> List[float]:
        return [host.work(start, end) * unit for start, end in intervals]

    def scaled(intervals: List[Interval], unit: float = 1.0) -> List[float]:
        return [host.scaled(start, end) * unit for start, end in intervals]

    result = {
        # times at the reference speed (see speed.py) ...
        "setup_s": scaled(setups),
        "loop_s": sum(work * host.factor(start, end) for start, end, work in steps),
        "latencies_ms": scaled(rep.commits, 1e3),
        "restore_ms": scaled(rep.restores, 1e3),
        "recover_s": scaled(recoveries),
        # ... and as the wall clock read them, less the probes' time
        "wall": {
            "setup_s": wall(setups),
            "loop_s": sum(work for _start, _end, work in steps),
            "latencies_ms": wall(rep.commits, 1e3),
            "restore_ms": wall(rep.restores, 1e3),
            "recover_s": wall(recoveries),
            "probes": len(host.values),
            "probe_us_median": statistics.median(host.values) * 1e6,
        },
        "commits": len(rep.commits),
        "attempted": rep.attempted + rep.restores_attempted + rep.size.recoveries,
        "commits_attempted": rep.attempted,
        "failed": rep.failed
        + rep.degraded
        + (rep.restores_attempted - len(rep.restores))
        + (rep.size.recoveries - len(recoveries)),
        "commits_failed": rep.failed + rep.degraded,
        "payload_bytes": rep.payload,
        "wchar_bytes": written,
        "stored_bytes": stored,
        "full_bytes": full_bytes,
        "epoch_files": epoch_files,
        "final_digest": hashlib.sha256("".join(final).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": rep.mismatches + rep.errors,
    }
    if rep.recorder is not None:
        facts = {
            "manifest_bytes": manifest_bytes,
            "epochs_final": max(epoch_files.values()),
            "retries": rep.retries,
            "degraded": rep.degraded,
        }
        result["layers"] = layer_metrics(rep.recorder.spans, facts)
        if trace_path is not None:
            rep.recorder.write_jsonl(trace_path)
            result["trace_path"] = trace_path
    return result

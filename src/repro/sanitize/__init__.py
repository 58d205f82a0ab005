"""Dynamic lockset sanitizer — the runtime half of the race analysis.

:mod:`repro.spec.effects.concurrency` proves lock discipline statically;
this package *watches* it at runtime, Eraser-style.  Weaving a class
(:func:`weave` / :func:`weave_runtime`) does two things:

- every ``threading.Lock``/``RLock`` attribute created by ``__init__``
  is wrapped in a :class:`SanitizedLock` proxy that maintains a
  per-thread held-lock set and feeds the global lock-order graph;
- the class's ``__setattr__`` is replaced with a shim that reports each
  attribute write — together with the writing thread and its held set —
  to the :class:`Sanitizer`'s per-field state machine.

The state machine is the classic Eraser lattice: a field is *virgin*
until written, *exclusive* while only its first thread touches it, and
*shared* once a second thread writes.  From then on the field's
candidate lockset is the running intersection of the locks held at each
write; an empty intersection is a data race, reported **once** per
``(class, field)`` as an obs event (``sanitizer.violation``) and a
metrics counter — never an exception, because a sanitizer must observe,
not perturb.

Zero disabled cost: nothing here touches a class until it is explicitly
woven, so the default runtime pays no import-time or call-time overhead
(the same contract as :data:`repro.obs.tracer.NULL_TRACER`).  Weaving is
reversible (:func:`unweave_all`) so tests can sandwich workloads.

The static analysis is write-centric, so the sanitizer is too: bare
*reads* of shared state are not tracked.  That keeps the crosscheck
(``python -m repro.spec.effects.concurrency --crosscheck``) sound:
every dynamic violation corresponds to an unguarded written field the
static pass must also have flagged (static ⊇ dynamic).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.sanitize.oracle import (
    OracleReport,
    OracleViolation,
    ShadowHeapOracle,
)

__all__ = [
    "OracleReport",
    "OracleViolation",
    "SanitizedLock",
    "Sanitizer",
    "ShadowHeapOracle",
    "Violation",
    "current_held",
    "get_sanitizer",
    "unweave_all",
    "weave",
    "weave_runtime",
]

#: raw lock types as returned by the factories (``_thread.LockType`` etc.)
_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))

_tls = threading.local()


def current_held() -> Tuple[str, ...]:
    """The names of the locks the calling thread currently holds."""
    return tuple(getattr(_tls, "held", ()))


def _push_held(name: str) -> None:
    held = getattr(_tls, "held", None)
    if held is None:
        held = []
        _tls.held = held
    held.append(name)


def _pop_held(name: str) -> None:
    held = getattr(_tls, "held", None)
    if held and name in held:
        # remove the most recent acquisition of this lock (RLock reentry)
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                break


class SanitizedLock:
    """Proxy around a raw lock that tracks the holder thread's held set.

    Behaves like the wrapped lock (context manager, ``acquire`` /
    ``release``, ``locked``) and additionally:

    - pushes/pops its name on the calling thread's held-lock stack;
    - reports each acquisition to the sanitizer's lock-order graph
      (an edge *held → acquired* for every lock already held).
    """

    __slots__ = ("_lock", "name", "_sanitizer")

    def __init__(self, lock, name: str, sanitizer: "Sanitizer") -> None:
        self._lock = lock
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._sanitizer.note_acquire(self.name, current_held())
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            _push_held(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        _pop_held(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanitizedLock {self.name} wrapping {self._lock!r}>"


class Violation:
    """One dynamic race observation (reported once per class/field)."""

    __slots__ = ("rule", "cls", "field", "threads", "detail")

    def __init__(
        self, rule: str, cls: str, field: str, threads: int, detail: str
    ) -> None:
        self.rule = rule
        self.cls = cls
        self.field = field
        self.threads = threads
        self.detail = detail

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.cls, self.field)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "class": self.cls,
            "field": self.field,
            "threads": self.threads,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Violation {self.rule} {self.cls}.{self.field}>"


class _FieldState:
    """Eraser lattice state for one ``(instance, field)`` pair."""

    __slots__ = ("owner", "shared", "candidates", "writer_threads")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.shared = False
        #: None until the field goes shared; then the running intersection
        self.candidates: Optional[FrozenSet[str]] = None
        self.writer_threads: Set[int] = {owner}


class Sanitizer:
    """Global dynamic-lockset checker fed by woven classes.

    One process-wide instance (``get_sanitizer()``) so locks wrapped in
    one class and state written from another share a single lock-order
    graph and violation sink.  Internally synchronized — the sanitizer
    watches races, it must not have any.
    """

    def __init__(self, tracer=NULL_TRACER, metrics=NULL_METRICS) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.violations: List[Violation] = []
        self._states: Dict[Tuple[int, str], _FieldState] = {}
        #: lock-order edges observed at runtime: held -> acquired
        self._order: Set[Tuple[str, str]] = set()
        self._reported: Set[Tuple[str, str, str]] = set()
        # RLock + a thread-local reentrancy flag: reporting a violation
        # goes through the (possibly woven) Tracer, whose own attribute
        # writes must not re-enter the checker
        self._mutex = threading.RLock()

    def instrument(self, tracer, metrics) -> None:
        """Attach obs hooks (only replaces the no-op defaults)."""
        with self._mutex:
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            if self.metrics is NULL_METRICS:
                self.metrics = metrics

    # -- event intake ----------------------------------------------------

    def note_acquire(self, name: str, held: Tuple[str, ...]) -> None:
        """Record *held → name* order edges; flag inversions."""
        with self._mutex:
            for h in held:
                if h == name:
                    continue  # RLock reentry is not an ordering edge
                self._order.add((h, name))
                if (name, h) in self._order:
                    self._report(
                        "lock-order-inversion",
                        *_split_lock_name(h),
                        threads=2,
                        detail=f"{h} -> {name} observed after {name} -> {h}",
                    )

    def note_write(self, obj, cls_name: str, field: str) -> None:
        """Feed one attribute write into the per-field state machine."""
        if getattr(_tls, "in_sanitizer", False):
            return
        thread_id = threading.get_ident()
        held = frozenset(current_held())
        key = (id(obj), field)
        with self._mutex:
            state = self._states.get(key)
            if state is None:
                self._states[key] = _FieldState(thread_id)
                return
            if not state.shared and thread_id == state.owner:
                return  # still exclusive to the constructing thread
            state.shared = True
            state.writer_threads.add(thread_id)
            if state.candidates is None:
                state.candidates = held
            else:
                state.candidates &= held
            if not state.candidates:
                self._report(
                    "unguarded-shared-write",
                    cls_name,
                    field,
                    threads=len(state.writer_threads),
                    detail=(
                        f"{cls_name}.{field} written by "
                        f"{len(state.writer_threads)} threads with no "
                        "common lock held"
                    ),
                )

    # -- reporting -------------------------------------------------------

    def _report(
        self, rule: str, cls: str, field: str, threads: int, detail: str
    ) -> None:
        # caller holds self._mutex
        key = (rule, cls, field)
        if key in self._reported:
            return
        self._reported.add(key)
        violation = Violation(rule, cls, field, threads, detail)
        self.violations.append(violation)
        _tls.in_sanitizer = True
        try:
            self.tracer.event(
                "sanitizer.violation",
                rule=rule,
                **{"class": cls},
                field=field,
                threads=threads,
                detail=detail,
            )
            self.metrics.counter("sanitizer.violations", rule=rule).inc()
        finally:
            _tls.in_sanitizer = False

    def violation_keys(self) -> Set[Tuple[str, str]]:
        """``(class, field)`` pairs with a race verdict (crosscheck key).

        A lock-order inversion keys as ``(class, "<lock-order>")``, the
        key the static pass gives a ``lock-order-inversion`` finding.
        """
        with self._mutex:
            return {
                (v.cls, "<lock-order>")
                if v.rule == "lock-order-inversion"
                else (v.cls, v.field)
                for v in self.violations
            }

    def forget_instance(self, obj) -> None:
        """Drop per-field state for ``obj`` (called when ``__init__`` runs).

        CPython reuses ``id()`` values after collection; without this, a
        fresh object constructed on another thread would inherit a dead
        object's Eraser state and report a phantom race.
        """
        key_id = id(obj)
        with self._mutex:
            stale = [k for k in self._states if k[0] == key_id]
            for k in stale:
                del self._states[k]

    def reset(self) -> None:
        """Forget all state (between workloads in one process)."""
        with self._mutex:
            self.violations.clear()
            self._states.clear()
            self._order.clear()
            self._reported.clear()


_sanitizer: Optional[Sanitizer] = None
_sanitizer_guard = threading.Lock()


def get_sanitizer() -> Sanitizer:
    """The process-wide sanitizer (created on first use)."""
    global _sanitizer
    with _sanitizer_guard:
        if _sanitizer is None:
            _sanitizer = Sanitizer()
        return _sanitizer


def _split_lock_name(name: str) -> Tuple[str, str]:
    cls, _, attr = name.partition(".")
    return (cls, attr or name)


# -- weaving -------------------------------------------------------------

#: classes currently woven: cls -> (original __init__, original __setattr__)
_woven: Dict[type, Tuple[object, object]] = {}


def weave(cls: type, sanitizer: Optional[Sanitizer] = None) -> type:
    """Weave the sanitizer into ``cls`` (idempotent; returns ``cls``).

    After weaving, instances created by ``cls.__init__`` get their raw
    lock attributes wrapped in :class:`SanitizedLock` proxies, and every
    attribute write on any instance is reported to the sanitizer.
    """
    if cls in _woven:
        return cls
    san = sanitizer or get_sanitizer()
    orig_init = cls.__init__
    orig_setattr = cls.__setattr__

    def woven_setattr(self, name, value):
        # lock installation and proxy replacement are bookkeeping, not
        # shared-state writes; everything else goes through the checker
        if not isinstance(value, (SanitizedLock, *_LOCK_TYPES)):
            san.note_write(self, type(self).__name__, name)
        orig_setattr(self, name, value)

    def woven_init(self, *args, **kwargs):
        san.forget_instance(self)
        orig_init(self, *args, **kwargs)
        for attr, value in list(vars(self).items()):
            if isinstance(value, _LOCK_TYPES):
                proxy = SanitizedLock(
                    value, f"{type(self).__name__}.{attr}", san
                )
                orig_setattr(self, attr, proxy)

    _woven[cls] = (orig_init, orig_setattr)
    cls.__init__ = woven_init
    cls.__setattr__ = woven_setattr
    return cls


def unweave(cls: type) -> None:
    """Restore ``cls`` to its pre-weave behavior."""
    originals = _woven.pop(cls, None)
    if originals is not None:
        cls.__init__, cls.__setattr__ = originals


def unweave_all() -> None:
    """Restore every woven class (test teardown)."""
    for cls in list(_woven):
        unweave(cls)


def weave_runtime(sanitizer: Optional[Sanitizer] = None) -> List[type]:
    """Weave the checkpoint runtime's shared-state classes.

    The set mirrors the classes the static analysis treats as
    *concurrent* (they declare locks or spawn threads): the stores, the
    background writer, the session, the id allocator, and the obs
    primitives.  Returns the woven classes so callers can unweave.
    """
    from repro.core.ids import IdAllocator
    from repro.core.replica import ReplicatedStore, Scrubber
    from repro.core.storage import BackgroundWriter, FileStore, MemoryStore
    from repro.obs.tracer import Tracer
    from repro.runtime.session import CheckpointSession

    targets = [
        MemoryStore,
        FileStore,
        BackgroundWriter,
        ReplicatedStore,
        Scrubber,
        CheckpointSession,
        IdAllocator,
        Tracer,
    ]
    for cls in targets:
        weave(cls, sanitizer)
    return targets

"""Bounded, deterministic retry for durable-storage operations.

Checkpoint writes are exactly the place transient I/O failures matter:
an epoch that is silently dropped tears the delta chain, while an epoch
retried forever stalls the application the checkpointer is supposed to
protect. :class:`RetryPolicy` bounds both failure modes — a maximum
attempt count, exponential backoff with *deterministic* jitter (seeded,
so fault-injection runs replay byte-identically), and an optional
wall-clock deadline.

Classification is explicit: only errors the policy's ``classify``
predicate calls transient are retried. The default treats ``OSError``
(and everything raised with an ``OSError`` cause) as transient and every
other exception — corrupt frames, schema errors, programming bugs — as
permanent, because retrying those can only mask them.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.errors import CheckpointError

#: ``OSError`` errnos that describe a *state* of the volume, not a blip:
#: a full disk (ENOSPC, EDQUOT) or a read-only remount (EROFS) will not
#: clear in a backoff window, and retrying only delays the real handling
#: (degrade the replica, fence the volume, surface the error).
_PERMANENT_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "ENOSPC", None),
        getattr(errno, "EROFS", None),
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)


def transient_oserror(exc: BaseException) -> bool:
    """The default transient classifier: ``OSError`` or an ``OSError`` cause.

    A wrapped error (e.g. a :class:`~repro.core.errors.StorageError`
    raised ``from`` an ``OSError``) counts, so stores that translate
    exceptions keep their retry behaviour. Errnos naming a persistent
    volume state — ``ENOSPC``, ``EROFS``, ``EDQUOT`` — are **not**
    transient: a full or read-only disk does not heal inside a backoff
    window, while ``EAGAIN``/``EINTR``-style blips do.
    """
    cause = exc if isinstance(exc, OSError) else exc.__cause__
    if not isinstance(cause, OSError):
        return False
    return cause.errno not in _PERMANENT_ERRNOS


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts, exponential backoff, deterministic jitter, deadline.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``1`` disables retrying).
    base_delay:
        Sleep before the first retry, in seconds.
    multiplier:
        Backoff factor applied per retry (``base * multiplier**(n-1)``).
    max_delay:
        Per-sleep cap, in seconds.
    deadline:
        Optional total wall-clock budget across all attempts; once the
        next sleep would exceed it, the last error is re-raised instead.
    jitter:
        Fraction of each delay replaced by seeded pseudo-randomness
        (``0.0`` disables jitter entirely).
    seed:
        Seed of the jitter stream — two policies with equal parameters
        produce identical delay sequences, which fault-injection tests
        rely on.
    classify:
        Predicate deciding whether an exception is transient (retryable).
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    deadline: Optional[float] = None
    jitter: float = 0.1
    seed: int = 0
    classify: Callable[[BaseException], bool] = transient_oserror

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CheckpointError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise CheckpointError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> List[float]:
        """The full (deterministic) sleep schedule this policy would use."""
        rng = random.Random(self.seed)
        schedule = []
        for attempt in range(self.max_attempts - 1):
            raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            if self.jitter:
                raw = raw * (1.0 - self.jitter) + raw * self.jitter * rng.random()
            schedule.append(raw)
        return schedule

    def run(
        self,
        fn: Callable[[], object],
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        """Call ``fn`` under this policy; returns its value.

        ``on_retry(attempt, exc, delay)`` is invoked before each sleep —
        the hook :class:`~repro.core.storage.RetryingStore` counts with.
        Permanent errors, exhausted attempts, and a blown deadline all
        re-raise the last exception unchanged.
        """
        start = clock()
        schedule = self.delays()
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except BaseException as exc:
                last_try = attempt == self.max_attempts - 1
                if last_try or not self.classify(exc):
                    raise
                delay = schedule[attempt]
                if (
                    self.deadline is not None
                    and clock() - start + delay > self.deadline
                ):
                    raise
                if on_retry is not None:
                    on_retry(attempt + 1, exc, delay)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- presets -------------------------------------------------------------

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt: fail-stop, no retrying."""
        return cls(max_attempts=1)

    @classmethod
    def default_commit(cls) -> "RetryPolicy":
        """The commit-path default: 3 attempts, ~5ms/10ms backoff."""
        return cls()

    @classmethod
    def aggressive(cls, deadline: float = 2.0) -> "RetryPolicy":
        """Many fast attempts under one wall-clock budget (tests, sims)."""
        return cls(
            max_attempts=8, base_delay=0.001, max_delay=0.02, deadline=deadline
        )


@dataclass
class RetryStats:
    """Retry accounting: the retry half of an append receipt."""

    retries: int = 0
    #: human-readable notes of what was retried ("append retry 1: ...")
    events: List[str] = field(default_factory=list)

    def note(self, operation: str, attempt: int, exc: BaseException) -> None:
        self.retries += 1
        self.events.append(f"{operation} retry {attempt}: {exc}")

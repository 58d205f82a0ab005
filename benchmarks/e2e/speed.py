"""Host-speed sampling: every time metric in reference-speed units.

The vCPUs of the shared VM the benchmark was built on do not run at a
steady speed. The same pure-Python loop takes 1.1 ms or 1.9 ms depending
on the moment; the state flips every few milliseconds, slow and fast
spells last up to a second, and the share of slow moments drifts over
minutes. The wall time of a commit, or of a whole run, therefore moves
with the host by 10-50% between runs of the same code, far past any
useful regression bound.

So while a repetition runs, an interval timer interrupts it every
``PERIOD_S`` and times a fixed probe, independent of the program: an
integer loop and attribute reads and stores on slot objects, run once
untimed first so that the timed run finds its code and data in cache.
Each measured interval then has its probe time taken out (``work``) and
is scaled by ``REFERENCE_S`` over the mean probe time in and around it
(``factor``). A faster or slower program moves the scaled times as it
moves the wall-clock ones; a faster or slower host moves only the
latter. Of the probes tried, these plain bytecode loops slowed most like
a commit in the VM's slow spells (JSON encoding, by contrast, did not
follow them).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: how often the timer interrupts the repetition to take a probe
PERIOD_S = 0.005
#: the probe's duration at the reference speed; scaled times read as if
#: the host ran at that speed (on the VM the probe took about 38 us in a
#: fast moment and 58 us in a slow one)
REFERENCE_S = 50e-6
#: an interval is scaled by the probes taken in it or within this long of
#: it ...
REACH_S = 0.01
#: ... and by at least this many
MIN_PROBES = 9
#: a probe slower than this many times the median of its window was
#: descheduled, not slowed, and is left out of the mean
DESCHEDULED = 2.0


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, value: int) -> None:
        self.left = value
        self.right = value * 3


_PAIRS = [_Pair(i) for i in range(200)]


def _probe() -> None:
    total = 0
    for i in range(600):
        total += i * i
    table = {}
    for pair in _PAIRS:
        total += pair.left + pair.right
        table[pair.left] = pair


class HostSpeed:
    """Probes of the host's speed, taken on a timer while the ``with`` lasts.

    Not reentrant; one per process at a time, in the main thread.
    """

    def __init__(self) -> None:
        #: when each timed probe started, and how long it took (seconds)
        self.times: List[float] = []
        self.values: List[float] = []
        #: when each interruption began, and the running total of their
        #: durations, for taking the sampler's own time out of intervals
        self._began: List[float] = []
        self._busy: List[float] = [0.0]
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        began = time.perf_counter()
        _probe()
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.times.append(start)
        self.values.append(end - start)
        self._began.append(began)
        self._busy.append(self._busy[-1] + time.perf_counter() - began)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work(self, start: float, end: float) -> float:
        """Wall seconds of ``start..end`` less the probes taken inside it."""
        low = bisect.bisect_left(self._began, start)
        high = bisect.bisect_left(self._began, end)
        return end - start - (self._busy[high] - self._busy[low])

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed around ``start..end``.

        Work seconds inside the interval times this factor are seconds at
        the reference speed. The host's speed comes from the probes taken
        in the interval or within ``REACH_S`` of it, widened to the
        ``MIN_PROBES`` nearest when fewer fall there. It is their mean,
        because the probes come at even times and a long interval spans
        both fast and slow spells, less the probes the host descheduled.
        """
        if not self.values:
            raise ValueError("no speed probe was taken")
        low = bisect.bisect_left(self.times, start - REACH_S)
        high = bisect.bisect_right(self.times, end + REACH_S)
        while high - low < MIN_PROBES and (low > 0 or high < len(self.times)):
            low = max(0, low - 1)
            high = min(len(self.times), high + 1)
        window = self.values[low:high]
        limit = statistics.median(window) * DESCHEDULED
        return REFERENCE_S / statistics.fmean(v for v in window if v <= limit)

    def scaled(self, start: float, end: float) -> float:
        """Work seconds of ``start..end`` at the reference speed."""
        return self.work(start, end) * self.factor(start, end)

"""Host-speed calibration: scales timed figures to a host of fixed speed.

The shared host this benchmark was tuned on (2 vCPUs) runs the same Python
20-40% slower for minutes at a time: a CPU loop with no I/O took 34-50 ms
per 24-second window over ten minutes, with no steal time reported.  Every
figure of a run moves with it, and no run of a few tens of seconds can
average it out.

So a run also times a calibration every EVERY_S seconds of wall time, from
a SIGALRM interval timer, so that the samples cover the run evenly, also
inside queries that take seconds.  The calibration is a fixed piece of pure
Python (integer arithmetic, `Fraction` convolution, tuple-keyed dicts, as in
the program's inner loops) that uses none of the program; the time it takes
inside a query is taken out of that query's time.  The host's speed keeps
from one 50 ms slice to the next (correlation 0.84 in a slow period) and
half of that over seconds, so each query's time is multiplied by
REFERENCE_S over the median of the calibrations taken during it and within
WINDOW_S of it.  That gives its time on a host where the calibration takes
REFERENCE_S.  A change to the program does not change the calibration, so
it moves the scaled times exactly as much as the raw ones.  The raw figures
are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
# wall time between two calibrations in a run
EVERY_S = 0.3
# calibrations this long before a query starts or after it ends scale it too
WINDOW_S = 0.5


def _work():
    s = 0
    for i in range(60_000):
        s += i * i % 7
    seen = {}
    for r in range(8):
        a = [Fraction(i + r + 1, 2 * i + 3) for i in range(8)]
        b = [Fraction(3 * i - 5, i + r + 7) for i in range(8)]
        c = [Fraction(0)] * 8
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[(i + j) % 8] += x * y
        seen[tuple(c)] = r
    return s + len(seen)


def sample() -> float:
    """Seconds one calibration takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Clock:
    """Calibration samples of one run.  Inside `with clock:` a sample is
    taken every EVERY_S."""

    def __init__(self):
        self.samples = []          # seconds each calibration took
        self.starts = []           # perf_counter when each one started
        self.ends = []             # and when it returned
        self._busy = False
        self._previous = None

    def take(self):
        start = time.perf_counter()
        self.samples.append(sample())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def spent(self, start, end) -> float:
        """Seconds taken by the calibrations that ran between `start` and
        `end` (perf_counter).  The alarm handler runs to its end before the
        interrupted code goes on, so each one lies wholly inside or outside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.take()
            finally:
                self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start=None, end=None) -> float:
        """Multiply the time of a query that ran from `start` to `end`
        (perf_counter) by this to scale it; without them, the factor of
        the whole run."""
        if start is None:
            return REFERENCE_S / statistics.median(self.samples)
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:   # none near: the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

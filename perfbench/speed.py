"""Host-speed normalisation of timings.

The benchmark runs on shared hosts whose speed swings by up to 2x within
seconds: a fixed pure-Python loop on the 2-vCPU reference VM takes 16 ms in
one second and 33 ms a few seconds later, and CPU time tracks wall time, so
the slowdown is contention on the host and cannot be waited out or
subtracted as stolen time.  A ``Sampler`` measures that speed while the
benchmark runs: a SIGALRM handler runs ``probe()``, a fixed stdlib-only loop
that calls no ``cvn`` code, every ``PERIOD_S`` seconds of wall time and
records when each probe ran and how long it took.

For an interval of the run, ``Sampler.normalised`` takes the wall time,
subtracts the time the handler spent inside the interval, and divides by
the slowdown: the mean probe time over the interval (at least
``MIN_PROBES`` probes, the nearest ones when fewer ran inside it; a
process that has not yet run that many waits for them), without its
slowest ``TRIM`` share, over ``PROBE_REF_S``, the probe's time on the
quiet reference machine.  The mean follows a host that switches between
quiet and busy within an interval, where a median would jump from one to
the other.  The
result is the time the interval would have taken on that machine when it
is quiet.  A change to ``cvn`` moves the interval and not the probe, so it
shows in full.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
MIN_PROBES = 5
# share of the slowest probes of an interval left out of its slowdown: a
# probe that the host preempted takes milliseconds longer, a delay that
# adds to an op instead of stretching it
TRIM = 0.2
# fastest time of probe() on the reference machine (see README.md)
PROBE_REF_S = 0.00035


def probe() -> int:
    """Fraction arithmetic, tuple keys and a dict: the kind of work cvn
    does, on values that stay small so every call costs the same."""
    seen = {}
    for i in range(1, 120):
        q = Fraction(i % 97 + 1, i % 89 + 2) + Fraction(i % 13 + 1, 7)
        seen[(i % 101, q.denominator)] = q.numerator
    return len(seen)


class Sampler:
    """Probes the host's speed every PERIOD_S seconds while installed."""

    def __init__(self):
        self.starts: list[float] = []
        self.probe_s: list[float] = []
        self.spent = 0.0  # wall time spent in the handler so far
        self.installed = False
        self._old = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        probe()
        d = time.perf_counter() - t
        self.starts.append(t)
        self.probe_s.append(d)
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.installed = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.installed = False

    def mark(self) -> tuple:
        """A point of the run: (wall clock, handler time so far)."""
        return time.perf_counter(), self.spent

    def slowdown(self, t0: float, t1: float) -> float:
        """Trimmed mean probe time over [t0, t1] against the reference."""
        while len(self.starts) < MIN_PROBES:  # a short run: probe on
            if not self.installed:
                raise RuntimeError("too few speed probes and no sampler "
                                   "installed to take more")
            time.sleep(PERIOD_S / 4)
        n = len(self.starts)
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        while j - i < MIN_PROBES:
            if i == 0:
                j += 1
            elif j == n:
                i -= 1
            elif t0 - self.starts[i - 1] <= self.starts[j] - t1:
                i -= 1
            else:
                j += 1
        window = sorted(self.probe_s[i:j])
        kept = window[:len(window) - int(len(window) * TRIM)]
        return statistics.fmean(kept) / PROBE_REF_S

    def raw(self, start: tuple, end: tuple) -> float:
        """Wall time between two marks, less the handler's time."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def normalised(self, start: tuple, end: tuple) -> float:
        """Time between two marks at the quiet reference speed."""
        return self.raw(start, end) / self.slowdown(start[0], end[0])

"""A fixed pure-Python kernel that measures how fast the CPU is running now.

On a shared host the same code runs at different speeds from one second to
the next: a neighbour on the same physical core or a change of clock can
slow every instruction by half, for a fraction of a second or for minutes.
While the timed ops run, a :class:`Sampler` runs the kernel between ops and,
from a timer signal, every :data:`INTERVAL_S` inside them.  Each op's time,
less the samples taken inside it, is scaled by the mean kernel time over
the op (the samples inside it and the two around it), so that the reported
times are those of a CPU on which the kernel takes :data:`NOMINAL_S`.  The
kernel does the kind of work the library's hot loops do (small-int modular
arithmetic, list indexing, tuple and dict stores, calls) and imports
nothing from the library, so no change to the library moves it.
"""

from __future__ import annotations

import bisect
import signal
import time

ITERATIONS = 1000
# seconds one kernel call takes on the reference CPU, a 2-vCPU KVM guest on
# an Intel Xeon (Sapphire Rapids) with Python 3.11: the median kernel time
# of 41 benchmark runs there, rounded
NOMINAL_S = 0.0015
CHECKSUM = 9049
INTERVAL_S = 0.1  # timer period of the samples taken inside ops

_ROWS = tuple(tuple((i * 31 + j * 17) % 10007 for j in range(8)) for i in range(8))


def _step(acc: int, row: tuple, p: int) -> int:
    s = 0
    for x in row:
        s = (s + x * acc) % p
    return s


def kernel(n: int = ITERATIONS) -> int:
    """The fixed work; returns a checksum that depends on every step."""
    p = 10007
    acc = 1
    seen = {}
    for k in range(n):
        s = _step(acc, _ROWS[k & 7], p)
        acc = (acc * 7 + s) % p or 1
        seen[acc & 255] = (k, s)
    return acc


def sample(clock=time.perf_counter) -> float:
    """Seconds one kernel call takes now."""
    t0 = clock()
    got = kernel()
    dt = clock() - t0
    if got != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {got} != {CHECKSUM}")
    return dt


def scale(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured while the kernel took `kernel_seconds`, at nominal speed."""
    return seconds * NOMINAL_S / kernel_seconds


class Sampler:
    """Kernel samples (start, seconds) in time order, taken by :meth:`take`
    and, while the sampler is entered, from a SIGALRM timer every
    `interval` seconds.  A sample never nests inside another."""

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter):
        self.interval = interval
        self.clock = clock
        self.starts: list = []
        self.seconds: list = []
        self._busy = False
        self._old_handler = None

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = self.clock()
            dt = sample(self.clock)
            self.starts.append(t0)
            self.seconds.append(dt)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def unsampled(self, t0: float, t1: float) -> float:
        """Seconds of the interval [t0, t1] spent outside the samples taken in it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return t1 - t0 - sum(self.seconds[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """:meth:`unsampled` seconds of [t0, t1] at nominal speed.

        The speed is the mean kernel time of the samples that start inside
        the interval, the last one before it and the first one after it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        around = self.seconds[max(0, lo - 1):hi + 1]
        return scale(self.unsampled(t0, t1), sum(around) / len(around))

"""The host's speed, read around and during each timed operation.

The machine the baseline was taken on is shared, and other tenants change
its speed from one moment to the next: in phases of tens of milliseconds to
minutes, the same pure-Python job takes from one to two times its fastest
time.  Neither the fastest nor the median time over a run's repetitions
escapes a phase that lasts the whole run.  So each operation is timed
together with a fixed reference job of the benchmark's own, run just before
and just after the operation and, while it runs, every PERIOD_S from a
timer signal.  The operation's cost is its time divided by the reference
job's time at those moments; its time excludes the readings taken inside
it.  ``run.py`` reports costs multiplied by REF_MS, the reference job's
time when the baseline machine is not contended, so they read as
milliseconds on that machine at full speed.

The reference job allocates no object the garbage collector tracks, so it
does not move the package's collections.  The readings only run while
``Meter.run`` is timing a call.
"""

from __future__ import annotations

import signal
import statistics
import time

# The reference job's time in ms on the baseline machine (see README.md)
# when other tenants leave it alone, rounded: a fixed scale, the same for
# every run.
REF_MS = 0.2
PERIOD_S = 0.01

_TABLE = tuple((i * 2654435761) % 1000003 for i in range(512))
_SEQ = tuple((i * 7919) % 512 for i in range(2000))


def reference() -> int:
    acc = 0
    table = _TABLE
    for x in _SEQ:
        acc = (acc * 31 + table[x]) % 1000000007
    return acc


def read() -> float:
    """Seconds one run of the reference job takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def cost(seconds: float, readings: list[float]) -> float:
    """``seconds`` in units of the reference job: the mean over the readings
    of the time divided by each, which weighs the readings by the wall time
    they stand for."""
    return seconds * statistics.fmean(1 / r for r in readings)


class Meter:
    """Times calls and reads the reference job around and during them.

    With ``sampling`` off only the readings before and after a call are
    taken, for runs in which nothing may run inside the call (the traced
    ones).
    """

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self._timing = False
        self._inside: list[float] = []
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._timing:
            self._inside.append(read())

    def run(self, call, *args):
        """(answer, error, ms, cost) of ``call(*args)``; ``error`` is the
        exception's text when it raised, and ``answer`` is then None."""
        before = read()
        self._inside = []
        if self.sampling:
            self._timing = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            answer, error = call(*args), None
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            answer, error = None, f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._timing = False
        inside = self._inside
        elapsed -= sum(inside)
        readings = [before, *inside, read()]
        return answer, error, elapsed * 1000, cost(elapsed, readings)

"""Operation time in units of a fixed reference kernel timed during the operation.

On a shared machine the same code runs at different speeds from one second
to the next: other tenants load the host, and clock speeds change with them.
``Gauge.measure`` runs an operation with a timer signal that samples a fixed
pure-Python kernel every ``INTERVAL`` seconds, and converts each stretch of
the operation between two samples into kernel units at the speed those two
samples show.  Their sum is the operation time in ``ref`` units, from which
a change of machine speed during or between operations mostly cancels.

The kernel mixes an integer loop with small allocations (tuples, a dict,
``Fraction``), as ``hochlat`` does; an integer loop alone slows less than
the operations do when the machine slows.  On a shared 2-CPU Xeon guest whose
speed changed by up to 1.8x, the log of the operation time rose 0.9 to 1.0
times as fast as the log of this kernel's time on all three workloads.  The
kernel calls no ``hochlat`` code, so a change to ``hochlat`` moves only the
operation, and garbage collection is off while it runs, so that it does not
collect the operation's objects.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# Seconds between two kernel samples during an operation.
INTERVAL = 0.2
# Kernel calls per sample; the sample is the fastest, so an interrupt does not count.
TRIES = 3


def kernel():
    """About 0.6 ms of integer arithmetic and small allocations."""
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFF
    sums = {}
    for i in range(60):
        key = (i % 13, i % 11)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 7, 1 + i % 5)
    return x, sorted(sums.items())


EXPECTED = kernel()


def sample():
    """(start, end, kernel seconds) of one sample."""
    start = perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(TRIES):
            t0 = perf_counter()
            result = kernel()
            t1 = perf_counter()
            if result != EXPECTED:
                raise RuntimeError("reference kernel computed a different result")
            best = t1 - t0 if best is None else min(best, t1 - t0)
    finally:
        if collecting:
            gc.enable()
    return start, perf_counter(), best


class Gauge:
    """Times operations in seconds and in reference-kernel units."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.kernel_s = []  # every sample of the run, for the record

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return (result, seconds, ref units).

        The seconds leave out the samples taken during the call.
        """
        marks = [sample()]

        def on_alarm(signum, frame):
            marks.append(sample())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        marks.append(sample())
        seconds = units = 0.0
        for (_, end, k0), (start, _, k1) in zip(marks, marks[1:]):
            stretch = start - end
            seconds += stretch
            units += stretch / ((k0 + k1) / 2)
        self.kernel_s += [k for _, _, k in marks]
        return result, seconds, units

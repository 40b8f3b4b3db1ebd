"""Machine-speed correction for the benchmark's timings.

On a shared machine the speed of a core drifts by 20-30 % within
minutes, for every program alike: a pass of a workload and a fixed
kernel slow down together.  :class:`SpeedProbe` runs a fixed reference
kernel from a ``SIGALRM`` handler every ``PERIOD_S`` seconds of wall
time, so it samples the machine's speed while the workload runs.  A
workload time divided by the probe's slowdown (mean kernel time over
``REF_S``) is the time at the speed at which the kernel takes ``REF_S``.
The kernel uses no warpfield code, so a change to warpfield does not
move it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy

PERIOD_S = 0.05
# About the kernel's median time on the 2-core x86-64 machine the
# benchmark was defined on (Python 3.11.7, numpy 2.4.6).
REF_S = 0.0015

_A = numpy.arange(36.0).reshape(6, 6) / 7.0


def kernel() -> float:
    """Dict and float work in the interpreter plus small numpy products:
    the mix of warpfield's inner loops."""
    s = 0.0
    d = {}
    for i in range(4000):
        d[i & 255] = s
        s += (i * 0.5) % 7.0
    for _ in range(100):
        c = _A @ _A
        s += float(c[0, 0]) + float((_A * 2.0 + c).sum())
    return s


class SpeedProbe:
    def __init__(self):
        self.spent = 0.0    # seconds inside the kernel
        self.calls = 0
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` less the time spent in the kernel, so a
        workload timed with it excludes the probe."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        """Run the kernel once and record its time (also the handler)."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.spent += time.perf_counter() - t0
        self.calls += 1
        self._busy = False

    def mark(self) -> tuple[float, int]:
        return self.spent, self.calls

    def slowdown(self, since: tuple[float, int]) -> float:
        """Mean kernel time since ``since`` (a :meth:`mark`) over ``REF_S``."""
        if self.calls == since[1]:
            self.sample()
        return (self.spent - since[0]) / (self.calls - since[1]) / REF_S

    @contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

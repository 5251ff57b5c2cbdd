"""Measured time, scaled to a reference machine speed.

The 2-core machine this benchmark was built on is shared.  Over minutes the
same work ran up to 40% slower or faster, in CPU time as much as in wall
time, so the spread between runs was machine drift, not the program.  A
fixed pure-Python kernel (big-integer, Fraction and dict work; no package
code, so no change to the package can move it) is therefore timed every
``REFRESH_S`` seconds between items, and a run's times are multiplied by
``KERNEL_S`` / (mean kernel time over the run).  Times are thus "seconds
on a machine where the kernel takes ``KERNEL_S``".  Over four minutes of
identical work, such scaled 20 s windows varied with a coefficient of
variation of 2.4%, the raw ones with 8.1%.  Quantiles of item times need
more: a slow stretch of a few seconds moves a run's p90 much more than its
mean, so for them each item is scaled by the kernel samples taken within
``WINDOW_S`` / 2 of it instead.  Kernel runs are excluded from every
reported interval.
"""
from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction

# nominal kernel time; it only sets the unit of the scaled seconds (the
# kernel took 2.1-4 ms on the 2-core machine the benchmark was built on)
KERNEL_S = 0.0036
REFRESH_S = 0.25
# width of the window of kernel samples that scales one item's time
WINDOW_S = 2.0


def _kernel():
    m = (1 << 159) | 12345678901234567
    acc = 0
    for i in range(1, 1200):
        acc = (acc + ((m * (m + i)) >> 160)) & ((1 << 200) - 1)
        acc ^= i * 2654435761
    x = Fraction(1, 3)
    for i in range(1, 250):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    d = {}
    for i in range(1500):
        d[(i, i & 7)] = (i, str(i))
    return acc, x, len(d)


def kernel_times(n: int) -> list[float]:
    """Times of n back-to-back kernel runs, now."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def kernel_seconds() -> float:
    """Best-of-three time of the kernel, now."""
    return min(kernel_times(3))


class MachineClock:
    """Raw seconds since creation with the kernel runs and paused work left
    out, and the scale measured along the way."""

    def __init__(self):
        self.kernel: list[float] = []
        self.at: list[float] = []          # when each kernel sample was taken
        self.excluded = 0.0
        self.t0 = time.perf_counter()
        self._sample()

    def _sample(self) -> None:
        t = time.perf_counter()
        self.at.append(t)
        self.kernel.append(kernel_seconds())
        self.last = time.perf_counter()
        self.excluded += self.last - t

    def between_items(self) -> None:
        if time.perf_counter() - self.last >= REFRESH_S:
            self._sample()

    @contextmanager
    def paused(self):
        """Leave the enclosed work (output checks) out of the elapsed time."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t

    def raw_elapsed(self) -> float:
        return time.perf_counter() - self.t0 - self.excluded

    def scale(self) -> float:
        """Scale of the whole run: the kernel samples are evenly spaced in
        time, so their mean is the run's mean slowness."""
        return KERNEL_S / statistics.fmean(self.kernel)

    def scale_at(self, t: float) -> float:
        """Scale at ``perf_counter`` time t: from the kernel samples within
        ``WINDOW_S`` / 2 of t, or the run's scale if there are none."""
        near = self.kernel[bisect_left(self.at, t - WINDOW_S / 2):
                           bisect_right(self.at, t + WINDOW_S / 2)]
        return KERNEL_S / statistics.fmean(near) if near else self.scale()

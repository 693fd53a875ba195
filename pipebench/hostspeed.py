"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few CPUs of a shared host. While other tenants are
busy, the same code runs up to 2x slower for tens of seconds at a time, in
CPU time as much as in wall time (no steal shows). A fixed calibration kernel
slows down with it: small numpy matrix products, the same mix of interpreter
and numpy-dispatch work as the program's. HostClock runs the kernel between
questions and between optimizer steps and scales each interval of program
time by the kernel's time around it:

    reference seconds = wall seconds * CAL_REF_S / kernel seconds nearby

A timing then reads as the time the work takes on a host on which the kernel
takes CAL_REF_S. The kernel shares no code or data with the program, so a
change to the program moves these figures as it moves wall time; the kernel's
own time is left out of every interval.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-vCPU host (x86-64, numpy with one BLAS thread)
# the benchmark was written on; it only sets the scale of the figures.
CAL_REF_S = 1.3e-3
TICK_EVERY_S = 0.02  # at most this much program time between two kernel runs
WINDOW = 5  # a moment's speed is the median kernel time of this many ticks

_A = np.random.default_rng(0).standard_normal((10, 16))


def kernel() -> float:
    x = _A
    for _ in range(150):
        x = np.tanh(x @ _A.T @ _A) * 0.5
    return float(x[0, 0])


class HostClock:
    """Kernel runs ("ticks") interleaved with the timed work."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cost: list[float] = []

    def tick(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.cost.append(t1 - t0)

    def maybe_tick(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= TICK_EVERY_S:
            self.tick()

    def slowdown(self, t: float) -> float:
        """Kernel time around moment t over CAL_REF_S."""
        i = bisect.bisect(self.ends, t)
        lo = max(0, min(i - WINDOW // 2, len(self.cost) - WINDOW))
        return statistics.median(self.cost[lo : lo + WINDOW]) / CAL_REF_S

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of program time in [t0, t1], ticks left out."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        total, a = 0.0, t0
        for k in range(i, max(i, j)):
            total += (self.starts[k] - a) / self.slowdown((self.starts[k] + a) / 2)
            a = self.ends[k]
        return total + (t1 - a) / self.slowdown((t1 + a) / 2)

    def summary(self) -> dict:
        """Diagnostics: the spread of the host's speed over the run."""
        if len(self.cost) < 2:
            return {"ticks": len(self.cost)}
        q = statistics.quantiles(self.cost, n=4)
        return {
            "ticks": len(self.cost),
            "kernel_ms_q1": q[0] * 1e3,
            "kernel_ms_median": q[1] * 1e3,
            "kernel_ms_q3": q[2] * 1e3,
            "kernel_ms_ref": CAL_REF_S * 1e3,
        }

"""Speed gauges: calibrate wall times against fixed reference tasks.

On a host that shares its cores, the same code runs up to half slower, or
faster, for minutes at a time, so raw wall times of the same op differ by
far more between runs than any change worth gating on.  A gauge times a
small reference task between the benchmark's calls and rescales each call's
wall time by how slow the task ran around it, to the time the call would
take where the task takes its nominal time.

Different kinds of code slow down differently, so each workload names the
reference task that tracks its kind of work best: numpy calls on 0-d arrays
(the scalar primitives behind quadrature) or an interpreter loop over floats
(the closed forms).  Over five minutes of interleaved runs, the 10-second
medians of a quadrature and a closed-form op varied by 0.5 and 1.2 %
(standard deviation of the log) against their task, and by 8 % raw.  Monte
Carlo on 10^6-element arrays follows neither task well (2.6 % against the
interpreter loop, 5 % raw).  The tasks call nothing in the program, so no
change to the program moves them.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# One task at most every SAMPLE_INTERVAL_S between calls; a call is
# calibrated by the tasks timed within WINDOW_S of it.
SAMPLE_INTERVAL_S = 0.2
WINDOW_S = 0.5


def _scalar_numpy() -> None:
    for k in range(100):
        arr = np.asarray(0.3 + k * 1e-4, dtype=float)
        if np.any((arr <= 0.0) | (arr >= 1.0) | ~np.isfinite(arr)):
            raise ValueError("unreachable")
        float(2.0 * (1.0 - arr))


def _python_floats() -> None:
    math.fsum(1.0 / k for k in range(1, 5000))


# name -> (task, nominal seconds).  The nominal times fix the unit: they are
# the tasks' median times on the x86-64 server vCPU the benchmark was built
# on, in its usual state (CPython 3.11, numpy 2.4), so calibrated times read
# as times there.
REFERENCES = {
    "scalar_numpy": (_scalar_numpy, 1.55e-3),
    "python_floats": (_python_floats, 0.57e-3),
}


class SpeedGauge:
    """Times one reference task between calls and calibrates the calls."""

    def __init__(self, reference: str):
        self.reference = reference
        self._task, self._nominal = REFERENCES[reference]
        self.times: list[float] = []  # midpoints of the timed tasks
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        self._task()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured task time around the interval [start, end].

        Uses the tasks timed within ``WINDOW_S`` of the interval plus the
        nearest one on either side, so sample before and after it.
        """
        lo = max(bisect.bisect_left(self.times, start - WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(self.times, end + WINDOW_S) + 1
        return self._nominal / statistics.median(self.durations[lo:hi])

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated seconds of a call that ran from ``start`` to ``end``."""
        return (end - start) * self.factor(start, end)

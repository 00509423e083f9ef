"""Host speed calibration for the gated timings.

On the 2-vCPU Xeon virtual machine this benchmark was tuned on, the speed
toggles within seconds between a fast and a slow state, about 1.6x apart,
and the share of slow time differs from run to run.  A fixed Python loop
took 18 to 30 ms in different 20 s windows, with process CPU time equal to
wall time and little steal.  Ten-run spreads (IQR/median) of raw call
timings reached 0.2 to 0.4.

So the runner also times a fixed piece of benchmark code, `calibrate()`,
PER_TICK times in a row after the first call that ends EVERY_S or more
after the last calibration.  Each call's duration is scaled by
REFERENCE_S over the median calibration time within WINDOW_S of the
call: the call's time on a host on which `calibrate()` takes REFERENCE_S.
The package cannot change this code, so a faster package still reads
faster; a faster host does not.  Raw timings are kept in every result
record.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

#: Seconds `calibrate()` takes on the reference host (its typical time on
#: the virtual machine above).
REFERENCE_S = 0.010

#: Calibrate at most this often while calls run, this many times in a row.
EVERY_S = 0.5
PER_TICK = 3

#: Calibrations this close to a call, before or after it, set its scale.
WINDOW_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small-array numpy
    calls, the two kinds of work the package does.  The collector is off
    while it runs, so the package's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        x = np.ones(8)
        for _ in range(400):
            y = (x[:, None] * x[None, :]).reshape(4, 2, 8).sum(axis=2)
            x = np.clip(y.reshape(8) / 8.0, 0.0, 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Timestamped calibrations of one process."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._sample()

    def _sample(self) -> None:
        for _ in range(PER_TICK):
            seconds = calibrate()
            self.times.append(time.perf_counter())
            self.samples.append(seconds)

    def tick(self) -> None:
        """Calibrate if EVERY_S has passed since the last calibration."""
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self._sample()

    def scale(self, start: float | None = None, seconds: float = 0.0) -> float:
        """Reference seconds per measured second, from the calibrations within
        WINDOW_S of [start, start + seconds], or from the nearest one; from
        all of them when `start` is None."""
        if start is None:
            return REFERENCE_S / statistics.median(self.samples)
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = [self.samples[i]]
        return REFERENCE_S / statistics.median(near)

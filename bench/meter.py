"""Timed operations with interleaved calibration, and the statistics on them.

A :class:`Meter` collects two things in one stretch of a run: operations
timed by the caller, and samples of the frozen calibration kernel
(:mod:`calib`) run between them.  Each operation is *normalised* by the
kernel samples taken just before, during and just after it::

    normalised = wall * REF_KERNEL_S / mean(kernel samples around it)

which reads "the time this would have taken on a host where the kernel takes
REF_KERNEL_S".  Host speed here swings by 2x within a second, and a ratio of
two times taken through the same swings is steadier than either of them
(bench/README.md has the measurements).  The kernel gets KERNEL_SHARE of the
time given to the work: the error of the ratio falls with the time spent on
*each* side, so a few samples against a long run of work calibrate nothing.
"""

import statistics
import time
from statistics import median

import calib
from spans import span

#: what the kernel took on the host this benchmark was sized on; only fixes
#: the unit of the normalised times.  Frozen with the kernel.
REF_KERNEL_S = 0.048
#: kernel time per unit of work time (0.5 = a third of the window)
KERNEL_SHARE = 0.5


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sequence, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def rel_iqr(values):
    """(Q3 - Q1) / median with the quartiles of ``statistics.quantiles`` —
    the spread the benchmark's bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Meter:
    """Operations and the calibration samples interleaved with them."""

    def __init__(self):
        self.samples = []
        self.kernel_s = 0.0
        self.work_s = 0.0
        #: name -> [(wall seconds per operation, mean kernel seconds)]
        self.ops = {}
        self._window = 0  # first sample of the catch-up before the current op

    def _sample(self):
        elapsed = calib.sample()
        self.samples.append(elapsed)
        self.kernel_s += elapsed

    def catch_up(self, running_s=0.0):
        """Run the kernel, at least once, until it has had its share of the
        work time so far (*running_s*: the unrecorded part of a live op)."""
        target = KERNEL_SHARE * (self.work_s + running_s)
        self._sample()
        while self.kernel_s < target:
            self._sample()

    def record(self, name, wall_s, count=1):
        """*count* operations taking *wall_s* in all have just ended."""
        first = self._window
        self.work_s += wall_s
        self._window = len(self.samples)
        self.catch_up()
        cal_s = statistics.fmean(self.samples[first:])
        self.ops.setdefault(name, []).append((wall_s / count, cal_s))

    # ---- summaries ----------------------------------------------------------

    def wall_ms(self, name):
        return 1e3 * median([wall for wall, _ in self.ops[name]])

    def cal_ms(self, name, elasticity=1.0):
        """Median normalised time of operation *name*.  *elasticity* is how
        much of the host's speed the operation follows: 1 for the
        interpreter-bound work this kernel was built to resemble."""
        return 1e3 * median([wall * (REF_KERNEL_S / cal) ** elasticity
                             for wall, cal in self.ops[name]])

    def total_wall_ms(self, names):
        """One of each named operation, raw: the sum of their medians."""
        return sum(self.wall_ms(name) for name in names)

    def total_cal_ms(self, names):
        """One of each named operation, normalised."""
        return sum(self.cal_ms(name) for name in names)


class Slice:
    """The clock of one operation that lets calibration interrupt it.

    ``pause`` has the signature of ``LBP.run``'s ``snapshot_callback``, the
    public hook that calls back at a safe point every N cycles: the kernel
    runs there, inside the operation, and its time is taken back out.
    """

    def __init__(self, meter, recorder=None, start=None):
        self.meter = meter
        self.recorder = recorder
        self.paused_s = 0.0
        self.start = time.perf_counter() if start is None else start

    def pause(self, _machine=None):
        now = time.perf_counter()
        with span(self.recorder, "calib"):
            self.meter.catch_up(now - self.start - self.paused_s)
        self.paused_s += time.perf_counter() - now

    def stop(self):
        return time.perf_counter() - self.start - self.paused_s

"""Machine-speed probe: scales timings to a nominal machine speed.

The CPUs this benchmark shares run at a speed that drifts by about
±20 % in phases lasting seconds (other tenants, frequency scaling).  A
window of ten seconds catches a different mix of phases on every run,
so raw times spread by more than the regressions the benchmark must
see.  The probe is a fixed kernel — a JSON round trip of small Python
objects and a numpy gather from a table larger than the caches, the
kinds of work the workloads do — that lives here, outside the program,
so no change to the program can change its speed.  It is
sampled at most every ``INTERVAL`` seconds while a workload runs.
Each operation's time is divided by the machine's slowdown at that
moment: the mean of the probe samples taken within ``SPAN`` of it (at
least the ones just before and just after), relative to ``NOMINAL``.  A sample is the median of three runs of the
kernel.  Raw times are printed beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

#: Seconds the probe kernel takes at the nominal speed (about its
#: median on a 2-vCPU Intel Xeon VM); scaled times are "at the speed
#: where the kernel takes this long".
NOMINAL = 0.001

#: Shortest time between two samples.
INTERVAL = 0.2

#: Samples this close to an operation are averaged into its slowdown.
SPAN = 0.5

_rng = np.random.default_rng(12345)
_TABLE = _rng.random(1 << 20)
_INDEX = _rng.integers(0, 1 << 20, 1 << 16)
_DOCUMENT = {"a": [{f"k{i}": [i, i * 2.5, f"s{i}"]} for i in range(300)]}


def _kernel() -> float:
    text = json.dumps(_DOCUMENT)
    json.loads(text)
    values = _TABLE[_INDEX]
    values *= values
    return len(text) + float(values.sum())


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the kernel three times; keep the median (one hiccup, such
        as an interrupt, must not set a whole operation's scale)."""
        runs = []
        for _ in range(3):
            began = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - began)
        self._last = time.perf_counter()
        self.times.append(self._last)
        self.seconds.append(sorted(runs)[1])

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``INTERVAL``."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """The machine's slowdown over ``[start, end]`` relative to
        nominal: the mean of the samples within ``SPAN`` of it, and at
        least of the samples just before and just after it."""
        if not self.seconds:
            return 1.0
        times = self.times
        lo = min(
            bisect.bisect_left(times, start - SPAN),
            max(0, bisect.bisect_right(times, start) - 1),
        )
        hi = max(
            bisect.bisect_right(times, end + SPAN),
            min(len(times), bisect.bisect_left(times, end) + 1),
        )
        return statistics.fmean(self.seconds[lo:hi]) / NOMINAL

    def median_slowdown(self) -> float:
        """The window's typical slowdown, for the report."""
        return statistics.median(self.seconds) / NOMINAL if self.seconds else 1.0

    def scale(self, starts: list, latencies: list) -> list:
        """Each operation's time at nominal speed."""
        return [
            took / self.slowdown(start, start + took)
            for start, took in zip(starts, latencies)
        ]

"""The speed of the core the benchmark's commands run on, sampled while they run.

The benchmark's host shares each core with other tenants: the same
pure-Python work takes up to 40% longer from one second to the next, and the
share of slow seconds drifts over minutes, so the plain wall time of a 60-s
run moved by 25% between runs of the same code.  The two cores drift
independently, so a loop timed on the other core, or between commands, does
not track the core a command ran on.

CoreSpeed pins the benchmark, and with it every command it starts, to one
core, and runs a thread on that same core which times a fixed chunk of work
every PERIOD_S seconds by its own CPU clock (so the time the command holds the
core does not count).  The chunk does what the commands do: bytecode with
big-integer sums, as in the q-series, and the 50-digit complex products and
logarithms of the circle profile.  Against this chunk a command's time moved
at an exponent of 0.92 (`count`, `table`) to 1.11 (`verify contour`); against
a plain integer loop, at 0.35 to 1.3.
`scale(start, end)` is REFERENCE_CHUNK_S over the mean chunk time between two
instants: the factor that turns a command's wall time into its wall time on a
core that runs a chunk in REFERENCE_CHUNK_S.  The thread takes about 7% of
the core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import mpmath

# one chunk took 1.5 to 2 ms on the recorded baseline's core
REFERENCE_CHUNK_S = 1.5e-3
PERIOD_S = 0.025
# a context of its own: the main thread's mpmath precision stays untouched
_MP = mpmath.MPContext()
_MP.dps = 50


def _chunk() -> None:
    sums, x = [0] * 64, 3 ** 200
    for i in range(1000):
        sums[i & 63] += x * i
    q = _MP.exp(_MP.mpc(-0.01, 0.3))
    qe, log_f = q, _MP.mpf(0)
    for _ in range(30):
        log_f -= _MP.log(abs(1 - qe))
        qe *= q


class CoreSpeed:
    """Pins this process to one core and samples that core's speed in a thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end instant, chunk CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="corespeed", daemon=True)
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)

    def __enter__(self) -> CoreSpeed:
        # threads and children started from now on inherit the pinning
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.thread_time()
            _chunk()
            self.samples.append((time.perf_counter(), time.thread_time() - start))
            self._stop.wait(PERIOD_S)

    def chunk_s(self, start: float, end: float) -> float:
        """Mean chunk time of the samples that ended between two perf_counter instants."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        if hi > lo:
            return statistics.fmean(s[1] for s in samples[lo:hi])
        if not samples:
            return REFERENCE_CHUNK_S
        # shorter than one period: the first sample after it, or the last one
        return samples[min(hi, len(samples) - 1)][1]

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_CHUNK_S / self.chunk_s(start, end)

"""Host-speed calibration for a shared machine.

The benchmark runs on a few cores of a host shared with other work, and
the speed of those cores drifts by tens of percent within seconds and
across minutes, each core on its own. While the commands run, one sampler
thread per core, pinned to that core, runs a tiny fixed burst of work four
times a second and times it in thread CPU time, so that waiting for the
core does not count. The burst uses no readskill code. A command's host
speed is the mean burst speed of all cores over its own run, against
REFERENCE_S; its gated time is its wall time scaled to a host where one
burst takes REFERENCE_S, so that a slow minute on the host does not read
as a slow program. Raw wall times are kept beside them.

A burst mixes the two kinds of work readskill does: a pure-Python dynamic
programme over lists (like alignment and the interpreter's own start-up)
and numpy FFTs and sorts over arrays (like frame analysis). It takes
about 3% of each core.
"""
from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# Median burst time on an Intel Xeon (Sapphire Rapids, KVM guest, 2 vCPUs).
REFERENCE_S = 0.0072
PERIOD_S = 0.25

_ROWS = tuple(tuple((i * 7919 + j * 104729) % 13 for j in range(40)) for i in range(7))
_SIGNAL = np.random.default_rng(0).standard_normal(1 << 12)


def _python_work() -> int:
    """Edit distance between rows of a fixed table, in plain Python."""
    total = 0
    for a, b in zip(_ROWS[:-1], _ROWS[1:]):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            cur = [i]
            for j, y in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
            prev = cur
        total += prev[-1]
    return total


def _numpy_work() -> float:
    x = _SIGNAL
    for _ in range(9):
        x = np.sort(np.abs(np.fft.irfft(np.fft.rfft(x), n=x.size)))
    return float(x[-1])


def burst() -> float:
    """Thread CPU time of one fixed burst of work."""
    t0 = time.thread_time()
    _python_work()
    _numpy_work()
    return time.thread_time() - t0


class Sampler:
    """One daemon thread per usable CPU, each pinned to its CPU, runs a
    burst every PERIOD_S between start() and stop(). Samples are
    (perf_counter at start, cpu, burst time)."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[tuple[float, int, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True)
                         for cpu in self.cpus]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self.samples.sort()

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})      # this thread only
        while not self._stop.wait(PERIOD_S):
            sample = (time.perf_counter(), cpu, burst())
            with self._lock:
                self.samples.append(sample)

    def factor(self, t0: float, t1: float) -> float:
        """Multiplier that scales wall time spent in [t0, t1] to the
        reference host: the mean speed of all CPUs over that span, as
        REFERENCE_S over burst time. A span with fewer than two samples
        per CPU borrows the nearest samples around it."""
        if not self.samples:
            return 1.0
        starts = [t for t, _, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        want = 2 * len(self.cpus)
        while hi - lo < want and (lo > 0 or hi < len(starts)):
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        return statistics.fmean(REFERENCE_S / b for _, _, b in self.samples[lo:hi])

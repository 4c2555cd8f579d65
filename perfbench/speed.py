"""CPU speed sampled while ops run, to put their times on one scale.

On a shared virtual machine the same command's wall *and* CPU time drift by
30-40 % over tens of seconds, from host contention the guest cannot see.
Raw times from two runs a minute apart then differ by more than any useful
regression bound (an inter-quartile range of 20-27 % across runs of 30 s).

``SpeedMeter`` pins the benchmark, and so every op it launches, to one CPU.
A background thread runs a fixed chunk of pure-Python work every
``PERIOD_S`` and records the chunk's thread CPU time.  The mean chunk cost
during an op, divided by ``REFERENCE_CHUNK_S``, is the op's slowdown; the
op's wall time divided by it is the op's time at the reference speed.  The
mean (not the median) is used because it also counts the rare slow chunks,
which is what the op experiences.  Measured on repeated identical ops, this
cut the coefficient of variation of op times from 5-19 % to 2-3.5 %.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02
MARGIN_S = 0.2  # samples this close to an interval also describe it
REFERENCE_CHUNK_S = 0.0004  # chunk CPU time at the reference speed (a typical mean here)


def _chunk() -> Fraction:
    """Fixed mix of exact arithmetic and dict updates, like modesched's own work."""
    total = Fraction(0)
    table = {}
    for i in range(1, 120):
        total += Fraction(i, 7)
        table[(i * 7919) % 101] = total
    return total


class SpeedMeter:
    """Background speed sampler; use as a context manager."""

    def __init__(self) -> None:
        self._times: list[float] = []  # sample midpoints, perf_counter seconds
        self._costs: list[float] = []  # chunk thread CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedMeter":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            start, cpu = time.perf_counter(), time.thread_time()
            _chunk()
            cost = time.thread_time() - cpu
            self._costs.append(cost)  # before the time, so every indexed time has its cost
            self._times.append((start + time.perf_counter()) / 2)
            self._stop.wait(PERIOD_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean chunk cost near [start, end], relative to the reference speed."""
        lo = bisect.bisect_left(self._times, start - MARGIN_S)
        hi = bisect.bisect_right(self._times, end + MARGIN_S)
        costs = self._costs[lo:hi]
        if not costs:
            raise RuntimeError("no speed sample near the interval")
        return statistics.fmean(costs) / REFERENCE_CHUNK_S

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed."""
        return (end - start) / self.slowdown(start, end)

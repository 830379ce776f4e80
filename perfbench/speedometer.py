"""Speed of the CPU that the benchmark's processes share, sampled during a run.

On a shared host the speed of one virtual CPU drifts: the same pure-Python
loop takes anywhere from 1x to 1.8x its fastest time, in spells of a few
seconds to minutes, and the two CPUs of a 2-vCPU machine drift
independently of each other.  Unscaled, the throughput of ten 20 s runs
of one workload spread 0.08 to 0.31 (quartile distance over median), more
than most changes to the program would move it.

The benchmark therefore pins itself and every process it starts to one CPU,
and a thread of the benchmark process times a fixed pure-Python loop on
that CPU every ``INTERVAL_S`` while the CLI processes run.  The loop's
working set fits in the first-level cache, so the CLI process, which runs
on the same CPU between samples, cannot change its time by what it leaves
in the caches: the loop runs as fast between CLI calls as during them.
On single CLI calls of ``check`` and ``prompt`` the standard deviation of
log wall time was 6% to 11%, and 4% to 5% after scaling, so scaling
removes most of the drift but not all of it.  The loop costs its CPU about
2%, alike on every commit.

``scale(start, end)`` is the reference loop time over the loop's mean time
in that interval: the factor that turns wall seconds measured then into
seconds at the reference speed.  The loop runs no code of the package
under test, so a faster program cannot speed up the reference.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOP_STEPS = 20_000
INTERVAL_S = 0.05
# The loop's median time on the machine described in BASELINE.md, so that
# scaled figures read close to raw ones there.
REFERENCE_LOOP_S = 0.00115
# An interval shorter than the sampling period is scaled by the samples nearest it.
NEAREST = 3


def pin_to_one_cpu() -> int:
    """Bind the calling thread, and so every thread and process it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """A thread that times the loop every ``INTERVAL_S`` while in a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> Speedometer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            # Thread CPU time leaves out the spells in which the CLI process
            # holds the CPU, so a sample measures speed and not sharing.
            start = time.thread_time()
            total = 0
            for step in range(LOOP_STEPS):
                total += step
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scale(self, start: float, end: float) -> float:
        inside = [cost for stamp, cost in self.samples if start <= stamp <= end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [cost for _, cost in nearest[:NEAREST]]
        return REFERENCE_LOOP_S / statistics.fmean(inside)

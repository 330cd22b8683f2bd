"""The host's current speed, from a fixed calibration loop.

The benchmark runs on a few cores of a shared host whose speed drifts: a
pure-Python loop can take 1.5 times as long for several seconds at a time
when neighbours are busy.  Drift that large swamps any change worth
measuring, so every end-to-end time is reported at a reference speed: a
time measured while the calibration loop takes `sample()` seconds is scaled
by REF_S / sample().  The loop is integer arithmetic and dict stores, the
mix the field, polynomial and curve code spends its time on.  It touches no
library code, so a change to the library moves the scaled times exactly as
it moves the measured ones.

Drift does not slow all work alike: within one hour the scan workload, which
streams large freshly allocated numpy arrays, slowed by 2x while this loop
slowed by 1.35x.  So scan is not one of the workloads BENCHMARK.json lists.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter

LOOP_N = 8000  # iterations of one calibration loop
REF_S = 0.001  # its time at the reference speed, in seconds
REPS = 3  # loops per sample; a sample is their median


def _loop() -> int:
    acc, table = 1, {}
    for i in range(LOOP_N):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    return acc


class Speed:
    """The calibration loop, warmed up, and the scaling it gives."""

    def __init__(self):
        for _ in range(8):  # let the interpreter specialise the loop
            _loop()

    def sample(self) -> float:
        """Seconds one loop takes now: the median of REPS loops, with the
        garbage collector off so the program's heap does not count."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPS):
                t0 = perf_counter()
                _loop()
                times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """`seconds` measured between samples `before` and `after`, at the
        reference speed."""
        return seconds * REF_S / ((before + after) / 2)


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU: the one
    the calibration loop measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

"""Machine-speed reference used to normalise the benchmark's times.

On a shared two-CPU box the same solve runs up to 40% slower for minutes at
a time, with no steal time and no change in the solve's own work: process
time tracks wall time, so the CPU itself is slower. Medians within a run
cannot remove drift that lasts longer than the run. The child therefore
times this fixed kernel just before set-up, between set-up and solve, and
after the solve, and every reported time is scaled by NOMINAL_S over the
kernel's time around it. The kernel is small numpy arithmetic driven from
Python, like most of a solver step; timed next to the solves, its ratio to
them kept the spread of 20-second windows to about 5% where raw wall times
spread by 26-29%. It is not program code, so a change to mlopf moves the
scaled times exactly as it moves the raw ones. Raw times stay in the
result files.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0125  # the kernel's usual time on the 2-CPU Xeon box the bounds were set on

_rng = np.random.default_rng(0)
_A = _rng.random((300, 300))
_X = _rng.random(300)
_IDX = _rng.integers(0, 300, 300)


def _kernel() -> float:
    t0 = time.perf_counter()
    y = _X.copy()
    for _ in range(600):
        y = np.maximum(0.0, _A @ y * 1e-3 - 0.5 * _X)
        y[_IDX] += 1e-9
    return time.perf_counter() - t0


def reference_s(reps: int = 30, trim: int = 3) -> float:
    """Trimmed mean time of the kernel over reps runs, in seconds.

    A mean rather than a median: the box alternates between a fast and a
    slow state within a second, and a solve's time grows with the share of
    time spent slow, which a median over the kernel runs would not follow.
    """
    times = sorted(_kernel() for _ in range(reps))
    return statistics.fmean(times[trim:reps - trim])

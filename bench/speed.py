"""A speed probe that does not touch tropikit, for scaling job times.

On a shared host the CPU this process gets runs slower or faster for
seconds to minutes at a time, by up to a half.  Every job is as slow as the
host is at that moment, so the raw job times of identical runs spread past
any useful bound.  The probe is a fixed unit of the kinds of work tropikit's
jobs do: a pure-Python integer loop, a small numpy broadcast-and-reduce,
parsing float tokens, and a random gather from an 8 MB array.  It runs
between jobs, never inside one, and a job's time is reported at the
reference speed:

    reported = measured * REFERENCE_S / (median of the probes around the job)

The probe calls nothing of tropikit, so a change to tropikit moves a
reported time exactly as much as it moves the measured one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the median probe time on the 2-vCPU x86-64 VM (4 MiB L2 per core)
# that the benchmark was written on, at that host's faster speed
REFERENCE_S = 0.0025
WINDOW = 10  # probes on each side of a job that give its speed

_ROW = np.arange(200, dtype=float)
_COL = _ROW[:, None]
_TEXT = " ".join(str(i * 0.37) for i in range(5000))
_BIG = np.arange(1 << 20, dtype=float)
_IDX = np.random.default_rng(0).integers(0, _BIG.size, 40_000)


def probe() -> float:
    """Seconds taken by one fixed unit of interpreter, numpy, parsing and memory work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i
    for _ in range(5):
        (_COL + _ROW).min(axis=1)
    [float(x) for x in _TEXT.split()]
    _BIG[_IDX].sum()
    return time.perf_counter() - t0


def scaled(walls, probes):
    """Each wall time at the reference speed, from the probes within WINDOW of it."""
    return [w * REFERENCE_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i, w in enumerate(walls)]

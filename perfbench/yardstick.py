"""Machine-speed yardstick for the timed runs.

On a shared host the CPU this benchmark gets changes speed by 20-70%
in stretches that last from a second to several minutes. CPU time tracks
wall time through them, so it is the core that is slower, not the process
that is descheduled. Interpreter-bound code slows most; a mat-vec on a
matrix far larger than the caches barely moves. A 20-60 s run can fall
wholly in a slow or a fast stretch, so the raw times of ten runs of the
same code spread by more than 20% of their median whatever the run length.

The yardstick is a fixed piece of work that does not touch vikit: Python
objects and float arithmetic, and NumPy array creation, ufuncs, sums and
dot products on 10001-element arrays, the operations that dominate the
interpreter-bound workloads. ``Probes`` times it between units of work, and ``scale`` turns
the probes either side of a unit into the factor that converts its raw time
to time at the nominal speed, the speed at which one yardstick takes
``NOMINAL_S``. A change to vikit cannot change the yardstick, so a slower
or faster program still shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# A round figure near the yardstick's median time on a 2-core Xeon host
# (Python 3.11, numpy 2.4, OpenBLAS pinned to one thread), where it reads
# 0.03-0.07 s. Only its constancy matters: it fixes the unit of every
# scaled time.
NOMINAL_S = 0.05

_N = 10001
_ROUNDS = 400


class _Point:
    __slots__ = ("x", "w")

    def __init__(self, x, w):
        self.x = x
        self.w = w


class Yardstick:
    """The fixed work; ``time()`` runs it once and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.u = rng.standard_normal(_N)
        self.v = rng.standard_normal(_N)
        self.weights = np.full(_N, 1.0 / (_N - 1))

    def _work(self) -> float:
        u, v = self.u, self.v
        h = 1.0 / (_N - 1)
        acc = 0.0
        for k in range(_ROUNDS):
            w = np.full(_N, h)
            w[0] = w[-1] = 0.5 * h
            a = _Point(u - (0.5 + k * 1e-3) * v, w)
            b = _Point(np.maximum(a.x, 0.0), np.linspace(0.0, 1.0, _N))
            acc += float(np.sum(a.w * a.x * v))
            acc += float(np.sqrt(np.dot(b.x, b.x))) * b.w[-1]
            table = {}
            for j in range(150):
                p = _Point(j * 0.5, k)
                table[j] = p.x * p.x + p.w
            acc += sum(table.values()) * 1e-9
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


class Probes:
    """Yardstick timings taken between units of work, each stamped with the
    time it ended. ``maybe()`` probes when ``every_s`` has passed since the
    last probe; ``take()`` probes now."""

    def __init__(self, every_s: float):
        self.stick = Yardstick()
        self.stick.time()  # first touch of the arrays, not a probe
        self.every_s = every_s
        self.ends: list = []
        self.secs: list = []
        self.take()

    def take(self) -> None:
        s = self.stick.time()
        self.ends.append(time.perf_counter())
        self.secs.append(s)

    def maybe(self) -> None:
        if time.perf_counter() - self.ends[-1] >= self.every_s:
            self.take()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean yardstick of the probes either side of
        the interval [t0, t1], which no probe overlaps."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.ends, t1)
        if before < 0 or after >= len(self.ends):
            raise RuntimeError("interval not bracketed by yardstick probes")
        return NOMINAL_S / statistics.fmean((self.secs[before], self.secs[after]))

    def summary(self) -> dict:
        """Probe count and the quartiles of the yardstick, for the result file."""
        return {"probes": len(self.secs),
                "yardstick_s_q1_median_q3": statistics.quantiles(self.secs, n=4)}

"""Machine speed, sampled while the benchmark runs.

On the shared 2-core host the benchmark was defined on, one process runs at
speeds up to 2x apart, switching within tens of milliseconds as other tenants
come and go, and raw wall-time metrics spread by 10-50% between runs.  A timer
signal interrupts the benchmark every INTERVAL seconds to time one short
reference unit, which calls no semiband code.  An operation's time, less the
ticks inside it, is multiplied by NOMINAL_UNIT_S over the mean tick around it:
times are reported in seconds at a fixed reference speed.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL = 0.01
MIN_TICKS = 4
# One reference unit at the host's usual (slower) speed when this was set.
NOMINAL_UNIT_S = 2.0e-4

_ALPHA = [np.kron(np.array([[0, 1], [1, 0]]), s) for s in (
    np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]))]
_BETA = np.diag([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class _Point:
    P: np.ndarray

    def shifted(self, axis: int, delta: float) -> "_Point":
        P = self.P.copy()
        P[axis] += delta
        return _Point(P)


_X = _Point(np.array([0.5, -0.4, 0.8]))


def reference_unit(axes: int = 3) -> float:
    """Central differences of a 4x4 Dirac matrix's eigensystem: small
    eigenproblems, array building and Python objects, like semiband's work."""
    acc = 0.0
    for axis in range(axes):
        for delta in (1e-3, -1e-3):
            y = _X.shifted(axis, delta)
            w, v = np.linalg.eigh(sum(y.P[i] * _ALPHA[i] for i in range(3)) + _BETA)
            acc += float(w[0]) + abs(v[0, 0])
    return acc


class SpeedSampler:
    """Ticks of the reference unit on a 10 ms timer, and the scale they give."""

    def __init__(self):
        self.times: list = []           # start of each tick
        self.costs: list = []           # seconds of each tick
        self.spent = 0.0                # total seconds of all ticks

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        # The untimed step brings the unit back into the caches the
        # interrupted operation displaced; only the warm unit is timed.
        start = perf_counter()
        reference_unit(1)
        t0 = perf_counter()
        reference_unit()
        t1 = perf_counter()
        self.times.append(t0)
        self.costs.append(t1 - t0)
        self.spent += t1 - start

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_UNIT_S over the mean tick in [t0, t1], widened to at
        least MIN_TICKS ticks."""
        n = len(self.times)
        i0, i1 = bisect_left(self.times, t0), bisect_right(self.times, t1)
        while i1 - i0 < MIN_TICKS and (i0 > 0 or i1 < n):
            i0, i1 = max(0, i0 - 1), min(n, i1 + 1)
        return NOMINAL_UNIT_S * (i1 - i0) / sum(self.costs[i0:i1])

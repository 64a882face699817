"""Timing of the program's calls, scaled to a reference host speed.

The host this benchmark runs on changes speed by tens of percent from one
minute to the next (other tenants, clock boost), and CPU time follows wall
time, so medians over longer runs do not remove it.  A :class:`Clock`
therefore brackets every call into the program with a short calibration
slice: a fixed mix of small numpy draws and Python arithmetic, like the
program's own inner loops, that does not touch the program.  The slice
tells how fast the host runs right then, relative to ``REFERENCE_SECONDS``,
and the call's wall time is scaled by that factor: a call that took 1 s
while the host ran calibration 20% faster than the reference counts as
1.2 reference seconds.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

# Time of one calibration pass on the reference host (a quiet 2-core
# x86_64 box, Python 3.11, numpy 2.4).  A constant, so that results of
# different commits are scaled alike.
REFERENCE_SECONDS = 0.002
_PASSES_PER_SLICE = 3


def _calibration_pass() -> int:
    rng = np.random.default_rng(1)
    acc = 0
    for i in range(300):
        acc += int(rng.poisson(1.5, size=45).sum())
        for j in range(20):
            acc += (i * j) % 7
    return acc


def host_speed() -> float:
    """Host speed relative to the reference: best of a few calibration passes."""
    best = float("inf")
    for _ in range(_PASSES_PER_SLICE):
        start = time.perf_counter()
        _calibration_pass()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_SECONDS / best


class Clock:
    """Sums raw and speed-scaled seconds of the calls made through it.

    Consecutive calls share the calibration slice between them.  With
    ``calibrate=False`` no slices run and both sums are raw wall time.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self._speed = None
        self.reset()

    def reset(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self.speeds: list[float] = []

    def _slice(self) -> float:
        speed = host_speed() if self.calibrate else 1.0
        self.speeds.append(speed)
        return speed

    def call(self, fn: Callable, *args, **kwargs):
        before = self._speed if self._speed is not None else self._slice()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._speed = self._slice()
            self.raw += elapsed
            self.scaled += elapsed * 0.5 * (before + self._speed)

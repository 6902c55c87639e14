"""How fast the host runs interpreter-bound numpy code at the moment.

The machines this benchmark runs on are shared: over a few minutes the
same training round can take 1.5 times longer or shorter, in CPU time,
with nothing changed in the program.  A fixed probe loop, run between
the timed training calls, slows down and speeds up with the host; the
benchmark scales its times by the probe's speed relative to
:data:`REFERENCE_UNITS_PER_S`, so that they read as times on a host of
that reference speed.

The probe mixes what the training code does: small numpy ufunc calls
from a Python loop, and pure-Python heap and tuple work.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# Probe units per CPU second on the machine the benchmark was built on
# (a 2-vCPU Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4), in a typical
# phase.  Only a scale: every run is compared at the same reference.
REFERENCE_UNITS_PER_S = 9500.0

_X = np.linspace(-1.0, 1.0, 16)


def _unit() -> float:
    s = 0.0
    for _ in range(10):
        y = np.exp(_X - _X.max())
        s += float(y.sum())
    heap = []
    for i in range(24):
        heapq.heappush(heap, ((i * 7919) % 97, (i, i + 1)))
    while heap:
        s += heapq.heappop(heap)[0]
    return s


class HostSpeed:
    """Accumulates probe work and the CPU time it took."""

    def __init__(self):
        self.units = 0
        self.cpu = 0.0

    def probe(self, cpu_seconds: float):
        """Run probe units for at least ``cpu_seconds`` of CPU time."""
        c0 = time.process_time()
        units = 0
        while True:
            _unit()
            units += 1
            spent = time.process_time() - c0
            if spent >= cpu_seconds:
                break
        self.units += units
        self.cpu += spent

    def scale(self) -> float:
        """Measured speed over reference speed: a CPU time times this is
        the time the same work takes on a reference-speed host."""
        return self.units / (self.cpu * REFERENCE_UNITS_PER_S)

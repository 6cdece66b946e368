"""A fixed probe of the host's speed, used to rescale the benchmark's timings.

The reference host is a share of a machine that other tenants load too.
Its speed swings by tens of percent from one second to the next and from
one minute to the next, and CPU time swings with wall time, so the
slowdown is per instruction, not time spent off the CPU.  A timed round
therefore runs a short probe every ``INTERVAL_S`` seconds, from the fit
callback between two MM steps, and the round's time is reported net of
the probes and rescaled by how fast the probes ran on average during it.  Two runs
on a fast and a slow minute then give the same figure.

The probe uses numpy alone, never ``sparsecov``, so a change to the
package cannot move it.  Its parts mirror the workloads' work: an
interpreter loop, small dense factorizations as in ``cv_study``, and a
p = 200 ``eigh`` as in the fit workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's mean time on a calm stretch of the reference host (2-CPU
# x86-64, one BLAS thread); it only fixes the scale of the rescaled figures.
REFERENCE_S = 0.006
INTERVAL_S = 0.15

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((20, 20))
_SMALL = _SMALL @ _SMALL.T + 20.0 * np.eye(20)
_LARGE = _rng.standard_normal((200, 200))
_LARGE = _LARGE @ _LARGE.T + 200.0 * np.eye(200)


def probe_seconds() -> float:
    """Seconds this host takes for the fixed probe right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(17):
        np.linalg.eigh(_SMALL)
        np.linalg.cholesky(_SMALL)
        np.linalg.solve(_SMALL, _SMALL)
    np.linalg.eigh(_LARGE)
    return time.perf_counter() - start


def rescaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference speed, by the mean of the probes taken meanwhile.

    The mean, not the median: a round's time sums over every moment of it,
    slow ones included, and so does the mean of probes spread evenly over it.
    """
    return seconds * REFERENCE_S / statistics.fmean(probes)


class HostClock:
    """Times one round net of the probes it runs inside it.

    Pass ``tick`` as the fit callback: it probes when ``INTERVAL_S`` has
    passed since the last probe ended.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._next = 0.0

    def tick(self, event=None) -> None:
        if time.perf_counter() >= self._next:
            self.probes.append(probe_seconds())
            self._next = time.perf_counter() + INTERVAL_S

    def time(self, fn):
        """Run ``fn(self.tick)``; return its result, its net seconds and the probes taken."""
        self.probes, self._next = [], 0.0
        start = time.perf_counter()
        self.tick()
        produced = fn(self.tick)
        net = time.perf_counter() - start - sum(self.probes)
        return produced, net, self.probes

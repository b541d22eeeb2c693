"""Machine-speed samples, used to take the host's speed drift out of timings.

On a shared virtual machine the vCPU speed of the same code drifts by up to
1.5x for tens of seconds at a time, which no run length averages away.  So
the benchmark also times `probe`, a fixed piece of pure-Python work that
runs no library code, close in time to the work it measures, and scales
each timing by REF_PROBE_S / (median probe time).  A change to the library
cannot move the probe; a slow spell of the machine slows both alike.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERS = 4000
# median probe time on the reference machine (perfbench/README.md), so that
# scaled timings read close to that machine's wall seconds
REF_PROBE_S = 0.002
PERIOD_S = 0.1  # process CPU seconds between samples of a SpeedMeter


def probe() -> float:
    """Seconds for a fixed piece of interpreter work shaped like the
    library's inner loops: integer arithmetic, small tuples, dict updates."""
    t = time.perf_counter()
    d: dict = {}
    x = 1
    for i in range(PROBE_ITERS):
        x = (x * 69069 + 1) & 0xFFFFF
        k = (x & 63, i & 3)
        d[k] = d.get(k, 0) + x
    return time.perf_counter() - t


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` at the reference speed, given probe times taken meanwhile."""
    return seconds * REF_PROBE_S / statistics.median(probes)


class SpeedMeter:
    """Takes a probe every PERIOD_S of process CPU time (SIGPROF), from
    inside whatever code is running, and adds up the time the probes took
    in `spent` so that callers can subtract it from their timings."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

"""Host speed, read from a fixed probe, for rescaling timings.

On the shared 2-core Xeon this benchmark was sized on, one identical
urban80 episode took a median of 1.47 s in one process and 1.79 s in
another, minutes apart.  CPU time equals wall time, so this is the host's
speed, not scheduling, and no run length the time budget allows averages
it out.  So every timing is rescaled to the speed at which the probe
takes REFERENCE_S: a run whose probes took k seconds on average counts
each span as ``span * REFERENCE_S / k``.  The probe runs between ops,
never inside one, and uses no program code, so a change to the program
cannot move it.  Raw wall times are reported next to the rescaled ones.

Why this probe and one factor per run: over sixteen processes running
the same episode, the quartile spread of the mean episode time was 0.095
raw, 0.46 rescaled by an interpreter-loop probe (its speed moved apart
from the program's) and 0.06 by this probe.  A single probe is noisy
(spreads up to 0.4 within one run), so rescaling each op by the probes
next to it added more noise than it took away.  The host switches
between a fast and a slow state (this probe: about 0.55 ms and 1.0 ms),
and an op's time integrates over both, so the factor uses the mean probe
of the run, trimmed of its highest and lowest tenth, not the median,
which jumps from one state to the other.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's time at full speed on the machine this benchmark was sized on
REFERENCE_S = 1.0e-3
# probe before an op when the last probe is older than this
EVERY_S = 0.2

_MATRIX = np.random.default_rng(0).random((52, 52))
_START = np.random.default_rng(1).random(52)


def _probe_once() -> float:
    """Small-array numpy calls on the scale of the solver's largest slice."""
    t0 = time.perf_counter()
    x = _START.copy()
    for _ in range(60):
        y = _MATRIX @ x
        x = np.clip(y / y.sum(), 0.0, 0.05)
        x = x + 0.001 * np.sort(x)[::-1]
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each probe ended
        self.values: list[float] = []  # probe seconds, fastest of three
        self.spent = 0.0  # seconds spent probing

    def probe(self):
        t0 = time.perf_counter()
        value = min(_probe_once() for _ in range(3))
        end = time.perf_counter()
        self.spent += end - t0
        self.ends.append(end)
        self.values.append(value)

    def due(self, now: float) -> bool:
        return not self.ends or now - self.ends[-1] >= EVERY_S

    def typical(self) -> float:
        """Mean probe time so far, without the highest and lowest tenth."""
        ordered = sorted(self.values)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut : len(ordered) - cut])

    def scale(self) -> float:
        """Factor that turns wall seconds into reference seconds, from every probe so far."""
        return REFERENCE_S / self.typical()

    def rescale(self, spans) -> list[float]:
        k = self.scale()
        return [(t1 - t0) * k for t0, t1 in spans]

    def summary(self) -> dict:
        return {
            "probes": len(self.values),
            "probe_s_typical": self.typical(),
            "probe_s_median": statistics.median(self.values),
            "probe_s": self.values,
        }

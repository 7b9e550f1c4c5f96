"""Host speed while a region runs, from a short fixed loop timed every 40 ms.

The shared hosts the benchmark runs on change speed in regimes that last
from a fraction of a second to minutes: the same pure-Python or NumPy work
takes twice as long or more in a slow regime, in CPU time as well as in
wall time.  A run of the benchmark sees an unknown mix of regimes, so raw
seconds spread between runs of the same code far more than the program's
own variation.

``Pace`` times a fixed loop of small NumPy vector steps (a probe, the kind
of work the recursion does) on a SIGALRM interval timer while the child
process works, and at the edges of each measured region.  A region's value
is its raw seconds (probe time taken out) times the mean over its probes
of ``REFERENCE_PROBE_S / probe seconds``: the seconds the region would
take at the reference speed, the speed of the reference machine's fast
regime (2-vCPU x86_64 VM, "Intel(R) Xeon(R) Processor", Python 3.11).  The
raw seconds are kept as well.

The probe does vector steps, not integer arithmetic, because in a slow
regime the program slows down as much as the vector loop does (slope 1.0
of log time on log probe time), but 1.35 times as much as an integer
loop.  The probes cost about 2% of the run; in a traced cell the probes
that fire inside a span count towards that span.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_STEPS = 120
# seconds of one probe at the reference speed
REFERENCE_PROBE_S = 2.8e-4
INTERVAL_S = 0.04
_ROWS = np.random.default_rng(0).standard_normal((32, 5))


def _spin(n: int) -> float:
    x = np.zeros(5)
    s = 0.0
    for k in range(n):
        a = _ROWS[k % 32]
        x = x - 0.01 * a * (float(a @ x) - 1.0)
        s += float(x[0]) ** 2
    return s


class Region:
    raw = 0.0  # seconds, probe time taken out
    value = 0.0  # seconds at the reference speed


class Pace:
    def __init__(self):
        self.ratios: list[float] = []  # reference speed over measured speed, per probe
        self._in_probe = False
        start = time.perf_counter()
        for _ in range(5):  # let the interpreter specialise the loop first
            _spin(PROBE_STEPS)
        self.busy = time.perf_counter() - start

    def probe(self, *_):
        if self._in_probe:  # the timer fired during an explicit probe
            return
        self._in_probe = True
        start = time.perf_counter()
        _spin(PROBE_STEPS)
        dt = time.perf_counter() - start
        self.ratios.append(REFERENCE_PROBE_S / dt)
        self.busy += time.perf_counter() - start  # seconds spent in probes
        self._in_probe = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float]:
        """Start of a region: a probe, then (clock, first probe index, busy)."""
        self.probe()
        return time.perf_counter(), len(self.ratios) - 1, self.busy

    def close(self, mark, start: float | None = None) -> Region:
        """End of the region opened by ``mark``; ``start`` overrides its clock."""
        end, busy = time.perf_counter(), self.busy
        self.probe()
        region = Region()
        t0, first, busy0 = mark
        region.raw = end - (t0 if start is None else start) - (busy - busy0)
        region.value = region.raw * self.factor(first)
        return region

    def factor(self, first: int = 0) -> float:
        """Mean reference-over-measured speed of the probes from ``first`` on."""
        return statistics.fmean(self.ratios[first:])

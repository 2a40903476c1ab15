"""Timings corrected for the load on a shared host.

On a shared host the same Python code runs up to twice as slowly while the
neighbours are busy, and the speed changes within a second: raw pass times
of one workload spread by 25 % within a minute.  ``LoadClock`` runs a fixed
reference computation (a 39-term ``Fraction`` sum) from SIGPROF every 20 ms
of CPU time; the probe's duration tracks the host's speed.  A corrected time
is the measured time, less the probes inside it, scaled by ``REF_S`` over
the durations of the probes around it.

The result is in reference seconds: the time the work takes where the probe
takes ``REF_S``, which is its duration on an idle core of the 2-vCPU Xeon
host this benchmark was built on.  On another host every figure scales by
the same factor, for a parent and a change alike.  Corrected pass times of
one workload agree across processes within a few per cent.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.02
REF_S = 85e-6


def _reference() -> Fraction:
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i)
    return s


class LoadClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration) per probe

    def _probe(self, signum, frame):
        t = time.perf_counter()
        _reference()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def corrector(self):
        """``(t0, t1) -> corrected seconds``, from the probes taken so far."""
        if not self.samples:
            return lambda t0, t1: t1 - t0
        starts = [t for t, _ in self.samples]
        durations = [d for _, d in self.samples]

        def corrected(t0: float, t1: float) -> float:
            lo, hi = bisect_left(starts, t0), bisect_right(starts, t1)
            inside = sum(durations[lo:hi])
            around = durations[max(0, lo - 1):hi + 1]
            return (t1 - t0 - inside) * statistics.fmean(REF_S / d for d in around)

        return corrected

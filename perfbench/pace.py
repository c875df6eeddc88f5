"""Host-speed scaling of measured times.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
phases of seconds to minutes, so a raw time says as much about the phase
as about the code.  A Sampler therefore runs a short, fixed pure-Python
reference loop every SAMPLE_EVERY_S of wall time inside the process that
does the work, from a SIGALRM handler, so the samples fall within the
work they describe.  A span of work is scaled by REF_NOMINAL_S over the
median sample taken during it: the time the span would take on a host
where the loop takes REF_NOMINAL_S.  A slower phase of the host slows the
work and the loop together and cancels; code that gets slower moves the
scaled time alone, since the loop lives here and calls nothing in the
package.  The handler's own time is taken out of the span first.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

# a round figure near the loop's median time, 0.00089 s, on a 2.1 GHz
# Intel Xeon vCPU with Python 3.11.7
REF_NOMINAL_S = 0.001
SAMPLE_EVERY_S = 0.05
MIN_SAMPLES = 5   # a shorter span takes the samples nearest to it


def reference_loop() -> Fraction:
    """Integer arithmetic and Fraction sums, as the package's own
    pure-Python code does them."""
    total = 0
    for i in range(6_000):
        total += i * i % 7
    frac = Fraction(total)
    for i in range(1, 80):
        frac += Fraction(i % 13 + 1, i)
    return frac


class Sampler:
    """Reference samples taken in this process while it works.

    ``samples`` holds (time.monotonic() at the start, loop seconds,
    handler seconds); monotonic stamps compare across processes, so a
    parent can scale a child's spawn-to-exit time by the child's samples.
    """

    def __init__(self):
        self.samples = []

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        stamp = time.monotonic()
        reference_loop()
        loop = time.perf_counter() - t0
        self.samples.append((stamp, loop, time.perf_counter() - t0))


def net(samples: list, t0: float, t1: float) -> float:
    """The span from monotonic ``t0`` to ``t1`` less the handler's time
    within it."""
    return t1 - t0 - math.fsum(s[2] for s in samples if t0 <= s[0] <= t1)


def scale(samples: list, t0: float, t1: float) -> float:
    """The net span from ``t0`` to ``t1`` at the reference speed of the
    samples taken during it (or of the MIN_SAMPLES nearest to it)."""
    inside = [s for s in samples if t0 <= s[0] <= t1]
    if len(inside) < MIN_SAMPLES:
        mid = 0.5 * (t0 + t1)
        inside = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
    speed = statistics.median(s[1] for s in inside)
    return net(samples, t0, t1) * REF_NOMINAL_S / speed


class PartClock:
    """Times the consecutive parts of one operation, net and scaled."""

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.raw, self.scaled = [], []
        self._t0 = time.monotonic()

    def lap(self) -> None:
        """End the current part and start the next."""
        t1 = time.monotonic()
        self.raw.append(net(self.sampler.samples, self._t0, t1))
        self.scaled.append(scale(self.sampler.samples, self._t0, t1))
        self._t0 = t1


def part_medians(rounds: list) -> float:
    """Sum over the parts of an operation of each part's median over
    ``rounds``, a list of per-part time lists of equal length."""
    return math.fsum(statistics.median(part) for part in zip(*rounds))

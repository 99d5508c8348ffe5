"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the same pass can take 30% longer for minutes at a time,
in phases that no run length averages out.  So while a worker runs, a timer
interrupts it every INTERVAL_S seconds and times this computation once.
Time spent on it is left out of every time the worker measures (`clock`),
and `run.py` scales each pass by NOMINAL_S over the harmonic mean of the
samples taken during that pass, which is the pass's mean speed: a time is
reported as it would read on the machine at its nominal speed.  Samples
switch between two speeds (about 3 and 5 ms) from one second to the next,
so a median would jump between them; the mean speed does not.

The computation is Gauss-Jordan elimination of a fixed 10 x 10 matrix of
`fractions.Fraction`, the kind of arithmetic rank2go spends its time on.
It uses only the standard library, so no change to the program can change
it, and it runs with the garbage collector off, so the program's heap does
not change it either.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

# Median sample on the 2-vCPU Intel Xeon KVM guest the benchmark was tuned
# on, between its slow and fast phases.
NOMINAL_S = 0.0042
INTERVAL_S = 0.2
SIZE = 10


def _matrix() -> list[list[Fraction]]:
    rng = random.Random(7)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(SIZE)]
            for _ in range(SIZE)]


def _eliminate(a: list[list[Fraction]]) -> None:
    n = len(a)
    for r in range(n):
        p = next(i for i in range(r, n) if a[i][r] != 0)
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][r]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][r] != 0:
                f = a[i][r]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]


def sample() -> float:
    """Seconds of one elimination, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = _matrix()
        start = time.perf_counter()
        _eliminate(a)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Takes a sample every INTERVAL_S seconds of wall time, from SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.running = False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False


SAMPLER = Sampler()


def clock() -> float:
    """perf_counter() without the time spent taking samples."""
    return time.perf_counter() - SAMPLER.spent

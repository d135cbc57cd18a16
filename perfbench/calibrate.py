"""Host-speed calibration: a fixed piece of work timed next to every job.

On a shared 2-core box the same job runs at speeds up to 1.7x apart,
and a slow spell can last minutes, so neither the best of a few runs
nor a CPU-time clock (which slows by the same factor) gives steady
figures.  The benchmark therefore times `calibrate()` between jobs and
reports each job's wall time scaled by REF_CAL_S over the calibration
time measured around it: seconds on a host where `calibrate()` takes
REF_CAL_S.  The kernel mixes the kinds of work diowords does (an
interpreter loop, Fraction arithmetic, gcd of big integers, hashing of
byte slices) and never calls diowords, so a faster program still reads
faster.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

# calibrate() on a quiet 2-core Xeon (Python 3.11); only sets the scale
# of the reported seconds
REF_CAL_S = 0.005

_BIG_A = 3**20_000
_BIG_B = 7**14_000
_BYTES = bytes((i * 7919 >> 3) % 2 for i in range(4_000))


def _loop() -> int:
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def _fractions() -> Fraction:
    a = Fraction(1)
    for k in range(1, 150):
        a = a + Fraction(1, math.factorial(k % 60 + 1)) * Fraction(k, k + 1)
    return a


def _gcd() -> int:
    return math.gcd(_BIG_A, _BIG_B)


def _windows() -> int:
    seen = {}
    for n in (8, 12):
        for i in range(len(_BYTES) - n):
            seen[_BYTES[i : i + n]] = i
    return len(seen)


def calibrate() -> float:
    """Wall seconds of the calibration kernel, run once."""
    t0 = perf_counter()
    _loop()
    _fractions()
    _gcd()
    _windows()
    return perf_counter() - t0

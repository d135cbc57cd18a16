"""Per-position exact floors: the reference for `mechanical_word`.

A surd floor is one integer square root per position; a
continued-fraction floor extends a pair of consecutive convergents,
which straddle the slope, until both give the same floor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from diowords.sturmian import SlopeSpec, SurdSlope


def floor_times(slope: SlopeSpec, n: int, rho: Fraction) -> int:
    """Exact floor(n*alpha + rho)."""
    rp, rq = rho.numerator, rho.denominator
    if isinstance(slope, SurdSlope):
        pp, ss, qq = (slope.p, 1, slope.q) if slope.q > 0 else (-slope.p, -1, -slope.q)
        a = n * pp * rq + rp * qq
        c = qq * rq
        t = math.isqrt(n * n * rq * rq * slope.d)
        # n*rq*sqrt(d) is irrational, so its floor is t (resp. -t-1)
        return (a + t) // c if ss > 0 else (a - t - 1) // c
    p_prev, q_prev, p_cur, q_cur, i = 1, 0, 0, 1, 0
    while True:
        i += 1
        m = slope.quotient(i)
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, m * p_cur + p_prev, m * q_cur + q_prev
        f_prev = (n * p_prev * rq + rp * q_prev) // (q_prev * rq)
        if f_prev == (n * p_cur * rq + rp * q_cur) // (q_cur * rq):
            return f_prev


def mechanical_letters(slope: SlopeSpec, rho: Fraction, length: int) -> bytes:
    """s(n) = floor((n+1)*alpha + rho) - floor(n*alpha + rho) for n = 1..length."""
    floors = [floor_times(slope, n, rho) for n in range(1, length + 2)]
    return bytes(b - a for a, b in zip(floors, floors[1:]))

"""Per-position references for the Sturmian kernels.

`floor_times` is the reference for `mechanical_word`: a surd floor is
one integer square root per position; a continued-fraction floor
extends a pair of consecutive convergents, which straddle the slope,
until both give the same floor.  The two checkers below are the
per-letter Fraction loops that `letter_frequency_check` and
`morphic_length_check` replace with one integer pass.
`convergent_bracket` is the reference for `realnum.convergent_bracket`
rounded outward at a scale: it stops on the exact product of consecutive
denominators where the kernel reads their bit lengths.
`surd_in_unit_interval` is the exact sign rule that `sturmian` replaces,
for a surd slope, with the floor read off one `surd_bracket`.
`records_from` is the reference for `record_runs` and
`record_runs_from`: the minima of {d alpha} and {-d alpha} over [t, d]
by brute force, each comparison an exact sign (`sign_times`).
`near_integer_intercepts` gives intercepts that put one floor next to an
integer, so that `sturmian` must decide it past the 64-bit bracket.
`SLOW_CASES` are the slopes, with a length, on which the record kernels
are tested and timed beyond random slopes.
`apply_morphism` builds phi(s) by `image`, the per-letter join that
`sturmian.apply_morphism` replaces with one translate and two replaces.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

from diowords.realnum import Surd, convergents
from diowords.sturmian import QuasiSturmianSpec, SlopeSpec, _bracket, mechanical_word, slope_bounds
from diowords.words import Word

# the slopes on which a pass per record lost to the suffix index, with a length
SLOW_CASES = [
    ("cfslope:3000,(2)*", 10_000),
    ("cfslope:500,(1)*", 10_000),
    ("cfslope:pow10", 2000),
    ("surd:-12,7,287", 7580),  # 245 records
]


def floor_times(slope: SlopeSpec, n: int, rho: Fraction) -> int:
    """Exact floor(n*alpha + rho)."""
    rp, rq = rho.numerator, rho.denominator
    if isinstance(slope, Surd):
        pp, ss, qq = (slope.p, 1, slope.q) if slope.q > 0 else (-slope.p, -1, -slope.q)
        a = n * pp * rq + rp * qq
        c = qq * rq
        t = math.isqrt(n * n * rq * rq * slope.d)
        # n*rq*sqrt(d) is irrational, so its floor is t (resp. -t-1)
        return (a + t) // c if ss > 0 else (a - t - 1) // c
    p_prev, q_prev, p_cur, q_cur, i = 1, 0, 0, 1, 0
    while True:
        i += 1
        m = slope.quotients(i)
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, m * p_cur + p_prev, m * q_cur + q_prev
        f_prev = (n * p_prev * rq + rp * q_prev) // (q_prev * rq)
        if f_prev == (n * p_cur * rq + rp * q_cur) // (q_cur * rq):
            return f_prev


def near_integer_intercepts(slope: SlopeSpec, n0: int) -> tuple[Fraction, Fraction]:
    """Intercepts within 2^-150 of {-n0*alpha}, on either side of it.

    Each puts n0*alpha + rho next to an integer, just under it and just
    over it, so floor n0 needs more bits than the 64-bit bracket has.
    """
    lo, hi = _bracket(slope, 200)
    return Fraction(-n0 * hi % 2**200, 2**200), Fraction(-n0 * lo % 2**200, 2**200)


def mechanical_letters(slope: SlopeSpec, rho: Fraction, length: int) -> bytes:
    """s(n) = floor((n+1)*alpha + rho) - floor(n*alpha + rho) for n = 1..length."""
    floors = [floor_times(slope, n, rho) for n in range(1, length + 2)]
    return bytes(b - a for a, b in zip(floors, floors[1:]))


def letter_frequency_check(s: Word, slope: SlopeSpec) -> Fraction:
    """Largest |count_1(n) - n*x| over prefixes of s and x in `slope_bounds`."""
    bits = max(16, (4 * len(s)).bit_length() + 2)
    lo, hi = slope_bounds(slope, bits)
    an, ad = lo.numerator, lo.denominator
    bn, bd = hi.numerator, hi.denominator
    worst = Fraction(0)
    count = 0
    for n, letter in enumerate(s, start=1):
        count += letter
        dev_lo = Fraction(abs(count * ad - n * an), ad)
        dev_hi = Fraction(abs(count * bd - n * bn), bd)
        dev = dev_lo if dev_lo >= dev_hi else dev_hi
        if dev > worst:
            worst = dev
    return worst


def morphic_length_check(spec: QuasiSturmianSpec, n_letters: int) -> Fraction:
    """Largest ||phi(s_1..s_n)| - delta*n| for n up to n_letters and the
    mean letter costs delta of both ends of `slope_bounds`."""
    len0, len1 = len(spec.morphism.image0), len(spec.morphism.image1)
    bits = max(16, (4 * n_letters).bit_length() + 2)
    lo, hi = slope_bounds(spec.slope, bits)
    # delta(alpha) = len0 + alpha*(len1 - len0) is monotone in alpha
    d1 = len0 + lo * (len1 - len0)
    d2 = len0 + hi * (len1 - len0)
    d_lo, d_hi = (d1, d2) if d1 <= d2 else (d2, d1)
    s = mechanical_word(spec.slope, spec.intercept, n_letters)
    total = 0
    worst = Fraction(0)
    for n, letter in enumerate(s, start=1):
        total += len1 if letter else len0
        dev = max(abs(total - n * d_lo), abs(total - n * d_hi))
        if dev > worst:
            worst = dev
    return worst


def image(s: bytes, u: bytes, v: bytes) -> bytes:
    """phi(s) for phi(0) = u and phi(1) = v, one image per letter of s."""
    return b"".join(map((u, v).__getitem__, s))


def apply_morphism(spec: QuasiSturmianSpec, length: int) -> Word:
    """First `length` letters of W phi(s)."""
    out = spec.prefix.symbols[:length]
    if len(out) < length:
        u, v = spec.morphism.image0.symbols, spec.morphism.image1.symbols
        count = -(-(length - len(out)) // min(len(u), len(v)))
        out += image(mechanical_word(spec.slope, spec.intercept, count).symbols, u, v)
    alphabet = max(w.alphabet_size for w in (spec.prefix, spec.morphism.image0, spec.morphism.image1))
    return Word(out[:length], alphabet)


def convergent_bracket(quotient: Callable[[int], int], bits: int, scale: int) -> tuple[int, int]:
    """lo/2^scale < [a0; a1, ...] < hi/2^scale, a_k = quotient(k), from the first
    consecutive convergents p_{k-1}/q_{k-1}, p_k/q_k with q_{k-1} q_k >= 2^bits."""
    k, p_prev, q_prev, p, q = 0, 1, 0, quotient(0), 1
    while q_prev * q < 1 << bits:
        a = quotient(k + 1)
        k, p_prev, q_prev, p, q = k + 1, p, q, a * p + p_prev, a * q + q_prev
    (lo_p, lo_q), (hi_p, hi_q) = (p_prev, q_prev), (p, q)
    if k % 2 == 0:  # p_k/q_k lies below the value
        (lo_p, lo_q), (hi_p, hi_q) = (hi_p, hi_q), (lo_p, lo_q)
    return (lo_p << scale) // lo_q, -((-hi_p << scale) // hi_q)


def sign_plus_root(a: int, s: int, d: int) -> int:
    """Sign of a + s*sqrt(d) for nonsquare d > 0, s in {-1, 0, 1}."""
    if s == 0:
        return (a > 0) - (a < 0)
    if s > 0:
        if a >= 0:
            return 1
        return 1 if d > a * a else -1
    if a <= 0:
        return -1
    return 1 if a * a > d else -1


def surd_in_unit_interval(p: int, q: int, d: int) -> bool:
    """0 < (p + sqrt(d))/q < 1 for q != 0 and nonsquare d > 0."""
    # (p + sqrt(d))/q = (pp + ss*sqrt(d))/qq with qq > 0
    pp, ss, qq = (p, 1, q) if q > 0 else (-p, -1, -q)
    return sign_plus_root(pp, ss, d) > 0 and sign_plus_root(pp - qq, ss, d) < 0


def sign_times(slope: SlopeSpec, k: int, m: int) -> int:
    """Sign of k*alpha - m, exactly.

    A surd (p + sqrt(d))/q gives (k p - m q + k sqrt(d))/q, signed by
    `sign_plus_root`.  A continued fraction lies strictly between
    consecutive convergents, so k*alpha - m has the sign of k x - m at
    both of them once the two agree; for k != 0 it is never 0.
    """
    if k == 0:
        return (m < 0) - (m > 0)
    if isinstance(slope, Surd):
        s = 1 if k > 0 else -1
        sign = sign_plus_root(k * slope.p - m * slope.q, s, k * k * slope.d)
        return sign if slope.q > 0 else -sign
    quotients = (slope.quotients(i) for i in itertools.count())
    last = None
    for _, _, p, q in convergents(quotients):
        t = k * p - m * q
        here = (t > 0) - (t < 0)
        if here and here == last:
            return here
        last = here


def records_from(slope: SlopeSpec, t: int, n: int) -> tuple[list[int], list[int]]:
    """The lags t <= d < n at which {d alpha} (side 0) and {-d alpha} (side 1)
    reach a new minimum over [t, d].

    With f = floor(k alpha) for k = +-d, kept one step at a time from
    k = 0 (it moves by 0 or 1 a step), {k alpha} < {k' alpha} exactly when
    (k - k') alpha - (f - f') < 0.
    """
    records: tuple[list[int], list[int]] = ([], [])
    for side, s in ((0, 1), (1, -1)):
        f, best = 0, None  # floor(0 alpha)
        for lag in range(1, n):
            k = s * lag
            # 0 < alpha < 1: floor(k alpha) is hi or hi - 1
            hi = f + 1 if s > 0 else f
            f = hi if sign_times(slope, k, hi) > 0 else hi - 1
            if lag >= t and (best is None or sign_times(slope, k - best[0], f - best[1]) < 0):
                best = (k, f)
                records[side].append(lag)
    return records

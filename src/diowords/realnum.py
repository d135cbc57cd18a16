"""Exact real-number sources: refinable enclosures and certified digits.

Every supported number is described by a RealSpec and realized as an
Enclosure that is guaranteed to contain the target and can be refined
on demand.  Exact rational points (rationals, perfect-square surds,
finite continued fractions and their Moebius images) stay exact
Fractions: `_exact` decides which specs they are, once, and `_rational`
evaluates them.  Every other number has one exact bracket (`_bracket`) at
a precision `bits`, integers (lo, hi, den, shift) with the number in
[lo, hi] / (den 2^shift), at most 2^-bits wide: e's (num, num + 2, K!, 0)
by binary splitting (Haible & Papanikolaou, ANTS 1998) with the tail
bound 2/K!, a surd's (lo, lo + 1, |q|, bits) from one integer square root
(`surd_bracket`), Shallit's partial sum (lo, lo + 1, 1, 2 top - 1), a
continued fraction's (p q', p q' + 1, q q', 0) from the first close pair
p/q < p'/q' of the one stateless convergent recurrence
(`convergent_bracket`), and a digit cell (v, v + 1, b^n, 0).  `Enclosure`
rounds it outward once (`_round_out`) to a dyadic interval [lo_num,
hi_num] / 2^scale at scale max(bits + _GUARD_BITS, shift), so no gcd runs
while refining and a dyadic bracket stays exact.  Every enclosure starts
at _START_BITS bits, or at its budget when that is lower.  Nested Moebius
matrices compose into one and the image of a surd is a surd; every other
image runs one refine loop (`_image_compute`) over its inner number's
exact bracket, and at the budget returns the image of the bracket
reached, so it prints its certified prefix as a plain number does.
`Fraction` appears only at the public boundary, the one accessor
`bounds()`.  The Sturmian slopes round the same surd and convergent
brackets, so this module holds all of the slope arithmetic; a surd
slope's quotients come from `contfrac`'s one Euclid over its bracket.

Every big division and square root of a bracket runs on one pair of
kernels: `_divmod`, recursive division (Burnikel & Ziegler, "Fast
Recursive Division", MPI-I-98-1-022, 1998), and `_sqrtrem`, the
Karatsuba square root (Zimmermann, INRIA RR-3805, 1999) built on it.
Both cost a few Karatsuba products where the builtins are quadratic, and
hand every size up to one measured cut to the builtins.

Digits are only ever emitted once the enclosure fits inside a single
digit cell, so every printed digit is exact; when the refinement budget
runs out first, the stream ends early and says how many digits are
certified, at a cost that follows the budget, not the request.  Digits
are rendered by one divide-and-conquer codec that never changes the
interpreter's limit on integer string conversion, and read back by its
mirror (`_digits_to_int`), which splits at the same points and reads
the same leaves.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from .spec import FromCF, Mobius, Rational, RealSpec, SeriesE, SeriesShallit, Surd, parse_real_spec
from .words import CHARS_TO_DIGITS, DIGITS_TO_CHARS, MAX_ALPHABET, Word

DEFAULT_MAX_BITS = 10**6
_START_BITS = 64
# A bracket computed at `bits` is rounded outward at scale bits + _GUARD_BITS
# or finer, so rounding widens it by at most 2^(1 - bits - _GUARD_BITS).
_GUARD_BITS = 32
# `str` checks the process-wide digit limit only on integers above this many
# digits, and no limit may be set below it; interpreters without the limit
# lack the attribute
_STR_LEAF_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 640)
# The builtin `divmod` and `math.isqrt` are quadratic, but up to this many
# bits of divisor, quotient or radicand they beat `_divmod` and `_sqrtrem`
# (tools/bigint_kernels.py)
_BIGINT_CUT_BITS = 4000

Bracket = tuple[int, int, int, int]  # (lo, hi, den, shift): [lo, hi] / (den 2^shift), den > 0
Dyadic = tuple[int, int, int]  # (lo_num, hi_num, scale)
Digits = Union[bytes, tuple[int, ...]]  # bytes in bases up to 256, a tuple above


class PrecisionBudgetError(RuntimeError):
    """Raised when a certification needs more refinement than the budget allows."""


class CertificateError(RuntimeError):
    """A computed result failed its certificate check: a defect, not bad input."""


class Enclosure:
    """Refinable interval certified to contain its target real.

    Either an exact point (a Fraction) or a dyadic interval rounded from
    `bracket(bits)`, an exact Bracket of the number at most 2^-bits wide,
    unless the budget stops a Moebius image short of it.  `_rounded` alone
    rounds it outward, at scale max(bits + _GUARD_BITS, shift), so a dyadic
    bracket at a finer scale stays exact.  The precision starts at
    min(_START_BITS, max_bits) and never exceeds `max_bits`.  Each
    refinement must land inside the previous interval at a scale no
    smaller than before, so successive snapshots are nested; a bracket
    that breaks either rule, or is out of order, raises CertificateError.
    """

    def __init__(
        self,
        bracket: Callable[[int], Bracket] | None,
        max_bits: int = DEFAULT_MAX_BITS,
        point: Fraction | None = None,
    ) -> None:
        if max_bits < 0:
            raise ValueError("max_bits must be nonnegative")
        self._bracket = bracket
        self._bits = min(_START_BITS, max_bits)
        self._max_bits = max_bits
        self._point = point
        self._dyadic: Dyadic | None = None
        if point is None:
            self._set(*self._rounded())

    def _rounded(self) -> Dyadic:
        lo, hi, den, shift = self._bracket(self._bits)
        if lo > hi:
            raise CertificateError("enclosure endpoints out of order")
        scale = max(self._bits + _GUARD_BITS, shift)
        return (*_round_out(lo, hi - lo, den, scale - shift), scale)

    def _set(self, lo: int, hi: int, scale: int) -> None:
        if lo == hi:
            self._point = Fraction(lo, 1 << scale)
        self._dyadic = (lo, hi, scale)

    @property
    def bits(self) -> int:
        return self._bits

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Immutable snapshot (lo, hi); safe to share across threads."""
        if self._point is not None:
            return self._point, self._point
        lo, hi, scale = self._dyadic
        return Fraction(lo, 1 << scale), Fraction(hi, 1 << scale)

    def dyadic(self) -> Dyadic:
        """Snapshot (lo_num, hi_num, scale) of an interval enclosure."""
        if self._dyadic is None:
            raise ValueError("an exact point has no dyadic bracket")
        return self._dyadic

    def is_point(self) -> bool:
        return self._point is not None

    def refine(self, bits: int | None = None) -> bool:
        """Recompute at precision `bits` (default: twice the current one).

        A precision already reached is kept as it is.  The precision is
        capped at the budget; returns False once the budget is exhausted.
        """
        if self.is_point() or (bits is not None and bits <= self._bits):
            return True
        if self._bits >= self._max_bits:
            return False
        target = 2 * self._bits if bits is None else bits
        self._bits = min(max(target, self._bits + 1), self._max_bits)
        lo, hi, scale = self._rounded()
        old_lo, old_hi, old_scale = self._dyadic
        shift = scale - old_scale
        if shift < 0 or not old_lo << shift <= lo <= hi <= old_hi << shift:
            raise CertificateError("refinement left the previous bracket")
        self._set(lo, hi, scale)
        return True


def _exact(spec: RealSpec | None) -> bool:
    """Whether the spec is rational: `rat:`, a finite `cf:`, a square surd, or an image of one."""
    while isinstance(spec, Mobius):
        spec = spec.inner
    if isinstance(spec, Surd):
        return math.isqrt(spec.d) ** 2 == spec.d
    return isinstance(spec, Rational) or isinstance(spec, FromCF) and isinstance(spec.quotients, tuple)


def _check_digits(base: int, count: int = 0, word: bool = False) -> None:
    """The digit rule: base >= 2 and count >= 0; with `word`, a base a `Word` holds."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if word and base > MAX_ALPHABET:
        raise ValueError("word view needs base <= 256")


# ---------------------------------------------------------------------------
# Big-integer division and square root


def _divmod(a: int, b: int) -> tuple[int, int]:
    """`divmod(a, b)`, with its floor semantics for every sign.

    Where both the divisor and the quotient have more than _BIGINT_CUT_BITS
    bits this is recursive division (Burnikel & Ziegler, "Fast Recursive
    Division", MPI-I-98-1-022, 1998), which costs a few Karatsuba products
    where the builtin's long division is quadratic; elsewhere it is the
    builtin, which also raises ZeroDivisionError.
    """
    n = b.bit_length()
    if n <= _BIGINT_CUT_BITS or a.bit_length() - n <= _BIGINT_CUT_BITS:
        return divmod(a, b)
    if b < 0:
        q, r = _divmod(-a, -b)
        return q, -r
    if a < 0:
        # with ~a = b q + r, a = -(~a) - 1 = b (-q - 1) + (b - 1 - r)
        q, r = _divmod(~a, b)
        return ~q, b + ~r
    if a >> n >= b:
        # a quotient of more than n bits: divide the high part, then its
        # remainder followed by the low s bits, whose quotient has s bits
        s = (a.bit_length() - n) // 2
        q_hi, r = _divmod(a >> s, b)
        q_lo, r = _divmod(r << s | a & ((1 << s) - 1), b)
        return q_hi << s | q_lo, r
    return _div2n1n(a, b, n)


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """`divmod(a, b)` for 0 <= a < 2^n b and b of exactly n bits, by two
    half-size steps of `_div3n2n`."""
    if a.bit_length() - n <= _BIGINT_CUT_BITS:
        return divmod(a, b)
    pad = n & 1  # an odd n is made even by shifting both operands
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """`divmod(a12 2^n + a3, b)` for b = b1 2^n + b2 of exactly 2n bits,
    0 <= a12 < b and 0 <= a3 < 2^n."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    # q divides by the high half of b only, so it is at most two too large
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s^2) for s = `math.isqrt(n)`.

    Above _BIGINT_CUT_BITS bits this is the Karatsuba square root
    (Zimmermann, "Karatsuba Square Root", INRIA RR-3805, 1999): the root
    of the high half, then one `_divmod` by twice it; below, the builtin.
    """
    if n.bit_length() <= _BIGINT_CUT_BITS:
        s = math.isqrt(n)
        return s, n - s * s
    # n = h 2^2k + a1 2^k + a0 with a1, a0 < 2^k; h has at least 2k + 1
    # bits, so its root is at least 2^k and the step below errs by at most one
    k = (n.bit_length() - 1) // 4
    mask = (1 << k) - 1
    s, r = _sqrtrem(n >> 2 * k)
    q, u = _divmod(r << k | n >> k & mask, s << 1)
    s = (s << k) + q
    r = (u << k | n & mask) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


# ---------------------------------------------------------------------------
# Enclosure construction


def enclosure(spec: RealSpec, max_bits: int = DEFAULT_MAX_BITS) -> Enclosure:
    """Certified enclosure for a RealSpec at precision min(_START_BITS, max_bits)."""
    if _exact(spec):
        return Enclosure(None, max_bits, point=_rational(spec))
    return Enclosure(_bracket(spec, max_bits), max_bits)


def _bracket(spec: RealSpec, max_bits: int) -> Callable[[int], Bracket]:
    """The exact bracket of an irrational spec, a function of the precision.
    Nested Moebius matrices compose into one and a surd's image is a surd;
    any other image maps its inner number's bracket, refined to `max_bits` at most."""
    if isinstance(spec, SeriesE):
        return _e_bracket
    if isinstance(spec, SeriesShallit):
        return _shallit_bracket
    if isinstance(spec, Surd):
        return lambda bits: surd_bracket(spec.p, spec.q, spec.d, bits)
    if isinstance(spec, FromCF):
        return lambda bits: convergent_bracket(spec.quotients, bits)
    if not isinstance(spec, Mobius):
        raise TypeError(f"unknown RealSpec: {spec!r}")
    a, b, c, d, inner = 1, 0, 0, 1, spec
    while isinstance(inner, Mobius):
        a, b, c, d = (
            a * inner.a + b * inner.c,
            a * inner.b + b * inner.d,
            c * inner.a + d * inner.c,
            c * inner.b + d * inner.d,
        )
        inner = inner.inner
    if isinstance(inner, Surd):
        return _bracket(_surd_image(a, b, c, d, inner), max_bits)
    return _image_compute(a, b, c, d, _bracket(inner, max_bits), min(_START_BITS, max_bits), max_bits)


def _rational(spec: RealSpec) -> Fraction:
    """The value of a spec that `_exact` accepts.

    A Moebius image is evaluated innermost first, so the pole reported is
    the innermost one.
    """
    if isinstance(spec, Mobius):
        x = _rational(spec.inner)
        if spec.c * x + spec.d == 0:
            raise ValueError("Moebius pole at the inner value")
        return (spec.a * x + spec.b) / (spec.c * x + spec.d)
    if isinstance(spec, Surd):
        return Fraction(spec.p + math.isqrt(spec.d), spec.q)
    if isinstance(spec, FromCF):
        for _, _, p, q in convergents(spec.quotients):
            pass
        return Fraction(p, q)
    return Fraction(spec.p, spec.q)


def _surd_image(a: int, b: int, c: int, d: int, x: Surd) -> Surd:
    """The image of the irrational surd x = (p + sqrt r)/q under x -> (ax+b)/(cx+d).

    With A = ap + bq and C = cp + dq the image is (A + a sqrt r)/(C + c sqrt r);
    multiplied through by C - c sqrt r it is
    (AC - acr + (ad - bc) q sqrt r)/(C^2 - c^2 r), and C^2 - c^2 r is not 0
    because r is not a square.  A surd (P + sqrt R)/Q brackets itself
    2^-bits/|Q| wide, and the image of x's bracket at the same precision is
    (C + c sqrt r)^2/(|q| |Q|) times narrower, so the surd is scaled by 2^g,
    at least 2 (C^2 + c^2 r)/(|q| |Q|) times 2^_GUARD_BITS: at every
    precision its bracket is 2^_GUARD_BITS times narrower than the image
    `mobius` makes of x's, and a budget never certifies fewer digits of it
    unless a digit boundary falls within that sliver.
    """
    big_a, big_c = a * x.p + b * x.q, c * x.p + d * x.q
    s = 1 if (a * d - b * c) * x.q > 0 else -1
    num, den = s * (big_a * big_c - a * c * x.d), s * (big_c * big_c - c * c * x.d)
    ratio_bits = (2 * (big_c * big_c + c * c * x.d)).bit_length() - (x.q * den).bit_length() + 1
    g = max(0, ratio_bits) + _GUARD_BITS
    return Surd(num << g, den << g, x.q * x.q * x.d << 2 * g)


def _e_terms_needed(bits: int) -> int:
    """Smallest K with K! >= 2^(bits+1), located with lgamma and checked exactly by the caller."""
    target = (bits + 1) * math.log(2)
    lo, hi = 1, 2
    while math.lgamma(hi + 1) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if math.lgamma(mid + 1) < target:
            lo = mid + 1
        else:
            hi = mid
    return max(lo, 2)


def _e_split(a: int, b: int) -> tuple[int, int]:
    """(P, Q) with Q = a(a+1)...(b-1) and P/Q = sum_{k=a}^{b-1} 1/(a(a+1)...k)."""
    if b - a <= 8:
        p, q = 0, 1
        for k in range(b - 1, a - 1, -1):
            p, q = p + q, q * k
        return p, q
    m = (a + b) // 2
    p1, q1 = _e_split(a, m)
    p2, q2 = _e_split(m, b)
    return p1 * q2 + p2, q1 * q2


def _e_bracket(bits: int) -> Bracket:
    """(num, num + 2, den, 0) with e in [num, num + 2] / den, at most 2^-bits wide.

    e lies in [S, S + 2/K!] for S = sum_{j<K} 1/j! and the smallest K with
    K! >= 2^(bits+1); binary splitting gives S exactly, so num = K! S and
    den = K!.
    """
    threshold = 1 << (bits + 1)
    k = _e_terms_needed(bits)
    while True:
        p, q = _e_split(1, k)  # p/q = sum_{j=1}^{K-1} 1/j!, q = (K-1)!
        if q >= threshold:
            k -= 1  # lgamma overshot: (K-1)! already reaches the threshold
        elif k * q < threshold:
            k += 1
        else:
            return k * (q + p), k * (q + p) + 2, k * q, 0


def _round_out(num: int, w: int, den: int, scale: int) -> tuple[int, int]:
    """Integers (lo, hi) with [lo, hi] / 2^scale the bracket [num, num + w] / den
    (den > 0, w >= 0) rounded outward: one big division, then a short one."""
    lo, rem = _divmod(num << scale, den)
    # (num + w) / den = (lo + (rem + w 2^scale) / den) / 2^scale
    return lo, lo - (-(rem + (w << scale)) // den)


def _shallit_bracket(bits: int) -> Bracket:
    """(lo, lo + 1, 1, 2 top - 1) with sum 2^(-2^n) in [lo, lo + 1] / 2^(2 top - 1),
    for the partial sum of the terms n <= k, top = 2^k and the smallest k
    with 2 top >= bits + 1."""
    k = max(0, bits.bit_length() - 1)  # 2^(k+1) >= bits + 1 > 2^k, or k = 0
    top = 1 << k
    total = sum(1 << (top - (1 << n)) for n in range(k + 1))
    # [total/2^top, total/2^top + 2^(1 - 2 top)] at shift 2 top - 1
    lo = total << (top - 1)
    return lo, lo + 1, 1, 2 * top - 1


def surd_bracket(p: int, q: int, d: int, bits: int) -> Bracket:
    """(lo, lo + 1, |q|, bits) with lo < 2^bits |q| (p + sqrt(d))/q < lo + 1.

    d > 0 must not be a perfect square.  lo is the floor of 2^bits (p +
    sqrt(d)) for q > 0, and of 2^bits (-p - sqrt(d)) for q < 0, from one
    `isqrt`.
    """
    t = _sqrtrem(d << 2 * bits)[0]
    # sqrt(d) is irrational, so floor(-sqrt(d) 2^bits) is -t - 1
    lo = (p << bits) + t if q > 0 else (-p << bits) - t - 1
    return lo, lo + 1, abs(q), bits


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """Consecutive convergents (p_{k-1}, q_{k-1}, p_k, q_k) of [a0; a1, a2, ...]
    for k = 0, 1, ..., with p_{-1}/q_{-1} = 1/0.

    Every quotient after the first must be >= 1.  Nothing is kept between
    calls: each caller runs the recurrence from a0.
    """
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for k, a in enumerate(quotients):
        if k and a < 1:
            raise ValueError("partial quotients after the first must be >= 1")
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p_prev, q_prev, p, q


def convergent_bracket(quotient: Callable[[int], int], bits: int) -> Bracket:
    """(p q', p q' + 1, q q', 0) with p/q < value < p'/q' of the infinite
    expansion a_k = quotient(k), its first consecutive convergents at most
    2^-bits apart; p' q - p q' = 1, so p'/q' = (p q' + 1)/(q q')."""
    # consecutive convergents straddle the value, p_k/q_k above it for odd k,
    # and lie 1/(q_{k-1} q_k) apart; q_{-1} = 0 forces one step.  The bit
    # lengths decide q_{k-1} q_k >= 2^bits unless they sum to bits + 1.
    for k, (p_prev, q_prev, p, q) in enumerate(convergents(map(quotient, itertools.count()))):
        size = q_prev.bit_length() + q.bit_length()
        if size > bits + 1 or (size == bits + 1 and q_prev * q >= 1 << bits):
            break
    if k % 2 == 0:
        (p_prev, q_prev), (p, q) = (p, q), (p_prev, q_prev)
    return p_prev * q, p_prev * q + 1, q_prev * q, 0


def mobius(a: int, b: int, c: int, d: int, inner: Enclosure, max_bits: int = DEFAULT_MAX_BITS) -> Enclosure:
    """Image of an enclosure under x -> (ax+b)/(cx+d) with |ad - bc| = 1.

    The map is monotone away from its pole, so the image interval is the
    image of the endpoints, increasing when ad - bc = 1; the inner
    enclosure is refined until the pole is excluded and the image is
    tight enough, or to its budget, where the image of the bracket
    reached is returned.  The image of an exact point is exact.  The
    same loop maps the exact bracket of every inner number but a surd in
    `enclosure`, which folds the images of surds into a surd.  No
    production path calls it, `approximant` included: it stays as the
    oracle of both folds (`TestMobiusFold`) and as an entry point of the
    benchmark's span recorder (`perfbench/spans.py`).
    """
    if abs(a * d - b * c) != 1:
        raise ValueError("Moebius matrix must satisfy |ad - bc| = 1")
    if inner.is_point():
        x = inner.bounds()[0]
        if c * x + d == 0:
            raise ValueError("Moebius pole at the inner value")
        return Enclosure(None, max_bits, point=(a * x + b) / (c * x + d))

    def bracket(k: int) -> Bracket:
        inner.refine(k)
        lo, hi, s = inner.dyadic()
        return lo, hi, 1, s

    return Enclosure(_image_compute(a, b, c, d, bracket, inner.bits, inner._max_bits), max_bits)


def _image_compute(
    a: int, b: int, c: int, d: int, bracket: Callable[[int], Bracket], bits: int, max_bits: int
) -> Callable[[int], Bracket]:
    """The bracket of the image of x under x -> (ax+b)/(cx+d), where
    `bracket(k)` is an exact bracket of x at precision k; the image at
    precision n is rounded outward at scale n + _GUARD_BITS, with den 1.

    The precision of x starts at `bits`; a pole on the bracket doubles it and
    an image too wide moves it by the excess plus guard bits, never past
    `max_bits`.  There the image of the bracket reached is returned, as a
    plain number returns its own, and only a pole still on it raises.  The
    last bracket is kept, so a call that starts where the previous one
    stopped does not compute it again.
    """
    inner_bits = bits
    last = (None, None)  # (precision, bracket) of the last `bracket` call

    def compute(nbits: int) -> Bracket:
        nonlocal inner_bits, last
        scale = nbits + _GUARD_BITS
        while True:
            if last[0] != inner_bits:
                last = (inner_bits, bracket(inner_bits))
            lo, hi, den, shift = last[1]
            image = _image_bracket(a, b, c, d, lo, hi, den << shift, scale)
            if image is None:
                if lo == hi:
                    raise ValueError("Moebius pole at the inner value")
                if inner_bits >= max_bits:
                    raise PrecisionBudgetError("Moebius pole not separable within budget")
                target = 2 * inner_bits
            else:
                excess = (image[1] - image[0] - 2).bit_length() - _GUARD_BITS
                if excess <= 0 or inner_bits >= max_bits:  # at most 2^-nbits wide, or the budget
                    return (*image, 1, scale)
                # the image narrows with the inner width; guard bits spare a second round
                target = inner_bits + excess + _GUARD_BITS
            inner_bits = min(max(target, inner_bits + 1), max_bits)

    return compute


def _image_bracket(
    a: int, b: int, c: int, d: int, lo: int, hi: int, den: int, scale: int
) -> tuple[int, int] | None:
    """Integers (out_lo, out_hi) with [out_lo, out_hi] / 2^scale the image of
    [lo, hi] / den (den > 0) under x -> (ax+b)/(cx+d), |ad - bc| = 1, rounded
    outward; None when cx + d vanishes on the bracket."""
    den_lo, den_hi = c * lo + d * den, c * hi + d * den
    if den_lo == 0 or den_hi == 0 or (den_lo < 0) != (den_hi < 0):
        return None
    num_lo = a * lo + b * den
    if a * d - b * c < 0:  # decreasing: the lower image end comes from hi
        num_lo, den_lo, den_hi = a * hi + b * den, den_hi, den_lo
    # the images differ by (hi - lo) den / (den_lo den_hi) > 0, so the upper
    # end needs a short division only; floor division floors the exact
    # quotient whatever the sign of den_lo
    out_lo, rem = _divmod(num_lo << scale, den_lo)
    gap = rem * den_hi + ((hi - lo) * den << scale)
    return out_lo, out_lo - (-gap // (den_lo * den_hi))


def enclosure_from_digits(
    fetch: Callable[[int], Sequence[int]], base: int, max_bits: int = DEFAULT_MAX_BITS
) -> Enclosure:
    """Enclosure of a number in [0, 1] given by an exact fractional digit stream.

    `fetch(n)` must return the first n fractional digits, exactly.
    """
    _check_digits(base)

    def cell(nbits: int) -> Bracket:
        n = int(nbits / math.log2(base)) + 2
        value = _digits_to_int(fetch(n), base)
        return value, value + 1, base**n, 0

    return Enclosure(cell, max_bits)


# ---------------------------------------------------------------------------
# Digit extraction


@dataclass(frozen=True)
class DigitStream:
    """Certified base-b digits: integer part and fractional digits a1 a2 ...

    `certified` counts the fractional digits that are pinned down by the
    enclosure; it equals `requested` unless the refinement budget ran
    out first.  Re-running the extraction yields identical digits.  The
    digits are `bytes` in bases up to 256 and a tuple of ints above.
    """

    base: int
    integer_part: int
    fractional_digits: Digits
    requested: int

    @property
    def certified(self) -> int:
        return len(self.fractional_digits)

    @property
    def complete(self) -> bool:
        return self.certified == self.requested

    def as_text(self) -> str:
        if self.base <= 36:
            frac = self.fractional_digits.translate(DIGITS_TO_CHARS).decode("ascii")
        else:
            frac = ",".join(map(str, self.fractional_digits))
        ipart = decimal_text(self.integer_part)
        if self.integer_part < 0:
            # the digits are those of value - floor(value); spell the floor out
            return f"{ipart}+0.{frac} certified:{self.certified}"
        return f"{ipart}.{frac} certified:{self.certified}"

    def fractional_word(self) -> Word:
        _check_digits(self.base, word=True)
        return Word(self.fractional_digits, self.base)


def digits(spec: RealSpec, base: int, count: int, max_bits: int = DEFAULT_MAX_BITS) -> DigitStream:
    """First `count` certified fractional digits of the spec in the base."""
    _check_digits(base, count)
    return digits_from_enclosure(enclosure(spec, max_bits), base, count)


def digits_from_enclosure(enc: Enclosure, base: int, count: int) -> DigitStream:
    _check_digits(base, count)
    if enc.is_point():
        x, cell = enc.bounds()[0], base**count
        return _stream_from_scaled(base, count, _divmod(x.numerator * cell, x.denominator)[0], count, cell)
    if count * math.log2(base) > enc._max_bits:
        # the last digit's precision lies past the budget, where refining stops
        enc.refine(enc._max_bits)
        k, y = _agreed_prefix(*enc.dyadic(), base, count)
        return _stream_from_scaled(base, k, y, count, base**k)
    # y = floor(x base^count) is a plain shift when the base is a power of two
    shift = base.bit_length() - 1 if base & (base - 1) == 0 else 0
    scale = 1 << (shift * count) if shift else base**count
    # one refinement straight to the precision of the last digit, plus guard bits
    enc.refine(scale.bit_length() + _GUARD_BITS)
    while True:
        lo, hi, s = enc.dyadic()
        if shift:
            y_lo, y_hi = (lo << shift * count) >> s, (hi << shift * count) >> s
        else:
            # hi - lo is a few guard bits wide, so the second product is small
            t = lo * scale
            y_lo, y_hi = t >> s, (t + (hi - lo) * scale) >> s
        if y_lo == y_hi:
            return _stream_from_scaled(base, count, y_lo, count, scale)
        if not enc.refine():
            k, y = _agreed_prefix(lo, hi, s, base, count)
            return _stream_from_scaled(base, k, y, count, base**k)


def _agreed_prefix(lo: int, hi: int, s: int, base: int, count: int) -> tuple[int, int]:
    """(k, y) for the largest k <= count at which floor(lo base^k / 2^s) and
    floor(hi base^k / 2^s) agree on y, for lo <= hi.

    The floors differ once (hi - lo) base^k >= 2^s, which holds from
    k = (s - L + 1) / log2(base) on, L the bit length of hi - lo, so the
    search starts there, a few digits up against rounding, and costs what
    the bracket does, not `count`.
    """
    n = count if lo == hi else min(count, max(0, int((s - (hi - lo).bit_length()) / math.log2(base)) + 3))
    power = base**n
    y_lo, y_hi = (lo * power) >> s, (hi * power) >> s
    # a carry chain such as ...0999 / ...1000 can need more digits dropped
    while n >= 0 and y_lo != y_hi:
        y_lo //= base
        y_hi //= base
        n -= 1
    if n < 0:
        raise PrecisionBudgetError("integer part not certifiable within budget")
    return n, y_lo


def _stream_from_scaled(base: int, ndigits: int, y: int, requested: int, cell: int) -> DigitStream:
    # cell = base^ndigits
    ipart, frac = divmod(y, cell)
    return DigitStream(
        base=base,
        integer_part=ipart,
        fractional_digits=_int_to_base_digits(frac, base, ndigits),
        requested=requested,
    )


def _int_to_base_digits(x: int, base: int, width: int) -> Digits:
    """Base-b digits of x, zero-padded to `width` (x < base**width)."""
    if base == 256:
        return x.to_bytes(width, "big")
    if width == 0:
        return b"" if base <= 256 else ()
    if base in (2, 8, 16):
        text = format(x, {2: "b", 8: "o", 16: "x"}[base])
        return text.zfill(width).encode("ascii").translate(CHARS_TO_DIGITS)
    if base & (base - 1) == 0:
        shift = base.bit_length() - 1
        text = format(x, "b").zfill(shift * width)
        ds = [int(text[i : i + shift], 2) for i in range(0, shift * width, shift)]
        return bytes(ds) if base <= 256 else tuple(ds)
    return _digits_divide_conquer(x, base, width, {})


def _digits_divide_conquer(x: int, base: int, width: int, powers: dict[int, int]) -> Digits:
    """The `width` base-b digits of x, `bytes` up to base 256 and a tuple
    above, split at base^(width // 2) down to leaves (Brent & Zimmermann,
    Modern Computer Arithmetic, 2010, section 1.7), each base^half computed
    once into `powers`.  A base-10 leaf of at most _STR_LEAF_DIGITS digits
    is rendered by `str`, any other leaf of at most 32 digits by division."""
    if base == 10 and width <= _STR_LEAF_DIGITS:
        return str(x).zfill(width).encode("ascii").translate(CHARS_TO_DIGITS)
    if base != 10 and width <= 32:
        out = []
        for _ in range(width):
            x, r = divmod(x, base)
            out.append(r)
        return bytes(out[::-1]) if base <= 256 else tuple(out[::-1])
    half = width // 2
    if half not in powers:
        powers[half] = base**half
    high, low = _divmod(x, powers[half])
    high_digits = _digits_divide_conquer(high, base, width - half, powers)
    return high_digits + _digits_divide_conquer(low, base, half, powers)


def decimal_text(x: int) -> str:
    """Decimal text of an integer of any size, under any process-wide limit
    on integer string conversion."""
    # x < 2^L has at most L log10(2) + 1 digits
    ds = _digits_divide_conquer(abs(x), 10, int(x.bit_length() * math.log10(2)) + 2, {})
    text = ds.translate(DIGITS_TO_CHARS).decode("ascii").lstrip("0") or "0"
    return "-" + text if x < 0 else text


def _digits_to_int(ds: Iterable[int], base: int, powers: dict[int, int] | None = None) -> int:
    """The integer whose base-b digits, most significant first, are `ds`.

    The mirror of `_digits_divide_conquer`, with the same leaves and
    powers: the high digits times base^(len // 2) plus the low ones.  A
    base-10 leaf is read by `int`, which checks the process-wide digit
    limit only above _STR_LEAF_DIGITS digits, any other leaf by a Horner loop.
    """
    if not isinstance(ds, (bytes, tuple, list)):
        ds = tuple(ds)
    width = len(ds)
    if base == 10 and width <= _STR_LEAF_DIGITS:
        return int(bytes(ds).translate(DIGITS_TO_CHARS)) if width else 0
    if base != 10 and width <= 32:
        value = 0
        for d in ds:
            value = value * base + d
        return value
    half, powers = width // 2, {} if powers is None else powers
    if half not in powers:
        powers[half] = base**half
    high = _digits_to_int(ds[: width - half], base, powers)
    return high * powers[half] + _digits_to_int(ds[width - half :], base, powers)

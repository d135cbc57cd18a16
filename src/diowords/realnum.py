"""Exact real-number sources: refinable enclosures and certified digits.

Every supported number is described by a RealSpec and realized as an
Enclosure, an arbitrary-precision rational interval [lo, hi] that is
guaranteed to contain the target and can be refined on demand.  All
certification is by construction: series carry explicit tail bounds,
surds come from integer square roots, continued fractions from the
convergent sandwich, and Moebius images from monotone endpoint maps.

Digits are only ever emitted once the enclosure fits inside a single
digit cell, so every printed digit is exact; when the refinement budget
runs out first, the stream ends early and says how many digits are
certified.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .words import Word

DEFAULT_MAX_BITS = 10**6
_START_BITS = 64


class PrecisionBudgetError(RuntimeError):
    """Raised when a certification needs more refinement than the budget allows."""


class Enclosure:
    """Refinable rational interval certified to contain its target real.

    `compute(bits)` must return a certified interval of width at most
    2^-bits; refinement doubles `bits` and intersects with the previous
    interval, so successive snapshots are nested.
    """

    def __init__(
        self,
        compute: Callable[[int], tuple[Fraction, Fraction]],
        bits: int = _START_BITS,
        max_bits: int = DEFAULT_MAX_BITS,
    ) -> None:
        self._compute = compute
        self._bits = bits
        self._max_bits = max_bits
        lo, hi = compute(bits)
        if lo > hi:
            raise ValueError("enclosure endpoints out of order")
        self._lo, self._hi = lo, hi

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def width(self) -> Fraction:
        return self._hi - self._lo

    @property
    def bits(self) -> int:
        return self._bits

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Immutable snapshot (lo, hi); safe to share across threads."""
        return self._lo, self._hi

    def is_point(self) -> bool:
        return self._lo == self._hi

    def refine(self) -> bool:
        """Shrink the interval; False once the bit budget is exhausted."""
        if self.is_point():
            return True
        if self._bits >= self._max_bits:
            return False
        self._bits = min(self._bits * 2, self._max_bits)
        lo, hi = self._compute(self._bits)
        lo, hi = max(lo, self._lo), min(hi, self._hi)
        if lo > hi:
            raise AssertionError("refinement produced a disjoint interval")
        self._lo, self._hi = lo, hi
        return True

    def refine_below(self, width: Fraction) -> bool:
        while self.width > width:
            if not self.refine():
                return False
        return True


# ---------------------------------------------------------------------------
# RealSpec variants


@dataclass(frozen=True)
class Rational:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise ValueError("rational denominator must be nonzero")


@dataclass(frozen=True)
class SeriesE:
    """e = sum 1/k!, partial sums certified by the tail bound 2/(K+1)!."""


@dataclass(frozen=True)
class SeriesShallit:
    """sum 2^(-2^n); sparse binary digits, tail below 2*2^(-2^(K+1))."""


@dataclass(frozen=True)
class Surd:
    p: int
    q: int
    d: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise ValueError("surd denominator must be nonzero")
        if self.d < 0:
            raise ValueError("surd radicand must be nonnegative")


@dataclass(frozen=True)
class FromCF:
    """Number defined by continued-fraction quotients.

    A tuple is a complete expansion (an exact rational); a callable
    n -> a_n (0-based) denotes an infinite expansion and must satisfy
    a_n >= 1 for n >= 1.
    """

    quotients: Union[tuple[int, ...], Callable[[int], int]]

    def __post_init__(self) -> None:
        if isinstance(self.quotients, tuple):
            if not self.quotients:
                raise ValueError("empty quotient list")
            if any(a < 1 for a in self.quotients[1:]):
                raise ValueError("partial quotients after the first must be >= 1")


@dataclass(frozen=True)
class Mobius:
    a: int
    b: int
    c: int
    d: int
    inner: "RealSpec"

    def __post_init__(self) -> None:
        if abs(self.a * self.d - self.b * self.c) != 1:
            raise ValueError("Moebius matrix must satisfy |ad - bc| = 1")


RealSpec = Union[Rational, SeriesE, SeriesShallit, Surd, FromCF, Mobius]


class SpecSyntaxError(ValueError):
    """Real-spec grammar error carrying the failing position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


def _json_quotient(a, path: str, position: int) -> int:
    """One quotient of a cf:@file.json array: a JSON integer or a decimal-integer string."""
    if isinstance(a, int) and not isinstance(a, bool):
        return a
    if isinstance(a, str) and re.fullmatch(r"-?[0-9]+", a):
        return int(a)
    raise SpecSyntaxError(f"quotient {a!r} in {path!r} is not an integer", position)


def parse_real_spec(text: str, offset: int = 0) -> RealSpec:
    """Parse the number mini-language.

    Grammar: "rat:22/7" | "e" | "shallit" | "surd:P,Q,D" |
    "cf:@file.json" | "cf:a0,a1,..." | "mobius:a,b,c,d:(inner)".
    """
    if text == "e":
        return SeriesE()
    if text == "shallit":
        return SeriesShallit()
    if text.startswith("rat:"):
        body = text[4:]
        try:
            if "/" in body:
                p_txt, q_txt = body.split("/", 1)
                return Rational(int(p_txt), int(q_txt))
            return Rational(int(body), 1)
        except ValueError:
            raise SpecSyntaxError(f"bad rational {body!r}", offset + 4) from None
    if text.startswith("surd:"):
        parts = text[5:].split(",")
        if len(parts) != 3:
            raise SpecSyntaxError("surd needs P,Q,D", offset + 5)
        try:
            p, q, d = (int(x) for x in parts)
        except ValueError:
            raise SpecSyntaxError("surd needs integers P,Q,D", offset + 5) from None
        return Surd(p, q, d)
    if text.startswith("cf:@"):
        path = text[4:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecSyntaxError(f"cannot load quotients from {path!r}: {exc}", offset + 4) from None
        if not isinstance(raw, list):
            raise SpecSyntaxError(f"quotients in {path!r} must be a JSON array", offset + 4)
        return FromCF(tuple(_json_quotient(a, path, offset + 4) for a in raw))
    if text.startswith("cf:"):
        try:
            quotients = tuple(int(x) for x in text[3:].split(","))
        except ValueError:
            raise SpecSyntaxError("bad quotient list", offset + 3) from None
        return FromCF(quotients)
    if text.startswith("mobius:"):
        body = text[7:]
        sep = body.find(":(")
        if sep < 0 or not body.endswith(")"):
            raise SpecSyntaxError("mobius needs a,b,c,d:(inner)", offset + 7)
        try:
            a, b, c, d = (int(x) for x in body[:sep].split(","))
        except ValueError:
            raise SpecSyntaxError("mobius needs four integers", offset + 7) from None
        inner = parse_real_spec(body[sep + 2 : -1], offset + 7 + sep + 2)
        return Mobius(a, b, c, d, inner)
    raise SpecSyntaxError(f"unknown real spec {text!r}", offset)


# ---------------------------------------------------------------------------
# Enclosure construction


def enclosure(spec: RealSpec, bits: int = _START_BITS, max_bits: int = DEFAULT_MAX_BITS) -> Enclosure:
    """Certified enclosure for a RealSpec, of width at most 2^-bits."""
    if isinstance(spec, Rational):
        value = Fraction(spec.p, spec.q)
        return Enclosure(lambda _: (value, value), bits, max_bits)
    if isinstance(spec, SeriesE):
        return Enclosure(_compute_e, bits, max_bits)
    if isinstance(spec, SeriesShallit):
        return Enclosure(_compute_shallit, bits, max_bits)
    if isinstance(spec, Surd):
        root = math.isqrt(spec.d)
        if root * root == spec.d:
            value = Fraction(spec.p + root, spec.q)
            return Enclosure(lambda _: (value, value), bits, max_bits)
        return Enclosure(lambda b: _compute_surd(spec, b), bits, max_bits)
    if isinstance(spec, FromCF):
        if isinstance(spec.quotients, tuple):
            value = _cf_value(spec.quotients)
            return Enclosure(lambda _: (value, value), bits, max_bits)
        return Enclosure(lambda b: _compute_cf_stream(spec.quotients, b), bits, max_bits)
    if isinstance(spec, Mobius):
        inner = enclosure(spec.inner, bits, max_bits)
        return mobius(spec.a, spec.b, spec.c, spec.d, inner, bits, max_bits)
    raise TypeError(f"unknown RealSpec: {spec!r}")


def _compute_e(bits: int) -> tuple[Fraction, Fraction]:
    # find K with 2/(K+1)! <= 2^-bits
    threshold = 1 << (bits + 1)
    k, factorial = 0, 1
    while factorial < threshold:
        k += 1
        factorial *= k
    # partial sum of 1/j! for j = 0..k-1 over the common denominator (k-1)!
    # Horner from the top: term_j = (k-1)!/j!
    kk = k - 1
    denom = factorial // k  # (k-1)!
    term, total = 1, 1
    for j in range(kk - 1, -1, -1):
        term *= j + 1
        total += term
    lo = Fraction(total, denom)
    return lo, lo + Fraction(2, factorial)


def _compute_shallit(bits: int) -> tuple[Fraction, Fraction]:
    k = 0
    while (1 << (k + 1)) < bits + 1:
        k += 1
    top = 1 << k  # 2^k
    total = sum(1 << (top - (1 << n)) for n in range(k + 1))
    lo = Fraction(total, 1 << top)
    return lo, lo + Fraction(1, 1 << (2 * top - 1))


def _compute_surd(spec: Surd, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    t = math.isqrt(spec.d * scale * scale)
    lo = Fraction(spec.p + Fraction(t, scale), spec.q)
    hi = Fraction(spec.p + Fraction(t + 1, scale), spec.q)
    return (lo, hi) if lo <= hi else (hi, lo)


def _cf_value(quotients: Sequence[int]) -> Fraction:
    x = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        x = a + 1 / x
    return x


def _compute_cf_stream(fn: Callable[[int], int], bits: int) -> tuple[Fraction, Fraction]:
    target = Fraction(1, 1 << bits)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = None, None
    n = 0
    lo = hi = None
    while True:
        a = fn(n)
        if n > 0 and a < 1:
            raise ValueError("partial quotients after the first must be >= 1")
        if p_cur is None:
            p_cur, q_cur = a, 1
        else:
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
        n += 1
        if n >= 2:
            lo, hi = Fraction(p_prev, q_prev), Fraction(p_cur, q_cur)
            if lo > hi:
                lo, hi = hi, lo
            if hi - lo <= target:
                return lo, hi


def mobius(
    a: int,
    b: int,
    c: int,
    d: int,
    inner: Enclosure,
    bits: int = _START_BITS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Enclosure:
    """Image of an enclosure under x -> (ax+b)/(cx+d) with |ad - bc| = 1.

    The map is monotone away from its pole, so the image interval is the
    sorted image of the endpoints; the inner enclosure is refined until
    the pole is excluded and the image is tight enough.
    """
    if abs(a * d - b * c) != 1:
        raise ValueError("Moebius matrix must satisfy |ad - bc| = 1")

    def compute(nbits: int) -> tuple[Fraction, Fraction]:
        target = Fraction(1, 1 << nbits)
        while True:
            lo, hi = inner.bounds()
            den_lo, den_hi = c * lo + d, c * hi + d
            if den_lo == 0 or den_hi == 0 or (den_lo < 0) != (den_hi < 0):
                if inner.is_point():
                    raise ValueError("Moebius pole at the inner value")
                if not inner.refine():
                    raise PrecisionBudgetError("Moebius pole not separable within budget")
                continue
            x = (a * lo + b) / den_lo
            y = (a * hi + b) / den_hi
            out_lo, out_hi = (x, y) if x <= y else (y, x)
            if inner.is_point() or out_hi - out_lo <= target:
                return out_lo, out_hi
            if not inner.refine():
                raise PrecisionBudgetError("refinement budget exhausted in Moebius image")

    return Enclosure(compute, bits, max_bits)


def enclosure_from_digits(
    fetch: Callable[[int], Sequence[int]],
    base: int,
    integer_part: int = 0,
    bits: int = _START_BITS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Enclosure:
    """Enclosure of a number given by an exact fractional digit stream.

    `fetch(n)` must return the first n fractional digits, exactly.
    """
    if base < 2:
        raise ValueError("base must be >= 2")

    def compute(nbits: int) -> tuple[Fraction, Fraction]:
        n = int(nbits / math.log2(base)) + 2
        ds = fetch(n)
        value = 0
        for d in ds:
            value = value * base + d
        lo = integer_part + Fraction(value, base**n)
        return lo, lo + Fraction(1, base**n)

    return Enclosure(compute, bits, max_bits)


# ---------------------------------------------------------------------------
# Digit extraction


@dataclass(frozen=True)
class DigitStream:
    """Certified base-b digits: integer part and fractional digits a1 a2 ...

    `certified` counts the fractional digits that are pinned down by the
    enclosure; it equals `requested` unless the refinement budget ran
    out first.  Re-running the extraction yields identical digits.
    """

    base: int
    integer_part: int
    fractional_digits: tuple[int, ...]
    requested: int

    @property
    def certified(self) -> int:
        return len(self.fractional_digits)

    @property
    def complete(self) -> bool:
        return self.certified == self.requested

    def as_text(self) -> str:
        if self.base <= 36:
            frac = "".join(_DIGIT_CHARS[d] for d in self.fractional_digits)
        else:
            frac = ",".join(map(str, self.fractional_digits))
        return f"{self.integer_part}.{frac} certified:{self.certified}"

    def fractional_word(self) -> Word:
        if self.base > 256:
            raise ValueError("word view needs base <= 256")
        return Word(bytes(self.fractional_digits), self.base)

    def value(self) -> Fraction:
        """The rational number formed by the certified digits."""
        v = 0
        for d in self.fractional_digits:
            v = v * self.base + d
        return self.integer_part + Fraction(v, self.base**self.certified)


_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def digits(spec: RealSpec, base: int, count: int, max_bits: int = DEFAULT_MAX_BITS) -> DigitStream:
    """First `count` certified fractional digits of the spec in the base."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    enc = enclosure(spec, _START_BITS, max_bits)
    return digits_from_enclosure(enc, base, count)


def digits_from_enclosure(enc: Enclosure, base: int, count: int) -> DigitStream:
    scale = base**count
    # pre-refine to roughly the right precision so the loop converges fast
    enc.refine_below(Fraction(1, 2 * scale))
    while True:
        lo, hi = enc.bounds()
        y_lo = (lo.numerator * scale) // lo.denominator
        y_hi = (hi.numerator * scale) // hi.denominator
        if y_lo == y_hi:
            return _stream_from_scaled(base, count, y_lo, count)
        if not enc.refine():
            # certify the digits both endpoints agree on
            k = count
            while k >= 0 and y_lo != y_hi:
                y_lo //= base
                y_hi //= base
                k -= 1
            if k < 0:
                raise PrecisionBudgetError("integer part not certifiable within budget")
            return _stream_from_scaled(base, k, y_lo, count)


def _stream_from_scaled(base: int, ndigits: int, y: int, requested: int) -> DigitStream:
    scale = base**ndigits
    ipart, frac = divmod(y, scale)
    return DigitStream(
        base=base,
        integer_part=ipart,
        fractional_digits=tuple(_int_to_base_digits(frac, base, ndigits)),
        requested=requested,
    )


def _int_to_base_digits(x: int, base: int, width: int) -> list[int]:
    """Base-b digits of x, zero-padded to `width` (x < base**width)."""
    if width == 0:
        return []
    if base == 2:
        return [int(ch) for ch in format(x, "b").zfill(width)]
    if base & (base - 1) == 0:
        shift = base.bit_length() - 1
        return [(x >> (shift * i)) & (base - 1) for i in range(width - 1, -1, -1)]
    if base == 10:
        if hasattr(sys, "set_int_max_str_digits") and width + 16 > sys.get_int_max_str_digits():
            sys.set_int_max_str_digits(width + 16)
        return [int(ch) for ch in str(x).zfill(width)]
    return _digits_divide_conquer(x, base, width)


def _digits_divide_conquer(x: int, base: int, width: int) -> list[int]:
    if width <= 32:
        out = []
        for _ in range(width):
            x, r = divmod(x, base)
            out.append(r)
        return out[::-1]
    half = width // 2
    high, low = divmod(x, base**half)
    return _digits_divide_conquer(high, base, width - half) + _digits_divide_conquer(low, base, half)

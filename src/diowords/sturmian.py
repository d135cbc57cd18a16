"""Sturmian and quasi-Sturmian word generation with exact slope arithmetic.

The binary mechanical word of slope alpha and intercept rho is
s(n) = floor((n+1)*alpha + rho) - floor(n*alpha + rho) for n = 1, 2, ...,
where the irrational slope alpha in (0, 1) is a `realnum` number, a
quadratic surd `Surd` (P + sqrt(D))/Q or a `FromCF` whose callable gives
the quotients of [0; m1, m2, ...], and the intercept rho in [0, 1) is
rational.  No floor is ever taken through floating point.  Each slope is
bracketed between dyadic integers, lo/2^k < alpha < hi/2^k with
hi - lo <= 2, by the kernels of `realnum`: a surd by one integer square
root (`surd_bracket`), a continued fraction by its first close pair of
convergents (`convergent_bracket`, run from m1 on every call and stopped
at _SLOPE_EXTEND_CAP).  `mechanical_word` keeps the floors of one int64
numpy pass over one bracket and patches by index only the few positions,
usually none, where its two ends disagree, decided again at 2k, 4k, ...
bits with Python integers.  n*alpha + rho is never an integer, so this ends.
The lags of `record_runs` come from the slope's quotients: a `FromCF`
gives them, and a surd's come from `contfrac`'s Euclid on its bracket.

Quasi-Sturmian words are built as W followed by the image of a Sturmian
word under a nonerasing binary morphism; the checkers in this module
measure the complexity plateau p(n) = n + k and the frequency and
length laws that make that construction work.  The frequency law is one
integer pass over the letter counts against the slope bracket, and the
length law is a multiple of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contfrac import _surd_quotients
from .realnum import (
    FromCF,
    PrecisionBudgetError,
    Surd,
    _exact,
    _quotient_list,
    convergent_bracket,
    parse_surd,
    surd_bracket,
)
from .words import Word, _check_window, complexity_profile, gap_profile

_SLOPE_EXTEND_CAP = 100_000

# a finite quotient tuple is a rational slope: it parses, and every
# consumer rejects it
SlopeSpec = Surd | FromCF

PRESET_SLOPES: dict[str, FromCF] = {
    # [0; 1, 10, 100, 1000, ...]: an extreme unbounded-quotient slope
    "pow10": FromCF(lambda i: 10 ** (i - 1) if i else 0),
}


def _checked(slope: SlopeSpec) -> SlopeSpec:
    """The slope, once it is known to be irrational and to lie in (0, 1)."""
    if isinstance(slope, Surd):
        if _exact(slope):
            raise ValueError("surd radicand must be positive and not a perfect square")
        # at scale = bits = 0 the bracket is lo < alpha < lo + 1, so lo is the
        # floor of the irrational alpha, which lies in (0, 1) iff that floor is 0
        if surd_bracket(slope.p, slope.q, slope.d, 0, 0)[0] != 0:
            raise ValueError("slope must lie in (0, 1)")
    elif _exact(slope):
        raise ValueError("slope must be irrational")
    elif slope.quotients(0) != 0:
        raise ValueError("slope must lie in (0, 1)")
    return slope


def _bracket(slope: SlopeSpec, bits: int) -> tuple[int, int]:
    """Integers lo < hi <= lo + 2 with lo/2^bits < alpha < hi/2^bits."""
    if isinstance(slope, Surd):
        return surd_bracket(slope.p, slope.q, slope.d, bits, bits)

    def capped(i: int) -> int:
        """Quotient i of [0; m1, m2, ...], for at most _SLOPE_EXTEND_CAP convergents."""
        if i > _SLOPE_EXTEND_CAP:
            raise PrecisionBudgetError("continued-fraction slope refinement ran away")
        return slope.quotients(i)

    return convergent_bracket(capped, bits, bits)


def parse_slope(text: str) -> SlopeSpec:
    """Parse "surd:P,Q,D" or "cfslope:m1,m2,..." (with optional "(...)*" tail)."""
    if text.startswith("surd:"):
        return _checked(parse_surd(text[5:], 5))
    if text.startswith("cfslope:"):
        body = text[8:]
        if body in PRESET_SLOPES:
            return PRESET_SLOPES[body]
        head_txt, cycle_txt, i = body, "", 0
        if "(" in body:
            i = body.index("(")
            if not body.endswith(")*"):
                raise ValueError(f"periodic tail must end with ')*' at position {8 + i}: {text!r}")
            if i and body[i - 1] != ",":
                raise ValueError(f"periodic tail must follow a comma at position {8 + i}: {text!r}")
            head_txt, cycle_txt = body[: max(i - 1, 0)], body[i + 1 : -2]
        head = _quotient_list(head_txt, 8) if head_txt else ()
        cycle = _quotient_list(cycle_txt, 9 + i) if cycle_txt else ()
        if not head and not cycle:
            raise ValueError(f"empty quotient list at position 8: {text!r}")
        if any(m < 1 for m in head + cycle):
            raise ValueError("partial quotients must be >= 1")
        full = (0, *head)
        if not cycle:
            return FromCF(full)
        return FromCF(lambda i: full[i] if i < len(full) else cycle[(i - len(full)) % len(cycle)])
    raise ValueError(f"unknown slope spec at position 0: {text!r}")


def _as_intercept(rho) -> Fraction:
    if isinstance(rho, float):
        raise TypeError("intercept must be exact, not float")
    rho = Fraction(rho)
    if not 0 <= rho < 1:
        raise ValueError("intercept must lie in [0, 1)")
    return rho


def mechanical_word(slope: SlopeSpec, intercept=Fraction(0), length: int = 0) -> Word:
    """First `length` letters of the mechanical word of the given slope."""
    if length < 1:
        raise ValueError("length must be positive")
    floors = _floors(_checked(slope), _as_intercept(intercept), length + 1)
    w = Word(np.diff(floors).astype(np.uint8).tobytes(), 2)
    object.__setattr__(w, "slope", slope)  # a frozen field outside __init__
    return w


def _floors(slope: SlopeSpec, rho: Fraction, count: int) -> np.ndarray:
    """Exact floor(n*alpha + rho) for n = 1..count.

    With lo/2^k < alpha < hi/2^k and r = floor(rho*2^k), the integer
    floor((n*alpha + rho)*2^k) lies in [n*lo + r, n*hi + r], so the floor
    is decided wherever both ends shift down to the same value.  The lower
    ends of one int64 pass, at the largest k for which (count+1)*2^(k+1)
    cannot overflow, are the result; only the positions where the upper ends
    differ are decided again at 2k, 4k, ... bits and written back by index.
    """

    def ends(n, bits):
        """(n*lo + r) >> bits, written over n, and (n*hi + r) >> bits."""
        lo, hi = _bracket(slope, bits)
        r = (rho.numerator << bits) // rho.denominator
        upper = (n * hi + r) >> bits
        n *= lo
        n += r
        n >>= bits
        return n, upper

    bits = 62 - (count + 1).bit_length()
    floors, upper = ends(np.arange(1, count + 1, dtype=np.int64), bits)
    pos = np.flatnonzero(floors != upper)
    while pos.size:
        bits *= 2
        f_lo, f_hi = ends((pos + 1).astype(object), bits)
        done = f_lo == f_hi
        floors[pos[done]] = f_lo[done]
        pos = pos[~done]
    return floors


def record_runs(slope: SlopeSpec, n: int) -> list[tuple[int, int, int, int, int]]:
    """The lags of the nearest earlier points, for the positions 1..n-1 of
    every mechanical word of the slope, as runs (side, first, step, count,
    length).

    Position i of the word codes the point x_i = {(i+1) alpha + rho} of the
    rotation by alpha.  Of the earlier points, the nearest one below x_i
    lies at lag argmin_{1<=L<=i} {L alpha} (side 0) and the nearest one
    above at argmin_{1<=L<=i} {-L alpha} (side 1); neither depends on rho.
    Each is a step function of i that steps at the records of its side,
    the one-sided best approximations of alpha (V. T. Sos, Ann. Univ. Sci.
    Budapest 1, 1958; Alessandri & Berthe, Enseign. Math. 44, 1998).  With
    alpha = [0; a_1, a_2, ...], q_{-1} = 0, q_0 = 1 and q_{k+1} = a_{k+1}
    q_k + q_{k-1}, they are L = 1 on side 0, then at each level k >= 0
    t q_k + q_{k-1} for 1 <= t <= a_{k+1}, on side (k + 1) mod 2.

    A run lists the records first + r step, r < count, each the lag of
    its side at the `length` positions from itself on, up to its side's
    next record: the records t < a_{k+1} of level k step by q_k and hold
    for q_k positions each, and the last one, q_{k+1}, holds for q_{k+2}.
    Lengths are cut at n - first, which only a run of one record reaches.
    """
    _checked(slope)
    if isinstance(slope, Surd):
        quotients = _surd_quotients(slope.p, slope.q, slope.d)
        next(quotients)  # a_0 = 0
    else:
        quotients = map(slope.quotients, itertools.count(1))
    a = next(quotients)
    runs = [(0, 1, 0, 1, min(a, n - 1))]
    side, q_prev, q = 1, 0, 1  # level 0: q_{-1} and q_0
    while q + q_prev < n:  # the first record of the level
        if a > 1:
            first = q + q_prev
            runs.append((side, first, q, min(a - 1, (n - 1 - q_prev) // q), min(q, n - first)))
        q_prev, q = q, a * q + q_prev
        a = next(quotients)
        if q < n:
            runs.append((side, q, 0, 1, min(a * q + q_prev, n - q)))
        side ^= 1
    return runs


def slope_bounds(slope: SlopeSpec, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Certified rational bracket of the slope with width at most 2^-bits."""
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    lo, hi = _bracket(_checked(slope), bits + 1)
    return Fraction(lo, 1 << bits + 1), Fraction(hi, 1 << bits + 1)


def letter_frequency_check(s: Word, slope: SlopeSpec) -> Fraction:
    """Largest certified |count_1(n) - n*alpha| over prefixes of s.

    Mechanical words keep this below 1; anything above 2 means the word
    does not match the slope.  With lo/2^k < alpha < hi/2^k and c the
    letter sum of the first n letters, the bound at n is
    max(|c*2^k - n*lo|, |c*2^k - n*hi|)/2^k, taken in one numpy pass.
    """
    n_total = len(s)
    if n_total == 0:
        raise ValueError("empty word")
    k = max(16, (4 * n_total).bit_length() + 2) + 1
    lo, hi = _bracket(_checked(slope), k)
    # no term exceeds `top`; past int64 the pass runs on Python integers
    top = n_total * (((s.alphabet_size - 1) << k) + abs(lo) + abs(hi))
    dtype = np.int64 if top.bit_length() < 63 else object
    c = np.frombuffer(s.symbols, dtype=np.uint8).astype(dtype).cumsum() << k
    n = np.arange(1, n_total + 1, dtype=dtype)
    worst = max(np.abs(c - n * lo).max(), np.abs(c - n * hi).max())
    return Fraction(int(worst), 1 << k)


@dataclass(frozen=True)
class Morphism:
    """Nonerasing morphism from {0,1}* into a target alphabet."""

    image0: Word
    image1: Word

    def __post_init__(self) -> None:
        if len(self.image0) == 0 or len(self.image1) == 0:
            raise ValueError("morphism must be nonerasing")

    @property
    def target_alphabet(self) -> int:
        return max(self.image0.alphabet_size, self.image1.alphabet_size)


def parse_morphism(text: str) -> Morphism:
    """Parse the "0>01;1>001" rule syntax."""
    rules: dict[int, Word] = {}
    for chunk in text.split(";"):
        if ">" not in chunk:
            raise ValueError(f"morphism rule needs '>': {chunk!r}")
        left, right = chunk.split(">", 1)
        if left not in ("0", "1"):
            raise ValueError(f"morphism domain letter must be 0 or 1: {chunk!r}")
        if int(left) in rules:
            raise ValueError(f"morphism rule for letter {left} is given twice: {chunk!r}")
        rules[int(left)] = Word.from_digits(right)
    if set(rules) != {0, 1}:
        raise ValueError("morphism must define images for both 0 and 1")
    return Morphism(rules[0], rules[1])


@dataclass(frozen=True)
class QuasiSturmianSpec:
    """A word of the shape W phi(s) for a Sturmian s."""

    prefix: Word
    morphism: Morphism
    slope: SlopeSpec
    intercept: Fraction = Fraction(0)


def apply_morphism(spec: QuasiSturmianSpec, length: int) -> Word:
    """First `length` letters of W phi(s)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    out = spec.prefix.symbols[:length]
    if len(out) < length:
        images = (spec.morphism.image0.symbols, spec.morphism.image1.symbols)
        # every letter of s adds at least the shorter image
        count = -(-(length - len(out)) // min(map(len, images)))
        s = mechanical_word(spec.slope, spec.intercept, count)
        out += b"".join(map(images.__getitem__, s.symbols))
    alphabet = max(spec.prefix.alphabet_size, spec.morphism.target_alphabet)
    return Word(out[:length], alphabet)


MIN_PLATEAU = 50


def quasi_sturmian_check(a: Word, n_max: int) -> tuple[int, int] | None:
    """Detect the complexity law p(n) = n + k for n in [n0, n_max].

    Returns (k, n0) once the gap p(n) - n is constant on a plateau of at
    least MIN_PLATEAU consecutive n ending at n_max, or None when the
    data is too short or not quasi-Sturmian.  n_max is capped at |a|/4
    so that the counts are not starved by the prefix cut-off.
    """
    _check_window(n_max)
    if n_max > len(a) // 4:
        raise ValueError("window too large")
    profile = complexity_profile(a, n_max)
    gaps = gap_profile(profile)
    k = gaps[-1]
    n0 = n_max
    while n0 > 1 and gaps[n0 - 2] == k:
        n0 -= 1
    if k < 1 or n_max - n0 + 1 < MIN_PLATEAU:
        return None
    return k, n0


def morphic_length_check(spec: QuasiSturmianSpec, n_letters: int) -> Fraction:
    """Largest certified ||phi(s_1..s_n)| - delta*n| for n up to n_letters.

    delta = alpha*|phi(1)| + (1-alpha)*|phi(0)| is the mean letter cost;
    the deviation stays below 2*max(|phi(0)|, |phi(1)|) because the
    letter counts of a mechanical word stay within 2 of n*alpha.  With c
    ones among s_1..s_n, |phi(s_1..s_n)| - delta*n = (|phi(1)| - |phi(0)|)
    * (c - n*alpha), so this is a multiple of the frequency deviation.
    """
    if n_letters < 1:
        raise ValueError("need at least one letter")
    len0, len1 = len(spec.morphism.image0), len(spec.morphism.image1)
    s = mechanical_word(spec.slope, spec.intercept, n_letters)
    return abs(len1 - len0) * letter_frequency_check(s, spec.slope)

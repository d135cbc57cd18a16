"""Sturmian and quasi-Sturmian word generation with exact slope arithmetic.

The binary mechanical word of slope alpha and intercept rho is
s(n) = floor((n+1)*alpha + rho) - floor(n*alpha + rho) for n = 1, 2, ...,
where the irrational slope alpha in (0, 1) is a `realnum` number, a
quadratic surd `Surd` (P + sqrt(D))/Q or a `FromCF` whose callable gives
the quotients of [0; m1, m2, ...], and the intercept rho in [0, 1) is
rational.  No floor is ever taken through floating point.  Each slope is
bracketed between dyadic integers, lo/2^k < alpha < hi/2^k with
hi - lo <= 2, by rounding (`_round_out`) the slope's exact bracket of
`realnum._bracket`: a surd's from one integer square root, a continued
fraction's from its first close pair of convergents, run from m1 on
every call and stopped, as every number's, at `realnum._CF_EXTEND_CAP`
convergents.  `mechanical_word` takes one bracket at 64 bits and
steps the 64-bit fractional parts of n*alpha + rho in one reused uint64
block; each letter is the carry of one step, and each block of letters
is written into the word's bytes, which are made once.  One exact floor
oracle, `_floors`, decides every floor that the 64-bit bracket leaves
open, by Python integers at 128, 256, ... bits: the few, usually none,
that a block may leave undecided, whose letters the block rewrites
before it writes them, and every floor test of `record_runs_from`.
n*alpha + rho is never an integer, so this ends.
The lags of `record_runs` come from the slope's quotients: a `FromCF`
gives them, and a surd's come from `contfrac`'s Euclid on its bracket.
`record_runs_from` steps from a threshold through those lags with exact
floor tests, galloping with `realnum._first_true`.

Quasi-Sturmian words are built as W followed by the image of a Sturmian
word under a nonerasing binary morphism; the checkers in this module
measure the complexity plateau p(n) = n + k and the frequency and
length laws that make that construction work.  The frequency law is one
integer pass over the letter counts against the slope bracket, and the
length law is a multiple of it.
"""

from __future__ import annotations

import bisect
import io
import itertools
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .contfrac import _surd_quotients
from .realnum import _bracket as _exact_bracket
from .realnum import _exact, _first_true, _round_out
from .spec import QuasiSturmianSpec, SlopeSpec, Surd, parse_morphism, parse_slope
from .words import Word, _check_window, complexity_profile, gap_profile


def _checked(slope: SlopeSpec) -> SlopeSpec:
    """The slope, once it is known to be irrational and to lie in (0, 1)."""
    if _exact(slope) and isinstance(slope, Surd):
        raise ValueError("surd radicand must be positive and not a perfect square")
    if _exact(slope):
        raise ValueError("slope must be irrational")
    # at 0 bits the exact bracket is lo/den < alpha < (lo + 1)/den, so lo // den
    # is the floor of the irrational alpha, which lies in (0, 1) iff it is 0
    lo, _, den, _ = _exact_bracket(slope, 0)(0)
    if lo // den != 0:
        raise ValueError("slope must lie in (0, 1)")
    return slope


def _bracket(slope: SlopeSpec, bits: int) -> tuple[int, int]:
    """Integers lo < hi <= lo + 2 with lo/2^bits < alpha < hi/2^bits: the
    slope's exact bracket of `realnum`, at most 2^-bits wide, rounded outward."""
    lo, hi, den, shift = _exact_bracket(slope, bits)(bits)
    return _round_out(lo, hi - lo, den, bits - shift)


def _as_intercept(rho: int | Fraction) -> Fraction:
    """The exact intercept `rho` in [0, 1); text is read by `spec.read_intercept`."""
    if not isinstance(rho, (int, Fraction)):
        raise TypeError(f"intercept must be an int or a Fraction, not {type(rho).__name__}")
    rho = Fraction(rho)
    if not 0 <= rho < 1:
        raise ValueError("intercept must lie in [0, 1)")
    return rho


# The letters are made _BLOCK at a time, from one uint64 buffer of
# _BLOCK + 1 entries and one bool buffer of _BLOCK, about 9 _BLOCK bytes
# beside the word's.  On surd, continued-fraction and pow10 slopes (median
# of 30 calls each), 2^13 took 0.13-0.14, 0.38-0.40 and 0.72-0.77 ms at
# 5*10^4, 2*10^5 and 4*10^5 letters, 2^14 0.11-0.13, 0.33-0.34 and
# 0.55-0.58 ms, and 2^15 0.14-0.16, 0.34-0.40 and 0.58-0.72 ms.
_BLOCK = 1 << 14


def mechanical_word(slope: SlopeSpec, intercept=Fraction(0), length: int = 0) -> Word:
    """First `length` letters of the mechanical word of the given slope.

    With lo/2^64 < alpha < hi/2^64 and R = floor(rho*2^64), the integer
    floor((n*alpha + rho)*2^64) lies in [n*lo + R, n*hi + R], so
    floor(n*alpha + rho) is (n*lo + R) >> 64 whenever the fractional
    part x_n = (n*lo + R) mod 2^64 has x_n + n*(hi - lo) < 2^64.  x_n
    steps by lo mod 2^64, and letter n is then the carry of the step:
    x_(n+1) < x_n.  A block of letters costs one compare and one add on
    a uint64 buffer and one max that flags the floors the block may leave
    undecided, usually none; the block's own letters that read those are
    rewritten from the exact floors of `_floors` before they are written.
    The word's bytes are asked for before the first letter, so a length
    the host cannot hold fails at once, and each block is written into
    them: no other array or copy as long as the word is made.
    """
    if length < 1:
        raise ValueError("length must be positive")
    slope, rho = _checked(slope), _as_intercept(intercept)
    lo, hi = _bracket(slope, 64)
    r = (rho.numerator << 64) // rho.denominator
    # CPython's BytesIO writes into bytes that it alone refers to, and its
    # getvalue returns them uncopied once they are full
    letters = io.BytesIO(bytes(length))
    block = min(_BLOCK, length)
    x = np.arange(block + 1, dtype=np.uint64)
    x *= np.uint64(lo)
    x += np.uint64((lo + r) % 2**64)  # x_1 .. x_(block+1)
    carries = np.empty(block, dtype=np.bool_)
    floor = None
    for start in range(0, length, block):
        if start:
            x += np.uint64(block * lo % 2**64)
        # letters start+1 .. start+m read floors start+1 .. start+m+1, whose
        # first the block before read too and whose last the next one reads
        m = min(block, length - start)
        xs, out = x[: m + 1], carries[:m]
        np.less(xs[1:], xs[:-1], out=out)
        edge = np.uint64(max(2**64 - (start + m + 1) * (hi - lo), 0))
        if xs.max() >= edge:
            floor = floor or _floors(slope, rho, lo, hi)
            # floor n is read by letters n - 1 and n
            flagged = (start + 1 + np.flatnonzero(xs >= edge)).tolist()
            for n in {n + i for n in flagged for i in (-1, 0)}:
                if start < n <= start + m:
                    out[n - 1 - start] = floor(n + 1) - floor(n)
        letters.write(out)
    w = Word(letters.getvalue(), 2)
    object.__setattr__(w, "slope", slope)  # a frozen field outside __init__
    return w


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


def record_runs_from(
    slope: SlopeSpec, lo: int, n: int, runs: list
) -> list[tuple[int, int, int, int]]:
    """The records from lo of both sides below n, as runs (side, first,
    step, count), given `runs = record_runs(slope, n)`.

    A record from lo of side 0 (side 1) is a lag lo <= d < n whose
    {d alpha} ({-d alpha}) is less than at every lag in [lo, d), so lo
    itself is one of both sides.  The next record of side 0 after d is
    d + L for the least L with {-L alpha} < {d alpha}, a record of side 1
    by the minimality of L, and the least L with {L alpha} < {-d alpha} on
    side 1, a record of side 0: the records of the other side with that
    property are a suffix of them, and it only shrinks as d moves on.  While L
    stays the least one, d + L, d + 2L, ... are records; m such steps
    from d pass exactly when c = floor((d + m L) alpha) - floor(d alpha)
    - m floor(L alpha) is m on side 0 and 0 on side 1, a test monotone in
    m.  So each run of equal L costs one galloping search over m and one
    over the records of the other side, and never a step per record.
    """
    floor = _floors(slope, Fraction(0), *_bracket(slope, 64))
    out = [(side, lo, 0, 1) for side in (0, 1) if lo < n]
    for side in (0, 1):
        other = [run[1:4] for run in runs if run[0] != side]
        out.extend((side, *run) for run in _steps_from(floor, side, lo, n, other))
    return out


def _steps_from(floor, side: int, lo: int, n: int, other: list) -> Iterator[tuple[int, int, int]]:
    """The runs (first, step, count) of the records of `side` from lo below
    n after lo itself, stepping by the records of the other side, given as
    runs (first, step, count) of `record_runs`."""
    starts = list(itertools.accumulate((count for _, _, count in other), initial=0))
    carry = 1 if side == 0 else 0  # a step carries on side 0 and never on side 1

    def lag(i: int) -> tuple[int, int]:
        """Record i of the other side and its floor."""
        j = bisect.bisect_right(starts, i) - 1
        first, step, _ = other[j]
        gap = first + (i - starts[j]) * step
        return gap, floor(gap)

    def steps(d: int, f: int, gap: int, fg: int, m: int) -> bool:
        """Whether m steps of gap from d all give records; f and fg are the
        floors of d alpha and gap alpha."""
        return floor(d + m * gap) - f - m * fg == m * carry

    d, i = lo, 0
    while True:
        f = floor(d)
        i = _first_true(lambda i: steps(d, f, *lag(i), 1), i, starts[-1])
        if i == starts[-1]:
            return
        gap, fg = lag(i)
        if d + gap >= n:
            return
        # the run d + gap, ..., d + m gap, cut below n
        m = _first_true(lambda m: not steps(d, f, gap, fg, m), 2, (n - 1 - d) // gap + 1) - 1
        yield d + gap, gap, m
        d, i = d + m * gap, i + 1


def _floors(slope: SlopeSpec, rho: Fraction, lo: int, hi: int):
    """n -> floor(n*alpha + rho) for integers n >= 1, exactly, from the
    slope's 64-bit bracket lo, hi.

    With a bracket at k bits and r = floor(rho*2^k), floor(n*alpha + rho)
    lies between (n*lo + r) >> k and (n*hi + r) >> k, and is decided where
    they agree: at 64 bits, else at 128, 256, ... bits, each bracket asked
    of `_bracket` once.  n*alpha + rho is never an integer, so this ends.
    """
    levels = [(64, lo, hi, (rho.numerator << 64) // rho.denominator)]

    def floor(n: int) -> int:
        for i in itertools.count():
            if i == len(levels):
                bits = 2 * levels[-1][0]
                levels.append((bits, *_bracket(slope, bits), (rho.numerator << bits) // rho.denominator))
            bits, lo, hi, r = levels[i]
            f = (n * lo + r) >> bits
            if f == (n * hi + r) >> bits:
                return f

    return floor


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


def apply_morphism(spec: QuasiSturmianSpec, length: int) -> Word:
    """First `length` letters of W phi(s); the slope is checked also where W alone is long enough."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    _checked(spec.slope)
    out = spec.prefix.symbols[:length]
    if len(out) < length:
        images = (spec.morphism.image0.symbols, spec.morphism.image1.symbols)
        # every letter of s adds at least the shorter image
        count = -(-(length - len(out)) // min(map(len, images)))
        out += _image(mechanical_word(spec.slope, spec.intercept, count).symbols, *images)
    alphabet = max(w.alphabet_size for w in (spec.prefix, spec.morphism.image0, spec.morphism.image1))
    return Word(out[:length], alphabet)


def _image(s: bytes, u: bytes, v: bytes) -> bytes:
    """phi(s) for a word s over {0, 1}, phi(0) = u and phi(1) = v.

    The 1s of s become a byte m that u does not hold, so that after the
    0s are replaced by u, the m's are exactly the letters to replace by v.
    Only a u that holds every byte from 1 to 255 lacks such an m, and
    with 255 letters or more for each letter of s, the per-letter join
    costs little next to them.
    """
    m = next((x for x in range(1, 256) if x not in u), None)
    if m is None:
        return b"".join(map((u, v).__getitem__, s))
    marked = s.translate(bytes.maketrans(b"\1", bytes([m])))
    return marked.replace(b"\0", u).replace(bytes([m]), v)


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

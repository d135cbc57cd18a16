"""Finite-word primitives: alphabets, fractional powers, factor complexity.

A word is an immutable sequence of small integer letters.  The main
analysis tool is the complexity profile: for a prefix of length L it
reports, for every window size n, the number of distinct length-n
blocks occurring in the prefix.  The counts are read off the histogram
of the prefix's LCP array (see suffix.py), sorted only as deep as the
largest window, and are checked against a brute-force oracle in the
test suite.

A profile computed on a finite prefix only ever underestimates the
complexity of the infinite word it was cut from; downstream reporting
labels these values as lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .suffix import suffix_index

# Letters are stored as bytes, which caps the alphabet.  Digit streams in
# larger bases exist elsewhere; the word-analysis surface does not need them.
MAX_ALPHABET = 256

# Digit characters of letters 0..35, shared by the digit codecs of `realnum`
# and `spec`; `Word.to_text` adds ord("0") to letters 0..9 instead.
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"
DIGITS_TO_CHARS = bytes.maketrans(bytes(range(36)), _DIGIT_CHARS)
CHARS_TO_DIGITS = bytes.maketrans(_DIGIT_CHARS, bytes(range(36)))


@dataclass(frozen=True)
class Word:
    """Immutable finite word over the alphabet {0, ..., alphabet_size - 1}.

    `slope` is set only on the words that `sturmian.mechanical_word`
    returns: the slope they were made with, which lets `dio_estimate`
    and `ice_estimate` read matches only at the slope's records.  It is
    no part of the word's value: equality, hash and repr ignore it, and
    slices and prefixes drop it.
    """

    symbols: bytes
    alphabet_size: int
    slope: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 2 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet size must be in [2, {MAX_ALPHABET}], got {self.alphabet_size}"
            )
        if not isinstance(self.symbols, bytes):
            object.__setattr__(self, "symbols", bytes(self.symbols))
        if self.symbols and np.frombuffer(self.symbols, np.uint8).max() >= self.alphabet_size:
            raise ValueError("letter out of range for alphabet")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.symbols[i], self.alphabet_size)
        return self.symbols[i]

    def prefix(self, n: int) -> "Word":
        if n > len(self):
            raise ValueError("prefix longer than word")
        return Word(self.symbols[:n], self.alphabet_size)

    def to_text(self, start: int = 0, stop: int | None = None) -> str:
        """Digit-string rendering of the letters start..stop - 1, by default
        all of them, made from a view of those letters alone; only available
        for alphabets up to 10."""
        if self.alphabet_size > 10:
            raise ValueError("text rendering needs alphabet size <= 10")
        stop = len(self) if stop is None else min(stop, len(self))
        letters = np.frombuffer(self.symbols, np.uint8, max(stop - start, 0), start)
        # letters 0..9 plus ord("0") are their ASCII digits
        return str(letters + np.uint8(48), "ascii")


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct-factor counts of a prefix: counts[n-1] = p(n) for n = 1..n_max."""

    prefix_length: int
    alphabet_size: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        """Check 1 <= p(n) <= min(b^n, L - n + 1) and p(n) <= p(n+1) + 1 for
        every n at once; the error names the first n that fails either."""
        L, b = self.prefix_length, self.alphabet_size
        c = np.array(self.counts, dtype=np.int64)
        out = (c < 1) | (c > _max_factor_counts(b, L, len(c)))
        drop = np.append(c[:-1] > c[1:] + 1, False)
        bad = np.flatnonzero(out | drop)
        if bad.size:
            i = int(bad[0])
            n, p = i + 1, self.counts[i]
            if out[i]:
                raise ValueError(f"count p({n})={p} out of range for L={L}, b={b}")
            raise ValueError(f"count p({n})={p} exceeds p({n+1})+1")

    def count(self, n: int) -> int:
        return self.counts[n - 1]

    def to_csv(self) -> str:
        lines = ["n,p_n,gap"]
        for i, c in enumerate(self.counts):
            n = i + 1
            lines.append(f"{n},{c},{c - n}")
        return "\n".join(lines) + "\n"


def _max_factor_counts(b: int, L: int, n_max: int) -> np.ndarray:
    """min(b^n, L - n + 1) for n = 1..n_max, exactly, for a word length L.

    For b >= 2, b^n > L from n = L.bit_length() on, so only the powers
    below that are taken, as Python integers.  A bound below 1 rejects
    every count, so clipping it at 0 keeps negative powers in int64.
    """
    bounds = np.arange(L, L - n_max, -1, dtype=np.int64)
    k = min(n_max, L.bit_length()) if b >= 2 else n_max
    bounds[:k] = [max(min(b**n, L - n + 1), 0) for n in range(1, k + 1)]
    return bounds


def fractional_power(w: Word, exponent: int | Fraction) -> Word:
    """W^x: W repeated floor(x) times, then the prefix of ceil(frac(x)*|W|) letters.

    The exponent must be an exact int or Fraction; floats are rejected so
    word lengths never pass through rounding, and text is no number here.
    """
    if len(w) == 0:
        raise ValueError("empty base word")
    if not isinstance(exponent, (int, Fraction)):
        raise TypeError(f"exponent must be an int or a Fraction, not {type(exponent).__name__}")
    x = Fraction(exponent)
    if x <= 0:
        raise ValueError("exponent must be positive")
    whole, rem = divmod(x.numerator, x.denominator)
    # ceil(rem/den * |W|) in integer arithmetic
    tail = -((-rem * len(w)) // x.denominator)
    return Word(w.symbols * whole + w.symbols[:tail], w.alphabet_size)


def occurrence_count(w: Word, letter: int) -> int:
    """Number of positions of ``w`` carrying ``letter``."""
    if not 0 <= letter < w.alphabet_size:
        raise ValueError("letter out of range for alphabet")
    return w.symbols.count(letter)


def _check_window(n_max: int, length: int | None = None) -> None:
    """The window rule: n_max >= 1, and at most `length` when it is known."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if length is not None and n_max > length:
        raise ValueError("window exceeds prefix")


def complexity_profile(w: Word, n_max: int) -> ComplexityProfile:
    """Exact distinct-factor counts of the prefix, for window sizes 1..n_max.

    A length-n factor occurs first in SA order at the suffixes SA[r] with
    LCP[r] < n that are at least n letters long.  Every suffix shorter
    than n has LCP[r] < n too, and there are n - 1 of them, so

        p(n) = #{r : LCP[r] < n} - (n - 1),

    a prefix sum of the LCP histogram.  Only lengths up to n_max are read,
    so the index is sorted to depth n_max and each LCP is capped there.
    """
    L = len(w)
    _check_window(n_max, L)
    _, lcp = suffix_index(w.symbols, depth=n_max)
    counts = np.cumsum(np.bincount(lcp, minlength=n_max + 1)[:n_max]) - np.arange(n_max)
    return ComplexityProfile(L, w.alphabet_size, tuple(counts.tolist()))


def gap_profile(profile: ComplexityProfile) -> list[int]:
    """The sequence p(n) - n; negative entries flag sub-Sturmian (periodic) data."""
    return [c - (i + 1) for i, c in enumerate(profile.counts)]


def factor_counts_brute(data: Sequence[int], n_max: int) -> list[int]:
    """Reference counter: a set of explicit windows per length.

    Quadratic and only meant as an oracle for complexity_profile.
    """
    data = bytes(data)
    return [len({data[i : i + n] for i in range(len(data) - n + 1)}) for n in range(1, n_max + 1)]

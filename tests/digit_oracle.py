"""Exact digit references that share no code with `realnum`.

`digits_by_divmod` takes one division per digit.  `surd_digits` gives the
digits of (p + sqrt(d)) / q from floor(b^n (p + sqrt(d)) / q), which takes
one integer square root and no enclosure.
"""

from __future__ import annotations

import math


def digits_by_divmod(x: int, base: int, width: int) -> list[int]:
    """The `width` base-b digits of 0 <= x < base^width, most significant first."""
    out = []
    for _ in range(width):
        x, r = divmod(x, base)
        out.append(r)
    if x:
        raise ValueError("x has more than `width` digits")
    return out[::-1]


def surd_digits(p: int, q: int, d: int, base: int, count: int) -> tuple[int, list[int]]:
    """(integer part, first `count` fractional digits) of (p + sqrt(d)) / q
    in base b, for q != 0 and d > 0 not a perfect square."""
    cell = base**count
    # b^n sqrt(d) is irrational, so it lies strictly between s and s + 1,
    # s = isqrt(b^2n d); the numerator lies strictly between a and a + 1
    a = p * cell + math.isqrt(d * cell * cell)
    # with q > 0 the floor of the quotient is a // q; with q < 0 the
    # quotient is never an integer, and its floor is one below -(a // -q)
    y = a // q if q > 0 else -(a // -q) - 1
    ipart, frac = divmod(y, cell)
    return ipart, digits_by_divmod(frac, base, count)

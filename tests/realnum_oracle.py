"""Exact references for the real-number kernels.

`image_bracket` is the two-product reference for `realnum._image_bracket`:
one floor division gives the lower end of the image and its remainder,
and the upper end comes from the difference of the two images,
(hi - lo) den / (D_lo D_hi), which takes the remainder times the other
end's denominator and the product of both denominators.  It divides
with the builtin `divmod`, unless given another with its floor semantics,
and shares no code with `realnum`.
`e_terms_needed` is the doubling-and-bisecting loop that
`realnum._e_terms_needed` replaces with the one galloping search,
`realnum._first_true`.
"""

from __future__ import annotations

import math


def image_bracket(a: int, b: int, c: int, d: int, lo: int, hi: int, den: int, scale: int, divide=divmod):
    """Integers (out_lo, out_hi) with [out_lo, out_hi] / 2^scale the image of
    [lo, hi] / den (den > 0) under x -> (ax+b)/(cx+d), |ad - bc| = 1, rounded
    outward; None when cx + d vanishes on the bracket."""
    den_lo, den_hi = c * lo + d * den, c * hi + d * den
    if den_lo == 0 or den_hi == 0 or (den_lo < 0) != (den_hi < 0):
        return None
    num_lo = a * lo + b * den
    if a * d - b * c < 0:  # decreasing: the lower image end comes from hi
        num_lo, den_lo, den_hi = a * hi + b * den, den_hi, den_lo
    # the images differ by (hi - lo) den / (den_lo den_hi) > 0; floor
    # division floors the exact quotient whatever the sign of den_lo
    out_lo, rem = divide(num_lo << scale, den_lo)
    gap = rem * den_hi + ((hi - lo) * den << scale)
    return out_lo, out_lo - (-gap // (den_lo * den_hi))


def e_terms_needed(bits: int) -> int:
    """Smallest K with K! >= 2^(bits+1), located with lgamma: double an upper
    end until it passes, then bisect."""
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

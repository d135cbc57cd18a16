"""The big-integer kernels of `realnum` against the builtins they replace.

`_divmod` must equal the builtin `divmod` and `_sqrtrem(n)` must equal
(`math.isqrt(n)`, n - isqrt(n)^2), on every sign and at every size from
below the one size cut to about four times above it; the builtins are the
oracles.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords import realnum
from diowords.realnum import _BIGINT_CUT_BITS as CUT
from diowords.realnum import _divmod, _sqrtrem

# sizes in bits: around the cut, and anywhere up to about four times above it
sizes = st.one_of(
    st.sampled_from((0, 1, 2, CUT - 1, CUT, CUT + 1, CUT + 2, 2 * CUT, 4 * CUT)),
    st.integers(0, 4 * CUT + 64),
)


def _bits(rng: random.Random, n: int) -> int:
    """A random integer of exactly n bits."""
    return rng.getrandbits(n) | 1 << (n - 1) if n else 0


@st.composite
def division_cases(draw):
    """(a, b) with b != 0, of every sign: random operands, zero remainders,
    b = +-1, powers of two and |a| < |b|."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "exact", "unit", "power", "short")))
    b = _bits(rng, max(1, draw(sizes)))
    q = _bits(rng, draw(sizes))
    if kind == "random":
        a = q * b + rng.randrange(b)
    elif kind == "exact":
        a = q * b
    elif kind == "unit":
        a, b = q, 1
    elif kind == "power":
        a, b = 1 << q.bit_length() + b.bit_length(), 1 << b.bit_length()
    else:
        a = rng.randrange(b)
    return a * draw(st.sampled_from((1, -1))), b * draw(st.sampled_from((1, -1)))


@given(division_cases())
@example((-(7 << 3 * CUT) - 5, 3 << 2 * CUT))
@example((7 << 3 * CUT, -(3 << 2 * CUT) - 1))
@example((-(1 << 4 * CUT), -(1 << 2 * CUT)))
@settings(max_examples=250, deadline=None)
def test_divmod_matches_the_builtin(case):
    a, b = case
    assert _divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("a", [0, 5, -(1 << 4 * CUT) - 1], ids=["zero", "small", "big"])
def test_divmod_by_zero_raises_like_the_builtin(a):
    with pytest.raises(ZeroDivisionError):
        divmod(a, 0)
    with pytest.raises(ZeroDivisionError):
        _divmod(a, 0)


@st.composite
def radicands(draw):
    """n >= 0: 0, random integers, and k^2 and k^2 +- 1 around squares, with
    bit lengths of both parities."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = _bits(rng, draw(sizes))
    if draw(st.booleans()):
        n = max(0, math.isqrt(n) ** 2 + draw(st.sampled_from((-1, 0, 1))))
    return n


@given(radicands())
@example(0)
@example((1 << 2 * CUT) - 1)
@example((1 << 2 * CUT + 1) + 1)
@example(((1 << 2 * CUT) + 12345) ** 2 - 1)
@settings(max_examples=250, deadline=None)
def test_sqrtrem_matches_isqrt(n):
    s = math.isqrt(n)
    assert _sqrtrem(n) == (s, n - s * s)


@pytest.mark.parametrize("n", [-1, -(1 << 4 * CUT)], ids=["small", "big"])
def test_sqrtrem_of_a_negative_raises_like_isqrt(n):
    with pytest.raises(ValueError):
        math.isqrt(n)
    with pytest.raises(ValueError):
        _sqrtrem(n)


def test_the_cut_is_the_last_size_for_the_builtins(monkeypatch):
    # a divisor and quotient of exactly CUT bits, and a radicand of CUT bits,
    # go to the builtins; one bit more recurses
    splits = []
    monkeypatch.setattr(realnum, "_div2n1n", lambda a, b, n: splits.append(n) or divmod(a, b))
    # (bits of a, bits of b): the quotient has about the difference
    for a_bits, b_bits in ((2 * CUT, CUT), (2 * CUT + 1, CUT), (2 * CUT + 1, CUT + 1), (2 * CUT + 2, CUT + 1)):
        a, b = (1 << a_bits - 1) + 3, (1 << b_bits - 1) + 1
        assert _divmod(a, b) == divmod(a, b)
    assert splits == [CUT + 1]
    roots = []
    monkeypatch.setattr(realnum, "_divmod", lambda a, b: roots.append(b) or divmod(a, b))
    for n in ((1 << CUT - 1) + 3, (1 << CUT) + 3):
        s = math.isqrt(n)
        assert _sqrtrem(n) == (s, n - s * s)
    assert len(roots) == 1

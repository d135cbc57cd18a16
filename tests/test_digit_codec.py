"""The one digit codec of `realnum` and the process-wide state it leaves alone.

Digits are rendered by one divide-and-conquer splitter in every base that
is not a power of two; its base-10 leaves go through `str`, and
`_digits_to_int` reads digits back by the mirror splitting, whose
base-10 leaves go through `int`.  Powers of two are cut from the binary
text, base 256 comes from `int.to_bytes`.  Digits are `bytes` in bases up
to 256 and a tuple above.  The digests below were recorded with the base-10 path
that rendered the whole scaled integer with `str`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords.realnum import (
    DEFAULT_MAX_BITS,
    Mobius,
    PrecisionBudgetError,
    SeriesE,
    Surd,
    _agreed_prefix,
    _digits_to_int,
    _int_to_base_digits,
    decimal_text,
    digits,
)

from digit_oracle import digits_by_divmod, surd_digits
from test_cli import readme_examples, run_cli

SRC = Path(__file__).resolve().parent.parent / "src"

DIGESTS_1E5 = {
    "e": "2a12ed4a000479d4e75190a920ed1ca60a2e39ff3be55006871bd08e2a7abac0",
    "surd:0,1,2": "82f3791eef65215b7ced19d3f42e7c53fdb41f29ae190006e74291b55a72177e",
}


@pytest.mark.parametrize("name, spec", [("e", SeriesE()), ("surd:0,1,2", Surd(0, 1, 2))])
def test_base10_digits_1e5_digest(name, spec):
    text = digits(spec, 10, 10**5).as_text()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS_1E5[name]


@st.composite
def padded_ints(draw):
    """(x, base, width) with x < base^width, often with leading zeros."""
    base = draw(st.one_of(st.integers(2, 40), st.sampled_from((64, 128, 256, 257))))
    width = draw(st.one_of(st.integers(0, 40), st.integers(600, 700), st.integers(0, 2000)))
    top = draw(st.integers(0, width))
    x = draw(st.integers(0, base**top - 1)) if top else 0
    return x, base, width


@given(padded_ints())
@settings(max_examples=300, deadline=None)
def test_digit_round_trip(case):
    x, base, width = case
    ds = _int_to_base_digits(x, base, width)
    assert len(ds) == width and all(0 <= d < base for d in ds)
    assert _digits_to_int(ds, base) == x


@pytest.mark.parametrize("base", [2**k for k in range(1, 11)])
@given(
    width=st.one_of(st.integers(0, 40), st.integers(0, 2000)),
    zeros=st.integers(0, 2000),
    seed=st.integers(0, 2**32),
)
@example(width=0, zeros=0, seed=0)
@example(width=50, zeros=50, seed=0)
@settings(max_examples=40, deadline=None)
def test_power_of_two_bases_match_divmod(base, width, zeros, seed):
    # x has at least `zeros` leading zero digits
    x = random.Random(seed).randrange(base ** (width - min(zeros, width)))
    ds = _int_to_base_digits(x, base, width)
    assert type(ds) is (bytes if base <= 256 else tuple)
    assert list(ds) == digits_by_divmod(x, base, width)
    assert _digits_to_int(ds, base) == x


def digits_to_int_horner(ds, base):
    """One multiply-add per digit: the quadratic loop `_digits_to_int` replaced."""
    value = 0
    for d in ds:
        value = value * base + d
    return value


@st.composite
def digit_sequences(draw):
    """(digits, base): up to 10^5 digits, often with leading zeros, and widths
    at the leaf sizes of the codec (32 digits, 640 in base 10) and one past."""
    base = draw(st.sampled_from((2, 3, 7, 10, 16, 36, 64, 128, 256, 1000)))
    width = draw(st.one_of(
        st.sampled_from((0, 1, 32, 33, 64, 65, 640, 641, 1280, 1281)),
        st.integers(0, 2000),
        st.integers(2 * 10**4, 10**5),
    ))
    rng = random.Random(draw(st.integers(0, 2**32)))
    zeros = draw(st.integers(0, width))
    return (0,) * zeros + tuple(rng.randrange(base) for _ in range(width - zeros)), base


@given(digit_sequences(), st.sampled_from((tuple, bytes, iter)))
@example(((7,), 10), tuple)
@example(((9,) * 640 + (1,), 10), iter)
@settings(max_examples=80, deadline=None)
def test_digits_to_int_round_trip(case, kind):
    ds, base = case
    if kind is bytes and base > 256:
        kind = tuple
    x = _digits_to_int(kind(ds), base)
    assert 0 <= x < base ** len(ds)
    assert _int_to_base_digits(x, base, len(ds)) == (bytes(ds) if base <= 256 else ds)
    if len(ds) <= 3000:
        assert x == digits_to_int_horner(ds, base)


@given(st.one_of(st.integers(-(10**700), 10**700), st.integers(-(10**6000), 10**6000)))
@settings(max_examples=200, deadline=None)
def test_decimal_text_round_trip(x):
    # past 4300 digits `str` refuses under the default limit and the codec renders
    text = decimal_text(x)
    digits_only = text.removeprefix("-")
    assert text.startswith("-") == (x < 0)
    assert digits_only == "0" or not digits_only.startswith("0")
    assert _digits_to_int(map(int, digits_only), 10) == abs(x)


@st.composite
def irrational_surds(draw):
    """(p, q, d): (p + sqrt(d)) / q with d not a perfect square."""
    d = draw(st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d))
    return draw(st.integers(-1000, 1000)), draw(st.integers(-50, 50).filter(bool)), d


@given(
    irrational_surds(),
    st.sampled_from((2, 3, 10, 256, 257)),
    st.one_of(st.integers(0, 40), st.integers(0, 3000)),
    st.one_of(st.just(DEFAULT_MAX_BITS), st.integers(64, 4000)),
)
@example((0, 1, 2), 10, 641, DEFAULT_MAX_BITS)
@example((-3, -7, 101), 257, 1000, DEFAULT_MAX_BITS)
# production sizes, where the root and the digit splits run the recursions
@example((0, 1, 2), 10, 2 * 10**4, DEFAULT_MAX_BITS)
@example((-3, -7, 101), 3, 3 * 10**4, DEFAULT_MAX_BITS)
@example((5, 3, 7), 2, 5 * 10**4, DEFAULT_MAX_BITS)
@settings(max_examples=100, deadline=None)
def test_surd_digits_match_the_isqrt_oracle(surd, base, count, max_bits):
    # bases 3, 10 and 257 take the one-product path, 2 and 256 the shift; a
    # budget that runs out leaves a prefix of the digits, decided by the
    # enclosure's two ends
    stream = digits(Surd(*surd), base, count, max_bits=max_bits)
    ipart, ds = surd_digits(*surd, base, count)
    assert stream.integer_part == ipart
    assert stream.complete or max_bits < DEFAULT_MAX_BITS
    assert type(stream.fractional_digits) is (bytes if base <= 256 else tuple)
    assert list(stream.fractional_digits) == ds[: stream.certified]


@st.composite
def unimodular(draw):
    """(a, b, c, d) with ad - bc = +-1: a product of shears [[1, k], [0, 1]]
    and of the swap [[0, 1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1
    for k, swap in draw(st.lists(st.tuples(st.integers(-9, 9), st.booleans()), max_size=5)):
        a, b, c, d = (c, d, a, b) if swap else (a + k * c, b + k * d, c, d)
    return a, b, c, d


@given(
    unimodular(),
    irrational_surds(),
    st.sampled_from((2, 3, 10)),
    st.one_of(st.integers(0, 40), st.integers(0, 3000)),
    st.one_of(st.just(DEFAULT_MAX_BITS), st.integers(64, 4000)),
)
@example((1, 1, 1, 2), (0, 1, 3), 10, 2 * 10**4, DEFAULT_MAX_BITS)
@settings(max_examples=60, deadline=None)
def test_surd_image_digits_match_the_isqrt_oracle(matrix, surd, base, count, max_bits):
    # the image of x = (p + sqrt r)/q is (A + a sqrt r)/(C + c sqrt r), with
    # A = ap + bq and C = cp + dq; times C - c sqrt r it is
    # (N + M sqrt r)/D with M = (ad - bc) q, D = C^2 - c^2 r, never 0
    a, b, c, d = matrix
    p, q, r = surd
    big_a, big_c = a * p + b * q, c * p + d * q
    n, m, den = big_a * big_c - a * c * r, (a * d - b * c) * q, big_c * big_c - c * c * r
    sign = 1 if m > 0 else -1
    stream = digits(Mobius(a, b, c, d, Surd(p, q, r)), base, count, max_bits=max_bits)
    ipart, ds = surd_digits(sign * n, sign * den, m * m * r, base, count)
    assert stream.integer_part == ipart
    assert stream.complete or max_bits < DEFAULT_MAX_BITS
    assert list(stream.fractional_digits) == ds[: stream.certified]


def agreed_prefix_per_digit(y_lo, y_hi, base, count):
    """Drop one digit at a time until both ends agree."""
    k = count
    while k >= 0 and y_lo != y_hi:
        y_lo //= base
        y_hi //= base
        k -= 1
    if k < 0:
        raise PrecisionBudgetError("integer part not certifiable within budget")
    return k, y_lo


@st.composite
def scaled_ends(draw):
    """(lo, hi, s, base, count): brackets [lo, hi] / 2^s with random ends,
    and with ends around a carry chain such as ...0999 / ...1000 at count
    digits."""
    base = draw(st.sampled_from((2, 3, 10, 16, 36, 257)))
    count = draw(st.integers(0, 80))
    cell = base**count
    # at this scale every digit cell holds a dyadic end
    s = cell.bit_length() + draw(st.integers(0, 40))
    top = base ** (count + 2)
    if draw(st.booleans()):
        y_lo = draw(st.integers(-top, top))
        y_hi = y_lo + draw(st.one_of(st.integers(0, 10), st.integers(0, 2 * top)))
    else:
        # c * base^j sits on a carry: below it every low digit is base - 1
        j = draw(st.integers(0, count + 1))
        c = draw(st.integers(-top, top)) * base**j
        y_lo = c - draw(st.integers(1, base**j))
        y_hi = c + draw(st.integers(0, base**j))
    # the least dyadic ends in the digit cells [y, y + 1) / base^count
    lo, hi = (-(-(y << s) // cell) for y in (y_lo, y_hi))
    return lo, hi, s, base, count


@given(scaled_ends())
@settings(max_examples=500, deadline=None)
def test_agreed_prefix_matches_per_digit_loop(case):
    lo, hi, s, base, count = case
    cell = base**count
    try:
        want = agreed_prefix_per_digit((lo * cell) >> s, (hi * cell) >> s, base, count)
    except PrecisionBudgetError:
        with pytest.raises(PrecisionBudgetError):
            _agreed_prefix(*case)
    else:
        assert _agreed_prefix(*case) == want


def test_partial_stream_of_1e5_digits():
    # one division drops the digits the two ends cannot share, where a
    # division per digit took seconds
    stream = digits(SeriesE(), 10, 10**5, max_bits=1000)
    assert stream.certified == 301
    assert stream.fractional_digits == digits(SeriesE(), 10, 301).fractional_digits


def _python(code: str, *args: str, limit: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


RUN_ARGVS = """
import contextlib, io, json, sys
from diowords.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    runs.append((code, out.getvalue(), sys.get_int_max_str_digits()))
print(json.dumps(runs))
"""


def _fresh_runs(argvs: list[list[str]], limit: str | None = None) -> list[tuple[int, str, int]]:
    """(exit code, stdout, digit limit after the call) of each argv, run one
    after another through `cli.main` in a fresh interpreter."""
    done = _python(RUN_ARGVS, json.dumps(argvs), limit=limit)
    assert done.returncode == 0, done.stderr
    return [tuple(run) for run in json.loads(done.stdout)]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_readme_examples_leave_the_digit_limit_alone(capsys):
    # a fresh interpreter: earlier tests in this one may have changed the limit
    examples = [a for a in readme_examples() if "verify" not in a]
    want = []
    for argv in examples:
        code, out, _ = run_cli(capsys, *argv)
        want.append((code, out, 4300))
    assert _fresh_runs(examples) == want


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("limit", ["0", "640"])
def test_outputs_under_any_digit_limit(capsys, limit):
    # 640 and 1280 digits render as leaves of exactly 640, 700 as one split;
    # the approximant's q = 10^4420 - 1 has more digits than `str` gives by default
    argvs = [["digits", "rat:1/3", "--base", "10", "--count", "4"]]
    argvs += [["digits", "e", "--base", "10", "--count", n] for n in ("640", "700", "1280", "5000")]
    argvs += [["approximant", "rat:1/4421", "--base", "10", "--prefix", "15000"]]
    want = []
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        want.append((code, out, int(limit)))
    assert all(code == 0 for code, _, _ in want)
    assert _fresh_runs(argvs, limit) == want


HUGE_INTEGERS = """
import json
from diowords.contfrac import cf_from_enclosure
from diowords.realnum import Rational, digits, enclosure
x = Rational(10**5000, 3)
print(json.dumps([
    digits(x, 10, 4).as_text(),
    digits(Rational(-x.p, x.q), 10, 4).as_text(),
    cf_from_enclosure(enclosure(x), 3).to_json_dict()["quotients"],
]))
"""


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("limit", [None, "0", "640"])
def test_huge_integer_parts_under_any_digit_limit(limit):
    # command-line input is itself held to the limit, so these integers of
    # 5000 digits only arise through the library
    done = _python(HUGE_INTEGERS, limit=limit)
    assert done.returncode == 0, done.stderr
    threes = "3" * 5000
    assert json.loads(done.stdout) == [
        f"{threes}.3333 certified:4",
        f"-{threes[:-1]}4+0.6666 certified:4",
        [threes, "3"],
    ]

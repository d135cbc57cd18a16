"""The one text grammar (numbers, slopes, morphisms, intercepts "P/Q" or
"P", digit words, word sources, integer options) and the data types it
produces, which `realnum` and `sturmian` import from here.  One integer
reader, `read_int`, takes an optional '-' and ASCII digits, nothing else,
and one decimal reader, `read_decimal`, those followed by an optional '.'
and ASCII digits.
Every error is a `SpecSyntaxError` naming the position of the failing field
from the start of the whole argument, also for a value a data type refuses.
Checks that need arithmetic stay with it: a slope's range in `sturmian`.
"""

from __future__ import annotations

import argparse
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .words import CHARS_TO_DIGITS, Word

_INT = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_NOT_DIGIT = re.compile(r"[^0-9]")


class SpecSyntaxError(ValueError, argparse.ArgumentTypeError):
    """A grammar error at a field's position; argparse prints it for a bad option value."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


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

# a finite quotient tuple is a rational slope: it parses, and every consumer rejects it
SlopeSpec = Union[Surd, FromCF]

PRESET_SLOPES: dict[str, FromCF] = {
    # [0; 1, 10, 100, 1000, ...]: an extreme unbounded-quotient slope
    "pow10": FromCF(lambda i: 10 ** (i - 1) if i else 0),
}


@dataclass(frozen=True)
class Morphism:
    """Nonerasing morphism from {0,1}* into a target alphabet."""

    image0: Word
    image1: Word

    def __post_init__(self) -> None:
        if len(self.image0) == 0 or len(self.image1) == 0:
            raise ValueError("morphism must be nonerasing")


@dataclass(frozen=True)
class QuasiSturmianSpec:
    """A word of the shape W phi(s) for a Sturmian s."""

    prefix: Word
    morphism: Morphism
    slope: SlopeSpec
    intercept: Fraction = Fraction(0)


def read_int(text: str, at: int = 0, what: str = "integer", least: int | None = None) -> int:
    """The integer field `text`, a `what` that starts at position `at`: an
    optional '-' and ASCII digits, and at least `least` when that is given."""
    try:
        value = int(text) if _INT.fullmatch(text) else None
    except ValueError:  # longer than the interpreter's limit on integer strings
        value = None
    if value is None:
        raise SpecSyntaxError(f"bad {what} {text!r}: expected an optional '-' and ASCII digits", at)
    if least is not None and value < least:
        raise SpecSyntaxError(f"{what} must be >= {least}, got {value}", at)
    return value


def read_decimal(text: str, at: int = 0) -> float:
    """The decimal field `text`, which starts at position `at`: an optional
    '-' and ASCII digits, then optionally '.' and ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise SpecSyntaxError(f"bad decimal {text!r}: expected an optional '-', ASCII digits and "
                              "an optional '.' with ASCII digits", at)
    value = float(text)
    if not math.isfinite(value):
        raise SpecSyntaxError(f"decimal {text!r} is out of range", at)
    return value


def _split(text: str, sep: str, at: int):
    """The `sep`-separated fields of `text`, which starts at `at`, with their positions."""
    for field in text.split(sep):
        yield field, at
        at += len(field) + 1


def _ints(body: str, at: int, what: str = "integer", least: int | None = None) -> tuple[int, ...]:
    """The comma-separated integers of `body`, which starts at `at`."""
    return tuple(read_int(field, i, what, least) for field, i in _split(body, ",", at))


def _ratio(text: str, at: int, what: str) -> tuple[int, int]:
    """The integers P, Q of "P/Q", or P, 1 of "P"."""
    p, slash, q = text.partition("/")
    return read_int(p, at, what), read_int(q, at + len(p) + 1, what) if slash else 1


def _make(kind: type, at: int, *args):
    """`kind(*args)`, with a value the type refuses placed at position `at`."""
    try:
        return kind(*args)
    except ValueError as exc:
        raise SpecSyntaxError(str(exc), at) from None


def read_intercept(text: str, at: int = 0) -> Fraction:
    """An exact intercept, "P/Q" or "P"."""
    p, q = _ratio(text, at, "intercept")
    if q == 0:
        raise SpecSyntaxError("intercept has a zero denominator", at + text.index("/") + 1)
    return Fraction(p, q)


def digit_word(text: str, at: int = 0) -> Word:
    """The word of ASCII digits such as "0100101", over the smallest alphabet (>= 2) holding it."""
    bad = _NOT_DIGIT.search(text)
    if bad:
        raise SpecSyntaxError(f"a digit word takes the digits 0-9, not {bad[0]!r}", at + bad.start())
    letters = text.encode("ascii").translate(CHARS_TO_DIGITS)
    return Word(letters, max(2, max(letters, default=1) + 1))


def _fields(text: str, start: int, counts: tuple[int, ...], form: str) -> list[tuple[str, int]]:
    """The '|' fields, with their positions, of a word source after its kind, `text[:start]`."""
    fields = list(_split(text[start:], "|", start))
    if len(fields) not in counts:
        extra = fields[max(counts)][1] if len(fields) > max(counts) else len(text)
        raise SpecSyntaxError(f"{text[: start - 1]} source needs {form}: {text!r}", extra)
    return fields


def parse_real_spec(text: str, offset: int = 0) -> RealSpec:
    """The number spec `text`, which starts at position `offset`: "rat:P/Q" | "rat:P" | "e" |
    "shallit" | "surd:P,Q,D" | "cf:@file.json" | "cf:a0,a1,..." | "mobius:a,b,c,d:(inner)"."""
    if text == "e":
        return SeriesE()
    if text == "shallit":
        return SeriesShallit()
    if text.startswith("rat:"):
        return _make(Rational, offset + 4, *_ratio(text[4:], offset + 4, "rational"))
    if text.startswith("surd:"):
        return _surd(text[5:], offset + 5)
    if text.startswith("cf:@"):
        path, at = text[4:], offset + 4
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecSyntaxError(f"cannot load quotients from {path!r}: {exc}", at) from None
        if not isinstance(raw, list):
            raise SpecSyntaxError(f"quotients in {path!r} must be a JSON array", at)
        # a JSON integer is read as its own text, so 1.0, true and null are refused
        quotients = (read_int(a if isinstance(a, str) else json.dumps(a), at, "quotient") for a in raw)
        return _make(FromCF, at, tuple(quotients))
    if text.startswith("cf:"):
        return _make(FromCF, offset + 3, _ints(text[3:], offset + 3, "quotient"))
    if text.startswith("mobius:"):
        body, at = text[7:], offset + 7
        sep = body.find(":(")
        if sep < 0 or not body.endswith(")"):
            raise SpecSyntaxError("mobius needs a,b,c,d:(inner)", at)
        if body[:sep].count(",") != 3:
            raise SpecSyntaxError("mobius needs four integers", at)
        matrix = _ints(body[:sep], at)
        return _make(Mobius, at, *matrix, parse_real_spec(body[sep + 2 : -1], at + sep + 2))
    raise SpecSyntaxError(f"unknown real spec {text!r}", offset)


def _surd(body: str, at: int) -> Surd:
    """The surd of "P,Q,D", the body of a "surd:" spec or slope."""
    if body.count(",") != 2:
        raise SpecSyntaxError("surd needs P,Q,D", at)
    return _make(Surd, at, *_ints(body, at))


def parse_slope(text: str, at: int = 0) -> SlopeSpec:
    """The slope "surd:P,Q,D", "cfslope:m1,m2,..." with an optional
    periodic tail "(c1,c2,...)*", or a preset such as "cfslope:pow10"."""
    if text.startswith("surd:"):
        return _surd(text[5:], at + 5)
    if not text.startswith("cfslope:"):
        raise SpecSyntaxError(f"unknown slope spec {text!r}", at)
    body, at = text[8:], at + 8
    if body in PRESET_SLOPES:
        return PRESET_SLOPES[body]
    head_txt, cycle_txt, i = body, "", 0
    if "(" in body:
        i = body.index("(")
        if not body.endswith(")*"):
            raise SpecSyntaxError("periodic tail must end with ')*'", at + i)
        if i and body[i - 1] != ",":
            raise SpecSyntaxError("periodic tail must follow a comma", at + i)
        head_txt, cycle_txt = body[: max(i - 1, 0)], body[i + 1 : -2]
    head = _ints(head_txt, at, "quotient", 1) if head_txt else ()
    cycle = _ints(cycle_txt, at + i + 1, "quotient", 1) if cycle_txt else ()
    if not head and not cycle:
        raise SpecSyntaxError("empty quotient list", at)
    full = (0, *head)
    if not cycle:
        return FromCF(full)
    return FromCF(lambda n: full[n] if n < len(full) else cycle[(n - len(full)) % len(cycle)])


def parse_morphism(text: str, at: int = 0) -> Morphism:
    """The "0>01;1>001" rule syntax, one rule for each letter of {0, 1}."""
    rules: dict[str, Word] = {}
    for chunk, i in _split(text, ";", at):
        left, arrow, right = chunk.partition(">")
        if not arrow:
            raise SpecSyntaxError(f"morphism rule needs '>': {chunk!r}", i)
        if left not in ("0", "1"):
            raise SpecSyntaxError(f"morphism domain letter must be 0 or 1: {chunk!r}", i)
        if left in rules:
            raise SpecSyntaxError(f"morphism rule for letter {left} is given twice: {chunk!r}", i)
        rules[left] = digit_word(right, i + 2)
    if len(rules) != 2:
        raise SpecSyntaxError("morphism must define images for both 0 and 1", at)
    return _make(Morphism, at, rules["0"], rules["1"])


def quasi_spec(word: tuple[str, int], morphism: tuple[str, int], slope: tuple[str, int],
               intercept: tuple[str, int] = ("0", 0)) -> QuasiSturmianSpec:
    """W phi(s) of `quasi` and "quasi:W|MORPHISM|SLOPE[|INTERCEPT]", from (text, position) pairs."""
    text, at = morphism
    phi = parse_morphism(text, at)
    # commuting images are powers of one word, so phi(s) is periodic
    if phi.image0.symbols + phi.image1.symbols == phi.image1.symbols + phi.image0.symbols:
        raise SpecSyntaxError(f"morphism {text!r} has commuting images, so phi(s) is periodic", at)
    return QuasiSturmianSpec(digit_word(*word), phi, parse_slope(*slope), read_intercept(*intercept))


def digits_source(text: str) -> tuple[RealSpec, int]:
    (spec, i), (base, j) = _fields(text, 7, (2,), "SPEC|BASE")
    return parse_real_spec(spec, i), read_int(base, j, "base")


def sturmian_source(text: str) -> tuple[SlopeSpec, Fraction]:
    (slope, i), *intercept = _fields(text, 9, (1, 2), "SLOPE[|INTERCEPT]")
    return parse_slope(slope, i), read_intercept(*intercept[0]) if intercept else Fraction(0)


def quasi_source(text: str) -> QuasiSturmianSpec:
    return quasi_spec(*_fields(text, 6, (3, 4), "W|MORPHISM|SLOPE[|INTERCEPT]"))

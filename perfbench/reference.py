"""Exact reference arithmetic for checking diowords output.

Nothing here imports diowords.  A real number is a small value object
that renders to the CLI spec grammar and yields integer brackets
lo = ln/ld <= x <= hi = hn/hd of any requested width; a floor or a
continued-fraction quotient is accepted only when both ends of the
bracket agree, and the bracket is tightened until they do.  Sturmian
slopes yield fixed-point brackets A_lo <= alpha * 2^K <= A_hi, and a
letter is accepted only when both brackets give the same floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

Bracket = tuple[int, int, int, int]  # (ln, ld, hn, hd), ld > 0, hd > 0

_MAX_BITS = 1 << 22


class Ambiguous(ArithmeticError):
    """The bracket was too wide to certify a floor; retry with more bits."""


# ---------------------------------------------------------------------------
# real numbers


@dataclass(frozen=True)
class Rat:
    p: int
    q: int

    @property
    def text(self) -> str:
        return f"rat:{self.p}/{self.q}"

    def bracket(self, bits: int) -> Bracket:
        return self.p, self.q, self.p, self.q


@dataclass(frozen=True)
class E:
    text = "e"

    def bracket(self, bits: int) -> Bracket:
        # 1 + sum_{k=1..K} 1/k! = (Q + P)/Q with Q = K!, tail below 2/(K+1)!
        k, log2_fact = 0, 0.0
        while log2_fact < bits + 2:
            k += 1
            log2_fact += math.log2(k + 1)
        p, q = _e_split(0, k)
        lo = p + q
        return lo, q, lo * (k + 1) + 2, q * (k + 1)


def _e_split(a: int, b: int) -> tuple[int, int]:
    """Binary splitting: sum_{j=a+1..b} 1/((a+1)...j) = P/Q, Q = (a+1)...b."""
    if b - a == 1:
        return 1, b
    m = (a + b) // 2
    p1, q1 = _e_split(a, m)
    p2, q2 = _e_split(m, b)
    return p1 * q2 + p2, q1 * q2


@dataclass(frozen=True)
class Shallit:
    text = "shallit"

    def bracket(self, bits: int) -> Bracket:
        # sum_{n<=k} 2^(-2^n) over 2^(2^k); the tail is below 2 * 2^(-2^(k+1))
        k = 0
        while (1 << (k + 1)) < bits + 2:
            k += 1
        top = 1 << k
        total = sum(1 << (top - (1 << n)) for n in range(k + 1))
        den = 1 << (2 * top)
        lo = total << top
        return lo, den, lo + 2, den


@dataclass(frozen=True)
class Surd:
    """(p + sqrt(d)) / q with q > 0 and d not a perfect square."""

    p: int
    q: int
    d: int

    @property
    def text(self) -> str:
        return f"surd:{self.p},{self.q},{self.d}"

    def bracket(self, bits: int) -> Bracket:
        s = 1 << bits
        t = math.isqrt(self.d * s * s)
        den = self.q * s
        return self.p * s + t, den, self.p * s + t + 1, den


@dataclass(frozen=True)
class Mob:
    """(a x + b) / (c x + d) for nonnegative a..d with |ad - bc| = 1 and x > 0."""

    a: int
    b: int
    c: int
    d: int
    inner: Rat | E | Shallit | Surd

    @property
    def text(self) -> str:
        return f"mobius:{self.a},{self.b},{self.c},{self.d}:({self.inner.text})"

    def bracket(self, bits: int) -> Bracket:
        # monotone on x > 0, where the denominator stays positive
        ln, ld, hn, hd = self.inner.bracket(bits + 64)
        x = (self.a * ln + self.b * ld, self.c * ln + self.d * ld)
        y = (self.a * hn + self.b * hd, self.c * hn + self.d * hd)
        if x[0] * y[1] <= y[0] * x[1]:
            return x[0], x[1], y[0], y[1]
        return y[0], y[1], x[0], x[1]


Real = Rat | E | Shallit | Surd | Mob


def floor_scaled(x: Real, scale: int) -> int:
    """Exact floor(x * scale)."""
    bits = scale.bit_length() + 64
    while bits <= _MAX_BITS:
        ln, ld, hn, hd = x.bracket(bits)
        lo, hi = ln * scale // ld, hn * scale // hd
        if lo == hi:
            return lo
        bits *= 2
    raise Ambiguous(f"floor of {x.text} not certified")


def fractional_digits(x: Real, base: int, count: int) -> tuple[int, str]:
    """Integer part and the first `count` fractional digits, as a digit string."""
    if base not in (2, 10):
        raise ValueError("reference digits cover bases 2 and 10")
    if isinstance(x, Shallit) and base == 2:
        # digit j (1-based) is 1 exactly when j is a power of two
        chars = ["0"] * count
        j = 1
        while j <= count:
            chars[j - 1] = "1"
            j *= 2
        return 0, "".join(chars)
    scale = base**count
    ipart, frac = divmod(floor_scaled(x, scale), scale)
    if base == 2:
        return ipart, format(frac, "b").zfill(count) if count else ""
    limit = sys.get_int_max_str_digits()
    if limit and count + 16 > limit:
        sys.set_int_max_str_digits(count + 16)
    return ipart, str(frac).zfill(count) if count else ""


_DIGIT_TABLE = bytes.maketrans(b"0123456789", bytes(range(10)))


def digit_word(digit_text: str) -> bytes:
    """A digit string as letters 0..9."""
    return digit_text.encode().translate(_DIGIT_TABLE)


def cf_quotients(x: Real, terms: int) -> list[int]:
    """The first `terms` continued-fraction quotients of an irrational x."""
    bits = 4 * terms + 64
    while bits <= _MAX_BITS:
        ln, ld, hn, hd = x.bracket(bits)
        out: list[int] = []
        while len(out) < terms and ld and hd:
            a, b = ln // ld, hn // hd
            if a != b:
                break
            out.append(a)
            ln, ld, hn, hd = hd, hn - b * hd, ld, ln - a * ld
        if len(out) == terms:
            return out
        bits *= 2
    raise Ambiguous(f"{terms} quotients of {x.text} not certified")


def convergent_denominators(quotients: list[int]) -> list[int]:
    out, q_prev, q_cur = [], 0, 1
    for i, a in enumerate(quotients):
        if i:
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(q_cur)
    return out


def mu_lines(quotients: list[int], n_min: int) -> tuple[list[str], float, float, int]:
    """The `mu` command's value lines, global maximum, tail maximum, tail start."""
    qs = convergent_denominators(quotients)
    values = [
        (n, 2.0 + math.log(quotients[n + 1]) / math.log(qs[n]))
        for n in range(n_min, len(quotients) - 1)
    ]
    tail_start = values[len(values) // 2][0]
    lines = [f"{n} {v:.6f}" for n, v in values]
    return lines, max(v for _, v in values), max(v for n, v in values if n >= tail_start), tail_start


# ---------------------------------------------------------------------------
# Sturmian slopes and words


@dataclass(frozen=True)
class SurdSlope:
    """(p + sqrt(d)) / q in (0, 1), q > 0."""

    p: int
    q: int
    d: int

    @property
    def text(self) -> str:
        return f"surd:{self.p},{self.q},{self.d}"

    def fixed(self, k: int) -> tuple[int, int]:
        a = (self.p * (1 << k) + math.isqrt(self.d << (2 * k))) // self.q
        return a, a + 1


@dataclass(frozen=True)
class CFSlope:
    """[0; head, (cycle)*], or the preset [0; 1, 10, 100, ...] when pow10."""

    head: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()
    pow10: bool = False

    @property
    def text(self) -> str:
        if self.pow10:
            return "cfslope:pow10"
        head = ",".join(map(str, self.head))
        cycle = ",".join(map(str, self.cycle))
        return f"cfslope:{head}{',' if head else ''}({cycle})*"

    def quotient(self, i: int) -> int:
        if self.pow10:
            return 10 ** (i - 1)
        if i <= len(self.head):
            return self.head[i - 1]
        return self.cycle[(i - len(self.head) - 1) % len(self.cycle)]

    def fixed(self, k: int) -> tuple[int, int]:
        # consecutive convergents straddle the slope; stop once q_i q_{i-1} > 2^k
        p_prev, q_prev, p_cur, q_cur, i = 1, 0, 0, 1, 0
        while q_cur * q_prev <= 1 << k:
            i += 1
            m = self.quotient(i)
            p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, m * p_cur + p_prev, m * q_cur + q_prev
        lo, hi = sorted((Fraction(p_prev, q_prev), Fraction(p_cur, q_cur)))
        return (lo.numerator << k) // lo.denominator, -((-hi.numerator << k) // hi.denominator)


Slope = SurdSlope | CFSlope


def sturmian_word(slope: Slope, rho: Fraction, length: int) -> bytes:
    """s(n) = floor((n+1) alpha + rho) - floor(n alpha + rho) for n = 1..length."""
    k = length.bit_length() + 64
    while k <= 4096:
        try:
            return _sturmian_fixed(slope, rho, length, k)
        except Ambiguous:
            k *= 2
    raise Ambiguous(f"letters of {slope.text} not certified")


def _sturmian_fixed(slope: Slope, rho: Fraction, length: int, k: int) -> bytes:
    a_lo, a_hi = slope.fixed(k)
    r_lo = (rho.numerator << k) // rho.denominator
    x_lo, x_hi = a_lo + r_lo, a_hi + r_lo + 1
    prev = x_lo >> k
    if prev != x_hi >> k:
        raise Ambiguous
    out = bytearray(length)
    for i in range(length):
        x_lo += a_lo
        x_hi += a_hi
        f = x_lo >> k
        if f != x_hi >> k:
            raise Ambiguous
        out[i] = f - prev
        prev = f
    return bytes(out)


def quasi_word(prefix: bytes, image0: bytes, image1: bytes, slope: Slope,
               rho: Fraction, length: int) -> bytes:
    """First `length` letters of W phi(s)."""
    s = sturmian_word(slope, rho, length)
    images = (image0, image1)
    return (prefix + b"".join(images[c] for c in s))[:length]


# ---------------------------------------------------------------------------
# word statistics


def distinct_windows(data: bytes, n: int) -> int:
    """Number of distinct length-n factors, exact, in memory linear in |data|."""
    first: dict[int, int] = {}
    for i in range(len(data) - n + 1):
        window = data[i : i + n]
        j = first.setdefault(hash(window), i)
        if j != i and data[j : j + n] != window:
            return len({data[t : t + n] for t in range(len(data) - n + 1)})
    return len(first)


def is_witness(data: bytes, u: int, v: int, m: int) -> bool:
    """The length-m prefix factors as U V^w: a[i] == a[i+v] on [u, m-v)."""
    return 0 <= u and 1 <= v and u + v <= m <= len(data) and data[u : m - v] == data[u + v : m]


def int_of_digits(letters: bytes, base: int) -> int:
    value = 0
    for c in letters:
        value = value * base + c
    return value


def order_mod(base: int, p: int) -> int:
    """Period of the base-b expansion of 1/p, for p coprime to b."""
    k, x = 1, base % p
    while x != 1:
        x = x * base % p
        k += 1
    return k


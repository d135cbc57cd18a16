"""Continued fractions from enclosures: quotients and exponent estimates.

Quotients of an interval source are emitted only while both endpoints
share the same integer part at the current depth of the Gauss map, so
every emitted quotient is correct for the limit value.  On an exact
rational point both endpoints coincide and this is Euclid's algorithm,
whose final quotient >= 2 makes rational expansions round-trip.  Where
both divisors have _LEHMER_GATE_BITS bits or more, Euclid takes Lehmer
batches (D. H. Lehmer, Amer. Math. Monthly 45, 1938; Brent & Zimmermann,
Modern Computer Arithmetic, 2010, 1.6): the quotients of a small hull of
the pairs' top bits, whose 2x2 matrix advances both big pairs at once
and is certified by the pairs it leaves; below the gate each quotient is
one plain step.  The output is the plain Euclid's, quotient for
quotient.  A refined bracket nests in the last one, so its Euclid
resumes from the quotients already certified instead of restarting.
The same Euclid gives the quotients of a Sturmian surd slope
(`_surd_quotients`) from its exact brackets, without an `Enclosure`.
Convergents are a pure function of the quotients.  `mu_estimate` reads
only the denominators q_n, streamed from their recurrence and certified
against Euclid's matrix of the same quotients; the pairs (p_n, q_n) that
JSON `cf` prints are built and certified by `certified_convergents`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .realnum import (CertificateError, Enclosure, RealSpec, _exact, convergents, decimal_text,
                      surd_bracket)

# Euclid takes Lehmer batches from the top _LEHMER_KEEP_BITS bits of its
# pairs while both divisors have _LEHMER_GATE_BITS bits or more.  Below
# about 1000 bits a CPython divmod costs little more than a step on the
# hull, so the batches lose (`python tools/kernel_check.py euclid`)
_LEHMER_KEEP_BITS = 256
_LEHMER_GATE_BITS = 1024


@dataclass(frozen=True)
class CFExpansion:
    """Certified partial quotients of an enclosed value."""

    quotients: tuple[int, ...]
    rational: bool = False
    complete: bool = False
    budget_exhausted: bool = False

    @property
    def certified(self) -> int:
        return len(self.quotients)

    def to_json_dict(self) -> dict:
        return {
            "quotients": [decimal_text(a) for a in self.quotients],
            "certified": self.certified,
            "rational": self.rational,
            "complete": self.complete,
            "budget_exhausted": self.budget_exhausted,
        }


def convergents_from_quotients(quotients) -> tuple[tuple[int, int], ...]:
    """All convergents (p_n, q_n) of `certified_convergents`, in one tuple;
    every command streams them instead, so only tests and the span recorder call this."""
    return tuple(certified_convergents(quotients))


def certified_convergents(quotients) -> Iterator[tuple[int, int]]:
    """Convergents (p_n, q_n) from `realnum.convergents`, each certified in
    lowest terms, one at a time.

    Every pair must be the recurrence's link (p_n, q_n) = a_n (p_{n-1},
    q_{n-1}) + (p_{n-2}, q_{n-2}) from the checked pairs before it, with
    seeds p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0.  By induction the
    determinant d_n = p_n q_{n-1} - p_{n-1} q_n then obeys
    d_n = -d_{n-1} (substitute the link; the a_n terms cancel) from
    d_{-1} = 1, so d_n = (-1)^(n+1): any common factor of p_n and q_n
    divides it, and every convergent is in lowest terms without a gcd.
    A link costs two products by the quotient a_n, as the recurrence
    itself does, so a step is O(bits) for small quotients; the
    determinant would take two products of whole convergents.  The
    denominators are checked to increase from q_1 on, which the links
    give only for quotients a_n >= 1.  The check that there is one pair
    per quotient runs after the last pair is yielded.
    """
    quotients = tuple(quotients)
    count = 0
    p_2, q_2, p_1, q_1 = 0, 1, 1, 0
    for a, (_, _, p, q) in zip(quotients, convergents(quotients)):
        if count >= 2 and q <= q_1:
            raise CertificateError("convergent denominators must increase")
        if p != a * p_1 + p_2 or q != a * q_1 + q_2:
            raise CertificateError("convergent does not follow the recurrence")
        p_2, q_2, p_1, q_1 = p_1, q_1, p, q
        count += 1
        yield p, q
    if count != len(quotients):
        raise CertificateError("one convergent per quotient expected")


def cf_of_rational(x: Fraction) -> list[int]:
    """Euclid's expansion of x; its last quotient is >= 2 unless x is an integer."""
    # the remainders decrease strictly from the denominator, so there are
    # at most that many quotients
    return _interval_quotients(x.numerator, x.numerator, x.denominator, x.denominator)


def _interval_quotients(lo: int, hi: int, den: int, k_max: int, known: Sequence[int] = ()) -> list[int]:
    """At most k_max quotients shared by every number in [lo/den, hi/den] (den > 0).

    Euclid runs on the integer pairs (lo, den) and (hi, den) in lockstep;
    the Gauss map x -> 1/(x - a) reverses order, so the pairs swap roles
    after every step.  It stops where the two quotients differ or after a
    step with a zero remainder.  Where both values exceed 1 and both
    divisors have _LEHMER_GATE_BITS bits or more, a batch of quotients
    comes from the small hull of the pairs' top bits (`_hull_quotients`)
    and its matrix advances both pairs at once.  The batch is certified
    by its quotients being >= 1 and both new pairs satisfying n > d > 0:
    each complete quotient after the batch then exceeds 1, so by the
    uniqueness of continued fractions the batch is the expansion's.
    Otherwise a plain step runs.  `known`, the quotients of an enclosing
    interval, hold on this one, so the pairs start from their Euclid
    state after them, checked to be n > d >= 0.
    """
    out = list(known)
    n_lo, d_lo, n_hi, d_hi = lo, den, hi, den
    if out:
        n_lo, d_lo, n_hi, d_hi = _advance(out, n_lo, d_lo, n_hi, d_hi)
        if not (n_lo > d_lo >= 0 and n_hi > d_hi >= 0):
            raise CertificateError("the interval does not nest in the one its known quotients came from")
    gate = 1 << (_LEHMER_GATE_BITS - 1)
    while len(out) < k_max and d_lo and d_hi:
        if d_lo >= gate and d_hi >= gate and n_lo > d_lo:
            batch = _hull_quotients(n_lo, d_lo, n_hi, d_hi, k_max - len(out))
            if batch:
                n_lo, d_lo, n_hi, d_hi = _advance(batch, n_lo, d_lo, n_hi, d_hi)
                if min(batch) < 1 or not (n_lo > d_lo > 0 and n_hi > d_hi > 0):
                    raise CertificateError("a Lehmer batch is not the expansion's")
                out.extend(batch)
                continue
        a, r_lo = divmod(n_lo, d_lo)
        a_hi, r_hi = divmod(n_hi, d_hi)
        if a != a_hi:
            break
        out.append(a)
        n_lo, d_lo, n_hi, d_hi = d_hi, r_hi, d_lo, r_lo
    return out


def _hull_quotients(n_lo: int, d_lo: int, n_hi: int, d_hi: int, k: int) -> list[int]:
    """At most k quotients shared by n_lo/d_lo <= n_hi/d_hi (all positive),
    each with nonzero remainders, from Euclid on a small hull of both.

    With h low bits dropped, N = n >> h and D = d >> h, the corners
    N_lo/(D_lo + 1) <= n_lo/d_lo and (N_hi + 1)/D_hi >= n_hi/d_hi keep
    _LEHMER_KEEP_BITS bits; a quotient both corners share is shared by
    every number between them."""
    h = min(d_lo.bit_length(), d_hi.bit_length()) - _LEHMER_KEEP_BITS
    a_lo, b_lo, a_hi, b_hi = n_lo >> h, (d_lo >> h) + 1, (n_hi >> h) + 1, d_hi >> h
    out: list[int] = []
    while len(out) < k:
        a, r_lo = divmod(a_lo, b_lo)
        a_hi, r_hi = divmod(a_hi, b_hi)
        if a != a_hi or not r_lo or not r_hi:
            break
        out.append(a)
        a_lo, b_lo, a_hi, b_hi = b_hi, r_hi, b_lo, r_lo
    return out


def _advance(qs: Sequence[int], n_lo: int, d_lo: int, n_hi: int, d_hi: int) -> tuple[int, int, int, int]:
    """Both pairs after Euclid's steps by the quotients qs, swapped after
    an odd count: four big-by-small products a pair."""
    u, v, w, x = _euclid_matrix(qs)
    lo = (u * n_lo + v * d_lo, w * n_lo + x * d_lo)
    hi = (u * n_hi + v * d_hi, w * n_hi + x * d_hi)
    return (*hi, *lo) if len(qs) % 2 else (*lo, *hi)


def _euclid_matrix(qs: Sequence[int]) -> tuple[int, int, int, int]:
    """(u, v, w, x) taking a pair (n, d) to (u n + v d, w n + x d), its state
    after Euclid's steps (n, d) -> (d, n - a d) by the quotients qs; above
    32 quotients, the product of the two halves' matrices."""
    if len(qs) > 32:
        half = len(qs) // 2
        u, v, w, x = _euclid_matrix(qs[:half])
        e, f, g, h = _euclid_matrix(qs[half:])
        return e * u + f * w, e * v + f * x, g * u + h * w, g * v + h * x
    u, v, w, x = 1, 0, 0, 1
    for a in qs:
        u, v, w, x = w, x, u - a * w, v - a * x
    return u, v, w, x


def _surd_quotients(p: int, q: int, d: int) -> Iterator[int]:
    """The quotients a_0, a_1, ... of the irrational (p + sqrt(d))/q, each
    once and without end: Euclid on its exact brackets [lo, lo + 1] /
    (|q| 2^bits) at 64, 128, 256, ... bits, which nest, so each round
    resumes from the quotients of the last.  A round certifies at most
    `bits` quotients; any past the cap come in a later round."""
    qs: list[int] = []
    bits = 64
    while True:
        lo, hi, den, shift = surd_bracket(p, q, d, bits)
        done = len(qs)
        qs = _interval_quotients(lo, hi, den << shift, bits, qs)
        yield from qs[done:]
        bits *= 2


def _bits_for_terms(bits: int, got: int, want: int) -> int:
    """Precision predicted to certify `want` quotients, `got` of which
    `bits` certified: the bits per quotient so far, with a quarter to spare.

    Always above `bits`, so every refinement makes progress even when a
    tiny budget certified a quotient at 0 or a handful of bits."""
    return max(5 * bits * want // (4 * got), bits + 1)


def cf_from_enclosure(source: Enclosure, max_terms: int) -> CFExpansion:
    """Certified quotients of the value enclosed by a refinable source.

    Exact rational points get their expansion, complete when it has at
    most `max_terms` quotients; interval sources are refined until
    `max_terms` quotients are certified or the budget is exhausted, in
    which case the partial result is flagged rather than treated as an
    error.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    qs: list[int] = []
    while True:
        point = source.is_point()
        if point:
            lo, den = source.bounds()[0].as_integer_ratio()
            hi = lo
        else:
            lo, hi, scale = source.dyadic()
            den = 1 << scale
        # one quotient more than asked tells a point whether it is complete;
        # the quotients of the last bracket hold on this nested one
        qs = _interval_quotients(lo, hi, den, max_terms + 1, qs)
        exhausted = False
        if not point and len(qs) < max_terms:
            target = _bits_for_terms(source.bits, len(qs), max_terms) if qs else None
            if source.refine(target):
                continue
            exhausted = True
        return CFExpansion(
            tuple(qs[:max_terms]),
            rational=point,
            complete=point and len(qs) <= max_terms,
            budget_exhausted=exhausted,
        )


@dataclass(frozen=True)
class MuEstimate:
    """Per-depth irrationality-exponent terms 2 + log a_{n+1} / log q_n.

    The true exponent is the limsup of these terms; a finite truncation
    bounds it in neither direction, so both the running maximum and the
    maximum over the later half (less start-up noise) are reported.
    """

    n_min: int
    values: tuple[tuple[int, float], ...]
    tail_start: int

    @property
    def global_max(self) -> float:
        return max(v for _, v in self.values)

    @property
    def tail_max(self) -> float:
        return max(v for n, v in self.values if n >= self.tail_start)

    def to_json_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "tail_start": self.tail_start,
            "per_n": [{"n": n, "value": {"estimate": v}} for n, v in self.values],
            "global_max": {"estimate": self.global_max},
            "tail_max": {"estimate": self.tail_max},
        }


def _check_terms(n_min: int, terms: int, spec: RealSpec | None = None) -> None:
    """The exponent-term rule: n_min >= 2 (so q_n >= q_2 = a_1 a_2 + 1 >= 2) and n_min + 2
    quotients, before any quotient when given the spec; a rational may stop short."""
    if n_min < 2:
        raise ValueError("n_min must be >= 2")
    if terms < n_min + 2 and not _exact(spec):
        raise ValueError("too few certified terms")


def _cut_short(cf: CFExpansion, n_min: int) -> bool:
    """Whether the budget left too few quotients for an exponent term."""
    return cf.budget_exhausted and cf.certified < n_min + 2


def mu_estimate(cf: CFExpansion, n_min: int = 5) -> MuEstimate:
    """Exponent terms from exact a_{n+1} and q_n.

    q_n is streamed from its recurrence q_n = a_n q_{n-1} + q_{n-2}, with
    q_{-1} = 0 and q_0 = 1, over the N certified quotients: one big-by-small
    product a step, and no p_n.  Each q_n is checked before the term n - 1
    reads a_n: q_1 must not fall below q_0 and the denominators must
    increase from q_1 on, which fails on any quotient below 1 after a_0.
    The last pair (q_{N-2}, q_{N-1}) is then checked against
    `_euclid_matrix` of the same quotients, code independent of the loop
    (Euclid's steps, multiplied by halves): that matrix is the inverse of
    the convergent matrix [[p_{N-1}, p_{N-2}], [q_{N-1}, q_{N-2}]], whose
    determinant is (-1)^N, so its entries u and w are (-1)^N q_{N-2} and
    -(-1)^N q_{N-1}.  A step of the recurrence is invertible given its
    quotient, so the last pair pins every earlier one.  math.log on ints
    carries about 1 ulp of relative error (far below the 1e-12 budget the
    reported 6-decimal values need).
    """
    _check_terms(n_min, cf.certified)
    values = []
    q_prev, q = 0, 1  # q_{n-1} and q_n, from n = 0
    for n, a in enumerate(cf.quotients[1:], 1):
        q_prev, q = q, a * q + q_prev
        if q <= q_prev and (n >= 2 or q < q_prev):  # q_1 >= q_0, then q_n > q_{n-1}
            raise CertificateError("convergent denominators must increase")
        if n > n_min:
            values.append((n - 1, 2.0 + math.log(a) / math.log(q_prev)))
    u, _, w, _ = _euclid_matrix(cf.quotients)
    sign = -1 if cf.certified % 2 else 1
    if u != sign * q_prev or w != -sign * q:
        raise CertificateError("convergent denominators disagree with Euclid's matrix")
    tail_start = values[len(values) // 2][0]
    return MuEstimate(n_min=n_min, values=tuple(values), tail_start=tail_start)


def bounded_pq_check(cf: CFExpansion, window: int) -> int:
    """Largest partial quotient among the first `window` certified terms.

    Finite data cannot prove boundedness; this is informational only.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if cf.certified < window:
        raise ValueError("not enough certified terms")
    return max(cf.quotients[:window])

"""Continued fractions from enclosures: quotients and exponent estimates.

Quotients of an interval source are emitted only while both endpoints
share the same integer part at the current depth of the Gauss map, so
every emitted quotient is correct for the limit value.  On an exact
rational point both endpoints coincide and this is Euclid's algorithm,
whose final quotient >= 2 makes rational expansions round-trip.  The
same Euclid gives the quotients of a Sturmian surd slope
(`_surd_quotients`) from its exact bracket, without an `Enclosure`.
Convergents are a pure function of the quotients; they are built and
certified by `certified_convergents` where they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .realnum import (CertificateError, Enclosure, RealSpec, _exact, convergents, decimal_text,
                      surd_bracket)


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


def _interval_quotients(lo: int, hi: int, den: int, k_max: int) -> list[int]:
    """Quotients shared by every number in [lo/den, hi/den] (den > 0).

    Euclid runs on the integer pairs (lo, den) and (hi, den) in lockstep;
    the Gauss map x -> 1/(x - a) reverses order, so the pairs swap roles
    after every step.
    """
    out: list[int] = []
    (n_lo, d_lo), (n_hi, d_hi) = (lo, den), (hi, den)
    while len(out) < k_max:
        a, r_lo = divmod(n_lo, d_lo)
        a_hi, r_hi = divmod(n_hi, d_hi)
        if a != a_hi:
            break
        out.append(a)
        if r_lo == 0 or r_hi == 0:
            break
        (n_lo, d_lo), (n_hi, d_hi) = (d_hi, r_hi), (d_lo, r_lo)
    return out


def _surd_quotients(p: int, q: int, d: int) -> Iterator[int]:
    """The quotients a_0, a_1, ... of the irrational (p + sqrt(d))/q, each
    once and without end: Euclid on its exact brackets [lo, lo + 1] /
    (|q| 2^bits) at 64, 128, 256, ... bits, which nest.  A round yields at
    most `bits` quotients; any past the cap come in a later round."""
    done, bits = 0, 64
    while True:
        lo, hi, den, shift = surd_bracket(p, q, d, bits)
        qs = _interval_quotients(lo, hi, den << shift, bits)
        yield from qs[done:]
        done, bits = max(done, len(qs)), 2 * bits


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
    while True:
        point = source.is_point()
        if point:
            lo, den = source.bounds()[0].as_integer_ratio()
            hi = lo
        else:
            lo, hi, scale = source.dyadic()
            den = 1 << scale
        # one quotient more than asked tells a point whether it is complete
        qs = _interval_quotients(lo, hi, den, max_terms + 1)
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

    q_n comes from the certified convergents of a_0 .. a_{N-2}, where N
    quotients are certified; the last term reads q_{N-2}.  The pairs are
    streamed to their end, so the one-pair-per-quotient check runs.
    math.log on ints carries about 1 ulp of relative error (far below
    the 1e-12 budget the reported 6-decimal values need).
    """
    _check_terms(n_min, cf.certified)
    pairs = enumerate(zip(certified_convergents(cf.quotients[:-1]), cf.quotients[1:]))
    values = [(n, 2.0 + math.log(a) / math.log(q)) for n, ((_, q), a) in pairs if n >= n_min]
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

"""From repetition witnesses to explicit rational approximants.

A witness (u, v, m) on the base-b digit word of a real xi yields the
rational p/q with q = b^u (b^v - 1) whose expansion starts with the
same u digits and then repeats the next v digits forever.  Because xi
and p/q share their first m digits, they lie in one closed digit cell,
so |xi - p/q| <= b^-m < q^-rho with rho = m/(u+v); both inequalities
are certified here in exact interval arithmetic, never through floats.
Equality in the first needs the two at opposite ends of the cell: xi a
b-adic rational whose digits after the m-th are all 0, and p/q with
V all digits b - 1.  p/q is deliberately not reduced;
a reduced form is available for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .contfrac import MuEstimate, _check_terms, _cut_short, cf_from_enclosure, mu_estimate
from .realnum import (
    DEFAULT_MAX_BITS,
    CertificateError,
    DigitStream,
    Enclosure,
    PrecisionBudgetError,
    RealSpec,
    _GUARD_BITS,
    _check_digits,
    _digits_to_int,
    decimal_text,
    digits,
    enclosure,
)
from .repetition import (ExponentEstimate, RepetitionWitness, _checked_threshold, _takes_threshold,
                         dio_estimate, verify_witness)
from .words import Word

_REPORT_N_MIN = 5  # the first exponent term of `dio_mu_report`


@dataclass(frozen=True)
class Approximant:
    """p/q = 0.UVVV... built from a repetition witness on base-b digits."""

    p: int
    q: int
    base: int
    witness: RepetitionWitness

    @property
    def score(self) -> Fraction:
        return self.witness.score

    def reduced(self) -> tuple[int, int]:
        """Lowest-terms view, for display only."""
        g = math.gcd(self.p, self.q)
        return self.p // g, self.q // g

    def to_json_dict(self) -> dict:
        return {
            "p": decimal_text(self.p),
            "q": decimal_text(self.q),
            "base": self.base,
            "witness": self.witness.to_json_dict(),
        }


def witness_to_approximant(digit_word: Word, witness: RepetitionWitness, base: int) -> Approximant:
    """Build p/q from the witnessed factorization U V^w of the digit word.

    q = base^u (base^v - 1) and p = U (base^v - 1) + V with U, V read as
    base-b integers, so that p/q = 0.UVVV... exactly; no division and no
    gcd reduction happens.
    """
    _check_digits(base)
    if len(digit_word) and max(digit_word.symbols) >= base:
        raise ValueError("digit word has letters outside the base")
    if not verify_witness(digit_word, witness):
        raise ValueError("unverified witness")
    u, v = witness.u, witness.v
    u_int = _digits_to_int(digit_word.symbols[:u], base)
    v_int = _digits_to_int(digit_word.symbols[u : u + v], base)
    block = base**v - 1
    return Approximant(p=u_int * block + v_int, q=base**u * block, base=base, witness=witness)


def expansion_digits(p: int, q: int, base: int, count: int) -> list[int]:
    """Fractional digits of p/q in [0, 1) by plain long division (oracle path)."""
    _check_digits(base, count)
    if not 0 <= p <= q:
        raise ValueError("expects 0 <= p/q <= 1")
    rem = p % q
    out = []
    for _ in range(count):
        rem *= base
        d, rem = divmod(rem, q)
        out.append(d)
    return out


def verify_approximation(source: Enclosure, approx: Approximant) -> Fraction:
    """Certify |xi - p/q| <= base^-m and |xi - p/q| < q^-rho; return the margin.

    The margin is the exact max distance from p/q to the enclosure.  An
    exact point may lie at distance base^-m, on the far end of the
    closed digit cell; an enclosure of positive width is refined until
    the margin is below base^-m.  For a dyadic enclosure
    [lo, hi]/2^s it is max(|lo q - p 2^s|, |hi q - p 2^s|) / (q 2^s), all
    in integers.  The q^-rho comparison clears denominators: margin =
    N/D < q^(-m/(u+v)) iff N^(u+v) * q^m < D^(u+v).
    """
    w = approx.witness
    p, q = approx.p, approx.q
    cell = approx.base**w.m
    if source.is_point():
        margin = abs(source.bounds()[0] - Fraction(p, q))
        num, den = margin.numerator, margin.denominator
        if num * cell > den:
            raise CertificateError("approximation is not within base^-m of the exact value")
    else:
        # one refinement certifies unless |xi - p/q| is within base^-m 2^-_GUARD_BITS of base^-m
        source.refine(cell.bit_length() + _GUARD_BITS)
        while True:
            lo, hi, s = source.dyadic()
            num, den = max(abs(lo * q - (p << s)), abs(hi * q - (p << s))), q << s
            if num * cell < den:
                break
            if not source.refine():
                raise PrecisionBudgetError("enclosure too wide to certify the approximation")
        margin = Fraction(num, den)
    if not _clears_q_power(num, den, q, w.u + w.v, w.m):
        raise CertificateError("q^-rho certification failed despite digit agreement")
    return margin


def _clears_q_power(num: int, den: int, q: int, e: int, m: int) -> bool:
    """num^e * q^m < den^e, for num >= 0 and den, q, e, m >= 1.

    A zero margin always clears.  Otherwise the base-2 logarithms decide,
    unless they tie within an allowance that bounds their rounding error:
    math.log2 of an integer x is within 2^-50 (1 + log2 x) of the truth,
    and the products and sums below add a relative 2^-51 at most.  Only
    a near tie builds the exact powers.
    """
    if num == 0:
        return True
    l_num, l_q, l_den = math.log2(num), math.log2(q), math.log2(den)
    diff = e * l_num + m * l_q - e * l_den
    allowance = 2.0**-46 * (e * (l_num + l_den + 2) + m * (l_q + 1))
    if diff < -allowance:
        return True
    if diff > allowance:
        return False
    return num**e * q**m < den**e


@dataclass(frozen=True)
class DioMuReport:
    """Side-by-side repetition exponent of the digit word and exponent terms
    of the continued fraction, with the slack-adjusted comparison."""

    base: int
    prefix_length: int
    cf_terms: int
    slack: float
    digit_estimate: ExponentEstimate | None
    mu: MuEstimate | None
    rational: bool
    partial: bool
    notes: tuple[str, ...]

    @property
    def dio_value(self) -> float | None:
        if self.digit_estimate is None:
            return None
        return float(self.digit_estimate.global_max.score)

    @property
    def mu_tail_value(self) -> float | None:
        return None if self.mu is None else self.mu.tail_max

    @property
    def inequality_holds(self) -> bool | None:
        if self.rational or self.dio_value is None or self.mu_tail_value is None:
            return None
        return self.dio_value <= self.mu_tail_value + self.slack

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "prefix_length": self.prefix_length,
            "cf_terms": self.cf_terms,
            "slack": {"estimate": self.slack},
            "dio": None if self.digit_estimate is None else self.digit_estimate.to_json_dict(),
            "dio_value": None if self.dio_value is None else {"estimate": self.dio_value},
            "mu": None if self.mu is None else self.mu.to_json_dict(),
            "mu_tail_max": None if self.mu_tail_value is None else {"estimate": self.mu_tail_value},
            "rational": self.rational,
            "partial": self.partial,
            "inequality_holds": self.inequality_holds,
            "notes": list(self.notes),
        }


def dio_mu_report(
    spec: RealSpec,
    base: int,
    prefix_length: int,
    cf_terms: int,
    threshold: int | None = None,
    slack: float = 0.15,
    max_bits: int = DEFAULT_MAX_BITS,
) -> DioMuReport:
    """Run both pipelines on one number and compare the finite estimates.

    Both sides truncate limits, so the comparison carries a slack and
    the raw values are always part of the report.  Base, threshold and
    terms are checked first, so a usage error is one under every budget.
    """
    _check_digits(base, word=True)
    _checked_threshold(prefix_length, threshold)
    _check_terms(_REPORT_N_MIN, cf_terms, spec)
    notes: list[str] = []
    partial = False

    stream: DigitStream = digits(spec, base, prefix_length, max_bits=max_bits)
    if not stream.complete:
        partial = True
        notes.append(f"digit stream certified only {stream.certified} of {prefix_length}")
    est: ExponentEstimate | None = None
    # the threshold fits prefix_length, so only a budget-cut stream can be too short for it
    if _takes_threshold(stream.certified, threshold):
        est = dio_estimate(stream.fractional_word(), threshold)

    cf = cf_from_enclosure(enclosure(spec, max_bits=max_bits), cf_terms)
    if cf.budget_exhausted:
        partial = True
        notes.append(f"continued fraction certified only {cf.certified} of {cf_terms} terms")

    mu: MuEstimate | None = None
    if cf.rational:
        notes.append("rational input: digits are eventually periodic and the "
                     "repetition exponent diverges with the prefix length")
    elif not _cut_short(cf, _REPORT_N_MIN):
        mu = mu_estimate(cf, n_min=_REPORT_N_MIN)
    else:
        partial = True
        notes.append("too few continued-fraction terms for exponent terms")

    return DioMuReport(
        base=base,
        prefix_length=prefix_length,
        cf_terms=cf_terms,
        slack=slack,
        digit_estimate=est,
        mu=mu,
        rational=cf.rational,
        partial=partial,
        notes=tuple(notes),
    )

"""Acceptance suite: the finite, exact checks the whole artifact must pass.

Each criterion is a self-contained callable returning a CriterionResult
with deterministic detail text (raw measured values included), so the
suite can run under pytest and behind the `verify` CLI command alike.
Budgets and windows that had to be fixed empirically were pinned down
with the brute-force oracles first; see the individual criteria.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import approx, contfrac, realnum, repetition, sturmian, words

DEFAULT_SEED = 20240817

FIB_SLOPE = realnum.Surd(-3, -2, 5)  # (3 - sqrt(5))/2
GOLDEN_CONJ_SLOPE_TEXT = "cfslope:(1)*"  # (sqrt(5) - 1)/2, all quotients 1


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.cid}: {self.detail}"


def _euler_quotients(count: int) -> list[int]:
    out = [2]
    k = 1
    while len(out) < count:
        out.extend((1, 2 * k, 1))
        k += 1
    return out[:count]


def check_euler_pattern(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Continued fraction of e: [2,1,2,1,1,4,1,1,6,...] for 30 terms."""
    cf = contfrac.cf_from_enclosure(realnum.enclosure(realnum.SeriesE()), 30)
    expected = _euler_quotients(30)
    ok = list(cf.quotients) == expected
    return CriterionResult(
        "euler-pattern",
        ok,
        f"cf(e, 30 terms) = {list(cf.quotients)}",
    )


def check_sturmian_complexity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Mechanical word of slope (3-sqrt(5))/2: p(n) = n+1 for n = 1..40."""
    w = sturmian.mechanical_word(FIB_SLOPE, Fraction(0), 2000)
    prof = words.complexity_profile(w, 40)
    ok = all(prof.count(n) == n + 1 for n in range(1, 41))
    return CriterionResult(
        "sturmian-complexity",
        ok,
        f"counts[1..40] minus (n+1) max deviation = "
        f"{max(abs(prof.count(n) - n - 1) for n in range(1, 41))}",
    )


def check_fibonacci_dio(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Repetition exponent of the Fibonacci word at N=10^4 sits in [2.55, 2.619].

    The window is first confirmed against the cubic oracle at N=500.
    """
    w500 = sturmian.mechanical_word(FIB_SLOPE, Fraction(0), 500)
    oracle = repetition.dio_brute_force(w500)
    scan500 = repetition.dio_estimate(w500)
    agree = (
        oracle.global_max == scan500.global_max
        and oracle.persistent_max == scan500.persistent_max
    )
    w = sturmian.mechanical_word(FIB_SLOPE, Fraction(0), 10**4)
    est = repetition.dio_estimate(w)
    score = est.global_max.score
    in_window = Fraction(255, 100) <= score <= Fraction(2619, 1000)
    return CriterionResult(
        "fibonacci-dio",
        agree and in_window,
        f"oracle(N=500)={float(oracle.global_max.score):.6f} scan agreement={agree}; "
        f"scan(N=10^4)={float(score):.6f} in [2.55, 2.619]={in_window}; "
        f"target (3+sqrt(5))/2={float((3 + math.sqrt(5)) / 2):.6f}",
    )


def check_ice_lower_bound(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Initial critical exponent of the all-quotients-1 slope word >= 2 + 1/9."""
    slope = sturmian.parse_slope(GOLDEN_CONJ_SLOPE_TEXT)
    w = sturmian.mechanical_word(slope, Fraction(0), 10**4)
    est = repetition.ice_estimate(w)
    bound = 2 + Fraction(1, 2 * (1 + 1) ** 2 + 1)
    ok = est.global_max.score >= bound
    return CriterionResult(
        "ice-lower-bound-m1",
        ok,
        f"ice(N=10^4)={float(est.global_max.score):.6f} >= 2+1/9={float(bound):.6f}: {ok}",
    )


def check_unbounded_slope(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Slope [0; 1, 10, 100, ...]: repetition exponent exceeds 5 by N=10^5."""
    slope = sturmian.parse_slope("cfslope:pow10")
    w = sturmian.mechanical_word(slope, Fraction(0), 10**5)
    est = repetition.dio_estimate(w)
    ok = est.global_max.score > 5
    return CriterionResult(
        "unbounded-slope-dio",
        ok,
        f"dio(N=10^5)={float(est.global_max.score):.6f} > 5: {ok} "
        f"(witness u={est.global_max.u} v={est.global_max.v} m={est.global_max.m})",
    )


# Largest partial quotient seen among the first 15 certified terms of the
# sparse binary sum; frozen from the certified run.
SHALLIT_PQ_MAX = 6


def check_shallit(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Sparse binary sum: digit positions, linear complexity bound, small quotients."""
    spec = realnum.SeriesShallit()
    n_digits = 2**14
    stream = realnum.digits(spec, 2, n_digits)
    ones = {i + 1 for i, d in enumerate(stream.fractional_digits) if d == 1}
    powers = {2**k for k in range(15) if 2**k <= n_digits}
    digits_ok = stream.complete and ones == powers

    w = realnum.digits(spec, 2, 10**5).fractional_word()
    prof = words.complexity_profile(w, 30)
    slope_bound = 2 + math.log(3)
    growth_ok = all(prof.count(n) <= slope_bound * n + 4 for n in range(1, 31))

    cf = contfrac.cf_from_enclosure(realnum.enclosure(spec), 15)
    observed = contfrac.bounded_pq_check(cf, 15)
    pq_ok = cf.certified >= 15 and observed <= SHALLIT_PQ_MAX

    return CriterionResult(
        "shallit",
        digits_ok and growth_ok and pq_ok,
        f"ones at powers of two up to 2^14: {digits_ok}; "
        f"p(n) <= (2+ln 3)n+4 for n=1..30 at N=10^5: {growth_ok}; "
        f"max of first 15 quotients = {observed} <= {SHALLIT_PQ_MAX}: {pq_ok}",
    )


def check_mu_sanity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Golden ratio terms all exactly 2; e terms stay below 2.2 for n in [30, 60]."""
    golden_cf = contfrac.cf_from_enclosure(realnum.enclosure(realnum.Surd(1, 2, 5)), 40)
    golden_mu = contfrac.mu_estimate(golden_cf, n_min=5)
    golden_ok = all(v == 2.0 for _, v in golden_mu.values)

    e_cf = contfrac.cf_from_enclosure(realnum.enclosure(realnum.SeriesE()), 62)
    e_mu = contfrac.mu_estimate(e_cf, n_min=30)
    window = [(n, v) for n, v in e_mu.values if 30 <= n <= 60]
    e_ok = len(window) == 31 and all(v <= 2.2 for _, v in window)

    return CriterionResult(
        "mu-sanity",
        golden_ok and e_ok,
        f"golden per-n all exactly 2: {golden_ok}; "
        f"e per-n max over n in [30,60] = {max(v for _, v in window):.6f} <= 2.2: {e_ok}",
    )


def check_approximant_chain(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Witness -> p/q certification for 1/3, 1/6 and the Fibonacci binary number."""
    results = []

    d3 = realnum.digits(realnum.Rational(1, 3), 10, 3)
    a3 = approx.witness_to_approximant(
        d3.fractional_word(), repetition.RepetitionWitness(0, 1, 3), 10
    )
    m3 = approx.verify_approximation(realnum.enclosure(realnum.Rational(1, 3)), a3)
    results.append(("1/3", a3.p == 3 and a3.q == 9 and m3 == 0))

    d6 = realnum.digits(realnum.Rational(1, 6), 10, 4)
    a6 = approx.witness_to_approximant(
        d6.fractional_word(), repetition.RepetitionWitness(1, 1, 4), 10
    )
    m6 = approx.verify_approximation(realnum.enclosure(realnum.Rational(1, 6)), a6)
    results.append(("1/6", a6.p == 15 and a6.q == 90 and m6 == 0))

    # the floors are exact, so every length gives a prefix of the same word
    fetch = lambda n: sturmian.mechanical_word(FIB_SLOPE, Fraction(0), n).symbols
    fib_word = sturmian.mechanical_word(FIB_SLOPE, Fraction(0), 1000)
    est = repetition.dio_estimate(fib_word)
    af = approx.witness_to_approximant(fib_word, est.global_max, 2)
    enc = realnum.enclosure_from_digits(fetch, 2)
    mf = approx.verify_approximation(enc, af)
    division = approx.expansion_digits(af.p, af.q, 2, est.global_max.m)
    fib_ok = (
        af.q == 2**est.global_max.u * (2**est.global_max.v - 1)
        and mf < Fraction(1, 2**est.global_max.m)
        and bytes(division) == fib_word.symbols[: est.global_max.m]
    )
    results.append(("fibonacci-binary", fib_ok))

    all_ok = all(ok for _, ok in results)
    return CriterionResult(
        "approximant-chain",
        all_ok,
        "; ".join(f"{name}: {ok}" for name, ok in results)
        + f"; fib witness score={float(est.global_max.score):.6f}",
    )


def check_dio_vs_mu(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Digit-word exponent <= exponent-term tail + 0.15 for golden (b=2) and e (b=10)."""
    rep_g = approx.dio_mu_report(realnum.Surd(1, 2, 5), base=2, prefix_length=10**4, cf_terms=60)
    rep_e = approx.dio_mu_report(realnum.SeriesE(), base=10, prefix_length=10**4, cf_terms=60)
    ok = bool(rep_g.inequality_holds) and bool(rep_e.inequality_holds)
    return CriterionResult(
        "dio-vs-mu",
        ok,
        f"golden b=2: dio={rep_g.dio_value:.6f} mu_tail={rep_g.mu_tail_value:.6f} "
        f"holds={rep_g.inequality_holds}; "
        f"e b=10: dio={rep_e.dio_value:.6f} mu_tail={rep_e.mu_tail_value:.6f} "
        f"holds={rep_e.inequality_holds} (slack 0.15)",
    )


def check_oracle_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Optimized scans equal the cubic oracle: all n<=14 words, 10^4 random n=18."""
    checked = 0
    for length in range(2, 15):
        for bits in range(2**length):
            data = bytes((bits >> i) & 1 for i in range(length))
            w = words.Word(data, 2)
            if not _scan_matches_oracle(w):
                return CriterionResult(
                    "oracle-equivalence", False, f"mismatch on word {data!r}"
                )
            checked += 1
    rng = random.Random(seed)
    for _ in range(10**4):
        data = bytes(rng.randrange(2) for _ in range(18))
        w = words.Word(data, 2)
        if not _scan_matches_oracle(w):
            return CriterionResult(
                "oracle-equivalence", False, f"mismatch on word {data!r} (seed {seed})"
            )
        checked += 1
    return CriterionResult(
        "oracle-equivalence",
        True,
        f"{checked} words checked (exhaustive n<=14 plus 10^4 random n=18, seed {seed})",
    )


def _scan_matches_oracle(w: words.Word) -> bool:
    fast_d = repetition.dio_estimate(w)
    slow_d = repetition.dio_brute_force(w)
    fast_i = repetition.ice_estimate(w)
    slow_i = repetition.ice_brute_force(w)
    return (
        fast_d.global_max == slow_d.global_max
        and fast_d.persistent_max == slow_d.persistent_max
        and fast_i.global_max == slow_i.global_max
        and fast_i.persistent_max == slow_i.persistent_max
    )


# Base-2 prefixes long enough that window collisions persist past n = 30,
# which is what makes the strict-increase face of the rational/irrational
# dichotomy observable on finite data.
DICHOTOMY_PREFIX = 2 * 10**5


def check_complexity_dichotomy(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Rationals plateau (gaps go negative); irrational presets keep increasing."""
    rational_ok = True
    rational_detail = []
    for p, q in ((1, 7), (22, 7)):
        stream = realnum.digits(realnum.Rational(p, q), 10, 2000)
        prof = words.complexity_profile(stream.fractional_word(), 30)
        gaps = words.gap_profile(prof)
        plateau = len(set(prof.counts[10:])) == 1
        ok = gaps[-1] < 0 and plateau
        rational_ok = rational_ok and ok
        rational_detail.append(f"{p}/{q}: plateau@{prof.counts[-1]} gap(30)={gaps[-1]}")

    irrational_ok = True
    irrational_detail = []
    presets = [
        ("e", realnum.SeriesE(), DICHOTOMY_PREFIX),
        ("shallit", realnum.SeriesShallit(), 10**5),
        ("golden", realnum.Surd(1, 2, 5), DICHOTOMY_PREFIX),
        ("sqrt2", realnum.Surd(0, 1, 2), DICHOTOMY_PREFIX),
    ]
    for name, spec, length in presets:
        w = realnum.digits(spec, 2, length).fractional_word()
        prof = words.complexity_profile(w, 31)
        inc = all(prof.count(n + 1) > prof.count(n) for n in range(1, 31))
        irrational_ok = irrational_ok and inc
        irrational_detail.append(f"{name}@b2,N={length}: increasing={inc}")

    return CriterionResult(
        "complexity-dichotomy",
        rational_ok and irrational_ok,
        "; ".join(rational_detail + irrational_detail),
    )


CRITERIA: tuple[tuple[str, Callable[[int], CriterionResult]], ...] = (
    ("euler-pattern", check_euler_pattern),
    ("sturmian-complexity", check_sturmian_complexity),
    ("fibonacci-dio", check_fibonacci_dio),
    ("ice-lower-bound-m1", check_ice_lower_bound),
    ("unbounded-slope-dio", check_unbounded_slope),
    ("shallit", check_shallit),
    ("mu-sanity", check_mu_sanity),
    ("approximant-chain", check_approximant_chain),
    ("dio-vs-mu", check_dio_vs_mu),
    ("oracle-equivalence", check_oracle_equivalence),
    ("complexity-dichotomy", check_complexity_dichotomy),
)


def select_criteria(
    suite: str | None = None,
) -> list[tuple[str, Callable[[int], CriterionResult]]]:
    """The criteria whose id contains ``suite`` (all for None), in table order."""
    selected = [(cid, fn) for cid, fn in CRITERIA if suite is None or suite in cid]
    if not selected:
        raise ValueError(f"no criteria match suite filter {suite!r}")
    return selected


def run_suite(suite: str | None = None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run the (filtered) criteria one after another, in table order."""
    return [fn(seed) for _, fn in select_criteria(suite)]

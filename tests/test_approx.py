import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diowords.approx import (
    _clears_q_power,
    dio_mu_report,
    expansion_digits,
    verify_approximation,
    witness_to_approximant,
)
from diowords.realnum import (
    DEFAULT_MAX_BITS,
    CertificateError,
    Mobius,
    Rational,
    SeriesE,
    Surd,
    digits,
    enclosure,
    enclosure_from_digits,
)
from diowords.repetition import RepetitionWitness, dio_estimate
from diowords.spec import digit_word
from diowords.sturmian import mechanical_word
from diowords.words import Word

FIB_SLOPE = Surd(-3, -2, 5)


class TestWitnessToApproximant:
    def test_one_third(self):
        w = digits(Rational(1, 3), 10, 3).fractional_word()
        a = witness_to_approximant(w, RepetitionWitness(0, 1, 3), 10)
        assert (a.p, a.q) == (3, 9)
        assert Fraction(a.p, a.q) == Fraction(1, 3)

    def test_one_sixth(self):
        w = digits(Rational(1, 6), 10, 4).fractional_word()
        a = witness_to_approximant(w, RepetitionWitness(1, 1, 4), 10)
        assert (a.p, a.q) == (15, 90)
        assert a.reduced() == (1, 6)
        assert a.score == 2

    def test_unverified_witness_rejected(self):
        w = digit_word("0100")
        with pytest.raises(ValueError, match="unverified witness"):
            witness_to_approximant(w, RepetitionWitness(0, 1, 4), 10)

    def test_digits_must_fit_base(self):
        w = digit_word("033")
        with pytest.raises(ValueError):
            witness_to_approximant(w, RepetitionWitness(0, 1, 2), 2)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=24))
    @settings(max_examples=200)
    def test_q_formula_and_digit_agreement(self, bits):
        word = Word(bytes(bits), 2)
        est = dio_estimate(word, threshold=1)
        wit = est.global_max
        a = witness_to_approximant(word, wit, 2)
        assert a.q == 2**wit.u * (2**wit.v - 1)
        # p/q sits inside the digit cell of the first m digits
        x = int("".join(map(str, word.symbols[: wit.m])) or "0", 2)
        assert Fraction(x, 2**wit.m) <= Fraction(a.p, a.q) <= Fraction(x + 1, 2**wit.m)
        v_block = word.symbols[wit.u : wit.u + wit.v]
        if any(d != 1 for d in v_block):
            # proper representation: independent long division matches all m digits
            assert bytes(expansion_digits(a.p, a.q, 2, wit.m)) == word.symbols[: wit.m]


class TestVerifyApproximation:
    def test_exact_hits(self):
        w3 = digits(Rational(1, 3), 10, 3).fractional_word()
        a3 = witness_to_approximant(w3, RepetitionWitness(0, 1, 3), 10)
        assert verify_approximation(enclosure(Rational(1, 3)), a3) == 0

        w6 = digits(Rational(1, 6), 10, 4).fractional_word()
        a6 = witness_to_approximant(w6, RepetitionWitness(1, 1, 4), 10)
        assert verify_approximation(enclosure(Rational(1, 6)), a6) == 0

    def test_fibonacci_binary_number(self):
        cache = bytearray()

        def fetch(n):
            if len(cache) < n:
                cache[:] = mechanical_word(FIB_SLOPE, Fraction(0), max(n, 2 * len(cache) + 16)).symbols
            return bytes(cache[:n])

        word = Word(fetch(300), 2)
        est = dio_estimate(word)
        a = witness_to_approximant(word, est.global_max, 2)
        margin = verify_approximation(enclosure_from_digits(fetch, 2), a)
        assert margin < Fraction(1, 2**est.global_max.m)
        num, den = margin.numerator, margin.denominator
        d = est.global_max.u + est.global_max.v
        assert num**d * a.q**est.global_max.m < den**d

    def test_positive_margin_case(self):
        # e is not rational, so the margin is positive but still certified;
        # the witness lives on the fractional digits, hence the shift by -2
        w = digits(SeriesE(), 10, 12).fractional_word()
        est = dio_estimate(w, threshold=1)
        a = witness_to_approximant(w, est.global_max, 10)
        margin = verify_approximation(enclosure(Mobius(1, -2, 0, 1, SeriesE())), a)
        assert 0 < margin < Fraction(1, 10**est.global_max.m)

    def test_exact_point_outside_digit_cell_is_rejected(self):
        # 0.333... certified against 1/2: refining an exact point cannot help
        w = digits(Rational(1, 3), 10, 3).fractional_word()
        a = witness_to_approximant(w, RepetitionWitness(0, 1, 3), 10)
        with pytest.raises(CertificateError, match="base"):
            verify_approximation(enclosure(Rational(1, 2)), a)

    def test_improving_witness_keeps_certificate(self):
        w = digits(Rational(1, 3), 10, 8).fractional_word()
        for m in (2, 4, 8):
            a = witness_to_approximant(w, RepetitionWitness(0, 1, m), 10)
            assert verify_approximation(enclosure(Rational(1, 3)), a) == 0


class TestQPowerDecision:
    @given(
        st.integers(0, 10**6),
        st.integers(1, 10**30),
        st.integers(1, 10**6),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    @settings(max_examples=300)
    def test_matches_direct_inequality(self, num, den, q, e, m):
        assert _clears_q_power(num, den, q, e, m) == (num**e * q**m < den**e)

    @pytest.mark.parametrize("e, m", [(1, 1), (2, 3), (7, 5), (30, 45)])
    def test_near_ties_fall_back_to_exact_powers(self, e, m):
        # num^e q^m == den^e exactly, then one unit either side
        num, q, den = 3**m, 3**e, 3 ** (2 * m)
        for delta, expected in ((0, False), (1, True), (-1, False)):
            assert _clears_q_power(num, den + delta, q, e, m) == expected
        assert _clears_q_power(0, 1, q, e, m)


class TestExpansionDigits:
    def test_long_division(self):
        assert expansion_digits(1, 6, 10, 4) == [1, 6, 6, 6]
        assert expansion_digits(0, 7, 10, 3) == [0, 0, 0]

    def test_range_check(self):
        with pytest.raises(ValueError):
            expansion_digits(8, 7, 10, 3)

    def test_base_check(self):
        # base 1 printed [0, 0, 0, 0, 0]
        with pytest.raises(ValueError, match="^base must be >= 2$"):
            expansion_digits(1, 3, 1, 5)


class TestDioMuReport:
    def test_golden_small_budget(self):
        rep = dio_mu_report(Surd(1, 2, 5), base=2, prefix_length=2000, cf_terms=40)
        assert not rep.rational
        assert rep.mu is not None and rep.mu.tail_max == 2.0
        assert rep.inequality_holds is True
        payload = rep.to_json_dict()
        assert payload["inequality_holds"] is True
        assert payload["dio_value"]["estimate"] == rep.dio_value

    def test_rational_flagged(self):
        rep = dio_mu_report(Rational(1, 7), base=10, prefix_length=500, cf_terms=10)
        assert rep.rational
        assert rep.inequality_holds is None
        assert any("rational" in n for n in rep.notes)
        # periodic digits: the repetition exponent diverges with N
        assert rep.dio_value > 50

    def test_partial_when_budget_small(self):
        rep = dio_mu_report(SeriesE(), base=10, prefix_length=300, cf_terms=30, max_bits=512)
        assert rep.partial

    @pytest.mark.parametrize("max_bits", [0, 20, DEFAULT_MAX_BITS])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"threshold": 50}, "threshold must be in [1, N/2]"),
            ({"cf_terms": 5}, "too few certified terms"),
            ({"base": 300}, "word view needs base <= 256"),
        ],
        ids=["threshold", "terms", "base"],
    )
    def test_usage_errors_come_before_any_digit(self, kwargs, message, max_bits):
        # a small budget used to decide between this error, a partial report
        # and a spent budget
        args = {"base": 10, "prefix_length": 10, "cf_terms": 60, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            dio_mu_report(SeriesE(), max_bits=max_bits, **args)

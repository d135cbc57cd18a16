import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diowords import contfrac, realnum
from diowords.contfrac import (
    CFExpansion,
    bounded_pq_check,
    cf_from_enclosure,
    cf_of_rational,
    convergents_from_quotients,
    mu_estimate,
)
from diowords.realnum import (
    CertificateError,
    FromCF,
    Mobius,
    Rational,
    SeriesE,
    SeriesShallit,
    Surd,
    enclosure,
)

import contfrac_oracle as oracle


def euler_quotients(count):
    out = [2]
    k = 1
    while len(out) < count:
        out.extend((1, 2 * k, 1))
        k += 1
    return out[:count]


rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
)


def euclid(x):
    """Reference: Euclid's algorithm on the numerator and denominator."""
    out, p, q = [], x.numerator, x.denominator
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


class TestRationalCF:
    def test_22_over_7(self):
        cf = cf_from_enclosure(enclosure(Rational(22, 7)), 10)
        assert list(cf.quotients) == [3, 7]
        assert cf.rational and cf.complete

    def test_canonical_last_quotient(self):
        assert cf_of_rational(Fraction(5, 3)) == [1, 1, 2]
        assert cf_of_rational(Fraction(1, 1)) == [1]
        assert cf_of_rational(Fraction(-1, 3)) == [-1, 1, 2]

    @given(rationals)
    @settings(max_examples=300)
    def test_roundtrip(self, x):
        qs = cf_of_rational(x)
        assert len(qs) == 1 or qs[-1] >= 2
        assert all(a >= 1 for a in qs[1:])
        cf = cf_from_enclosure(enclosure(FromCF(tuple(qs))), len(qs))
        assert list(cf.quotients) == qs and cf.complete
        assert Fraction(*convergents_from_quotients(cf.quotients)[-1]) == x

    @given(rationals, st.sampled_from((-1, 0, 1)))
    @settings(max_examples=300)
    def test_point_around_its_length(self, x, offset):
        # max_terms one short of, equal to and one past the expansion's length
        full = euclid(x)
        max_terms = len(full) + offset
        assume(max_terms >= 1)
        cf = cf_from_enclosure(enclosure(Rational(x.numerator, x.denominator)), max_terms)
        assert list(cf.quotients) == full[:max_terms]
        assert cf.rational and not cf.budget_exhausted
        assert cf.complete == (offset >= 0)

    @given(rationals)
    @settings(max_examples=200)
    def test_convergent_invariants(self, x):
        qs = cf_of_rational(x)
        convs = convergents_from_quotients(qs)
        p_prev, q_prev = 1, 0
        p_prev2, q_prev2 = 0, 1
        for a, (p, q) in zip(qs, convs):
            assert p == a * p_prev + p_prev2
            assert q == a * q_prev + q_prev2
            assert math.gcd(p, q) == 1
            p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
        denominators = [q for _, q in convs[1:]]
        assert denominators == sorted(set(denominators))


def outcome(check, quotients):
    """The convergents `check` returns, or "CertificateError" if it raises one."""
    try:
        return check(quotients)
    except CertificateError:
        return "CertificateError"


# lengths 0-300: any first quotient, later ones up to 2^80
quotient_lists = st.just([]) | st.builds(
    lambda a0, rest: [a0, *rest], st.integers(), st.lists(st.integers(1, 2**80), max_size=299)
)


def corrupt(pairs, kind, k, entry, delta):
    """The pair stream `pairs` with one defect at index k."""
    pairs = list(pairs)
    p_prev, q_prev, p, q = pairs[k]
    if kind == "entry":  # one of p_{k-1}, q_{k-1}, p_k, q_k moved by delta
        pairs[k] = tuple(x + delta * (i == entry) for i, x in enumerate(pairs[k]))
    elif kind == "scale":  # a common factor |delta| + 1
        pairs[k] = (p_prev, q_prev, (abs(delta) + 1) * p, (abs(delta) + 1) * q)
    elif kind == "add-prev":  # keeps the determinant of the pair, breaks the link
        pairs[k] = (p_prev, q_prev, p + p_prev, q + q_prev)
    elif kind == "drop":
        del pairs[k]
    elif kind == "swap":
        pairs[k : k + 2] = pairs[k : k + 2][::-1]
    elif kind == "repeat":
        pairs.insert(k, pairs[k])
    return pairs


class TestConvergentOracle:
    """`convergents_from_quotients` against the per-step determinant loop."""

    @given(quotient_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_determinant_loop(self, qs):
        assert outcome(convergents_from_quotients, qs) == outcome(
            oracle.convergents_from_quotients, qs
        )

    @pytest.mark.parametrize(
        "spec",
        [SeriesE(), Surd(3, 3, 253), Mobius(5, 2, 2, 1, SeriesE())],
        ids=["e", "surd", "mobius"],
    )
    def test_certify_sized_expansions(self, spec):
        # 1500 terms: the most the certify workload asks of `cf` and `mu`
        cf = cf_from_enclosure(enclosure(spec), 1500)
        assert cf.certified == 1500 and not cf.budget_exhausted
        qs = cf.quotients
        assert convergents_from_quotients(qs) == oracle.convergents_from_quotients(qs)

    @given(
        st.lists(st.integers(1, 2**80), min_size=2, max_size=40),
        st.sampled_from(["entry", "scale", "add-prev", "drop", "swap", "repeat"]),
        st.integers(0, 3),
        st.sampled_from((-2, -1, 1, 2)),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_defective_pairs_are_caught(self, qs, kind, entry, delta, data):
        k = data.draw(st.integers(0, len(qs) - 2))
        pairs = corrupt(realnum.convergents(qs), kind, k, entry, delta)
        with mock.patch.object(contfrac, "convergents", lambda quotients: iter(pairs)):
            got = outcome(convergents_from_quotients, qs)
        # only (p_k, q_k) of a pair reaches the output, so a moved p_{k-1} or
        # q_{k-1} leaves it true; every other defect must be caught
        harmless = kind == "entry" and entry < 2
        assert got == (oracle.convergents_from_quotients(qs) if harmless else "CertificateError")


def _bezout(a: int, c: int) -> tuple[int, int]:
    """(x, y) with a x + c y = +-gcd(a, c)."""
    if c == 0:
        return 1, 0
    x, y = _bezout(c, a % c)
    return y, x - (a // c) * y


@st.composite
def unimodular_matrices(draw):
    """(a, b, c, d) with ad - bc = +-1 and entries of either sign."""
    a, c = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    assume(math.gcd(a, c) == 1)
    x, y = _bezout(a, c)
    det = a * x + c * y  # +-1
    t, sign = draw(st.integers(-5, 5)), draw(st.sampled_from((1, -1)))
    b, d = sign * (t * a - y * det), sign * (t * c + x * det)
    assert abs(a * d - b * c) == 1
    return a, b, c, d


class TestGosperOracle:
    """Quotients of Moebius images of e against Gosper's homographic algorithm."""

    @given(
        unimodular_matrices(),
        st.integers(1, 100) | st.integers(1000, 1500),
        st.none() | st.integers(0, 100),
    )
    @example((-3, 8, 7, -19), 100, 15)  # 120 bits: cut at 33 terms
    @example((-3, 8, 7, -19), 10, 5)  # 4 bits: the pole is not separable
    @settings(max_examples=150, deadline=None)
    def test_e_images_are_a_prefix_of_the_oracle(self, m, terms, percent):
        # about 7.3 bits a term: a percentage of 8 bits a term cuts most runs short
        max_bits = realnum.DEFAULT_MAX_BITS if percent is None else 8 * terms * percent // 100
        try:
            cf = cf_from_enclosure(enclosure(Mobius(*m, SeriesE()), max_bits=max_bits), terms)
        except realnum.PrecisionBudgetError:
            assert max_bits < 64
            return
        assert cf.certified == terms or (cf.budget_exhausted and percent is not None)
        assert list(cf.quotients) == oracle.e_image_quotients(*m, cf.certified)


def irrational_surds():
    """(p, q, d) with (p + sqrt d)/q irrational and d < 10^6."""
    return st.tuples(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000).filter(bool),
        st.integers(2, 10**6 - 1).filter(lambda d: math.isqrt(d) ** 2 != d),
    )


class TestSurdOracle:
    """Quotients of surds and of their Moebius images against Lagrange's
    PQa recurrence; the image surd comes from the oracle's own algebra."""

    @staticmethod
    def check(spec, want, terms, percent):
        # a surd quotient takes a few bits: a percentage of 8 bits a term
        # cuts most runs short
        max_bits = realnum.DEFAULT_MAX_BITS if percent is None else 8 * terms * percent // 100
        try:
            cf = cf_from_enclosure(enclosure(spec, max_bits=max_bits), terms)
        except realnum.PrecisionBudgetError:
            assert max_bits < 64
            return
        assert cf.certified == terms or (cf.budget_exhausted and percent is not None)
        assert list(cf.quotients) == want(cf.certified)

    @given(irrational_surds(), st.integers(1, 100) | st.integers(1500, 2000), st.none() | st.integers(0, 100))
    @example((0, 1, 2), 2000, None)
    @example((-3, 7, 13), 1500, 10)
    @settings(max_examples=60, deadline=None)
    def test_surds_are_a_prefix_of_the_oracle(self, surd, terms, percent):
        self.check(Surd(*surd), lambda n: oracle.surd_quotients(*surd, n), terms, percent)

    @given(unimodular_matrices(), irrational_surds(), st.integers(1, 100) | st.integers(400, 600),
           st.none() | st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_surd_images_are_a_prefix_of_the_oracle(self, m, surd, terms, percent):
        image = oracle.surd_image(*m, *surd)
        self.check(Mobius(*m, Surd(*surd)), lambda n: oracle.surd_quotients(*image, n), terms, percent)

    @given(irrational_surds(), st.integers(1, 300))
    @example((0, 1, 2), 10)
    @example((1, 3, 7), 50)  # 3 does not divide 7 - 1
    @example((-3, -7, 13), 50)  # a negative Q that divides 13 - 9
    @example((5, -6, 11), 50)  # a negative Q that does not divide 11 - 25
    @settings(max_examples=200, deadline=None)
    def test_surd_quotients_match_the_oracle(self, surd, terms):
        # Euclid on the surd's bracket against Lagrange's PQa recurrence
        got = list(itertools.islice(contfrac._surd_quotients(*surd), terms))
        assert got == oracle.surd_quotients(*surd, terms)

    def test_pqa_on_known_expansions(self):
        assert oracle.surd_quotients(0, 1, 2, 6) == [1, 2, 2, 2, 2, 2]
        assert oracle.surd_quotients(1, 2, 5, 5) == [1, 1, 1, 1, 1]
        assert oracle.surd_quotients(0, -1, 7, 8) == [-3, 2, 1, 4, 1, 1, 1, 4]  # -sqrt 7
        assert oracle.surd_image(0, 1, 1, 0, 0, 1, 2) == (0, 2, 2)  # 1/sqrt 2


@st.composite
def intervals(draw):
    """(lo, hi, den): a denominator of 1 to 4000 bits, so that Euclid's
    divisors fall on both sides of the Lehmer gate, lo of either sign and
    a width from 0 (an exact point) past the unit (no shared quotient)."""
    bits = draw(st.integers(1, 4000) | st.integers(2500, 4000))
    # hypothesis draws edge cases, the seeded generator generic digits: a
    # small remainder is one huge quotient, after which the divisors are small
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.integers(1 << (bits - 1), (1 << bits) - 1) | st.just(rng.getrandbits(bits) | 1 << (bits - 1)))
    lo = draw(st.integers(-4 * den, 4 * den) | st.just(rng.randrange(-4 * den, 4 * den)))
    # narrow intervals keep the divisors above the gate for most of the run
    width_bits = draw(st.integers(0, bits // 4) | st.integers(0, bits))
    width = draw(st.just(0) | st.integers(0, 1 << width_bits) | st.just(rng.getrandbits(width_bits))
                 | st.integers(0, 8 * den))
    return lo, lo + width, den


def gate_interval(bits):
    """e's bracket at a scale of `bits`, with divisors near the gate once Euclid is half done."""
    lo, hi, den, shift = realnum._bracket(SeriesE(), bits)(bits)
    return lo, hi, den << shift


class TestEuclidKernel:
    """`contfrac._interval_quotients`, with its Lehmer batches and resumed
    prefixes, against the plain Euclid it replaces (`contfrac_oracle`)."""

    @given(intervals(), st.sampled_from((1, 2, 3)) | st.integers(1, 4000))
    @example((-7, -7, 3), 10)  # a negative exact point
    @example(gate_interval(2 * contfrac._LEHMER_GATE_BITS), 4000)
    @example(gate_interval(2 * contfrac._LEHMER_GATE_BITS + 1), 4000)
    @example(gate_interval(20_000), 1)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_plain_loop(self, interval, k_max):
        assert contfrac._interval_quotients(*interval, k_max) == oracle.interval_quotients(*interval, k_max)

    @given(intervals(), st.integers(0, 64), st.data())
    @settings(max_examples=300, deadline=None)
    def test_resumes_on_a_nested_interval(self, interval, finer, data):
        # the inner interval sits inside the outer one at 2^finer times its scale
        lo, hi, den = interval
        inner_lo = data.draw(st.integers(lo << finer, hi << finer))
        inner_hi = data.draw(st.integers(inner_lo, hi << finer))
        inner = (inner_lo, inner_hi, den << finer)
        known = oracle.interval_quotients(lo, hi, den, 10**9)
        want = oracle.interval_quotients(*inner, 10**9)
        assert contfrac._interval_quotients(*inner, 10**9, known) == want

    def test_batches_run_above_the_gate(self):
        interval = gate_interval(20_000)
        with mock.patch.object(contfrac, "_hull_quotients", wraps=contfrac._hull_quotients) as hull:
            got = contfrac._interval_quotients(*interval, 10**9)
        assert hull.call_count > 0 and got == oracle.interval_quotients(*interval, 10**9)

    @pytest.mark.parametrize("position, delta", [(0, 1), (2, 1), (3, -1), (5, 7)])
    def test_a_wrong_batch_quotient_fails_its_certificate(self, position, delta):
        def wrong(*args):
            batch = hull(*args)
            if len(batch) > position:
                batch[position] += delta
            return batch

        hull = contfrac._hull_quotients
        with mock.patch.object(contfrac, "_hull_quotients", wrong):
            with pytest.raises(CertificateError):
                cf_from_enclosure(enclosure(SeriesE()), 1500)

    def test_a_wrong_known_quotient_fails_the_resume(self):
        lo, hi, den = gate_interval(2000)
        known = oracle.interval_quotients(lo, hi, den, 10**9)
        known[-1] += 1
        with pytest.raises(CertificateError):
            contfrac._interval_quotients(lo << 8, hi << 8, den << 8, 10**9, known)


class TestResume:
    """`cf_from_enclosure` resumes Euclid on each refined bracket; the
    oracle runs the plain Euclid from the top on the same brackets."""

    @pytest.mark.parametrize(
        "spec",
        [SeriesE(), Surd(3, 7, 101), Surd(0, 1, 2), Mobius(5, 2, 2, 1, SeriesE()),
         Mobius(0, 1, 1, 5, Surd(-3, -7, 13)), Mobius(-3, 8, 7, -19, SeriesE())],
        ids=repr,
    )
    @pytest.mark.parametrize("terms", [300, 1000, 3000])
    @pytest.mark.parametrize("max_bits", [None, 0, 40, 2000])
    def test_same_expansion_as_restarting(self, spec, terms, max_bits):
        budget = realnum.DEFAULT_MAX_BITS if max_bits is None else max_bits
        results = []
        for expand in (cf_from_enclosure, oracle.cf_from_enclosure):
            try:
                results.append(expand(enclosure(spec, max_bits=budget), terms))
            except realnum.PrecisionBudgetError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        if max_bits == 2000 and terms == 3000:
            assert results[0].budget_exhausted


class TestIrrationalCF:
    def test_golden_all_ones(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 40)
        assert list(cf.quotients) == [1] * 40
        assert not cf.rational

    def test_euler_pattern(self):
        cf = cf_from_enclosure(enclosure(SeriesE()), 30)
        assert list(cf.quotients) == euler_quotients(30)

    def test_sandwich_and_convergent_gap(self):
        enc = enclosure(SeriesE())
        cf = cf_from_enclosure(enc, 20)
        enc.refine(140)
        lo, hi = enc.bounds()
        assert hi - lo <= Fraction(1, 10**40)
        convs = convergents_from_quotients(cf.quotients)
        for k in range(0, 18, 2):
            even = Fraction(*convs[k])
            odd = Fraction(*convs[k + 1])
            assert even <= lo and hi <= odd
        for n in range(19):
            p, q = convs[n]
            q_next = convs[n + 1][1]
            err_hi = max(abs(hi - Fraction(p, q)), abs(lo - Fraction(p, q)))
            assert err_hi < Fraction(1, q * q_next) + (hi - lo)

    def test_budget_exhaustion_is_partial_not_error(self):
        cf = cf_from_enclosure(enclosure(SeriesE(), max_bits=32), 200)
        assert cf.budget_exhausted
        assert 0 < cf.certified < 200
        assert list(cf.quotients) == euler_quotients(cf.certified)

    def test_convergents_roundtrip_in_canonical_form(self):
        cf = cf_from_enclosure(enclosure(SeriesE()), 15)
        convs = convergents_from_quotients(cf.quotients)
        for n in range(len(cf.quotients)):
            prefix = list(cf.quotients[: n + 1])
            if n > 0 and prefix[-1] == 1:
                prefix = prefix[:-1]
                prefix[-1] += 1
            back = cf_from_enclosure(enclosure(Rational(*convs[n])), n + 2)
            assert list(back.quotients) == prefix


class TestMuEstimate:
    def test_golden_terms_exactly_two(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 40)
        mu = mu_estimate(cf, 5)
        assert all(v == 2.0 for _, v in mu.values)
        assert mu.global_max == 2.0 and mu.tail_max == 2.0

    def test_e_window_below_2_2(self):
        cf = cf_from_enclosure(enclosure(SeriesE()), 62)
        mu = mu_estimate(cf, n_min=30)
        window = [v for n, v in mu.values if 30 <= n <= 60]
        assert len(window) == 31
        assert max(window) <= 2.2

    def test_synthetic_large_quotients_push_terms_to_three(self):
        # choose a_{n+1} = q_n so that log a_{n+1} / log q_n = 1
        qs = [1, 2]
        convs = convergents_from_quotients(qs)
        while len(qs) < 12:
            qs.append(convs[-1][1])
            convs = convergents_from_quotients(qs)
        cf = CFExpansion(tuple(qs))
        mu = mu_estimate(cf, 5)
        tail = [v for _, v in mu.values][-4:]
        assert all(abs(v - 3.0) < 1e-9 for v in tail)

    def test_terms_at_least_two(self):
        cf = cf_from_enclosure(enclosure(SeriesE()), 40)
        mu = mu_estimate(cf, 5)
        assert all(v >= 2.0 for _, v in mu.values)

    def test_too_few_terms(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 6)
        with pytest.raises(ValueError, match="too few certified terms"):
            mu_estimate(cf, 5)

    def test_small_denominator_guard(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 10)
        with pytest.raises(ValueError):
            mu_estimate(cf, 1)  # q_1 = 1 would put log 1 in the denominator

    @given(quotient_lists, st.integers(-1, 12))
    @example([2, 1, 2, 1, 1, 4, 1, 1, 6], 2)
    @example([-7, *[2**80] * 9], 5)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_link_reference(self, qs, n_min):
        # the same values, tail_start and errors as q_n read off checked pairs
        def result(estimate):
            try:
                return estimate(CFExpansion(tuple(qs)), n_min)
            except (ValueError, CertificateError) as exc:
                return type(exc), str(exc)

        assert result(mu_estimate) == result(oracle.mu_estimate)


class TestBoundedPQ:
    def test_golden(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 30)
        assert bounded_pq_check(cf, 30) == 1

    def test_e_quotients_grow(self):
        cf = cf_from_enclosure(enclosure(SeriesE()), 30)
        assert bounded_pq_check(cf, 30) == max(euler_quotients(30))
        assert bounded_pq_check(cf, 30) > bounded_pq_check(cf, 10)

    def test_shallit_small(self):
        cf = cf_from_enclosure(enclosure(SeriesShallit()), 20)
        assert bounded_pq_check(cf, 20) <= 6

    def test_window_validation(self):
        cf = cf_from_enclosure(enclosure(Surd(1, 2, 5)), 10)
        with pytest.raises(ValueError):
            bounded_pq_check(cf, 11)

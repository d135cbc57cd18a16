import hashlib
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords import cli, realnum
from diowords.spec import SpecSyntaxError
from diowords.realnum import (
    DEFAULT_MAX_BITS,
    Enclosure,
    FromCF,
    Mobius,
    PrecisionBudgetError,
    Rational,
    SeriesE,
    SeriesShallit,
    Surd,
    _e_bracket as e_bracket,
    digits,
    digits_from_enclosure,
    enclosure,
    convergent_bracket,
    convergents,
    enclosure_from_digits,
    mobius,
    parse_real_spec,
)

import realnum_oracle
import sturmian_oracle as oracle


def _at(spec, bits):
    """The enclosure of the spec at precision `bits`, its budget."""
    enc = enclosure(spec, max_bits=bits)
    enc.refine(bits)
    return enc


class TestEnclosure:
    def test_rational_is_point(self):
        enc = enclosure(Rational(1, 3))
        assert enc.is_point()
        assert enc.bounds()[0] == Fraction(1, 3)

    def test_series_e_contains_e(self):
        enc = enclosure(SeriesE())
        lo, hi = enc.bounds()
        assert enc.bits == 64
        assert float(lo) <= math.e <= float(hi)
        assert hi - lo <= Fraction(1, 2**64)

    def test_nested_refinement(self):
        enc = enclosure(SeriesE())
        bounds = [enc.bounds()]
        for _ in range(5):
            assert enc.refine()
            lo, hi = enc.bounds()
            plo, phi_ = bounds[-1]
            assert plo <= lo <= hi <= phi_
            assert hi - lo < phi_ - plo
            bounds.append((lo, hi))

    def test_budget_exhaustion(self):
        enc = enclosure(SeriesE(), max_bits=128)
        assert enc.refine()
        assert not enc.refine()

    def test_surd_square_is_point(self):
        enc = enclosure(Surd(1, 2, 9))
        assert enc.is_point() and enc.bounds()[0] == 2

    def test_surd_contains_value(self):
        enc = enclosure(Surd(0, 1, 2))
        enc.refine(80)
        lo, hi = enc.bounds()
        assert float(lo) <= math.sqrt(2) <= float(hi)

    def test_from_cf_tuple_exact(self):
        enc = enclosure(FromCF((3, 7)))
        assert enc.is_point() and enc.bounds()[0] == Fraction(22, 7)

    def test_from_cf_stream(self):
        lo, hi = enclosure(FromCF(lambda n: 1)).bounds()
        value = (1 + math.sqrt(5)) / 2
        assert float(lo) <= value <= float(hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            Rational(1, 0)
        with pytest.raises(ValueError):
            Surd(1, 0, 2)
        with pytest.raises(ValueError):
            FromCF(())
        with pytest.raises(ValueError):
            FromCF((1, 0))
        with pytest.raises(ValueError):
            Mobius(1, 1, 1, 1, Rational(1, 2))  # det 0


class TestDyadicContainment:
    """Each dyadic enclosure holds the exact Fraction bracket it replaces."""

    @given(st.integers(0, 700))
    @settings(max_examples=60, deadline=None)
    def test_e_holds_partial_sum_and_tail(self, bits):
        # K is the smallest with K! >= 2^(bits+1); e lies in [S_K, S_K + 2/K!]
        k, factorial = 0, 1
        while factorial < 2 ** (bits + 1):
            k += 1
            factorial *= k
        partial, term = Fraction(0), Fraction(1)
        for j in range(k):
            partial += term
            term /= j + 1
        lo, hi = _at(SeriesE(), bits).bounds()
        assert lo <= partial and partial + Fraction(2, factorial) <= hi
        assert hi - lo <= Fraction(1, 2**bits) + Fraction(2, 2 ** (bits + 32))

    @given(
        st.integers(-50, 50),
        st.integers(-9, 9).filter(bool),
        st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d),
        st.integers(0, 400),
    )
    @settings(max_examples=150, deadline=None)
    def test_surd_brackets_the_root(self, p, q, d, bits):
        lo, hi = _at(Surd(p, q, d), bits).bounds()
        # (p + sqrt d)/q in [lo, hi], checked by squaring integers of the cleared bounds
        below, above = (lo * q - p, hi * q - p) if q > 0 else (hi * q - p, lo * q - p)
        assert below < 0 or below * below < d
        assert above > 0 and d < above * above
        t = math.isqrt(d * 4**bits)  # the exact bracket (p + [t, t + 1]/2^bits)/q before rounding
        ends = sorted((Fraction(p * 2**bits + t, q * 2**bits), Fraction(p * 2**bits + t + 1, q * 2**bits)))
        assert lo <= ends[0] and ends[1] <= hi

    @given(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.booleans(),
        st.sampled_from(["e", "surd:0,1,2", "surd:1,2,5", "shallit"]),
        st.integers(0, 300),
    )
    @settings(max_examples=120, deadline=None)
    def test_mobius_holds_image_of_inner_bracket(self, k1, k2, flip, inner_spec, bits):
        # T^k1 S T^k2 (det -1) or T^(k1+k2) (det 1), with T = [[1,1],[0,1]], S = [[0,1],[1,0]]
        a, b, c, d = (k1, k1 * k2 + 1, 1, k2) if flip else (1, k1 + k2, 0, 1)
        inner = enclosure(parse_real_spec(inner_spec))
        try:
            # a budget of `bits` starts the image there when that is below the start precision
            enc = mobius(a, b, c, d, inner, max_bits=bits)
            enc.refine(bits)
        except PrecisionBudgetError:
            return
        x_lo, x_hi = inner.bounds()
        images = sorted(((a * x_lo + b) / (c * x_lo + d), (a * x_hi + b) / (c * x_hi + d)))
        lo, hi = enc.bounds()
        assert lo <= images[0] and images[1] <= hi
        assert hi - lo <= Fraction(1, 2**bits) + Fraction(2, 2 ** (bits + 32))

    @given(
        st.sampled_from(["e", "surd:-1,3,7", "shallit", "mobius:5,2,2,1:(e)", "mobius:0,1,1,-2:(surd:0,1,3)"]),
        st.lists(st.integers(1, 400), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinements_stay_nested(self, spec, steps):
        enc = enclosure(parse_real_spec(spec))
        bits = enc.bits
        for step in steps:
            before = enc.bounds()
            bits += step
            assert enc.refine(bits)
            lo, hi = enc.bounds()
            assert before[0] <= lo <= hi <= before[1]
            assert enc.bits == bits

    def test_from_cf_stream_holds_convergent_bracket(self):
        # sqrt(3) = [1; 1, 2, 1, 2, ...]: 97/56 and 168/97 straddle it
        enc = enclosure(FromCF(lambda n: 1 if n % 2 or n == 0 else 2), max_bits=14)
        lo, hi = enc.bounds()
        assert lo <= Fraction(97, 56) and Fraction(168, 97) <= hi
        assert lo * lo < 3 < hi * hi

    def test_from_cf_runaway_is_budget_exhaustion(self, monkeypatch):
        # the cap of a slope's bracket stops an infinite number's too: 64 bits
        # of the golden ratio take about 46 convergents
        monkeypatch.setattr(realnum, "_CF_EXTEND_CAP", 20)
        with pytest.raises(PrecisionBudgetError, match="ran away"):
            digits(FromCF(lambda n: 1), 10, 30)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_convergent_bracket_matches_product_rule(self, data):
        # bits near the summed bit lengths of a pair hit the one case the
        # lengths leave open, where the kernel multiplies
        a0 = data.draw(st.integers(-10**6, 10**6))
        quotients = st.one_of(st.integers(1, 40), st.integers(1, 2**80))
        tail = st.lists(quotients, min_size=1, max_size=6)
        start, cycle = [a0, *data.draw(tail)], data.draw(tail)

        def quotient(k):
            return start[k] if k < len(start) else cycle[(k - len(start)) % len(cycle)]

        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, 30))
            pairs = convergents(map(quotient, itertools.count()))
            _, q_prev, _, q = next(itertools.islice(pairs, k, None))
            bits = max(0, q_prev.bit_length() + q.bit_length() + data.draw(st.integers(-3, 1)))
        else:
            bits = data.draw(st.integers(0, 700))
        scale = bits + data.draw(st.integers(0, 40))
        lo, hi, den, shift = convergent_bracket(quotient, bits)
        want = oracle.convergent_bracket(quotient, bits, scale)
        assert shift == 0 and realnum._round_out(lo, hi - lo, den, scale) == want

    def test_digit_stream_holds_digit_cell(self):
        enc = enclosure_from_digits(lambda n: [1] * n, 3, max_bits=20)
        lo, hi = enc.bounds()
        n = int(20 / math.log2(3)) + 2
        cell = Fraction(3**n - 1, 2 * 3**n)  # 0.111...1 in base 3
        assert lo <= cell and cell + Fraction(1, 3**n) <= hi


class TestBudget:
    @pytest.mark.parametrize("max_bits", [0, 1, 32, 63])
    def test_start_precision_honours_small_budgets(self, max_bits):
        enc = enclosure(SeriesE(), max_bits=max_bits)
        assert enc.bits <= max_bits
        assert not enc.refine()
        image = enclosure(Mobius(5, 2, 2, 1, SeriesE()), max_bits=max_bits)
        assert image.bits <= max_bits

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            enclosure(SeriesE(), max_bits=-1)

    def test_refine_to_target_in_one_step(self):
        enc = enclosure(SeriesE())
        assert enc.refine(5000)
        assert enc.bits == 5000
        lo, hi = enc.bounds()
        assert hi - lo <= Fraction(1, 2**5000) + Fraction(2, 2**5032)
        assert enc.refine(100)  # already finer: kept as it is
        assert enc.bits == 5000


class TestMobius:
    def test_identity(self):
        enc = mobius(1, 0, 0, 1, enclosure(Rational(1, 3)))
        assert enc.bounds() == (Fraction(1, 3), Fraction(1, 3))

    def test_shift(self):
        enc = mobius(1, 1, 0, 1, enclosure(Rational(1, 3)))
        assert enc.bounds() == (Fraction(4, 3), Fraction(4, 3))

    def test_reciprocal_of_e(self):
        lo, hi = mobius(0, 1, 1, 0, enclosure(SeriesE())).bounds()
        assert float(lo) <= 1 / math.e <= float(hi)

    def test_unimodular_required(self):
        with pytest.raises(ValueError):
            mobius(2, 0, 0, 1, enclosure(Rational(1, 3)))

    def test_pole_at_point(self):
        with pytest.raises(ValueError, match="pole"):
            mobius(0, 1, 1, 0, enclosure(Rational(0, 1)))

    def test_spec_variant_digits(self):
        stream = digits(Mobius(0, 1, 1, 0, SeriesE()), 10, 10)
        assert stream.as_text() == "0.3678794411 certified:10"

    def test_mu_agreement_under_shift(self):
        # x -> x + 1 permutes the quotient tail; exponent terms agree
        from diowords.contfrac import cf_from_enclosure, mu_estimate

        cf_inner = cf_from_enclosure(enclosure(SeriesE()), 40)
        cf_image = cf_from_enclosure(mobius(1, 1, 0, 1, enclosure(SeriesE())), 40)
        mu_inner = mu_estimate(cf_inner, 6)
        mu_image = mu_estimate(cf_image, 6)
        assert abs(mu_inner.tail_max - mu_image.tail_max) <= 0.05


def _unimodular(bound: int) -> list[tuple[int, int, int, int]]:
    """Every (a, b, c, d) with |ad - bc| = 1 and entries in -bound..bound."""
    span = range(-bound, bound + 1)
    out = []
    for a, b, c in itertools.product(span, span, span):
        for det in (1, -1):
            if a == 0:
                out.extend((a, b, c, d) for d in span if -b * c == det)
            elif (det + b * c) % a == 0 and abs((det + b * c) // a) <= bound:
                out.append((a, b, c, (det + b * c) // a))
    return out


MATRICES = _unimodular(20)
# outermost matrix first
nested_matrices = st.lists(st.sampled_from(MATRICES), min_size=1, max_size=3)
fold_inner_specs = st.one_of(
    st.builds(
        Surd,
        st.integers(-30, 30),
        st.integers(-9, -1),
        st.integers(2, 500).filter(lambda r: math.isqrt(r) ** 2 != r),
    ),
    st.just(SeriesE()),
    st.builds(Rational, st.integers(-30, 30), st.integers(1, 9)),
    st.just(SeriesShallit()),
    st.just(FromCF(lambda n: 1 + n % 3)),
)


def _nest(matrices, inner):
    for m in reversed(matrices):
        inner = Mobius(*m, inner)
    return inner


def _chain(matrices, inner):
    """The unfolded image: `mobius` applied level by level to the inner enclosure."""
    enc = enclosure(inner)
    for m in reversed(matrices):
        enc = mobius(*m, enc)
    return enc


class TestMobiusFold:
    """`enclosure` folds Moebius images; the `mobius` chain is the oracle."""

    @given(nested_matrices, fold_inner_specs, st.sampled_from([2, 3, 10]), st.integers(0, 150))
    @settings(max_examples=150, deadline=None)
    def test_same_digits_as_the_chain(self, matrices, inner, base, count):
        spec = _nest(matrices, inner)
        try:
            chain = _chain(matrices, inner)
        except ValueError as exc:
            # an exact inner value can sit on a pole of some level
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                digits(spec, base, count)
            return
        assert digits(spec, base, count) == digits_from_enclosure(chain, base, count)

    @given(nested_matrices, fold_inner_specs, st.lists(st.integers(1, 300), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_brackets_nest_and_meet_the_chain(self, matrices, inner, steps):
        spec = _nest(matrices, inner)
        try:
            chain = _chain(matrices, inner)
        except ValueError:
            return
        enc = enclosure(spec)
        bits = enc.bits
        for step in steps:
            before = enc.bounds()
            bits += step
            assert enc.refine(bits) and chain.refine(bits)
            lo, hi = enc.bounds()
            assert before[0] <= lo <= hi <= before[1]
            # both hold the image, so they overlap
            chain_lo, chain_hi = chain.bounds()
            assert max(lo, chain_lo) <= min(hi, chain_hi)

    @given(st.sampled_from(MATRICES), st.lists(st.integers(1, 300), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_shallit_image_brackets_are_the_chain(self, matrix, steps):
        # Shallit's bracket is exact and dyadic, so the image maps the bracket
        # that `mobius` reads off its enclosure: the two are equal by construction
        enc = enclosure(Mobius(*matrix, SeriesShallit()))
        chain = mobius(*matrix, enclosure(SeriesShallit()))
        assert enc.dyadic() == chain.dyadic()
        bits = enc.bits
        for step in steps:
            bits += step
            assert enc.refine(bits) and chain.refine(bits)
            assert enc.dyadic() == chain.dyadic()

    def test_surd_image_is_a_surd(self):
        # (sqrt 3 + 1)/(sqrt 3 + 2) = sqrt 3 - 1, scaled by a power of two
        enc = enclosure(Mobius(1, 1, 1, 2, Surd(0, 1, 3)))
        enc.refine(100)
        lo, hi = enc.bounds()
        assert lo < hi and (lo + 1) ** 2 < 3 < (hi + 1) ** 2
        assert hi - lo <= Fraction(1, 2**100)

    def test_e_image_returns_its_bracket_at_the_budget(self):
        # 7e - 19 is about 0.028, so the map widens e's bracket about 2^10 times:
        # 120 bits of e cannot give 120 bits of the image, folded or not, and
        # the bracket reached at the budget is returned
        spec = Mobius(-3, 8, 7, -19, SeriesE())
        e_lo, e_hi = _at(SeriesE(), 300).bounds()
        image_lo, image_hi = sorted((-3 * x + 8) / (7 * x - 19) for x in (e_lo, e_hi))
        folded = enclosure(spec, max_bits=120)
        chain = mobius(-3, 8, 7, -19, enclosure(SeriesE(), max_bits=120), max_bits=120)
        for enc in (folded, chain):
            assert enc.refine(120) and not enc.refine()
            lo, hi = enc.bounds()
            assert lo <= image_lo <= image_hi <= hi
            assert hi - lo > Fraction(1, 2**120)
        stream = digits(spec, 2, 200, max_bits=120)
        assert stream.certified == 108
        assert stream.fractional_digits == digits(spec, 2, 108).fractional_digits

    @pytest.mark.parametrize(
        "argv, precisions, md5",
        [
            (("cf", "mobius:5,2,2,1:(e)", "--terms", "1500"), [64, 4827, 10824],
             "015c877cfe1189b17e2840df3e08b489"),
            (("digits", "mobius:3,1,2,1:(e)", "--base", "2", "--count", "75000"), [64, 75060],
             "10a6d33985130edc0c5b7ecd58b7d20d"),
        ],
    )
    def test_e_image_computes_each_bracket_once(self, capsys, monkeypatch, argv, precisions, md5):
        # the refine loop keeps e's last bracket between calls; the digests
        # are the output from before it did
        calls = []

        def counted(bits):
            calls.append(bits)
            return e_bracket(bits)

        monkeypatch.setattr(realnum, "_e_bracket", counted)
        assert cli.main(list(argv)) == 0
        assert calls == precisions
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5

    def test_pole_not_separable_within_the_budget(self):
        # 19/7 lies within 2^-7 of e, inside e's bracket at 4 bits
        spec = Mobius(-3, 8, 7, -19, SeriesE())
        with pytest.raises(PrecisionBudgetError, match="Moebius pole not separable within budget"):
            enclosure(spec, max_bits=4)
        with pytest.raises(PrecisionBudgetError, match="Moebius pole not separable within budget"):
            mobius(-3, 8, 7, -19, enclosure(SeriesE(), max_bits=4), max_bits=4)


@st.composite
def image_cases(draw):
    """(a, b, c, d, lo, hi, den, scale) for `_image_bracket`: a product of
    [[k, 1], [1, 0]], with one row negated to flip the determinant's sign
    and the whole matrix negated, which turns cx + d negative wherever it was
    positive; a bracket of width 0 to 2^256 over a den up to 2^256, placed
    anywhere or next to the pole; a scale of 0 to 400."""
    a, b, c, d = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-6, 6), max_size=4)):
        a, b, c, d = a * k + b, a, c * k + d, c
    if draw(st.booleans()):
        a, b = -a, -b
    if draw(st.booleans()):
        a, b, c, d = -a, -b, -c, -d
    den = draw(st.integers(1, 2**256))
    width = draw(st.integers(0, 2**256))
    if c and draw(st.booleans()):
        lo = -d * den // c + draw(st.integers(-3, 3)) - draw(st.integers(0, width))
    else:
        lo = draw(st.integers(-(2**260), 2**260))
    return a, b, c, d, lo, lo + width, den, draw(st.integers(0, 400))


class TestSearch:
    def test_first_true_on_every_monotone_test(self):
        # test(k) is k >= answer on [lo, hi): never true when answer is hi,
        # and asked only inside [lo, hi)
        for lo in range(41):
            for hi in range(lo, 41):
                for answer in range(lo, hi + 1):
                    asked = []

                    def test(k):
                        asked.append(k)
                        return k >= answer

                    assert realnum._first_true(test, lo, hi) == answer
                    assert all(lo <= k < hi for k in asked)

    def test_e_terms_needed_matches_the_bisecting_loop(self):
        for bits in [*range(20_001), 10**5, 10**6, 10**7]:
            assert realnum._e_terms_needed(bits) == realnum_oracle.e_terms_needed(bits), bits


class TestImageBracket:
    """`_image_bracket` against the two-product reference of `realnum_oracle`,
    which no other test can catch it out on: `mobius`, `TestMobiusFold`'s
    oracle chain, maps its brackets with the same `_image_bracket`."""

    @given(image_cases())
    @example((5, 2, 2, 1, -1, 0, 2, 10))  # the pole -1/2 on [-1/2, 0]
    @example((2, 1, -1, -1, 0, 3, 1, 5))  # det -1, cx + d < 0 on [0, 3]
    @settings(max_examples=600, deadline=None)
    def test_equals_the_two_product_reference(self, case):
        assert realnum._image_bracket(*case) == realnum_oracle.image_bracket(*case)

    def test_cases_reach_every_branch(self):
        # the strategy draws poles, negative denominators and both signs
        seen = set()

        @given(image_cases())
        @settings(max_examples=300, deadline=None, database=None)
        def record(case):
            a, b, c, d, lo, hi, den, _ = case
            den_lo = c * lo + d * den
            pole = realnum_oracle.image_bracket(*case) is None
            seen.add((pole, not pole and den_lo < 0, a * d - b * c))

        record()
        assert {(True, False, 1), (True, False, -1)} <= seen
        assert {(False, True, 1), (False, True, -1), (False, False, 1), (False, False, -1)} <= seen

    @pytest.mark.parametrize(
        "matrix", [(5, 2, 2, 1), (2, 5, 1, 2), (-5, -2, -2, -1)], ids=["det+1", "det-1", "negated"]
    )
    def test_e_bracket_at_1e5_bits(self, matrix):
        lo, hi, den, shift = e_bracket(10**5)
        case = (*matrix, lo, hi, den << shift, 10**5 + realnum._GUARD_BITS)
        image = realnum._image_bracket(*case)
        assert image == realnum_oracle.image_bracket(*case)
        assert 0 < image[1] - image[0] <= 2**realnum._GUARD_BITS


def _value(spec):
    """The value of a rational spec, None for an irrational one; a Moebius
    image whose denominator vanishes at its inner value raises."""
    if isinstance(spec, Mobius):
        x = _value(spec.inner)
        if x is None:
            return None
        if spec.c * x + spec.d == 0:
            raise ValueError("Moebius pole at the inner value")
        return (spec.a * x + spec.b) / (spec.c * x + spec.d)
    if isinstance(spec, Rational):
        return Fraction(spec.p, spec.q)
    if isinstance(spec, Surd):
        root = math.isqrt(spec.d)
        return Fraction(spec.p + root, spec.q) if root * root == spec.d else None
    if isinstance(spec, FromCF) and isinstance(spec.quotients, tuple):
        x = Fraction(spec.quotients[-1])
        for a in reversed(spec.quotients[:-1]):
            x = a + 1 / x
        return x
    return None


exactness_atoms = st.one_of(
    st.builds(Rational, st.integers(-30, 30), st.integers(1, 9)),
    st.builds(lambda a0, rest: FromCF((a0, *rest)), st.integers(-5, 5),
              st.lists(st.integers(1, 9), max_size=5)),
    st.builds(lambda p, q, k: Surd(p, q, k * k), st.integers(-30, 30),
              st.integers(-9, 9).filter(bool), st.integers(0, 12)),
    fold_inner_specs,
)


class TestExactness:
    """`_exact` decides exactness once; `enclosure` follows it."""

    @given(st.lists(st.sampled_from(MATRICES), max_size=3), exactness_atoms)
    @example([(1, 1, 0, 1), (0, 1, 1, 0)], Rational(0, 1))  # the inner level's pole
    @example([(0, 1, 1, 0), (1, -1, 0, 1)], FromCF((1,)))  # the outer level's pole
    @example([(1, 1, 0, 1), (0, -1, 1, -3)], Surd(1, 1, 4))  # a square surd's pole
    @settings(max_examples=300, deadline=None)
    def test_points_are_the_exact_specs(self, matrices, atom):
        spec = _nest(matrices, atom)
        try:
            want = _value(spec)
        except ValueError as exc:
            assert realnum._exact(spec)
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                enclosure(spec)
            return
        enc = enclosure(spec)
        assert realnum._exact(spec) == enc.is_point() == (want is not None)
        if want is not None:
            assert enc.bounds() == (want, want)


class TestDigits:
    def test_one_third(self):
        assert digits(Rational(1, 3), 10, 5).as_text() == "0.33333 certified:5"

    def test_terminating_expansion_pads_zeros(self):
        assert digits(Rational(1, 2), 10, 5).as_text() == "0.50000 certified:5"

    def test_e_fifteen_digits(self):
        assert digits(SeriesE(), 10, 15).as_text() == "2.718281828459045 certified:15"

    def test_e_two_precisions_agree(self):
        # same digits whether the enclosure starts coarse or fine
        coarse = digits_from_enclosure(enclosure(SeriesE()), 10, 12)
        fine = enclosure(SeriesE())
        fine.refine(4096)
        fine = digits_from_enclosure(fine, 10, 12)
        assert coarse.fractional_digits == fine.fractional_digits

    def test_shallit_digit_positions(self):
        stream = digits(SeriesShallit(), 2, 16)
        assert stream.as_text() == "0.1101000100000001 certified:16"
        ones = {i + 1 for i, d in enumerate(stream.fractional_digits) if d}
        assert ones == {1, 2, 4, 8, 16}

    def test_sqrt2_against_isqrt_oracle(self):
        n = 40
        stream = digits(Surd(0, 1, 2), 10, n)
        scaled = math.isqrt(2 * 10 ** (2 * n))  # floor(sqrt(2) * 10^n)
        expected = [int(c) for c in str(scaled)[1:]]
        assert stream.integer_part == 1
        assert list(stream.fractional_digits) == expected

    def test_negative_value_floor_digits(self):
        stream = digits(Rational(-1, 3), 10, 4)
        assert stream.integer_part == -1
        assert list(stream.fractional_digits) == [6, 6, 6, 6]
        assert stream.as_text() == "-1+0.6666 certified:4"

    def test_binary_and_hex(self):
        assert digits(Rational(1, 2), 2, 3).fractional_digits == bytes((1, 0, 0))
        assert digits(Rational(1, 16), 16, 2).fractional_digits == bytes((1, 0))

    def test_base_validation(self):
        with pytest.raises(ValueError):
            digits(Rational(1, 2), 1, 3)

    @pytest.mark.parametrize(
        "base, count, message",
        [
            (0, 3, "base must be >= 2"),
            (1, 3, "base must be >= 2"),
            (-2, 3, "base must be >= 2"),
            (10, -1, "count must be nonnegative"),
        ],
    )
    @pytest.mark.parametrize("spec", [Rational(1, 3), SeriesE()], ids=["point", "interval"])
    def test_digits_from_enclosure_checks_its_arguments(self, spec, base, count, message):
        # a negative count returned a stream of junk bytes, and base 0 or 1
        # died in the arithmetic
        with pytest.raises(ValueError, match=f"^{message}$"):
            digits_from_enclosure(enclosure(spec), base, count)

    def test_budget_exhaustion_gives_partial_stream(self):
        stream = digits(SeriesE(), 10, 400, max_bits=256)
        assert not stream.complete
        assert 0 < stream.certified < 400
        full = digits(SeriesE(), 10, stream.certified)
        assert stream.fractional_digits == full.fractional_digits

    def test_an_interval_that_refines_to_a_point_certifies_every_digit(self):
        # [0, 1/2] at the start precision, the point 1/2 from 100 bits on; the
        # last digit's precision lies past the budget
        def compute(bits):
            return (0, 2, 1, 2) if bits < 100 else (1 << bits - 1, 1 << bits - 1, 1, bits)

        stream = digits_from_enclosure(Enclosure(compute, 100), 10, 1000)
        assert stream.complete and stream.fractional_digits == bytes([5] + [0] * 999)

    def test_digit_value_consistency(self):
        # rational value of the digit prefix sits within b^(1-N) of the target
        n = 30
        stream = digits(SeriesE(), 10, n)
        value = stream.integer_part + Fraction(int("".join(map(str, stream.fractional_digits))), 10**n)
        mid = sum(_at(SeriesE(), 256).bounds()) / 2
        assert abs(value - mid) < Fraction(10) ** (1 - n)

    @given(st.integers(1, 200), st.integers(2, 300))
    @settings(max_examples=100)
    def test_rational_digits_match_long_division(self, p, q):
        from diowords.approx import expansion_digits

        p = p % q
        stream = digits(Rational(p, q), 10, 25)
        assert list(stream.fractional_digits) == expansion_digits(p, q, 10, 25)

    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(2, 300), st.integers(0, 80))
    @settings(max_examples=200)
    def test_digits_match_long_division_in_any_base(self, p, q, base, count):
        from diowords.approx import expansion_digits

        p = p % q
        stream = digits(Rational(p, q), base, count)
        assert list(stream.fractional_digits) == expansion_digits(p, q, base, count)


class TestCrossRoutes:
    def test_e_digits_via_euler_quotients(self):
        def euler(n):
            if n == 0:
                return 2
            return 2 * (n + 1) // 3 if n % 3 == 2 else 1

        via_cf = digits(FromCF(euler), 10, 30)
        via_series = digits(SeriesE(), 10, 30)
        assert via_cf.fractional_digits == via_series.fractional_digits
        assert via_cf.integer_part == via_series.integer_part

    def test_golden_digits_via_cf_and_surd(self):
        via_cf = digits(FromCF(lambda n: 1), 2, 40)
        via_surd = digits(Surd(1, 2, 5), 2, 40)
        assert via_cf.fractional_digits == via_surd.fractional_digits

    def test_sqrt2_digits_via_cf_and_surd(self):
        via_cf = digits(FromCF(lambda n: 1 if n == 0 else 2), 10, 40)
        via_surd = digits(Surd(0, 1, 2), 10, 40)
        assert via_cf.fractional_digits == via_surd.fractional_digits


class TestEnclosureFromDigits:
    def test_fixed_digit_stream(self):
        enc = enclosure_from_digits(lambda n: [3] * n, 10)
        lo, hi = enc.bounds()
        assert float(lo) <= 1 / 3 <= float(hi)
        enc.refine()
        lo, hi = enc.bounds()
        assert hi - lo < Fraction(1, 10**30)


class TestSpecGrammar:
    def test_roundtrip_forms(self):
        assert parse_real_spec("e") == SeriesE()
        assert parse_real_spec("shallit") == SeriesShallit()
        assert parse_real_spec("rat:22/7") == Rational(22, 7)
        assert parse_real_spec("rat:5") == Rational(5, 1)
        assert parse_real_spec("surd:1,2,5") == Surd(1, 2, 5)
        assert parse_real_spec("cf:2,1,2") == FromCF((2, 1, 2))
        spec = parse_real_spec("mobius:0,1,1,0:(e)")
        assert spec == Mobius(0, 1, 1, 0, SeriesE())

    def test_nested_mobius(self):
        spec = parse_real_spec("mobius:1,1,0,1:(mobius:0,1,1,0:(rat:1/3))")
        assert spec == Mobius(1, 1, 0, 1, Mobius(0, 1, 1, 0, Rational(1, 3)))

    def test_cf_file(self, tmp_path):
        path = tmp_path / "cf.json"
        path.write_text('["2", "1", "2"]')
        assert parse_real_spec(f"cf:@{path}") == FromCF((2, 1, 2))

    def test_errors_carry_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_real_spec("rat:x/y")
        assert err.value.position == 4
        with pytest.raises(SpecSyntaxError) as err:
            parse_real_spec("mobius:0,1,1,0:(nope)")
        assert err.value.position == 16
        with pytest.raises(SpecSyntaxError):
            parse_real_spec("wat:1")

import importlib
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords import repetition, sturmian
from diowords.cli import parse_word_source
from diowords.realnum import FromCF, Surd
from diowords.repetition import (
    _estimate,
    _record_steps,
    _z_array,
    dio_brute_force,
    dio_estimate,
    ice_brute_force,
    ice_estimate,
)
from diowords.spec import Morphism, digit_word
from diowords.sturmian import (
    QuasiSturmianSpec,
    _bracket,
    _checked,
    _floors,
    apply_morphism,
    letter_frequency_check,
    mechanical_word,
    morphic_length_check,
    parse_morphism,
    parse_slope,
    quasi_sturmian_check,
    record_runs,
    record_runs_from,
    slope_bounds,
)
from diowords.suffix import longest_previous_factor, suffix_index
from diowords.words import Word, complexity_profile

import sturmian_oracle as oracle
import suffix_oracle

FIB_SLOPE = Surd(-3, -2, 5)  # (3 - sqrt(5))/2


def _quasi_shapes():
    """The (W, morphism) pairs of the benchmark's quasi family."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("workloads").QUASI_SHAPES
    finally:
        sys.path.remove(perfbench)


QUASI_SHAPES = _quasi_shapes()


def fib_text(n):
    s = "0"
    while len(s) < n:
        s = s.replace("0", "a").replace("1", "0").replace("a", "01")
    return s[:n]


def near_integer_words(slope, n0, length, monkeypatch):
    """The two words of `near_integer_intercepts`, each checked against the oracle.

    Each must ask the slope for a bracket more than once.  Also returns the
    bits that the second word asked for, in order.
    """
    requested = []
    monkeypatch.setattr(
        sturmian, "_bracket", lambda s, bits: requested.append(bits) or _bracket(s, bits)
    )
    words = []
    for rho in oracle.near_integer_intercepts(slope, n0):
        requested.clear()
        words.append(mechanical_word(slope, rho, length).symbols)
        assert len(requested) > 1
        assert words[-1] == oracle.mechanical_letters(slope, rho, length)
    return words, requested


def open_floors(slope, rho, count, bits):
    """The n <= count whose floor one bracket at `bits` leaves undecided."""
    lo, hi = _bracket(slope, bits)
    r = (rho.numerator << bits) // rho.denominator
    return [n for n in range(1, count + 1) if (n * lo + r) >> bits != (n * hi + r) >> bits]


def cf_text(head, cycle):
    """The "cfslope:" text of [0; head, cycle, cycle, ...]."""
    return f"cfslope:{''.join(f'{m},' for m in head)}({','.join(map(str, cycle))})*"


@st.composite
def slopes(draw):
    """Surds (P + S*sqrt(D))/Q in (0, 1), periodic continued fractions and pow10."""
    kind = draw(st.sampled_from(("surd", "cf", "pow10")))
    if kind == "pow10":
        return parse_slope("cfslope:pow10")
    if kind == "cf":
        head = draw(st.lists(st.integers(1, 40), max_size=4))
        cycle = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
        return parse_slope(cf_text(head, cycle))
    d = draw(st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d))
    q = draw(st.integers(1, 1000))
    sign = draw(st.sampled_from((1, -1)))
    # P + S*sqrt(D) lies in (j - 1, j), inside (0, Q)
    j = draw(st.integers(1, q))
    p = j + (-math.isqrt(d) - 1 if sign > 0 else math.isqrt(d))
    return Surd(p, q, d) if sign > 0 else Surd(-p, -q, d)


intercepts = st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda r: r < 1)


class TestSlopeSpecs:
    def test_surd_validation(self):
        with pytest.raises(ValueError):
            parse_slope("surd:1,0,5")  # zero denominator
        # the parser reads the text; the slope check, run by every consumer, the value
        with pytest.raises(ValueError):
            _checked(parse_slope("surd:0,2,4"))  # perfect square
        with pytest.raises(ValueError):
            _checked(parse_slope("surd:5,2,5"))  # value > 1
        with pytest.raises(ValueError):
            _checked(parse_slope("surd:-5,2,5"))  # value < 0

    def test_surd_bounds_bracket_value(self):
        lo, hi = slope_bounds(FIB_SLOPE, 80)
        # alpha = (3 - sqrt(5))/2, so alpha > x iff (3 - 2x)^2 > 5 (both sides > 0)
        assert (3 - 2 * lo) ** 2 > 5 > (3 - 2 * hi) ** 2
        assert hi - lo <= Fraction(1, 2**80)

    @given(slopes(), st.integers(0, 400))
    @settings(max_examples=200, deadline=None)
    def test_bracket_is_tight_and_strict(self, slope, bits):
        # lo < alpha*2^bits < hi, and alpha*2^bits is never an integer
        lo, hi = _bracket(slope, bits)
        assert lo <= oracle.floor_times(slope, 1 << bits, Fraction(0)) < hi <= lo + 2

    def test_cf_slope_quotients(self):
        s = parse_slope("cfslope:1,2,(3,4)*")
        assert [s.quotients(i) for i in range(7)] == [0, 1, 2, 3, 4, 3, 4]
        assert parse_slope("cfslope:1,2") == FromCF((0, 1, 2))
        with pytest.raises(ValueError, match="^slope must be irrational$"):
            slope_bounds(parse_slope("cfslope:1,2"))

    def test_negative_precision_rejected(self):
        # died with "negative shift count"
        with pytest.raises(ValueError, match="^bits must be nonnegative$"):
            slope_bounds(FIB_SLOPE, -5)

    def test_cf_slope_validation(self):
        for text, position in (("cfslope:0", 8), ("cfslope:1,(0)*", 11)):
            with pytest.raises(ValueError, match=rf"^quotient must be >= 1, got 0 \(position {position}\)$"):
                parse_slope(text)
        with pytest.raises(ValueError, match=r"^slope must lie in \(0, 1\)$"):
            mechanical_word(FromCF(lambda i: 1), Fraction(0), 10)  # [1; 1, 1, ...]

    def test_parse_slope(self):
        assert parse_slope("surd:-3,-2,5") == FIB_SLOPE
        assert parse_slope("cfslope:1,2,3") == FromCF((0, 1, 2, 3))
        s = parse_slope("cfslope:(1)*")
        assert [s.quotients(i) for i in range(4)] == [0, 1, 1, 1]
        s = parse_slope("cfslope:2,(1,3)*")
        assert [s.quotients(i) for i in range(6)] == [0, 2, 1, 3, 1, 3]
        s = parse_slope("cfslope:pow10")
        assert [s.quotients(i) for i in (0, 1, 2, 3)] == [0, 1, 10, 100]
        with pytest.raises(ValueError):
            parse_slope("surd:1,2")
        with pytest.raises(ValueError):
            parse_slope("nope:1")
        with pytest.raises(ValueError):
            parse_slope("cfslope:")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cfslope:1,,2,(1)*", r"bad quotient '': expected an optional '-' and ASCII digits \(position 10\)"),
            ("cfslope:,1,(1)*", r"bad quotient '': expected an optional '-' and ASCII digits \(position 8\)"),
            ("cfslope:1,2,", r"bad quotient '': expected an optional '-' and ASCII digits \(position 12\)"),
            ("cfslope:(1,,2)*", r"bad quotient '': expected an optional '-' and ASCII digits \(position 11\)"),
            ("cfslope:3,(1,)*", r"bad quotient '': expected an optional '-' and ASCII digits \(position 13\)"),
            ("cfslope:1(2)*", r"periodic tail must follow a comma \(position 9\)"),
        ],
    )
    def test_cf_slope_fields_are_not_dropped(self, text, message):
        # empty fields were skipped and "1(2)*" read as "1,(2)*"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_slope(text)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 0, 5), "surd denominator must be nonzero"),
            ((0, 2, 4), "surd radicand must be positive and not a perfect square"),
            ((0, 2, -3), "surd radicand must be nonnegative"),
            ((5, 2, 5), r"slope must lie in \(0, 1\)"),
        ],
    )
    def test_surd_error_messages(self, args, message):
        # a value no Surd holds is refused by the parser, at the surd's fields;
        # a square radicand and the range by the slope check
        where = r" \(position 5\)" if args[1] == 0 or args[2] < 0 else ""
        with pytest.raises(ValueError, match=f"^{message}{where}$"):
            _checked(parse_slope("surd:{},{},{}".format(*args)))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_surd_range_matches_sign_rule(self, data):
        # p is drawn near the range -sqrt(d) < p < q - sqrt(d) (q > 0) half of the time
        big = 10**30
        d = data.draw(st.one_of(st.integers(2, 10**6), st.integers(2, big)).filter(
            lambda d: math.isqrt(d) ** 2 != d))
        q = data.draw(st.one_of(st.integers(1, 50), st.integers(1, big)))
        q *= data.draw(st.sampled_from((1, -1)))
        root = math.isqrt(d)
        p = data.draw(st.one_of(
            st.integers(-big, big),
            st.integers(-abs(q) - 2, abs(q) + 2).map(lambda k: k - root if q > 0 else root + k),
        ))
        self._check_range(p, q, d)

    @given(st.integers(1, 10**199), st.sampled_from((1, 2, 3, 7)), st.integers(-9, 9))
    @settings(max_examples=300, deadline=None)
    def test_surd_range_near_the_boundary(self, r, m, k):
        # alpha = sqrt(r^2 + 1) - r lies just above 0 and 1 - alpha just below 1;
        # (p + sqrt(d))/q over p near -r, r + 1 and q = +-m lands on both sides of 0 and 1
        d = r * r + 1
        for p, q in ((k - r, m), (-(r + 1) + k, -m), (k - r - m, m), (k - r, -m)):
            self._check_range(p, q, d)

    @staticmethod
    def _check_range(p, q, d):
        try:
            _checked(parse_slope(f"surd:{p},{q},{d}"))
        except ValueError as exc:
            assert str(exc) == "slope must lie in (0, 1)"
            assert not oracle.surd_in_unit_interval(p, q, d)
        else:
            assert oracle.surd_in_unit_interval(p, q, d)

    @pytest.mark.parametrize("text", ["cfslope:(1)*", "cfslope:1,(2,3)*"])
    def test_bracket_does_not_depend_on_earlier_calls(self, text):
        def used():
            slope = parse_slope(text)
            mechanical_word(slope, Fraction(0), 1000)
            return slope

        w = mechanical_word(parse_slope(text), Fraction(0), 1000)
        assert slope_bounds(used(), 16) == slope_bounds(parse_slope(text), 16)
        assert letter_frequency_check(w, used()) == letter_frequency_check(w, parse_slope(text))
        if text == "cfslope:(1)*":
            assert slope_bounds(used(), 16)[1] == Fraction(5063, 8192)

    def test_periodic_tail_matches_surd(self):
        # [0; 1, 1, 1, ...] = (sqrt(5) - 1)/2
        cf = parse_slope("cfslope:(1)*")
        surd = Surd(-1, 2, 5)
        assert mechanical_word(cf, Fraction(0), 300) == mechanical_word(surd, Fraction(0), 300)


class TestMechanicalWord:
    def test_fibonacci_13(self):
        assert mechanical_word(FIB_SLOPE, Fraction(0), 13).to_text() == "0100101001001"

    def test_fibonacci_matches_morphism_fixed_point(self):
        assert mechanical_word(FIB_SLOPE, Fraction(0), 500).to_text() == fib_text(500)

    def test_single_letter(self):
        assert mechanical_word(FIB_SLOPE, Fraction(0), 1).to_text() == "0"  # slope < 1/2
        high = Surd(-1, 2, 5)  # about 0.618
        assert mechanical_word(high, Fraction(0), 1).to_text() == "1"

    def test_complexity_is_n_plus_1(self):
        w = mechanical_word(FIB_SLOPE, Fraction(0), 200)
        prof = complexity_profile(w, 20)
        assert prof.counts == tuple(n + 1 for n in range(1, 21))

    @pytest.mark.parametrize(
        "slope",
        [FIB_SLOPE, Surd(-1, 2, 5), Surd(-1, 1, 2), Surd(0, 3, 7)],
        ids=["fib", "golden-conj", "sqrt2-1", "sqrt7/3"],
    )
    def test_all_factors_present_with_quadratic_margin(self, slope):
        # a prefix of length (n_max+1)^2 already shows every factor
        n_max = 20
        w = mechanical_word(slope, Fraction(0), (n_max + 1) ** 2)
        prof = complexity_profile(w, n_max)
        assert prof.counts == tuple(n + 1 for n in range(1, n_max + 1))

    def test_rational_slope_rejected(self):
        with pytest.raises(ValueError, match="slope must be irrational"):
            mechanical_word(FromCF((0, 2)), Fraction(0), 10)

    def test_intercept_validation(self):
        with pytest.raises(ValueError):
            mechanical_word(FIB_SLOPE, Fraction(3, 2), 10)
        with pytest.raises(TypeError):
            mechanical_word(FIB_SLOPE, 0.25, 10)

    @pytest.mark.parametrize("text", ["0.5", "1/3", "0"])
    def test_intercept_text_rejected(self, text):
        # text is read by spec.read_intercept only, never behind the grammar's back
        with pytest.raises(TypeError, match="^intercept must be an int or a Fraction, not str$"):
            mechanical_word(FIB_SLOPE, text, 10)

    def test_intercept_shifts_word(self):
        a = mechanical_word(FIB_SLOPE, Fraction(0), 50)
        b = mechanical_word(FIB_SLOPE, Fraction(1, 3), 50)
        assert a != b

    def test_cf_slope_agrees_with_surd(self):
        # same slope two ways: (sqrt(2) - 1) = [0; (2)*]
        cf = parse_slope("cfslope:(2)*")
        surd = Surd(-1, 1, 2)
        assert mechanical_word(cf, Fraction(0), 400) == mechanical_word(surd, Fraction(0), 400)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_position_floors(self, data):
        slope = data.draw(slopes())
        rho = data.draw(intercepts)
        length = data.draw(st.integers(1, 300))
        want = oracle.mechanical_letters(slope, rho, length)
        assert mechanical_word(slope, rho, length).symbols == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_position_floors_across_blocks(self, data):
        # blocks of 7 letters: every drawn word crosses block edges
        slope = data.draw(slopes())
        rho = data.draw(intercepts)
        length = data.draw(st.integers(1, 300))
        want = oracle.mechanical_letters(slope, rho, length)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sturmian, "_BLOCK", 7)
            assert mechanical_word(slope, rho, length).symbols == want

    def test_matches_per_position_floors_past_two_blocks(self):
        rho, length = Fraction(1, 3), 2 * sturmian._BLOCK + 3
        want = oracle.mechanical_letters(FIB_SLOPE, rho, length)
        assert mechanical_word(FIB_SLOPE, rho, length).symbols == want

    @pytest.mark.parametrize(
        "text", ["surd:-3,-2,5", "surd:-5,-7,3", "cfslope:1,(2,3)*", "cfslope:pow10"]
    )
    def test_floor_the_int64_pass_cannot_decide(self, text, monkeypatch):
        words, _ = near_integer_words(parse_slope(text), 777, 1000, monkeypatch)
        assert [i for i in range(1000) if words[0][i] != words[1][i]] == [775, 776]

    @pytest.mark.parametrize("n0", [777, 778], ids=["last", "first"])
    @pytest.mark.parametrize("text", ["surd:-3,-2,5", "cfslope:1,(2,3)*", "cfslope:pow10"])
    def test_undecided_floor_at_a_block_edge(self, text, n0, monkeypatch):
        # blocks of 7 letters start at letters 1, 8, ..., 771, 778: floor n is
        # read by letters n - 1 and n, so floor 777 by the last two letters of
        # one block, and floor 778 by its last letter and the next block's first
        monkeypatch.setattr(sturmian, "_BLOCK", 7)
        words, _ = near_integer_words(parse_slope(text), n0, 1000, monkeypatch)
        assert [i for i in range(1000) if words[0][i] != words[1][i]] == [n0 - 2, n0 - 1]

    @pytest.mark.parametrize(("n0", "letter"), [(1, 0), (1001, 999)], ids=["first", "last"])
    @pytest.mark.parametrize("text", ["surd:-3,-2,5", "cfslope:1,(2,3)*", "cfslope:pow10"])
    def test_undecided_floor_at_either_end(self, text, n0, letter, monkeypatch):
        # floors 1 and length + 1 are the first and last that the letters read,
        # each by one letter only
        words, _ = near_integer_words(parse_slope(text), n0, 1000, monkeypatch)
        assert [i for i in range(1000) if words[0][i] != words[1][i]] == [letter]

    def test_two_undecided_floors_settle_in_different_rounds(self, monkeypatch):
        # alpha = [0; 2, 3, 5, 20, 2^60, 1, 1, ...] has the convergent
        # denominator q = 747 with ||q*alpha|| < 2^-69, so with n0*alpha + rho
        # next to an integer, floor n0 + q is next to one too: the 64-bit
        # bracket leaves both open, 128 bits settle n0 + q and n0 waits for
        # 256 bits
        slope = parse_slope(cf_text((2, 3, 5, 20, 2**60), (1,)))
        n0, q, length = 100, 747, 1000
        _, requested = near_integer_words(slope, n0, length, monkeypatch)
        assert requested == [64, 128, 256]
        for rho in oracle.near_integer_intercepts(slope, n0):
            assert open_floors(slope, rho, length + 1, 64) == [n0, n0 + q]
            assert open_floors(slope, rho, length + 1, 128) == [n0]
            assert open_floors(slope, rho, length + 1, 256) == []

    @pytest.mark.parametrize("text", ["surd:-3,-2,5", "cfslope:1,(2,3)*"])
    def test_traced_peak_per_letter(self, text):
        # the word's bytes and one block's uint64 and bool buffers, no other
        # array or copy as long as the word: 550,338 bytes, 1.376 a letter,
        # on both slopes (2.66 before the bytes were built block by block)
        slope, length = parse_slope(text), 400_000
        tracemalloc.start()
        try:
            mechanical_word(slope, Fraction(1, 3), length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * length

    @given(st.integers(1, 40), st.fractions(min_value=0, max_value=Fraction(9, 10)))
    @settings(max_examples=60, deadline=None)
    def test_balanced_runs(self, n, rho):
        w = mechanical_word(FIB_SLOPE, rho, 200)
        lo, hi = slope_bounds(FIB_SLOPE, 64)
        ones_bound = math.ceil(hi / (1 - hi)) + 1
        zeros_bound = math.ceil((1 - lo) / lo) + 1
        for letter, run in itertools.groupby(w.symbols):
            length = len(list(run))
            assert length <= (ones_bound if letter == 1 else zeros_bound)


class TestFloorOracle:
    """`_floors`, the one exact floor oracle of `mechanical_word` and
    `record_runs_from`, against the per-position floors."""

    @given(slopes(), intercepts, st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_position_floors(self, slope, rho, ns):
        floor = _floors(slope, rho, *_bracket(slope, 64))
        assert [floor(n) for n in ns] == [oracle.floor_times(slope, n, rho) for n in ns]

    @pytest.mark.parametrize("n0", [1, 100, 777, 1001])
    @pytest.mark.parametrize(
        "text", ["surd:-3,-2,5", "cfslope:1,(2,3)*", "cfslope:pow10", cf_text((2, 3, 5, 20, 2**60), (1,))]
    )
    def test_near_integer_floors(self, text, n0, monkeypatch):
        # floor n0 is within 2^-150 of an integer, so the 128-bit bracket
        # leaves it open too; the seeded oracle asks for 128 and 256 bits
        # once each, and never for 64 bits again
        slope = parse_slope(text)
        seed = _bracket(slope, 64)
        requested = []
        monkeypatch.setattr(
            sturmian, "_bracket", lambda s, bits: requested.append(bits) or _bracket(s, bits)
        )
        ns = range(max(1, n0 - 3), n0 + 4)
        for rho in oracle.near_integer_intercepts(slope, n0):
            requested.clear()
            floor = _floors(slope, rho, *seed)
            assert [floor(n) for n in (*ns, n0)] == [oracle.floor_times(slope, n, rho) for n in (*ns, n0)]
            assert requested == [128, 256]


class TestFrequency:
    def test_fibonacci_deviation_below_2(self):
        w = mechanical_word(FIB_SLOPE, Fraction(0), 1000)
        assert letter_frequency_check(w, FIB_SLOPE) <= 2

    def test_single_letter_deviation(self):
        w = mechanical_word(FIB_SLOPE, Fraction(0), 1)
        assert letter_frequency_check(w, FIB_SLOPE) < 1

    def test_rational_slope_rejected(self):
        w = digit_word("01" * 500)
        with pytest.raises(ValueError, match="slope must be irrational"):
            letter_frequency_check(w, FromCF((0, 2)))


class TestCheckersMatchFractionLoops:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_letter_frequency(self, data):
        slope = data.draw(slopes())
        length = data.draw(st.integers(1, 2000))
        kind = data.draw(st.sampled_from(("own", "other slope", "random")))
        if kind == "random":
            alphabet = data.draw(st.integers(2, 4))
            raw = data.draw(st.binary(min_size=length, max_size=length))
            w = Word(bytes(b % alphabet for b in raw), alphabet)
        else:
            source = slope if kind == "own" else data.draw(slopes())
            w = mechanical_word(source, data.draw(intercepts), length)
        want = oracle.letter_frequency_check(w, slope)
        assert letter_frequency_check(w, slope) == want
        if kind == "own":
            assert want < 2

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_morphic_length(self, data):
        slope, rho = data.draw(slopes()), data.draw(intercepts)
        n_letters = data.draw(st.integers(1, 2000))
        image0, image1 = (
            digit_word(data.draw(st.text("012", min_size=1, max_size=6)))
            for _ in range(2)
        )
        spec = QuasiSturmianSpec(Word(b"", 2), Morphism(image0, image1), slope, rho)
        want = oracle.morphic_length_check(spec, n_letters)
        assert morphic_length_check(spec, n_letters) == want
        assert want <= 2 * max(len(image0), len(image1))


class TestMorphism:
    def test_parse(self):
        phi = parse_morphism("0>01;1>001")
        assert phi.image0.to_text() == "01"
        assert phi.image1.to_text() == "001"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_morphism("0>01")
        with pytest.raises(ValueError):
            parse_morphism("0>01;2>0")
        with pytest.raises(ValueError):
            parse_morphism("0>;1>0")
        # the last rule for a letter replaced the first
        with pytest.raises(ValueError, match=r"^morphism rule for letter 0 is given twice: '0>1' \(position 11\)$"):
            parse_morphism("0>01;1>001;0>1")

    def test_identity_morphism_reproduces_sturmian(self):
        spec = QuasiSturmianSpec(Word(b"", 2), parse_morphism("0>0;1>1"), FIB_SLOPE)
        assert apply_morphism(spec, 120) == mechanical_word(FIB_SLOPE, Fraction(0), 120)

    def test_example_prefix(self):
        spec = QuasiSturmianSpec(
            digit_word("2"), parse_morphism("0>01;1>001"), FIB_SLOPE
        )
        assert apply_morphism(spec, 8).to_text() == "20100101"

    def test_length_equal_to_prefix(self):
        spec = QuasiSturmianSpec(
            digit_word("2"), parse_morphism("0>01;1>001"), FIB_SLOPE
        )
        assert apply_morphism(spec, 1).to_text() == "2"

    @pytest.mark.parametrize("prefix, morphism", QUASI_SHAPES)
    def test_benchmark_shapes_match_the_join(self, prefix, morphism):
        for slope, rho, length in (("cfslope:(1)*", Fraction(0), 5000), ("cfslope:2,(1,3)*", Fraction(5, 7), 40_000)):
            spec = QuasiSturmianSpec(digit_word(prefix), parse_morphism(morphism), parse_slope(slope), rho)
            for n in (0, 1, 2, 3, 77, length):
                assert apply_morphism(spec, n) == oracle.apply_morphism(spec, n)

    @given(st.data())
    @example(None)
    @settings(max_examples=150)
    def test_random_morphisms_match_the_join(self, data):
        if data is None:  # an image of 0 with every byte from 1 to 255
            prefix, b, u, v, rho, n = b"", 256, bytes(range(1, 256)), bytes([0, 7]), Fraction(1, 3), 1000
        else:
            b = data.draw(st.integers(2, 256))
            letters = st.lists(st.integers(0, b - 1), max_size=6).map(bytes)
            prefix = data.draw(letters)
            u, v = data.draw(letters.filter(len)), data.draw(letters.filter(len))
            rho = Fraction(data.draw(st.integers(0, 6)), 7)
            n = data.draw(st.integers(0, 3000))
        spec = QuasiSturmianSpec(Word(prefix, b), Morphism(Word(u, b), Word(v, b)), FIB_SLOPE, rho)
        assert apply_morphism(spec, n) == oracle.apply_morphism(spec, n)


class TestQuasiSturmianCheck:
    def test_fibonacci_plateau(self):
        w = mechanical_word(FIB_SLOPE, Fraction(0), 2000)
        assert quasi_sturmian_check(w, 200) == (1, 1)

    def test_morphic_image_has_plateau(self):
        spec = QuasiSturmianSpec(
            digit_word("2"), parse_morphism("0>01;1>001", ), FIB_SLOPE
        )
        w = apply_morphism(spec, 5000)
        result = quasi_sturmian_check(w, 800)
        assert result is not None
        k, n0 = result
        assert k >= 1

    def test_periodic_word_fails(self):
        w = digit_word("011" * 400)
        assert quasi_sturmian_check(w, 100) is None

    def test_window_too_large(self):
        w = mechanical_word(FIB_SLOPE, Fraction(0), 100)
        with pytest.raises(ValueError, match="window too large"):
            quasi_sturmian_check(w, 26)


class TestMorphicLength:
    def test_identity(self):
        spec = QuasiSturmianSpec(Word(b"", 2), parse_morphism("0>0;1>1"), FIB_SLOPE)
        assert morphic_length_check(spec, 500) == 0

    def test_collapse_to_single_letter(self):
        spec = QuasiSturmianSpec(Word(b"", 2), parse_morphism("0>0;1>0"), FIB_SLOPE)
        assert morphic_length_check(spec, 300) == 0

    def test_example_bound(self):
        spec = QuasiSturmianSpec(
            digit_word("2"), parse_morphism("0>01;1>001"), FIB_SLOPE
        )
        dev = morphic_length_check(spec, 1000)
        assert dev <= 2 * 3  # 2 * max image length

    def test_general_bound(self):
        phi = parse_morphism("0>010;1>11")
        spec = QuasiSturmianSpec(Word(b"", 2), phi, Surd(-1, 2, 5))
        dev = morphic_length_check(spec, 800)
        assert dev <= 2 * max(len(phi.image0), len(phi.image1))


class TestMorphismInvariance:
    def test_dio_survives_morphic_image(self):
        # repetition scores of W phi(s) stay close to those of s
        s = mechanical_word(FIB_SLOPE, Fraction(0), 2000)
        spec = QuasiSturmianSpec(
            digit_word("2"), parse_morphism("0>01;1>001"), FIB_SLOPE
        )
        image = apply_morphism(spec, 2000)
        d_s = float(dio_estimate(s).global_max.score)
        d_a = float(dio_estimate(image).global_max.score)
        assert d_a >= d_s - 0.1


def records_by_side(slope, n):
    """The records below n of `record_runs`, per side, as (lag, length)."""
    sides = ([], [])
    for side, first, step, count, length in record_runs(slope, n):
        sides[side].extend((first + r * step, length) for r in range(count))
    return sides


class TestRecordRuns:
    """The record lags against the brute-force minima of {L alpha} and {-L alpha}."""

    @given(slopes(), st.integers(2, 2000))
    @example(FIB_SLOPE, 2000)
    @example(parse_slope("cfslope:5000,(1)*"), 2000)  # a first quotient above N
    @example(parse_slope("cfslope:1,5000,(2)*"), 2000)  # a second one
    @example(parse_slope("cfslope:2,(1)*"), 2)
    @settings(max_examples=40, deadline=None)
    def test_records_are_the_one_sided_minima(self, slope, n):
        sides = records_by_side(slope, n)
        assert sides[0][0][0] == sides[1][0][0] == 1
        for side, want in zip(sides, oracle.records_from(slope, 1, n)):
            lags = [lag for lag, _ in side]
            assert lags == want
            # each lag holds up to the next record of its side, cut at n
            assert [min(lag + length, n) for lag, length in side] == [min(x, n) for x in lags[1:]] + [n]

    @given(slopes(), st.data())
    @example(parse_slope("cfslope:5000,(1)*"), None)
    @example(parse_slope("cfslope:1,5000,(2)*"), None)
    @example(parse_slope("cfslope:pow10"), None)
    @settings(max_examples=40, deadline=None)
    def test_records_from_a_threshold(self, slope, data):
        # the examples take n = 2000 and t = 1, 2, 100, 1000
        cases = [(2000, t) for t in (1, 2, 100, 1000)]
        if data is not None:
            n = data.draw(st.integers(2, 2000))
            cases = [(n, 1), (n, data.draw(st.integers(1, n // 2)))]
        for n, t in cases:
            runs = record_runs(slope, n)
            sides = ([], [])
            for side, first, step, count in record_runs_from(slope, t, n, runs):
                sides[side].extend(first + r * step for r in range(count))
            assert sides == oracle.records_from(slope, t, n)

    def test_levels_alternate_sides(self):
        # [0; 2, 3, ...]: q = 1, 2, 7; level 0 is 1, 2 on side 1, level 1 is
        # 3, 5, 7 on side 0, and level 2 starts at q_2 + q_1 = 9 on side 1
        sides = records_by_side(parse_slope("cfslope:2,3,(4)*"), 40)
        assert [lag for lag, _ in sides[0]] == [1, 3, 5, 7, 37]
        assert [lag for lag, _ in sides[1]] == [1, 2, 9, 16, 23, 30]


SLOW_CASES = oracle.SLOW_CASES


class TestRecordLPF:
    """d + LPF[d] of a mechanical word read at the denominators where it
    can change (`_record_steps`) and rebuilt as a step function of d,
    against the suffix index and the per-letter oracle; `dio` from those
    denominators against `dio` on the bare letters and the brute-force
    scan."""

    @staticmethod
    def check(slope, rho, n, t, letters=True):
        w = mechanical_word(slope, rho, n)
        lags, reach = _record_steps(w.symbols, slope, t)
        assert lags[0] == 1 and lags[-1] < n and t in lags.tolist() and (np.diff(lags) >= 0).all()
        lpf = longest_previous_factor(*suffix_index(w.symbols))
        assert (reach - lags == lpf[lags]).all()
        d = np.arange(1, n)
        steps = reach[np.searchsorted(lags, d, side="right") - 1] - d
        assert steps.tolist() == lpf[1:].tolist()
        if letters:
            assert steps.tolist() == suffix_oracle.longest_previous_factor(w.symbols)[1:]
        est, plain = dio_estimate(w, t), Word(w.symbols, 2)
        assert plain.slope is None and est == dio_estimate(plain, t)
        if n <= 300:
            assert est == dio_brute_force(w, t)

    @given(slopes(), intercepts, st.data())
    @example(FIB_SLOPE, Fraction(0), None)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_index(self, slope, rho, data):
        n, t = 2, 1
        if data is not None:
            n = data.draw(st.integers(2, 3000))
            t = data.draw(st.integers(1, n // 2))
        self.check(slope, rho, n, t)

    @given(slopes(), intercepts, st.integers(2, 300), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, slope, rho, n, data):
        self.check(slope, rho, n, data.draw(st.integers(1, n // 2)))

    @pytest.mark.parametrize("spec, n", SLOW_CASES)
    def test_slow_slopes(self, spec, n):
        for t in (1, max(1, n // 20), n // 2):
            self.check(parse_slope(spec), Fraction(5, 7), n, t, letters=n <= 2000)

    @pytest.mark.parametrize(
        "spec, n, dense",
        [
            ("cfslope:(1)*", 100, False),  # 11 records
            ("cfslope:(1)*", 200, True),  # 12 records
            ("cfslope:3000,(2)*", 10_000, False),
            ("cfslope:500,(1)*", 10_000, True),
            ("cfslope:pow10", 2000, True),
        ],
    )
    def test_rule(self, monkeypatch, spec, n, dense):
        # every word with a slope takes the records, the sparse ones too
        # (below 16 letters a record)
        slope = parse_slope(spec)
        assert (16 * sum(run[3] for run in record_runs(slope, n)) <= n) == dense
        calls = []
        for name in ("_record_steps", "suffix_index"):
            original = getattr(repetition, name)
            monkeypatch.setattr(
                repetition, name, lambda *a, f=original, name=name: calls.append(name) or f(*a)
            )
        dio_estimate(mechanical_word(slope, Fraction(0), n))
        assert calls == ["_record_steps"]

    def test_slope_is_no_part_of_the_word(self, monkeypatch):
        w = mechanical_word(FIB_SLOPE, Fraction(1, 3), 400)
        plain = Word(w.symbols, 2)
        assert w.slope is FIB_SLOPE and plain.slope is None
        assert w == plain and hash(w) == hash(plain) and repr(w) == repr(plain)

        def unused(*args):
            raise AssertionError("only a mechanical word reads d + LPF[d] at its records")

        monkeypatch.setattr(repetition, "_record_steps", unused)
        quasi = QuasiSturmianSpec(Word(b"", 2), parse_morphism("0>0;1>1"), FIB_SLOPE)
        others = (
            w.prefix(300),
            w[:300],
            plain,
            apply_morphism(quasi, 400),
            parse_word_source("lit:" + w.to_text()),
            parse_word_source("digits:e|2", 400),
        )
        for other in others:
            assert other.slope is None
            dio_estimate(other)


class TestIceRecords:
    """ice on a mechanical word from Z at its slope's records, against the
    Z-array path and the brute-force scan."""

    @staticmethod
    def check(slope, rho, n, t):
        w = mechanical_word(slope, rho, n)
        est = ice_estimate(w, t)
        assert est == _estimate(w, np.arange(1, n), _z_array(w.symbols)[1:], t, True)
        if n <= 300:
            assert est == ice_brute_force(w, t)

    @given(slopes(), intercepts, st.data())
    @example(FIB_SLOPE, Fraction(0), None)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_z_array(self, slope, rho, data):
        n, t = 2, 1
        if data is not None:
            n = data.draw(st.integers(2, 3000))
            t = data.draw(st.integers(1, n // 2))
        self.check(slope, rho, n, t)

    @given(slopes(), intercepts, st.integers(2, 300), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, slope, rho, n, data):
        self.check(slope, rho, n, data.draw(st.integers(1, n // 2)))

    @pytest.mark.parametrize("spec, n", [*SLOW_CASES, ("cfslope:30000,(2)*", 200_000)])
    def test_slow_slopes(self, spec, n):
        for t in (1, max(1, n // 20), n // 2):
            self.check(parse_slope(spec), Fraction(5, 7), n, t)

    def test_rule(self, monkeypatch):
        # every word with a slope takes the records; a word without one, a
        # slice or prefix of a mechanical word included, takes the Z-array
        calls = []
        for name in ("_record_lags", "_z_array"):
            original = getattr(repetition, name)
            monkeypatch.setattr(
                repetition, name, lambda *a, f=original, name=name: calls.append(name) or f(*a)
            )
        for spec, n in [("cfslope:(1)*", 100), ("cfslope:(1)*", 10_000), *SLOW_CASES]:
            calls.clear()
            ice_estimate(mechanical_word(parse_slope(spec), Fraction(0), n))
            # past _Z_LAGS candidates, _lce_past reads them off one Z-array
            assert calls[0] == "_record_lags"
        w = mechanical_word(FIB_SLOPE, Fraction(1, 3), 400)
        quasi = QuasiSturmianSpec(Word(b"", 2), parse_morphism("0>0;1>1"), FIB_SLOPE)
        others = (
            w.prefix(300),
            w[:300],
            Word(w.symbols, 2),
            apply_morphism(quasi, 400),
            parse_word_source("quasi:" + "0|0>0;1>1|surd:-3,-2,5", 400),
            parse_word_source("lit:" + w.to_text()),
            parse_word_source("digits:e|2", 400),
        )
        for other in others:
            calls.clear()
            ice_estimate(other)
            assert other.slope is None and calls == ["_z_array"]

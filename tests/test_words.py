from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords.spec import digit_word
from diowords.sturmian import mechanical_word, parse_slope
from diowords.words import (
    DIGITS_TO_CHARS,
    ComplexityProfile,
    Word,
    complexity_profile,
    factor_counts_brute,
    fractional_power,
    gap_profile,
    occurrence_count,
)

from strategies import mixed_words


def fib_text(n):
    s = "0"
    while len(s) < n:
        s = s.replace("0", "a").replace("1", "0").replace("a", "01")
    return s[:n]


words_strategy = mixed_words(min_size=1)
# binary words of 100-400 letters: Sturmian ones, and periodic ones with at
# most one letter flipped.  A key packs 16 binary letters here, so their
# profiles run doubling rounds past the packed width.
long_binary_words = st.one_of(
    st.builds(
        mechanical_word,
        st.sampled_from(["cfslope:(1)*", "cfslope:1,(2,3)*", "cfslope:(1,2,3)*", "cfslope:pow10",
                         "surd:-3,-2,5"]).map(parse_slope),
        st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 7)]),
        st.integers(100, 400),
    ),
    st.builds(
        lambda block, n, flip: Word(bytes(c ^ (i == flip) for i, c in enumerate((block * n)[:n])), 2),
        st.lists(st.integers(0, 1), min_size=1, max_size=12).map(bytes),
        st.integers(100, 400),
        st.integers(-1, 399),
    ),
)


def de_bruijn(k: int) -> bytes:
    """A binary de Bruijn word of order k by the prefer-one rule (Martin,
    1934): each of the 2^k windows of k letters occurs exactly once."""
    word, seen = [0] * k, {(0,) * k}
    while True:
        for c in (1, 0):
            window = (*word[len(word) - k + 1 :], c)
            if window not in seen:
                seen.add(window)
                word.append(c)
                break
        else:
            return bytes(word)


def check_every_depth(w: Word) -> None:
    """The profile at every n_max from 1 to |w| against the brute count."""
    want = factor_counts_brute(w.symbols, len(w))
    for n_max in range(1, len(w) + 1):
        assert list(complexity_profile(w, n_max).counts) == want[:n_max]


def profile_error_loop(L, b, counts):
    """The message of the first check that fails, one n at a time, or None:
    the loop that `ComplexityProfile` replaces with numpy comparisons."""
    for i, c in enumerate(counts):
        n = i + 1
        if not 1 <= c <= min(b**n, L - n + 1):
            return f"count p({n})={c} out of range for L={L}, b={b}"
        if i + 1 < len(counts) and c > counts[i + 1] + 1:
            return f"count p({n})={c} exceeds p({n+1})+1"
    return None


@st.composite
def profile_inputs(draw):
    """(L, b, counts): the profile of a word, as is or with one count moved,
    or counts drawn at random, at the word's length or at another L."""
    w = draw(words_strategy)
    counts = factor_counts_brute(w.symbols, draw(st.integers(0, len(w))))
    if counts and draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] += draw(st.integers(-3, 3))
    if draw(st.integers(0, 3)) == 0:
        counts = draw(st.lists(st.integers(-1, 70), max_size=12))
    L = draw(st.sampled_from([len(w), draw(st.integers(0, 80)), draw(st.integers(0, 2**62))]))
    return L, w.alphabet_size, tuple(counts)


class TestWord:
    def test_letters_validated(self):
        with pytest.raises(ValueError):
            Word(bytes([0, 2]), 2)
        with pytest.raises(ValueError):
            Word(b"\x00", 1)

    @pytest.mark.parametrize("b", [2, 3, 10, 255])
    def test_every_letter_out_of_range_raises(self, b):
        inside = bytes(range(b)) * 3
        assert Word(inside, b).symbols == inside
        for letter in range(b, 256):
            for at in (0, len(inside) // 2, len(inside)):
                with pytest.raises(ValueError, match="letter out of range"):
                    Word(inside[:at] + bytes([letter]) + inside[at:], b)

    @given(st.binary(max_size=40), st.integers(2, 256))
    @example(b"", 2)
    @example(b"\x01\x00\x02", 2)
    @example(bytes(range(256)), 255)
    @settings(max_examples=300)
    def test_letter_check_matches_translate(self, data, b):
        # the per-byte pass the check replaced: delete every letter of the alphabet
        accepted = not data.translate(None, bytes(range(b)))
        try:
            Word(data, b)
        except ValueError as e:
            assert not accepted and str(e) == "letter out of range for alphabet"
        else:
            assert accepted

    @given(st.integers(2, 10).flatmap(lambda b: st.tuples(st.lists(st.integers(0, b - 1), max_size=40), st.just(b))))
    @example(([], 2))
    @settings(max_examples=200)
    def test_text_matches_translate(self, args):
        letters, b = args
        w = Word(bytes(letters), b)
        assert w.to_text() == w.symbols.translate(DIGITS_TO_CHARS).decode("ascii")

    def test_full_alphabet_accepts_every_byte(self):
        letters = bytes(range(256)) * 2
        assert Word(letters, 256).symbols == letters

    def test_from_digits_roundtrip(self):
        w = digit_word("0100101")
        assert w.to_text() == "0100101"
        assert len(w) == 7
        assert w.alphabet_size == 2
        assert list(w) == [0, 1, 0, 0, 1, 0, 1]


class TestFractionalPower:
    def test_identity(self):
        assert fractional_power(digit_word("012"), 1).to_text() == "012"

    def test_integer_power(self):
        assert fractional_power(digit_word("01"), 2).to_text() == "0101"

    def test_proper_fraction(self):
        # one full copy then ceil((2/3)*3) = 2 prefix letters
        assert fractional_power(digit_word("011"), Fraction(5, 3)).to_text() == "01101"

    def test_empty_base_word(self):
        with pytest.raises(ValueError, match="empty base word"):
            fractional_power(Word(b"", 2), 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            fractional_power(digit_word("01"), 1.5)
        with pytest.raises(TypeError, match="not str$"):
            fractional_power(digit_word("01"), "3/2")

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            fractional_power(digit_word("01"), 0)

    @given(words_strategy, st.fractions(min_value=Fraction(1, 8), max_value=8))
    @settings(max_examples=150)
    def test_length_law_and_prefix(self, w, x):
        out = fractional_power(w, x)
        whole = x.numerator // x.denominator
        frac = x - whole
        expected = whole * len(w) + -((-frac.numerator * len(w)) // frac.denominator)
        assert len(out) == expected
        bigger = fractional_power(w, x + Fraction(1, 2))
        assert bigger.symbols.startswith(out.symbols)


class TestComplexityProfile:
    def test_constant_word(self):
        prof = complexity_profile(digit_word("0000000"), 3)
        assert prof.counts == (1, 1, 1)

    def test_alternating_word(self):
        prof = complexity_profile(digit_word("0101010"), 3)
        assert prof.counts == (2, 2, 2)

    def test_fibonacci_prefix_counts(self):
        w = digit_word(fib_text(200))
        prof = complexity_profile(w, 20)
        assert prof.counts == tuple(n + 1 for n in range(1, 21))

    def test_window_exceeds_prefix(self):
        with pytest.raises(ValueError, match="window exceeds prefix"):
            complexity_profile(digit_word("01"), 3)

    def test_csv(self):
        prof = complexity_profile(digit_word("0101010"), 2)
        assert prof.to_csv() == "n,p_n,gap\n1,2,1\n2,2,0\n"

    @given(words_strategy)
    @example(Word(b"\x07", 256))
    @example(Word(bytes([255, 0]), 256))
    @example(Word(bytes([0, 255, 0, 255, 255]), 256))
    @settings(max_examples=300)
    def test_kernels_agree_with_brute(self, w):
        check_every_depth(w)

    @given(long_binary_words)
    @settings(max_examples=40, deadline=None)
    def test_long_binary_words_at_every_depth(self, w):
        check_every_depth(w)

    @pytest.mark.parametrize(
        "data",
        [digit_word(fib_text(300)).symbols, de_bruijn(8), b"\0" * 300, b"\0\1" * 150],
        ids=[
            # n_max below the 16-letter packed width as well as above it
            "fibonacci",
            # 263 letters whose 8-letter windows are distinct: the first
            # round, of 16 letters a key, splits every pair
            "de-bruijn-8",
            # every pair of suffixes at least n_max long stays tied: no pair
            # splits above the depth
            "0^300",
            "(01)^150",
        ],
    )
    def test_explicit_words_at_every_depth(self, data):
        check_every_depth(Word(data, 2))

    @given(words_strategy)
    @settings(max_examples=150)
    def test_invariants(self, w):
        prof = complexity_profile(w, len(w))
        L, b = len(w), w.alphabet_size
        for i, c in enumerate(prof.counts):
            n = i + 1
            assert 1 <= c <= min(b**n, L - n + 1)
            if n < len(prof.counts):
                assert c <= prof.counts[i + 1] + 1

    @given(words_strategy, st.integers(1, 20))
    @settings(max_examples=100)
    def test_monotone_in_prefix_length(self, w, cut):
        if cut >= len(w):
            return
        shorter = w.prefix(cut)
        n_max = min(len(shorter), 5)
        a = complexity_profile(shorter, n_max)
        b = complexity_profile(w, n_max)
        assert all(x <= y for x, y in zip(a.counts, b.counts))

    def test_eventually_periodic_counts_bounded(self):
        period = "0110"
        w = digit_word(period * 100)
        prof = complexity_profile(w, 50)
        # counts cannot exceed the period length once n is large
        assert all(c <= len(period) for c in prof.counts[len(period):])

    def test_deep_profile_fibonacci(self):
        w = digit_word(fib_text(300))
        prof = complexity_profile(w, 150)
        assert prof.counts[:20] == tuple(n + 1 for n in range(1, 21))

    def test_profile_validation(self):
        # p(1) = 3 > p(2) + 1 too, but the range check b^1 = 2 fires first
        with pytest.raises(ValueError, match=r"^count p\(1\)=3 out of range for L=5, b=2$"):
            ComplexityProfile(5, 2, (3, 1))

    def test_profile_drop_check(self):
        # every count in range; p(2) = 4 > p(3) + 1
        with pytest.raises(ValueError, match=r"^count p\(2\)=4 exceeds p\(3\)\+1$"):
            ComplexityProfile(10, 2, (2, 4, 2))

    @given(profile_inputs())
    @example((5, 2, (3, 1)))
    @example((10, 2, (2, 4, 2)))
    @example((2**40, 2, tuple(range(2, 70))))
    @example((2**40, 2, (1,) * 32 + (2**33 + 1,)))  # p(33) > 2^33, with 33 * 2 bits past 64
    @example((7, 2, ()))
    @example((7, 1, (1, 1, 1, 2)))  # 1^4 < L - 3, past L's bit length
    @example((7, -300, (1,) * 9))  # (-300)^9 is past int64
    @settings(max_examples=400)
    def test_profile_checks_match_the_loop(self, args):
        want = profile_error_loop(*args)
        try:
            ComplexityProfile(*args)
        except ValueError as e:
            assert str(e) == want
        else:
            assert want is None


class TestOccurrenceAndGap:
    def test_occurrences(self):
        assert occurrence_count(digit_word("0101"), 1) == 2
        assert occurrence_count(digit_word("000"), 1) == 0
        assert occurrence_count(digit_word("0100101"), 0) == 4

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            occurrence_count(digit_word("01"), 2)

    def test_gap_profile_fibonacci(self):
        prof = complexity_profile(digit_word(fib_text(200)), 20)
        assert gap_profile(prof) == [1] * 20

    def test_gap_profile_constant(self):
        prof = complexity_profile(digit_word("0000000"), 3)
        assert gap_profile(prof)[2] == 1 - 3

    def test_gap_profile_alternating(self):
        prof = complexity_profile(digit_word("01" * 10), 5)
        assert gap_profile(prof)[4] == 2 - 5

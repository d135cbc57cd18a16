import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diowords import suffix
from diowords.cli import parse_word_source
from diowords.realnum import Rational, digits
from diowords.sturmian import mechanical_word, parse_slope
from diowords.suffix import _position_bits, _sort, longest_previous_factor, suffix_index
from diowords.words import complexity_profile

import suffix_oracle as oracle
from strategies import mixed_words


def check_full(data: bytes) -> None:
    sa, lcp = suffix_index(data)
    assert sa.tolist() == oracle.sorted_suffixes(data)
    assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())


def check_depth(data: bytes, depth: int) -> None:
    sa, lcp = suffix_index(data, depth)
    # by the first `depth` letters, and by position where those agree
    keys = [(data[i : i + depth], i) for i in sa.tolist()]
    assert sorted(sa.tolist()) == list(range(len(data)))
    assert keys == sorted(keys)
    # LCP = min(lce, depth) exactly: suffixes that share their first
    # `depth` letters meet the same group boundaries in either order
    full = oracle.lcp_array(data, oracle.sorted_suffixes(data))
    assert lcp.tolist() == [min(h, depth) for h in full]


def check_adjacent(data: bytes, sa: np.ndarray, lcp: np.ndarray, depth: int | None = None) -> None:
    """Each adjacent pair agrees on exactly LCP letters and then ascends;
    with a depth, on at least ``depth`` letters where LCP is the depth,
    and then by position."""
    n = len(data)
    assert sorted(sa.tolist()) == list(range(n))
    for a, b, h in zip(sa[:-1].tolist(), sa[1:].tolist(), lcp[1:].tolist()):
        if depth is not None and h >= depth:
            assert h == depth
            assert data[a : a + depth] == data[b : b + depth] and a < b
            continue
        assert data[a : a + h] == data[b : b + h]
        assert a + h == n or (b + h < n and data[a + h] < data[b + h])


class TestSuffixIndex:
    @given(mixed_words(min_size=0))
    @settings(max_examples=300)
    def test_matches_sorted_suffixes_and_kasai(self, w):
        check_full(w.symbols)

    @given(mixed_words(min_size=0), st.integers(1, 70))
    @settings(max_examples=300)
    def test_depth_sorts_heads_and_caps_lcp(self, w, depth):
        check_depth(w.symbols, depth)

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x00", b"\x07", b"\x00" * 1000, b"\x00\x01" * 500, bytes(range(256)) * 3,
         bytes(range(255, -1, -1)) + bytes(range(256))],
        ids=["empty", "one-letter", "one-high-letter", "0^1000", "(01)^500",
             "256-letters", "256-letters-mirrored"],
    )
    def test_explicit_words(self, data):
        check_full(data)
        for depth in (1, 3, 8, 40, 600):
            check_depth(data, depth)

    @pytest.mark.parametrize("j", range(1, 11))
    def test_lengths_near_powers_of_two(self, j):
        rng = np.random.default_rng(j)
        for n in (2**j - 1, 2**j + 1):
            for b in (2, 10):
                data = bytes(rng.integers(0, b, n, dtype=np.uint8))
                check_full(data)
                check_depth(data, j)
            check_full(mechanical_word(parse_slope("surd:-3,-2,5"), Fraction(0), n).symbols)

    @pytest.mark.parametrize("slope", ["surd:-3,-2,5", "cfslope:1,(2,3)*", "cfslope:pow10"])
    def test_long_sturmian_full_depth(self, slope):
        data = mechanical_word(parse_slope(slope), Fraction(1, 3), 10**5).symbols
        sa, lcp = suffix_index(data)
        check_adjacent(data, sa, lcp)
        assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())

    @pytest.mark.parametrize("depth", [None, 24])
    def test_long_random_binary(self, depth):
        # nearly 10^5 groups after the packed round, so each later key
        # holds two rank digits of 17 bits: past 2^31, in int64 whatever
        # the rank dtype
        data = bytes(np.random.default_rng(3).integers(0, 2, 10**5, dtype=np.uint8))
        sa, lcp = suffix_index(data, depth)
        check_adjacent(data, sa, lcp, depth)
        if depth is None:
            assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())

    @pytest.mark.parametrize("letters", [5, 8])
    @pytest.mark.parametrize("n", [2**15, 2**15 + 1])
    def test_packing_at_three_bits_a_letter(self, letters, n):
        # 5 to 8 letters take 3 bits each, and 16 of them leave 15 bits for
        # a position: up to N = 2^15 the first round packs 16 letters, past
        # it 8
        assert 2 * 8 * 3 + (2**15 - 1).bit_length() == 63 < 2 * 8 * 3 + (2**15).bit_length()
        data = window_code(mechanical_word(parse_slope("surd:-3,-2,5"), Fraction(1, 3), n + 5).symbols,
                           letters - 1)[:n]
        assert len(set(data)) == letters
        for depth in (None, 5, 12, 40):
            sa, lcp = suffix_index(data, depth)
            check_adjacent(data, sa, lcp, depth)
            if depth is None:
                assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())


def window_code(data: bytes, w: int) -> bytes:
    """Each length-w window of ``data`` as one letter: w + 1 letters on a Sturmian word."""
    windows = [data[i : i + w] for i in range(len(data) - w + 1)]
    names = {f: c for c, f in enumerate(sorted(set(windows)))}
    return bytes(names[f] for f in windows)


def argsort_index(data: bytes, depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`suffix_index` as it runs past the int64 bound of the value sort."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suffix, "_position_bits", lambda n: 0)
        return suffix_index(data, depth)


class TestArgsortFallback:
    """Where two rank digits and a position pass int64 the later rounds
    argsort; the index is the same up to the order of suffixes that share
    their first ``depth`` letters."""

    def test_bound(self):
        last = 2**21 - 1  # the largest N with value sorts
        assert (_position_bits(last), _position_bits(last + 1)) == (21, 0)
        # two rank digits of up to N + 1 groups, shifted, with the largest
        # position below them
        g = last.bit_length()
        assert ((last << g | last) << 21) | (last - 1) < 2**63

    @given(st.lists(st.integers(0, 5), max_size=60), st.integers(0, 4))
    def test_sort(self, values, spare):
        # b position bits hold every position below len(values)
        b = max(1, (len(values) - 1).bit_length()) + spare
        key = np.array(values, dtype=np.int64)
        sa, ordered = _sort(key.copy(), b)
        sa0, ordered0 = _sort(key.copy(), 0)
        assert ordered.tolist() == ordered0.tolist() == sorted(values)
        assert key[sa0].tolist() == sorted(values)
        assert sa.tolist() == sorted(range(len(values)), key=lambda i: (values[i], i))

    def check_same(self, data: bytes, depth: int | None) -> None:
        sa, lcp = suffix_index(data, depth)
        sa0, lcp0 = argsort_index(data, depth)
        if depth is None:
            assert (sa0.tolist(), lcp0.tolist()) == (sa.tolist(), lcp.tolist())
            return
        assert [data[i : i + depth] for i in sa0.tolist()] == [data[i : i + depth] for i in sa.tolist()]
        assert np.minimum(lcp0, depth).tolist() == np.minimum(lcp, depth).tolist()

    @given(mixed_words(min_size=0), st.one_of(st.none(), st.integers(1, 70)))
    @settings(max_examples=100)
    def test_matches_the_sort_path(self, w, depth):
        self.check_same(w.symbols, depth)

    @pytest.mark.parametrize("depth", [None, 24])
    def test_long_words(self, depth):
        self.check_same(mechanical_word(parse_slope("cfslope:1,(2,3)*"), Fraction(1, 3), 10**5).symbols,
                        depth)
        self.check_same(bytes(np.random.default_rng(4).integers(0, 5, 10**5, dtype=np.uint8)), depth)


def check_every_path(data: bytes, depths) -> None:
    """SA and LCP at each depth (None: full), by value sorts and on the
    argsort path, against the sorted suffixes and Kasai's scan, computed
    once; with a depth, suffixes that share their first ``depth`` letters
    come in ascending position where every round is a value sort."""
    order = oracle.sorted_suffixes(data)
    full = oracle.lcp_array(data, order)
    for depth in depths:
        for index in (suffix_index, argsort_index):
            sa, lcp = index(data, depth)
            assert lcp.tolist() == (full if depth is None else [min(h, depth) for h in full])
            if depth is None:
                assert sa.tolist() == order
                continue
            assert sorted(sa.tolist()) == list(range(len(data)))
            if index is suffix_index:
                keys = [(data[i : i + depth], i) for i in sa.tolist()]
                assert keys == sorted(keys)
            else:
                assert [data[i : i + depth] for i in sa.tolist()] == [data[i : i + depth] for i in order]


class TestRankDigits:
    """Later rounds pack as many rank digits into a key as fit; letters
    take max(1, bit length of s - 1) bits, and the suffixes shorter than a
    key are padded with letter 0."""

    # 3000-letter words with a few dozen groups after the first round of
    # 16 (three letters) or 32 letters (two): their later keys hold 4 or 8
    # rank digits, so k runs 16 or 32, then 128 or 256; the depths fall
    # between digit offsets (k + 1, 2k - 1, 3k + 1) of each
    DEPTHS = sorted({d for k in (16, 32, 128, 256) for d in (k + 1, 2 * k - 1, 3 * k + 1)})

    @pytest.mark.parametrize("word", ["sturmian", "quasi", "(001)^k", "0^(N-1)1"])
    def test_low_complexity_words(self, word):
        n = 3000
        data = {
            "sturmian": lambda: mechanical_word(parse_slope("cfslope:(1,2,3)*"), Fraction(1, 3), n).symbols,
            "quasi": lambda: parse_word_source("quasi:012|0>01;1>011|cfslope:(1,2,3)*|1/3", n).symbols,
            "(001)^k": lambda: (b"\0\0\1" * n)[:n],
            "0^(N-1)1": lambda: b"\0" * (n - 1) + b"\1",
        }[word]()
        check_every_path(data, [*self.DEPTHS, None])

    @pytest.mark.parametrize("letters", [2, 4, 16, 256])
    @pytest.mark.parametrize("zeros", [3, 40])
    def test_words_ending_in_zeros(self, letters, zeros):
        # the short suffixes 0, 00, ... tie with each other, and with the
        # longer suffixes that continue them with 0s
        rng = np.random.default_rng(letters + zeros)
        body = rng.integers(0, letters, 400, dtype=np.uint8)
        body[rng.random(400) < 0.3] = 0
        data = bytes(body) + b"\0" * zeros
        check_every_path(data, [*range(1, 71), None])

    def test_lcp_is_int32(self):
        for data in (b"", b"\0", b"\0\1" * 50, bytes(range(256))):
            for depth in (None, 3):
                assert suffix_index(data, depth)[1].dtype == np.int32

    @pytest.mark.parametrize("text, most", [("sturmian:cfslope:(1,2,3)*|1/3", 3), ("digits:e|2", 1)])
    def test_profile_rounds(self, text, most):
        # the packed digits keep the number of sorts down: 6 and 2 with
        # one letter code held for the end of the word and two ranks a key
        w = parse_word_source(text, 40_000, 4 * 40_000 + 4096)
        with mock.patch.object(suffix, "_sort", wraps=suffix._sort) as sort:
            complexity_profile(w, 400)
        assert sort.call_count <= most


def check_lpf(data: bytes, letters: bool = True) -> None:
    """The kernel against the stack loop over the same index and, unless
    ``letters`` is off, against the letter-by-letter oracle."""
    sa, lcp = suffix_index(data)
    lpf = longest_previous_factor(sa, lcp)
    assert lpf.dtype == np.int64
    assert lpf.tolist() == oracle.lpf_from_index(sa, lcp).tolist()
    if letters:
        assert lpf.tolist() == oracle.longest_previous_factor(data)


# words of up to 400 letters over 1, 2 or 3 letters
small_alphabet_words = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=400).map(bytes)
)


class TestLongestPreviousFactor:
    @given(mixed_words(min_size=0))
    @settings(max_examples=200)
    def test_mixed_words(self, w):
        check_lpf(w.symbols)

    @given(small_alphabet_words)
    @settings(max_examples=300)
    def test_small_alphabets(self, data):
        check_lpf(data)

    def test_seeded_words_of_hundreds_to_thousands_of_letters(self):
        # large enough for the rounds that skip rising runs and for walks
        # that cross them: random words over 1-4 letters, periodic words
        # with a few letters changed, and sparse ones in zeros
        rng = random.Random(1)
        for kind in range(400):
            n, k = rng.choice([100, 500, 2000]), rng.randint(1, 4)
            if kind % 3 == 0:
                data = bytes(rng.randrange(k) for _ in range(n))
            elif kind % 3 == 1:
                block = bytes(rng.randrange(k) for _ in range(rng.randint(1, 12)))
                word = bytearray((block * n)[:n])
                for _ in range(rng.randint(0, 3)):
                    word[rng.randrange(n)] = rng.randrange(k)
                data = bytes(word)
            else:
                data = bytes(rng.choice([0] * rng.randint(1, 9) + [1]) for _ in range(n))
            check_lpf(data, letters=False)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_shortest_words(self, n):
        for letters in itertools.product(range(3), repeat=n):
            check_lpf(bytes(letters))

    @pytest.mark.parametrize("slope", ["surd:-3,-2,5", "cfslope:(1)*", "cfslope:3,(5,31,2)*"])
    def test_sturmian(self, slope):
        check_lpf(mechanical_word(parse_slope(slope), Fraction(2, 7), 10**4).symbols)

    @pytest.mark.parametrize("n", [1000, 3000, 7000, 15000])
    @pytest.mark.parametrize("intercept", [Fraction(0), Fraction(1, 7)])
    def test_pow10_prefixes(self, n, intercept):
        # long rising runs in SA order, where plain pointer jumping stalls
        check_lpf(mechanical_word(parse_slope("cfslope:pow10"), intercept, n).symbols)

    @pytest.mark.parametrize("period", range(1, 8))
    def test_periodic_both_letter_orders(self, period):
        n = 2000 + period
        for block in (bytes(range(period)), bytes(range(period - 1, -1, -1)),
                      b"\0" * (period - 1) + b"\1", b"\1" * (period - 1) + b"\0"):
            check_lpf((block * n)[:n])

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_one_letter_off_a_constant_word(self, n):
        check_lpf(b"\0" * (n - 1) + b"\1")
        check_lpf(b"\1" + b"\0" * (n - 1))

    def test_digits_of_one_seventh(self):
        check_lpf(digits(Rational(1, 7), 10, 3000).fractional_digits)

    @pytest.mark.parametrize("data", [b"\0\1" * 10**5, b"\0" * (2 * 10**5 - 1) + b"\1"],
                             ids=["(01)^k", "0^(N-1)1"])
    def test_long_words_against_the_stack_loop(self, data):
        check_lpf(data, letters=False)

    @pytest.mark.parametrize("block", [b"\0", b"\0\1", b"\0\0\1", b"\0\1\0\0\1\1\0"])
    def test_periodic(self, block):
        n = 10**4 + 1
        check_lpf((block * n)[:n])

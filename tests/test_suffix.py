from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diowords.sturmian import mechanical_word, parse_slope
from diowords.suffix import suffix_index

import suffix_oracle as oracle
from strategies import mixed_words


def check_full(data: bytes) -> None:
    sa, lcp = suffix_index(data)
    assert sa.tolist() == oracle.sorted_suffixes(data)
    assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())


def check_depth(data: bytes, depth: int) -> None:
    sa, lcp = suffix_index(data, depth)
    heads = [data[i : i + depth] for i in sa.tolist()]
    assert sorted(sa.tolist()) == list(range(len(data)))
    assert heads == sorted(heads)
    full = oracle.lcp_array(data, oracle.sorted_suffixes(data))
    assert [min(h, depth) for h in lcp.tolist()] == [min(h, depth) for h in full]


def check_adjacent(data: bytes, sa: np.ndarray, lcp: np.ndarray, depth: int | None = None) -> None:
    """Each adjacent pair agrees on exactly LCP letters and then ascends;
    with a depth, on at least ``depth`` letters where LCP reaches it."""
    n = len(data)
    assert sorted(sa.tolist()) == list(range(n))
    for a, b, h in zip(sa[:-1].tolist(), sa[1:].tolist(), lcp[1:].tolist()):
        if depth is not None and h >= depth:
            assert data[a : a + depth] == data[b : b + depth]
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
        # about 2^16 distinct ranks after the packed round, so at N = 10^5
        # the pair keys rank * (N + 1) pass 2^31
        data = bytes(np.random.default_rng(3).integers(0, 2, 10**5, dtype=np.uint8))
        sa, lcp = suffix_index(data, depth)
        check_adjacent(data, sa, lcp, depth)
        if depth is None:
            assert lcp.tolist() == oracle.lcp_array(data, sa.tolist())

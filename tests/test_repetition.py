import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diowords.cli import parse_word_source
from diowords import repetition
from diowords.spec import digit_word
from diowords.repetition import (
    _Z_SHORT,
    RepetitionWitness,
    _extend,
    _z_array,
    dio_brute_force,
    dio_estimate,
    ice_brute_force,
    ice_estimate,
    verify_witness,
)
from diowords.sturmian import mechanical_word, parse_slope
from diowords.words import Word

import repetition_oracle as oracle
from strategies import mixed_words


def fib_word(n):
    s = "0"
    while len(s) < n:
        s = s.replace("0", "a").replace("1", "0").replace("a", "01")
    return digit_word(s[:n])


binary_words = st.builds(
    lambda bits: Word(bytes(bits), 2),
    st.lists(st.integers(0, 1), min_size=2, max_size=40),
)


@st.composite
def words_and_thresholds(draw):
    w = draw(mixed_words(min_size=2))
    return w, draw(st.integers(1, len(w) // 2))


class TestWitness:
    def test_score_exact(self):
        w = RepetitionWitness(1, 4, 9)
        assert w.score == Fraction(9, 5)

    def test_invalid_witness(self):
        with pytest.raises(ValueError):
            RepetitionWitness(0, 1, 0)  # m < u + v
        with pytest.raises(ValueError):
            RepetitionWitness(0, 0, 1)

    def test_verify_examples(self):
        assert verify_witness(digit_word("0000"), RepetitionWitness(0, 1, 4))
        assert not verify_witness(digit_word("0100"), RepetitionWitness(0, 1, 4))

    def test_verify_oracle_witness(self):
        w = fib_word(13)
        best = dio_brute_force(w, threshold=2).global_max
        assert verify_witness(w, best)

    @given(binary_words, st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_in_place_is_the_slice_comparison(self, w, data):
        m = data.draw(st.integers(1, len(w)))
        v = data.draw(st.integers(1, m))
        u = data.draw(st.integers(0, m - v))
        letters = w.symbols
        assert verify_witness(w, RepetitionWitness(u, v, m)) == (letters[u : m - v] == letters[u + v : m])

    def test_verify_exceeds_prefix(self):
        with pytest.raises(ValueError, match="witness exceeds prefix"):
            verify_witness(digit_word("01"), RepetitionWitness(0, 1, 3))

    def test_json_shape(self):
        d = RepetitionWitness(0, 2, 5).to_json_dict()
        assert d == {"u": 0, "v": 2, "m": 5, "score_num": "5", "score_den": "2"}


class TestDioEstimate:
    def test_constant_word(self):
        est = dio_estimate(digit_word("0000000000"), threshold=2)
        assert (est.global_max.u, est.global_max.v, est.global_max.m) == (0, 1, 10)
        assert est.global_max.score == 10

    def test_no_repetition_prefix(self):
        # both (0,1,1) and (0,2,2) score 1; the tie-break takes smaller u+v
        est = dio_estimate(digit_word("01"), threshold=1)
        assert est.global_max.score == 1
        assert (est.global_max.u, est.global_max.v, est.global_max.m) == (0, 1, 1)

    def test_degenerate_prefix(self):
        with pytest.raises(ValueError):
            dio_estimate(digit_word("0"), threshold=1)

    def test_threshold_validation(self):
        w = digit_word("0101010101")
        with pytest.raises(ValueError):
            dio_estimate(w, threshold=6)
        with pytest.raises(ValueError):
            dio_estimate(w, threshold=0)

    def test_periodic_word_score(self):
        # V^k prefixes of a primitive V score exactly N/|V| at period multiples
        v = digit_word("0110")
        for reps in (3, 5, 8):
            w = Word(v.symbols * reps, 2)
            est = dio_estimate(w, threshold=2)
            assert est.global_max.score == Fraction(len(w), len(v))

    def test_fibonacci_small_matches_oracle(self):
        w = fib_word(13)
        fast = dio_estimate(w, threshold=2)
        slow = dio_brute_force(w, threshold=2)
        assert fast.global_max == slow.global_max
        assert fast.persistent_max == slow.persistent_max

    @given(words_and_thresholds())
    @example((Word(bytes([255, 0]), 256), 1))
    @example((Word(bytes([0, 255, 0, 255, 255]), 256), 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, w_t):
        w, t = w_t
        fast = dio_estimate(w, threshold=t)
        slow = dio_brute_force(w, threshold=t)
        assert fast.global_max == slow.global_max
        assert fast.persistent_max == slow.persistent_max

    @given(binary_words)
    @settings(max_examples=100, deadline=None)
    def test_witnesses_verify_and_persistent_below_global(self, w):
        est = dio_estimate(w, threshold=1)
        assert verify_witness(w, est.global_max)
        assert verify_witness(w, est.persistent_max)
        assert est.persistent_max.score <= est.global_max.score

    @given(binary_words, st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_prefix_length(self, w, extra):
        longer = Word(w.symbols + bytes([(i % 2) for i in range(extra)]), 2)
        a = dio_estimate(w, threshold=1).global_max.score
        b = dio_estimate(longer, threshold=1).global_max.score
        assert b >= a

    def test_numpy_path_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randrange(130, 260)
            w = Word(bytes(rng.randrange(2) for _ in range(n)), 2)
            t = max(1, n // 20)
            fast = dio_estimate(w, t)
            slow = dio_brute_force(w, t)
            assert fast.global_max == slow.global_max
            assert fast.persistent_max == slow.persistent_max


class TestCertificates:
    @pytest.mark.parametrize("command", ["dio", "ice"])
    def test_failed_check_survives_optimize(self, command):
        # `python -O` strips assert statements; the witness check must still run
        code = (
            "import sys\n"
            "from diowords import cli, repetition\n"
            "repetition.verify_witness = lambda prefix, w: False\n"
            f"sys.exit(cli.main(['{command}', 'lit:01011010']))\n"
        )
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "fails its periodicity check" in proc.stderr


class TestIceEstimate:
    def test_pure_power(self):
        est = ice_estimate(digit_word("010101"), threshold=2)
        assert (est.global_max.u, est.global_max.v, est.global_max.m) == (0, 2, 6)
        assert est.global_max.score == 3

    def test_fibonacci_13_matches_oracle(self):
        w = fib_word(13)
        fast = ice_estimate(w, threshold=2)
        slow = ice_brute_force(w, threshold=2)
        assert fast.global_max == slow.global_max
        assert verify_witness(w, fast.global_max)

    @given(words_and_thresholds())
    @example((Word(bytes([255, 0]), 256), 1))
    @example((Word(bytes([0, 0, 0, 1, 0, 0]), 2), 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, w_t):
        w, t = w_t
        fast = ice_estimate(w, threshold=t)
        slow = ice_brute_force(w, threshold=t)
        assert fast.global_max == slow.global_max
        assert fast.persistent_max == slow.persistent_max

    @given(binary_words)
    @settings(max_examples=150, deadline=None)
    def test_ice_at_most_dio(self, w):
        t = max(1, len(w) // 4)
        assert ice_estimate(w, t).global_max.score <= dio_estimate(w, t).global_max.score


def assert_z_matches_oracle(data: bytes) -> None:
    z = _z_array(data)
    assert z.dtype == np.int64
    assert z.tolist() == oracle.z_array(data)


@st.composite
def near_periodic_words(draw):
    """A block repeated up to a few hundred letters, with at most one letter
    changed: long matches that end early, late or not at all."""
    palette = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    block = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=12))
    n = draw(st.integers(1, 400))
    data = bytearray((bytes(block) * (n // len(block) + 1))[:n])
    if draw(st.booleans()):
        data[draw(st.integers(0, n - 1))] = draw(st.sampled_from(palette))
    return bytes(data)


class TestLcePast:
    """`_lce_past` against a per-letter loop, from a start common to all
    lags and from one start per lag: the numpy spans, their groups and the
    lags extended one at a time, with small spans and groups so that short
    words take every path."""

    @given(near_periodic_words(), st.data(), st.sampled_from([(64, 64), (128, 256), (1 << 13, 1 << 16)]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_letter_loop(self, data, draw, sizes):
        n = len(data)
        w = draw.draw(st.integers(0, n // 2))
        lags = sorted(draw.draw(st.sets(st.integers(1, n - w), max_size=40)))
        starts = [draw.draw(st.integers(0, n - lag)) for lag in lags]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repetition, "_LCE_SPAN", sizes[0])
            mp.setattr(repetition, "_LCE_BATCH", sizes[1])
            for start in (w, np.array(starts, dtype=np.int64)):
                got = repetition._lce_past(data, np.array(lags, dtype=np.int64), start)
                want = [_letter_lce(data, int(s), lag) for s, lag in zip(np.broadcast_to(start, len(lags)), lags)]
                assert got.tolist() == want


def _letter_lce(data: bytes, w: int, lag: int) -> int:
    """lce(w, lag + w), one letter at a time."""
    k = 0
    while lag + w + k < len(data) and data[w + k] == data[lag + w + k]:
        k += 1
    return k


class TestZArray:
    """The two-phase Z-array against the per-letter loop, on words whose
    matches reach past the numpy phase (Z >= _Z_SHORT)."""

    @pytest.mark.parametrize("n", [1, 2, _Z_SHORT - 1, _Z_SHORT, _Z_SHORT + 1])
    def test_lengths_around_the_phase_boundary(self, n):
        rng = random.Random(n)
        for block in (b"\0", b"\0\1", b"\0\0\1", b"\0\1\0\0\1\0\1"):
            word = (block * n)[:n]
            assert_z_matches_oracle(word)
            for i in range(n):
                flipped = bytearray(word)
                flipped[i] ^= 1
                assert_z_matches_oracle(bytes(flipped))
        for _ in range(20):
            assert_z_matches_oracle(bytes(rng.randrange(2) for _ in range(n)))

    @pytest.mark.parametrize(
        "slope, intercept",
        [
            ("surd:-5,7,37", Fraction(2, 7)),
            ("cfslope:(1)*", Fraction(0)),
            ("cfslope:2,(1,3)*", Fraction(1, 3)),
            ("cfslope:3,(5,31,2)*", Fraction(1, 3)),
            ("cfslope:pow10", Fraction(0)),
        ],
    )
    def test_sturmian_prefixes(self, slope, intercept):
        for n in (100, 3000, 10**5):
            assert_z_matches_oracle(mechanical_word(parse_slope(slope), intercept, n).symbols)

    @pytest.mark.parametrize("block", [b"\0", b"\0\1", b"\0\0\1"], ids=["0", "01", "001"])
    @pytest.mark.parametrize("n", [1000, 10**5 + 1])
    def test_periodic_words(self, block, n):
        assert_z_matches_oracle((block * n)[:n])

    @pytest.mark.parametrize("base", [2, 3, 10, 256])
    def test_random_words(self, base):
        rng = random.Random(base)
        for n in (50, 1000, 10**5):
            assert_z_matches_oracle(bytes(rng.randrange(base) for _ in range(n)))

    def test_match_that_ends_at_the_box_end(self):
        # in 0^m 1 0^m 2 the box at m + 1 ends at 2m + 1, and Z[i - m - 1] = 2m + 1 - i
        # reaches exactly to its end: the letter there, 2, ends Z[i] with no letter matched
        for m in range(_Z_SHORT - 2, _Z_SHORT + 24):
            for tail in (b"\2", b"\1\2", b"\1" + b"\0" * m + b"\2"):
                assert_z_matches_oracle(b"\0" * m + b"\1" + b"\0" * m + tail)

    def test_empty_word(self):
        assert _z_array(b"").tolist() == []

    @pytest.mark.parametrize("period", [17, 33, 100])
    def test_a_letter_flipped_every_third_period(self, period):
        rng = np.random.default_rng(period)
        data = np.tile(rng.integers(0, 2, period, dtype=np.uint8), 30_000 // period)
        for start in range(0, len(data), 3 * period):
            data[start + rng.integers(period)] ^= 1
        assert_z_matches_oracle(data.tobytes())

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 63, 64, 65, 66, 97])
    def test_box_of_multiples_of_its_start(self, count):
        # the letter 2 only at multiples of l: the long positions are l, 2l, ...,
        # count l, all in the box that l opens; a tail letter 3 ends it
        rng = np.random.default_rng(count)
        for l in (20, 51):
            block = b"\2" + bytes(rng.integers(0, 2, l - 1, dtype=np.uint8))
            for tail in (b"\3", block[:7] + b"\3"):
                data = block * (count + 1) + tail
                assert np.flatnonzero(_z_array(data) >= _Z_SHORT).tolist()[1:] == [
                    l * q for q in range(1, count + 1)
                ]
                assert_z_matches_oracle(data)

    @pytest.mark.parametrize("blocks", [20, 40, 80])
    def test_matches_to_extend_inside_a_wide_box(self, blocks):
        # in (0^20 1)^t 0^(20+e) 2 the box at 21 ends at 21t + 20, and Z[j] = 20 - j
        # reaches exactly to its end from 21t + j: those matches run on into the tail
        for e in range(6):
            assert_z_matches_oracle((b"\0" * 20 + b"\1") * blocks + b"\0" * (20 + e) + b"\2")

    @pytest.mark.parametrize(
        "data", [b"\0" * (10**5 - 1) + b"\1", b"\0\0\1" * (10**5 // 3)], ids=["0^(N-1)1", "(001)^n"]
    )
    def test_one_wide_box_extends_once(self, data, monkeypatch):
        # every long position is a multiple of the box start, whose Z is N
        calls = []

        def counted(data, i, k):
            calls.append(i)
            return _extend(data, i, k)

        monkeypatch.setattr(repetition, "_extend", counted)
        assert_z_matches_oracle(data)
        assert len(calls) == 1

    @given(near_periodic_words())
    @settings(max_examples=500, deadline=None)
    def test_near_periodic_words(self, data):
        assert_z_matches_oracle(data)


class TestIcePeriodicPrefixes:
    """ice on purely periodic prefixes too long for ice_brute_force: the
    least period p gives (u, v, m) = (0, p, N), and the persistent maximum
    takes the least multiple of p at or above the threshold."""

    @pytest.mark.parametrize(
        "source, period",
        [
            ("digits:rat:1/7|10", 6),
            ("lit:" + "0100110" * 14_300, 7),
            ("lit:" + "0" * (10**5 + 3), 1),
        ],
        ids=["rat-1/7-base-10", "lit-0100110-power", "lit-0-power"],
    )
    @pytest.mark.parametrize("n", [10**5, 10**5 + 3])
    def test_global_maximum_is_the_period(self, source, period, n):
        w = parse_word_source(source, n, 10**6)
        assert len(w) == n
        est = ice_estimate(w)
        assert (est.global_max.u, est.global_max.v, est.global_max.m) == (0, period, n)
        v = -(-est.threshold // period) * period
        assert (est.persistent_max.u, est.persistent_max.v, est.persistent_max.m) == (0, v, n)

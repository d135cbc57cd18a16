"""Every certificate check fires on a defect and ends the CLI with exit 1.

Each test breaks one computation by monkeypatching it and checks that
the certificate check catches the result: `CertificateError` in the
library, and exit 1 with `certificate check failed` on stderr and
nothing on stdout in the CLI.
"""

import math
from fractions import Fraction

import pytest

from diowords import approx, contfrac, realnum, repetition, spec
from diowords.cli import main
from diowords.realnum import CertificateError, Enclosure
from diowords.words import Word


def assert_certificate_exit(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert captured.out == ""
    assert "certificate check failed" in captured.err


class TestEnclosure:
    def test_endpoints_out_of_order(self):
        with pytest.raises(CertificateError, match="out of order"):
            Enclosure(lambda bits: (1, 0, 1, bits))

    def test_endpoints_out_of_order_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(realnum, "_e_bracket", lambda bits: (1, 0, 1, 0))
        assert_certificate_exit(capsys, "digits", "e", "--count", "5")

    def test_refinement_leaving_the_old_bracket(self):
        # [0, 2] / 2^4, then [3, 5] / 2^5 = [1.5, 2.5] / 2^4: it overlaps and pokes out
        brackets = {64: (0, 2, 1, 4), 128: (3, 5, 1, 5)}
        enc = Enclosure(brackets.__getitem__)
        with pytest.raises(CertificateError, match="previous bracket"):
            enc.refine(128)

    def test_refinement_at_a_coarser_scale(self):
        # a shift above bits + _GUARD_BITS is the scale, so one that falls lowers
        # it: [0, 1] / 2^198 = [0, 4] / 2^200 is nested, but its scale went down
        brackets = {64: (0, 4, 1, 200), 128: (0, 1, 1, 198)}
        enc = Enclosure(brackets.__getitem__)
        with pytest.raises(CertificateError, match="previous bracket"):
            enc.refine(128)

    def test_refinement_leaving_the_old_bracket_exit_1(self, capsys, monkeypatch):
        e_bracket = realnum._e_bracket

        def drifting(bits):
            lo, hi, den, shift = e_bracket(bits)
            return (lo, hi, den, shift) if bits <= 64 else (lo + den, hi + den, den, shift)

        monkeypatch.setattr(realnum, "_e_bracket", drifting)
        assert_certificate_exit(capsys, "digits", "e", "--count", "50")

    def test_drifting_e_inside_a_folded_image_exit_1(self, capsys, monkeypatch):
        # the image of e maps e's exact bracket; a bracket of e that drifts once
        # more terms are summed moves the image out of its previous bracket
        e_split = realnum._e_split

        def drifting(a, b):
            p, q = e_split(a, b)
            return (p + q, q) if a == 1 and b > 40 else (p, q)

        monkeypatch.setattr(realnum, "_e_split", drifting)
        assert_certificate_exit(capsys, "digits", "mobius:5,2,2,1:(e)", "--count", "50")
        with pytest.raises(CertificateError, match="previous bracket"):
            realnum.digits(realnum.Mobius(5, 2, 2, 1, realnum.SeriesE()), 10, 50)


class TestConvergents:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "cf", "e", "--terms", "5"),
            ("mu", "e", "--terms", "10"),
            ("report", "e", "--prefix", "50", "--terms", "10"),
        ],
        ids=["cf-json", "mu", "report"],
    )
    def test_non_unimodular_pair_exit_1(self, capsys, monkeypatch, argv):
        # every command that reads convergents certifies them
        def doubled(quotients):
            for p_prev, q_prev, p, q in realnum.convergents(quotients):
                yield p_prev, q_prev, 2 * p, 2 * q

        monkeypatch.setattr(contfrac, "convergents", doubled)
        assert_certificate_exit(capsys, *argv)

    def test_denominators_that_stop_increasing(self, monkeypatch):
        def zero_third_quotient(quotients):
            # the recurrence keeps |p q' - p' q| = 1 for any quotient, 0 included
            p_prev, q_prev, p, q = 0, 1, 1, 0
            for k, a in enumerate(quotients):
                a = 0 if k == 2 else a
                p, p_prev = a * p + p_prev, p
                q, q_prev = a * q + q_prev, q
                yield p_prev, q_prev, p, q

        monkeypatch.setattr(contfrac, "convergents", zero_third_quotient)
        with pytest.raises(CertificateError, match="must increase"):
            contfrac.convergents_from_quotients([2, 1, 2, 1, 1])

    E_QUOTIENTS = [2, 1, 2, 1, 1, 4, 1, 1, 6]

    def pairs_of_e(self):
        """(p_{k-1}, q_{k-1}, p_k, q_k) of e: 2/1, 3/1, 8/3, 11/4, 19/7, ..."""
        return list(realnum.convergents(self.E_QUOTIENTS))

    def assert_caught(self, monkeypatch, pairs, message):
        monkeypatch.setattr(contfrac, "convergents", lambda quotients: iter(pairs))
        with pytest.raises(CertificateError, match=message):
            contfrac.convergents_from_quotients(self.E_QUOTIENTS)

    def test_wrong_first_pair(self, monkeypatch):
        pairs = self.pairs_of_e()
        pairs[0] = (1, 0, 2, 2)  # q_0 = 2
        self.assert_caught(monkeypatch, pairs, "recurrence")

    def test_middle_pair_off_by_one(self, monkeypatch):
        pairs = self.pairs_of_e()
        p_prev, q_prev, p, q = pairs[3]
        assert (p, q) == (11, 4) and math.gcd(p, q + 1) == 1
        pairs[3] = (p_prev, q_prev, p, q + 1)  # 11/5: lowest terms, not the link
        self.assert_caught(monkeypatch, pairs, "recurrence")

    def test_dropped_pair(self, monkeypatch):
        pairs = self.pairs_of_e()
        del pairs[4]
        self.assert_caught(monkeypatch, pairs, "recurrence")

    def test_dropped_last_pair(self, monkeypatch):
        # every pair that comes is a true link, but one is missing
        self.assert_caught(monkeypatch, self.pairs_of_e()[:-1], "one convergent per quotient")

    def test_dropped_last_pair_of_exponent_terms(self, monkeypatch):
        # mu_estimate streams the pairs and runs them to their end
        cf = contfrac.CFExpansion((*self.E_QUOTIENTS, 1))
        pairs = self.pairs_of_e()[:-1]
        monkeypatch.setattr(contfrac, "convergents", lambda quotients: iter(pairs))
        with pytest.raises(CertificateError, match="one convergent per quotient"):
            contfrac.mu_estimate(cf, n_min=2)

    def test_swapped_pairs(self, monkeypatch):
        pairs = self.pairs_of_e()
        pairs[4], pairs[5] = pairs[5], pairs[4]
        self.assert_caught(monkeypatch, pairs, "recurrence")


class TestApproximant:
    def test_digit_cell_exit_1(self, capsys, monkeypatch):
        # drop the shift by the integer part: 4/3 is a whole cell away from 0.333...
        monkeypatch.setattr(spec, "Mobius", lambda a, b, c, d, inner: inner)
        assert_certificate_exit(capsys, "approximant", "rat:4/3", "--prefix", "10")

    def test_q_power_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(approx, "_clears_q_power", lambda *args: False)
        assert_certificate_exit(capsys, "approximant", "rat:1/3", "--prefix", "10")


class TestWitness:
    def test_overstated_z_value_reaching_ice_exit_1(self, capsys, monkeypatch):
        z_array = repetition._z_array

        def overstated(data):
            z = z_array(data)
            z[1:] += 1
            return z

        monkeypatch.setattr(repetition, "_z_array", overstated)
        assert_certificate_exit(capsys, "ice", "lit:01011010")

    @pytest.mark.parametrize(
        "cand, initial, message",
        [
            ((4, 1, 1), True, "u=1 v=1 m=4"),  # 1000 is 1 0^3, not an initial repetition
            ((3, 1, 0), False, "v=0"),
            ((5, 0, 1), False, "m=5"),  # longer than the word
            ((4, 0, 1), False, "v=1 m=4"),  # 1000 is not 1^4
        ],
    )
    def test_every_shape_is_checked(self, cand, initial, message):
        with pytest.raises(CertificateError, match=message):
            repetition._certified(Word(b"\x01\x00\x00\x00", 2), cand, initial)

    def test_genuine_witness_passes(self):
        w = repetition._certified(Word(b"\x01\x00\x00\x00", 2), (4, 1, 1), False)
        assert (w.u, w.v, w.m, w.score) == (1, 1, 4, Fraction(2))

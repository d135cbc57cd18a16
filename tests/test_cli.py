import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings

from diowords import approx, contfrac, realnum
from diowords.cli import main
from diowords.realnum import Surd, _digits_to_int, enclosure, mobius, parse_real_spec

import contfrac_oracle as oracle
from strategies import LOOSE_DECIMALS, LOOSE_INTS, LOOSE_MARKS, cli_argvs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_cf_euler(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "e", "--terms", "12")
        assert code == 0
        assert out.strip() == "[2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]"

    def test_text_cf_builds_no_convergents(self, capsys, monkeypatch):
        argv = ["cf", "e", "--terms", "40"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def unused(quotients):
            raise AssertionError("text cf prints no convergents")

        monkeypatch.setattr(contfrac, "certified_convergents", unused)
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_text_cf_memory_stays_linear(self, capsys):
        # all n convergent pairs would take O(n^2) bits: 4.5 MB at 3000 terms of e
        main(["cf", "e", "--terms", "5"])  # builds the shared parser outside the trace
        tracemalloc.start()
        try:
            code = main(["cf", "e", "--terms", "3000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 10**6

    def test_json_cf_memory_stays_linear(self):
        # the whole payload held as text would take about 28 MB at 3000 terms of e
        main(["--format", "json", "cf", "e", "--terms", "5"])  # builds the shared parser
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["--format", "json", "cf", "e", "--terms", "3000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= 10**6

    @pytest.mark.parametrize(
        "budget, spec, terms",
        [("1000000", "e", "40"), ("1000000", "rat:22/7", "9"), ("0", "e", "3"), ("80", "surd:0,1,2", "60")],
    )
    def test_json_cf_written_as_one_dumps_would(self, capsys, budget, spec, terms):
        # the convergents are written pair by pair; no pair ("0" bits) and a cut
        # expansion ("80" bits) included
        code, out, _ = run_cli(capsys, "--max-bits", budget, "--format", "json", "cf", spec, "--terms", terms)
        cf = contfrac.cf_from_enclosure(enclosure(parse_real_spec(spec), max_bits=int(budget)), int(terms))
        payload = cf.to_json_dict()
        payload["convergents"] = [
            [str(p), str(q)] for p, q in contfrac.convergents_from_quotients(cf.quotients)
        ]
        assert code == (3 if cf.budget_exhausted else 0)
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_digits_rational(self, capsys):
        code, out, _ = run_cli(capsys, "digits", "rat:1/3", "--base", "10", "--count", "4")
        assert code == 0
        assert out.strip() == "0.3333 certified:4"

    def test_digits_negative_spells_out_floor(self, capsys):
        code, out, _ = run_cli(capsys, "digits", "rat:-1/3", "--count", "5")
        assert code == 0
        assert out == "-1+0.66666 certified:5\n"

    def test_sturmian(self, capsys):
        code, out, _ = run_cli(capsys, "sturmian", "surd:-3,-2,5", "--length", "13")
        assert code == 0
        assert out.strip() == "0100101001001"

    def test_complexity_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "complexity", "lit:0101010", "--n-max", "3", "--prefix", "7"
        )
        assert code == 0
        assert out == "n,p_n,gap\n1,2,1\n2,2,0\n3,2,-1\n"
        assert "lower bounds" in err

    def test_gap_csv(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "lit:0101010", "--n-max", "3", "--prefix", "7")
        assert code == 0
        assert out == "n,gap\n1,1\n2,0\n3,-1\n"
        assert run_cli(capsys, "--format", "csv", "gap", "lit:0101010", "--n-max", "3",
                       "--prefix", "7")[:2] == (0, out)

    def test_dio_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "dio", "sturmian:surd:-3,-2,5", "--prefix", "500", "--threshold", "25"
        )
        assert code == 0
        assert "global:     score=2.604167" in out

    def test_ice_quasi_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "ice", "quasi:2|0>01;1>001|surd:-3,-2,5", "--prefix", "400"
        )
        assert code == 0
        assert "ice estimate" in out

    def test_quasi_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "quasi",
            "--word",
            "2",
            "--morphism",
            "0>01;1>001",
            "--slope",
            "surd:-3,-2,5",
            "--length",
            "2000",
            "--check-n-max",
            "400",
        )
        assert code == 0
        assert out.startswith("k=")

    def test_mu_text(self, capsys):
        code, out, _ = run_cli(capsys, "mu", "surd:1,2,5", "--terms", "20")
        assert code == 0
        assert "global_max 2.000000" in out

    def test_report_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "rat:1/7", "--base", "10", "--prefix", "200", "--terms", "5"
        )
        assert code == 0
        assert "rational: True" in out

    def test_approximant(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximant", "rat:1/6", "--base", "10", "--prefix", "6"
        )
        assert code == 0
        assert "p/q" in out

    @pytest.mark.parametrize("spec", ["rat:3/4", "rat:-13/4"])
    def test_approximant_on_the_far_end_of_the_digit_cell(self, capsys, spec):
        # digits 11000: the witness (0, 1, 2) gives p/q = 0.(1) = 1, exactly 2^-2 from 3/4
        code, out, err = run_cli(capsys, "approximant", spec, "--base", "2", "--prefix", "5")
        assert code == 0, err
        assert out == (
            "p/q = 1/1 (reduced 1/1)\n"
            "witness u=0 v=1 m=2 score=2.000000\n"
            "certified: |xi - p/q| <= 2^-2 and < q^-score\n"
        )
        code, out, err = run_cli(capsys, "--format", "json", "approximant", spec, "--base", "2", "--prefix", "5")
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["cell_bound"], payload["base"], payload["witness"]["m"]) == ("<=", 2, 2)
        assert "margin" not in payload


class TestJsonDiscipline:
    def test_exact_values_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "cf", "rat:22/7", "--terms", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quotients"] == ["3", "7"]
        assert payload["convergents"] == [["3", "1"], ["22", "7"]]

    def test_convergents_past_the_digit_limit(self, capsys):
        # q_3 of [1; b, b, b] has over 6000 digits, past the default limit of `str`
        b = 10**2000 + 7
        code, out, _ = run_cli(capsys, "--format", "json", "cf", f"cf:1,{b},{b},{b}", "--terms", "4")
        assert code == 0
        q = json.loads(out)["convergents"][-1][1]
        assert _digits_to_int(map(int, q), 10) == b**3 + 2 * b

    def test_floats_are_tagged_estimates(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "mu", "e", "--terms", "20"
        )
        assert code == 0
        payload = json.loads(out)

        def walk(node, path=""):
            if isinstance(node, float):
                assert path.endswith("estimate"), f"untagged float at {path}"
            elif isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{path}.{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, f"{path}[{i}]")

        walk(payload)

    def test_witness_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "dio", "lit:0000000000", "--prefix", "10",
            "--threshold", "2",
        )
        assert code == 0
        payload = json.loads(out)
        g = payload["global_max"]
        assert g["u"] == 0 and g["v"] == 1 and g["m"] == 10
        assert g["score_num"] == "10" and g["score_den"] == "1"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "digits", "nope:1", "--count", "3")
        assert code == 2
        assert "usage error" in err and "position" in err

    def test_budget_exhaustion_is_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "--max-bits", "256", "digits", "e", "--count", "400"
        )
        assert code == 3
        assert "certified:" in out

    @pytest.mark.parametrize(
        "argv",
        [["sturmian", "cfslope:(1)*", "--length", "1000000"], ["digits", "e", "--count", "200000"]],
        ids=["sturmian", "digits"],
    )
    def test_closed_stdout_is_141_without_traceback(self, argv):
        # the output is longer than a pipe buffer, so the writer meets the
        # closed pipe whether or not the reader closes it first
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "diowords.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

    @pytest.mark.parametrize("spec, base", [("e", "10"), ("surd:0,1,2", "2"), ("mobius:3,1,2,1:(e)", "7")])
    def test_digits_past_the_budget_cost_what_the_budget_does(self, capsys, spec, base):
        # 10^7 digits took seconds to minutes here, though the budget certifies about 20
        outs = []
        for count in (200, 10**7):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, "--format", "json", "--max-bits", "64", "digits", spec, "--base", base,
                "--count", str(count),
            )
            assert time.perf_counter() - start < 10
            payload = json.loads(out)
            assert code == 3 and err == "" and payload.pop("requested") == count
            outs.append(payload)
        assert outs[0] == outs[1] and 0 < outs[0]["certified"] < 200

    def test_digit_source_past_the_budget_costs_what_the_budget_does(self, capsys):
        errs = []
        for prefix in (200, 10**7):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, "--max-bits", "64", "complexity", "digits:e|10", "--prefix", str(prefix),
                "--n-max", "2",
            )
            assert time.perf_counter() - start < 10
            assert code == 3 and out == ""
            errs.append(err.replace(f" of {prefix} ", " of N "))
        assert errs[0] == errs[1] == "budget exhausted: certified 19 of N digits\n"

    def test_budget_below_start_precision(self, capsys):
        # a budget of 0 bits cannot even certify the integer part of e
        code, out, err = run_cli(capsys, "--max-bits", "0", "digits", "e", "--count", "30")
        assert code == 3
        assert out == "" and "budget exhausted" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-bits", "0", "cf", "surd:0,10,2", "--terms", "5"),
            ("--max-bits", "1", "cf", "surd:0,1000000,2", "--terms", "20"),
            ("--max-bits", "0", "cf", "mobius:0,1,1,5:(e)", "--terms", "5"),
            ("--max-bits", "0", "mu", "mobius:0,1,1,5:(e)", "--terms", "20"),
            ("--max-bits", "1", "approximant", "e", "--prefix", "50"),
        ],
    )
    def test_tiny_budget_is_exhaustion(self, capsys, argv):
        # a quotient certified at 0 or 1 bits must not stall the refinement,
        # and too few terms or digits for the command is a budget error
        code, _, _ = run_cli(capsys, *argv)
        assert code == 3

    def test_budget_cut_approximant_is_3(self, capsys):
        # the approximant of the 30 certified digits is printed, and the exit says they are short
        argv = ("approximant", "e", "--prefix", "1000")
        code, out, err = run_cli(capsys, "--max-bits", "100", *argv)
        assert code == 3 and err == "budget exhausted: certified 30 of 1000 digits\n"
        assert out == (
            "p/q = 71821/99990 (reduced 71821/99990)\n"
            "witness u=1 v=4 m=9 score=1.800000\n"
            "certified: |xi - p/q| < 10^-9 and < q^-score\n"
        )
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out.startswith("p/q = ")

    @pytest.mark.parametrize(
        "argv",
        [("dio",), ("ice",), ("complexity", "--n-max", "3"), ("gap", "--n-max", "3")],
        ids=lambda argv: argv[0],
    )
    def test_budget_cut_digit_word_is_3(self, capsys, argv):
        # a word source gives the whole prefix or nothing
        source = (argv[0], "digits:e|10", "--prefix", "1000", *argv[1:])
        code, out, err = run_cli(capsys, "--max-bits", "100", *source)
        assert code == 3 and out == ""
        assert err == "budget exhausted: certified 30 of 1000 digits\n"
        code, out, _ = run_cli(capsys, *source)
        assert code == 0 and out

    def test_oversized_word_base_is_refused_before_any_digit(self, capsys, monkeypatch):
        # 200000 digits of e in base 300 took seconds before the base was refused
        def unused(*args, **kwargs):
            raise AssertionError("a word cannot hold base-300 digits")

        monkeypatch.setattr(realnum, "digits", unused)
        monkeypatch.setattr(approx, "digits", unused)
        for argv in (
            ("complexity", "digits:e|300", "--prefix", "200000", "--n-max", "5"),
            ("approximant", "e", "--base", "300", "--prefix", "50000"),
            ("report", "e", "--base", "300", "--prefix", "50000", "--terms", "50"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert "word view needs base <= 256" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("complexity", "digits:e|10", "--n-max", "0"), "n_max must be positive"),
            (("gap", "digits:e|10", "--prefix", "100000", "--n-max", "-1"), "n_max must be positive"),
            (("approximant", "e", "--prefix", "0"), "degenerate prefix (length < 2)"),
            (("approximant", "e", "--prefix", "1"), "degenerate prefix (length < 2)"),
            (("report", "e", "--prefix", "1", "--terms", "5"), "degenerate prefix (length < 2)"),
            (("mu", "e", "--n-min", "0", "--terms", "5"), "n_min must be >= 2"),
            (("approximant", "e", "--prefix", "10", "--threshold", "50"), "threshold must be in [1, N/2]"),
            (("report", "e", "--prefix", "10", "--terms", "9", "--threshold", "0"), "threshold must be in [1, N/2]"),
            (("dio", "digits:e|10", "--prefix", "10", "--threshold", "50"), "threshold must be in [1, N/2]"),
            (("ice", "digits:e|10", "--prefix", "1"), "degenerate prefix (length < 2)"),
            (("complexity", "digits:e|10", "--prefix", "10", "--n-max", "100"), "window exceeds prefix"),
            (("gap", "digits:e|10", "--prefix", "0", "--n-max", "1"), "window exceeds prefix"),
            (("mu", "mobius:1,0,0,1:(mobius:1,0,0,1:(e))", "--terms", "5"), "too few certified terms"),
            (("mu", "surd:0,1,2", "--n-min", "3", "--terms", "4"), "too few certified terms"),
            (("report", "e", "--prefix", "100", "--terms", "6"), "too few certified terms"),
        ],
    )
    def test_argv_errors_come_before_any_digit_or_quotient(self, capsys, monkeypatch, argv, message):
        # under a small budget these exited 3: the budget ran out before the
        # argv was checked, and without one the digits were computed first
        def unused(*args, **kwargs):
            raise AssertionError("the argv alone is a usage error")

        for module in (realnum, approx):
            monkeypatch.setattr(module, "digits", unused)
            monkeypatch.setattr(module, "enclosure", unused)
        for budget in (("--max-bits", "0"), ("--max-bits", "1"), ()):
            assert run_cli(capsys, *budget, *argv) == (2, "", f"usage error: {message}\n")

    def test_folded_e_image_prints_its_certified_prefix(self, capsys):
        # |7e - 19| is about 0.028: 120 bits of e certify 108 binary digits of the image
        image, budget = "mobius:-3,8,7,-19:(e)", ("--max-bits", "120")
        _, full, _ = run_cli(capsys, "digits", image, "--base", "2", "--count", "200")
        for count, code, certified in ((100, 0, 100), (200, 3, 108)):
            got = run_cli(capsys, *budget, "digits", image, "--base", "2", "--count", str(count))
            assert got[0] == code and got[1].endswith(f" certified:{certified}\n")
            assert full.startswith(got[1].split(" certified:")[0])
        code, out, _ = run_cli(capsys, *budget, "cf", image, "--terms", "100")
        quotients = json.loads(out.splitlines()[0])
        assert code == 3 and out.endswith("\nterms certified: 33\n") and len(quotients) == 33
        _, full, _ = run_cli(capsys, "cf", image, "--terms", "100")
        assert json.loads(full)[:33] == quotients

    def test_moebius_pole_not_separable_is_3(self, capsys):
        # 19/7 lies within 2^-7 of e, inside e's bracket at 4 bits
        code, out, err = run_cli(capsys, "--max-bits", "4", "digits", "mobius:-3,8,7,-19:(e)", "--count", "5")
        assert code == 3 and out == ""
        assert "Moebius pole not separable within budget" in err

    def test_folded_surd_image_certifies_more_than_the_chain(self, capsys):
        # the image of sqrt 3 is one surd enclosure; the unfolded chain certifies 40 terms
        code, out, _ = run_cli(capsys, "--max-bits", "70", "cf", "mobius:1,1,1,2:(surd:0,1,3)", "--terms", "60")
        assert code == 3 and out.endswith("\nterms certified: 54\n")
        chain = mobius(1, 1, 1, 2, enclosure(Surd(0, 1, 3), max_bits=70), max_bits=70)
        assert contfrac.cf_from_enclosure(chain, 60).certified == 40

    def test_mu_budget_exhaustion_is_3(self, capsys):
        # 3000 bits certify 554 of e's quotients, enough for terms up to n = 552
        budget = ("--max-bits", "3000")
        code, out, _ = run_cli(capsys, *budget, "cf", "e", "--terms", "1500")
        assert code == 3 and out.endswith("\nterms certified: 554\n")
        code, out, _ = run_cli(capsys, *budget, "mu", "e", "--terms", "1500")
        lines = out.splitlines()
        assert code == 3
        assert lines[-4].startswith("552 ") and lines[-3].startswith("global_max ")
        assert lines[-1] == "terms certified: 554"
        code, out, _ = run_cli(capsys, *budget, "--format", "json", "mu", "e", "--terms", "1500")
        payload = json.loads(out)
        assert code == 3
        assert payload["per_n"][-1]["n"] == 552 and "certified" not in payload

    @pytest.mark.parametrize(
        "argv",
        [
            ("approximant", "e", "--prefix", "1000", "--threshold", "400"),
            ("report", "e", "--prefix", "1000", "--terms", "60", "--threshold", "400"),
        ],
    )
    def test_threshold_past_the_certified_digits_is_3(self, capsys, argv):
        # 100 bits certify 30 digits of e: the threshold fits --prefix, not them
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, "--max-bits", "100", *argv)
        assert code == 3 and "usage" not in err
        if argv[0] == "report":
            assert "dio:" not in out and "note: digit stream certified only 30 of 1000\n" in out
        else:
            assert out == "" and err == "budget exhausted: refinement budget exhausted after 30 certified digits\n"

    def test_rational_report_needs_no_exponent_terms(self, capsys):
        # a rational spec computes no exponent term, so few --terms are no error
        code, out, _ = run_cli(capsys, "--max-bits", "0", "report", "rat:1/3", "--prefix", "100", "--terms", "5")
        assert code == 0 and "rational: True" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("cf", "e", "--terms", "0"),
            ("mu", "e", "--terms", "0"),
            ("report", "e", "--prefix", "100", "--terms", "0"),
        ],
    )
    def test_terms_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --terms: integer must be >= 1, got 0 (position 0)" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # exponent terms start at n_min + 2 = 7 quotients, whatever the budget
            (("report", "e", "--prefix", "100", "--terms", "5"), "too few certified terms"),
            (("report", "e", "--prefix", "1", "--terms", "20"), "degenerate prefix"),
        ],
        ids=["terms", "prefix"],
    )
    def test_report_too_short_for_its_estimates_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_negative_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--max-bits", "-1", "digits", "e", "--count", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_env_budget_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DIOWORDS_MAX_BITS", value)
        with pytest.raises(SystemExit) as exc:
            main(["digits", "e", "--count", "3"])
        assert exc.value.code == 2
        assert "--max-bits" in capsys.readouterr().err

    def test_env_budget_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("DIOWORDS_MAX_BITS", "0")
        code, out, _ = run_cli(capsys, "digits", "e", "--count", "30")
        assert code == 3 and out == ""

    def test_env_budget_is_read_on_every_call(self, monkeypatch):
        # main keeps one parser per process, which must not freeze the environment
        argv = ["digits", "e", "--count", "5"]
        monkeypatch.delenv("DIOWORDS_MAX_BITS", raising=False)
        assert run_isolated(argv)[0] == 0
        monkeypatch.setenv("DIOWORDS_MAX_BITS", "0")
        assert run_isolated(argv)[0] == 3
        monkeypatch.setenv("DIOWORDS_MAX_BITS", "abc")
        code, out, err = run_isolated(argv)
        assert code == 2 and out == ""
        assert err.endswith(
            "diowords: error: argument --max-bits: bad integer 'abc': expected an optional '-' "
            "and ASCII digits (position 0)\n"
        )
        monkeypatch.delenv("DIOWORDS_MAX_BITS")
        assert run_isolated(argv)[0] == 0
        monkeypatch.setenv("DIOWORDS_MAX_BITS", "abc")
        assert run_isolated(["--max-bits", "64", *argv])[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("digits", "e", "--count", "3"),
            ("dio", "lit:01011010", "--prefix", "8"),
            ("sturmian", "surd:-3,-2,5", "--length", "13"),
            ("verify", "--list"),
        ],
    )
    def test_csv_only_for_profiles(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format csv" in captured.err

    def test_slope_runaway_is_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setattr("diowords.sturmian._SLOPE_EXTEND_CAP", 1)
        code, out, err = run_cli(capsys, "sturmian", "cfslope:(1)*", "--length", "50")
        assert code == 3
        assert out == "" and "ran away" in err

    def test_verify_unknown_suite_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "definitely-not-a-criterion")
        assert code == 2
        assert out == "" and "no criteria match suite filter" in err

    def test_negative_prefix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dio", "lit:01011010", "--prefix", "-3"])
        assert exc.value.code == 2
        assert "--prefix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cf", "e", "--terms", "x"),
            ("dio", "lit:01011010", "--prefix", "x"),
            ("--max-bits", "x", "digits", "e", "--count", "3"),
            ("report", "e", "--prefix", "100", "--terms", "20", "--slack", "x"),
        ],
        ids=["terms", "prefix", "max-bits", "slack"],
    )
    def test_non_number_flag_value_names_no_function(self, argv):
        code, out, err = run_isolated(argv)
        assert code == 2 and out == ""
        message = "bad decimal 'x'" if "--slack" in argv else "bad integer 'x'"
        assert message in err and "invalid _" not in err

    @pytest.mark.parametrize("length", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sturmian", "surd:-3,-2,5"),
            ("quasi", "--morphism", "0>01;1>001", "--slope", "surd:-3,-2,5"),
        ],
        ids=["sturmian", "quasi"],
    )
    def test_length_must_be_positive(self, argv, length):
        code, out, err = run_isolated([*argv, "--length", length])
        assert code == 2 and out == ""
        assert f"argument --length: integer must be >= 1, got {length} (position 0)" in err

    def test_cf_file_needs_integer_quotients(self, capsys, tmp_path):
        path = tmp_path / "quotients.json"
        path.write_text('[2, "1", 3]')
        code, out, _ = run_cli(capsys, "cf", f"cf:@{path}", "--terms", "5")
        assert code == 0
        assert out.strip() == "[2, 1, 3]"
        for bad in ('[2, 1.9, 3]', '[2, true, 3]', '[2, "1.5", 3]', '{"2": 1}'):
            path.write_text(bad)
            code, out, err = run_cli(capsys, "cf", f"cf:@{path}", "--terms", "5")
            assert code == 2, bad
            assert out == "" and "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sturmian", "surd:-3,-2,5", "--length", "10", "--intercept", "1/0"),
            ("quasi", "--morphism", "0>01;1>001", "--slope", "surd:-3,-2,5",
             "--length", "10", "--intercept", "1/0"),
            ("dio", "sturmian:surd:-3,-2,5|1/0", "--prefix", "100"),
            ("dio", "quasi:2|0>01;1>001|surd:-3,-2,5|1/0", "--prefix", "100"),
        ],
        ids=["sturmian", "quasi", "sturmian-source", "quasi-source"],
    )
    def test_zero_intercept_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "zero denominator" in err

    @pytest.mark.parametrize(
        "source",
        [
            "lit:0100101|1",
            "digits:e|2|1",
            "sturmian:surd:-3,-2,5|1/2|3",
            "quasi:2|0>01;1>001|surd:-3,-2,5|0|1",
        ],
        ids=["lit", "digits", "sturmian", "quasi"],
    )
    def test_word_source_extra_field_is_usage_error(self, capsys, source):
        code, out, err = run_cli(capsys, "dio", source, "--prefix", "10")
        assert code == 2
        assert out == "" and "usage error" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("lit:0100101|1", "the digits 0-9, not '|' (position 11)"),
            ("lit:01a", "the digits 0-9, not 'a' (position 6)"),
            ("quasi:2|0>01;1>001|surd:-3,-2,5|0|1", "needs W|MORPHISM|SLOPE[|INTERCEPT]"),
        ],
        ids=["lit-bar", "lit-letter", "quasi"],
    )
    def test_word_source_grammar_hint(self, capsys, source, message):
        code, out, err = run_cli(capsys, "dio", source, "--prefix", "10")
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "word, morphism, message",
        [
            ("\u0663", "0>01;1>001", "not '\u0663' (position 0)"),
            ("2x", "0>01;1>001", "not 'x' (position 1)"),
            ("2", "0>0a;1>001", "not 'a' (position 3)"),
        ],
        ids=["arabic-indic-three", "word-letter", "image-letter"],
    )
    def test_digit_word_takes_ascii_digits(self, capsys, word, morphism, message):
        # one check in spec.digit_word serves lit: sources, --word and morphism images,
        # at positions counted from the start of the whole argument
        code, out, err = run_cli(
            capsys, "quasi", "--word", word, "--morphism", morphism, "--slope", "surd:-3,-2,5",
            "--length", "10",
        )
        assert code == 2
        assert out == "" and "digits 0-9, " + message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("quasi", "--morphism", "0>0;1>0", "--slope", "surd:-3,-2,5", "--length", "5000",
             "--check-n-max", "800"),
            ("quasi", "--morphism", "0>01;1>0101", "--slope", "surd:-3,-2,5", "--length", "50"),
            ("dio", "quasi:|0>0;1>0|surd:-3,-2,5"),
        ],
        ids=["command", "powers-of-one-word", "source"],
    )
    def test_commuting_morphism_is_usage_error(self, capsys, argv):
        # phi(0)phi(1) = phi(1)phi(0) makes phi(s) periodic
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "commuting images" in err

    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_non_finite_slack_is_usage_error(self, capsys, slack):
        with pytest.raises(SystemExit) as exc:
            main(["report", "e", "--prefix", "100", "--terms", "20", f"--slack={slack}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--slack" in captured.err

    def test_slope_error(self, capsys):
        code, _, err = run_cli(capsys, "sturmian", "cfslope:1,2", "--length", "5")
        assert code == 2
        assert "irrational" in err


def readme_examples():
    """The argv of each `diowords` example in README's CLI section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line.split("#", 1)[0])
        if argv:
            out.append(argv[1:])
    return out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv", [a for a in readme_examples() if "verify" not in a], ids=" ".join
    )
    def test_readme_example_same_stdout_twice(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 and code1 in (0, 1, 2, 3)
        assert out1 == out2 and out1

    def test_identical_runs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "dio", "sturmian:cfslope:(1)*",
                             "--prefix", "600")
        _, out2, _ = run_cli(capsys, "--format", "json", "dio", "sturmian:cfslope:(1)*",
                             "--prefix", "600")
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        args = ["dio", "sturmian:surd:-3,-2,5", "--prefix", "800"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, "--threads", "4", *args)
        assert out1 == out2


class TestVerifyCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list")
        assert code == 0
        assert "euler-pattern" in out.split()

    def test_list_honours_suite_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list", "--suite", "dio")
        assert code == 0
        assert out.split() == ["fibonacci-dio", "unbounded-slope-dio", "dio-vs-mu"]

    def test_list_unmatched_suite_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--list", "--suite", "zzz")
        assert code == 2
        assert out == "" and "no criteria match suite filter 'zzz'" in err

    def test_single_fast_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "euler")
        assert code == 0
        assert out.startswith("PASS euler-pattern")


def run_isolated(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _certified_prefix(command, argv, out, full_out):
    """Whether the digits or quotients of a budget-cut text `digits` or `cf`
    run are a prefix of those of the full run."""
    if command == "cf":
        cut, full = json.loads(out.splitlines()[0]), json.loads(full_out)
        return full[: len(cut)] == cut
    base = int(argv[argv.index("--base") + 1]) if "--base" in argv else 10
    (head, frac), (full_head, full_frac) = (
        text.split(" certified:")[0].rsplit(".", 1) for text in (out, full_out)
    )
    if base > 36:  # comma-separated digits
        frac, full_frac = (x.split(",") if x else [] for x in (frac, full_frac))
    return head == full_head and full_frac[: len(frac)] == frac


class TestGrammarFuzz:
    @given(cli_argvs())
    @example(["--max-bits", "256", "report", "e", "--prefix", "100", "--terms", "5"])
    @example(["--max-bits", "120", "digits", "mobius:-3,8,7,-19:(e)", "--count", "60"])
    @example(["--max-bits", "120", "cf", "mobius:-3,8,7,-19:(e)", "--terms", "50"])
    # usage errors that only the argv makes, refused before any digit or quotient
    @example(["--max-bits", "0", "approximant", "e", "--prefix", "10", "--threshold", "50"])
    @example(["--max-bits", "0", "dio", "digits:e|10", "--prefix", "10", "--threshold", "50"])
    @example(["--max-bits", "0", "complexity", "digits:e|10", "--prefix", "10", "--n-max", "100"])
    @example(["--max-bits", "5", "mu", "mobius:1,0,0,1:(mobius:1,0,0,1:(e))", "--terms", "5"])
    @example(["--max-bits", "1", "mu", "mobius:1,-2,0,1:(e)", "--terms", "5", "--n-min", "1"])
    @example(["--max-bits", "0", "report", "e", "--prefix", "100", "--terms", "5"])
    # a threshold that fits --prefix but not the digits the budget certifies
    @example(["--max-bits", "100", "approximant", "e", "--prefix", "1000", "--threshold", "400"])
    @example(["--max-bits", "100", "report", "e", "--prefix", "1000", "--terms", "60", "--threshold", "400"])
    # a run that exits 0 prints what it prints without its budget (JSON approximant included)
    @example(["--format", "json", "--max-bits", "40", "approximant", "e", "--base", "2", "--prefix", "20"])
    @example(["--format", "json", "--max-bits", "38", "approximant", "mobius:0,1,1,5:(e)", "--prefix", "5"])
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_streams(self, argv):
        code, out, err = run_isolated(argv)
        assert code in (0, 1, 2, 3), (code, err)
        assert "Traceback" not in err and "invalid _" not in err
        if code == 2:
            assert "usage" in err and out == "", (out, err)
        if any(mark in arg for arg in argv for mark in LOOSE_MARKS) or set(argv) & set(LOOSE_DECIMALS):
            assert code == 2, (argv, code, err)  # no loose spelling is read as a number
        assert run_isolated(argv) == (code, out, err)
        # the same budget through the environment; the shared parser carries no state
        i = argv.index("--max-bits")
        without_budget = argv[:i] + argv[i + 2 :]
        with mock.patch.dict(os.environ, {"DIOWORDS_MAX_BITS": argv[i + 1]}):
            assert run_isolated(without_budget) == (code, out, err)
        with mock.patch.dict(os.environ):
            os.environ.pop("DIOWORDS_MAX_BITS", None)
            full_code, full_out, full_err = run_isolated(without_budget)
        # a usage error is one under every budget, with the same message
        assert (code == 2) == (full_code == 2), (argv, err, full_err)
        assert code != 2 or err == full_err, (argv, err, full_err)
        if code == full_code == 0:
            # a budget that lets a run finish changes nothing it prints (invariant B)
            assert out == full_out, (argv, out, full_out)
        if code == 3:
            # exit 3 means the budget ran out, so the default budget of 10^6 bits must not
            assert full_code != 3, argv
            # what a budget-cut text run prints is certified: a prefix of the full output
            command, fmt = argv[i + 2], argv[argv.index("--format") + 1] if "--format" in argv else "text"
            if fmt == "text" and command in ("digits", "cf") and out and full_code == 0:
                assert _certified_prefix(command, argv, out, full_out), (argv, out, full_out)


_SLOPE = ("--slope", "surd:-3,-2,5", "--length", "5")


class TestFieldPositions:
    """Every field kind of the grammar is refused with the position of the
    failing field, counted from the start of the whole argument."""

    @pytest.mark.parametrize(
        "argv, message, position",
        [
            # number specs
            (("digits", "rat:+1/3", "--count", "3"), "bad rational '+1'", 4),
            (("digits", "rat:1/3_1", "--count", "3"), "bad rational '3_1'", 6),
            (("digits", "rat:1/0", "--count", "3"), "rational denominator must be nonzero", 4),
            (("digits", "surd: 0,1,2", "--count", "3"), "bad integer ' 0'", 5),
            (("digits", "surd:0,1,\u0662", "--count", "3"), "bad integer '\u0662'", 9),
            (("digits", "surd:0,1", "--count", "3"), "surd needs P,Q,D", 5),
            (("cf", "cf:1_0,2", "--terms", "3"), "bad quotient '1_0'", 3),
            (("cf", "cf:\u0661,2", "--terms", "3"), "bad quotient '\u0661'", 3),
            (("cf", "cf:1,+2", "--terms", "3"), "bad quotient '+2'", 5),
            (("cf", "cf:1,0", "--terms", "3"), "partial quotients after the first", 3),
            (("cf", "mobius:1,0,0,1_0:(e)", "--terms", "3"), "bad integer '1_0'", 13),
            (("cf", "mobius:1,2,3,4:(e)", "--terms", "3"), "|ad - bc| = 1", 7),
            (("cf", "mobius:1,0,0,1:(cf:1, 2)", "--terms", "3"), "bad quotient ' 2'", 21),
            (("cf", "mobius:0,1,1,0:(nope)", "--terms", "3"), "unknown real spec 'nope'", 16),
            # slopes
            (("sturmian", "cfslope:1_0,(1)*", "--length", "5"), "bad quotient '1_0'", 8),
            (("sturmian", "cfslope:1,(2,+3)*", "--length", "5"), "bad quotient '+3'", 13),
            (("sturmian", "cfslope:1,(2,0)*", "--length", "5"), "quotient must be >= 1, got 0", 13),
            (("sturmian", "cfslope:1,(2", "--length", "5"), "periodic tail must end with ')*'", 10),
            (("sturmian", "surd:-3,-2, 5", "--length", "5"), "bad integer ' 5'", 11),
            (("sturmian", "nope:1", "--length", "5"), "unknown slope spec", 0),
            # intercepts, "P/Q" or "P"
            (("sturmian", "surd:-3,-2,5", "--length", "5", "--intercept", " 1_0/3_1"), "bad intercept ' 1_0'", 0),
            (("sturmian", "surd:-3,-2,5", "--length", "5", "--intercept", "1/3_1"), "bad intercept '3_1'", 2),
            (("sturmian", "surd:-3,-2,5", "--length", "5", "--intercept", "0.5"), "bad intercept '0.5'", 0),
            (("sturmian", "surd:-3,-2,5", "--length", "5", "--intercept", "10/0"), "zero denominator", 3),
            # morphisms and digit words
            (("quasi", "--morphism", "0>01;1>0\u0661", *_SLOPE), "not '\u0661'", 8),
            (("quasi", "--morphism", "0>01; 1>001", *_SLOPE), "domain letter must be 0 or 1", 5),
            (("quasi", "--morphism", "0>01;0>001", *_SLOPE), "rule for letter 0 is given twice", 5),
            (("quasi", "--morphism", "0>01;1>", *_SLOPE), "morphism must be nonerasing", 0),
            (("quasi", "--word", "2_", "--morphism", "0>01;1>001", *_SLOPE), "not '_'", 1),
            (("quasi", "--morphism", "0>01;1>001", *_SLOPE, "--intercept", "+1/3"), "bad intercept '+1'", 0),
            # word sources
            (("dio", "lit:01\u0663"), "not '\u0663'", 6),
            (("dio", "digits:e|1_0"), "bad base '1_0'", 9),
            (("dio", "digits:rat:1/+3|10"), "bad rational '+3'", 13),
            (("dio", "digits:e|10|2"), "digits source needs SPEC|BASE", 12),
            (("dio", "digits:e"), "digits source needs SPEC|BASE", 8),
            (("dio", "sturmian:cfslope:(1_0)*"), "bad quotient '1_0'", 18),
            (("dio", "sturmian:cfslope:(1)*|+1/3"), "bad intercept '+1'", 22),
            (("dio", "quasi:2|0>01;1>0 1|surd:-3,-2,5"), "not ' '", 16),
            (("dio", "quasi:2|0>01;1>001|surd:-3,-2,+5|1/3"), "bad integer '+5'", 30),
            (("dio", "quasi:2|0>01;1>001|surd:-3,-2,5|1/3_1"), "bad intercept '3_1'", 34),
            (("dio", "nope:1"), "unknown word source", 0),
        ],
    )
    def test_field_position(self, capsys, argv, message, position):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err and err.endswith(f" (position {position})\n"), err

    @pytest.mark.parametrize("value", LOOSE_INTS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("digits", "e", "--count", "{}"),
            ("digits", "e", "--count", "3", "--base", "{}"),
            ("complexity", "lit:0101", "--n-max", "{}"),
            ("dio", "lit:0101", "--prefix", "{}"),
            ("dio", "lit:0101", "--threshold", "{}"),
            ("cf", "e", "--terms", "{}"),
            ("mu", "e", "--terms", "9", "--n-min", "{}"),
            ("sturmian", "surd:-3,-2,5", "--length", "{}"),
            ("quasi", "--morphism", "0>01;1>001", *_SLOPE, "--check-n-max", "{}"),
            ("verify", "--list", "--seed", "{}"),
            ("--threads", "{}", "verify", "--list"),
            ("--max-bits", "{}", "digits", "e", "--count", "3"),
        ],
        ids=lambda argv: next(a for a, b in zip(argv, argv[1:]) if b == "{}"),
    )
    def test_loose_integer_option(self, argv, value):
        code, out, err = run_isolated([a.format(value) for a in argv])
        assert (code, out) == (2, "")
        assert f"bad integer {value!r}" in err and err.endswith("(position 0)\n"), err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one(self, value):
        code, out, err = run_isolated(["--threads", value, "verify", "--list"])
        assert (code, out) == (2, "")
        assert f"argument --threads: integer must be >= 1, got {value} (position 0)" in err, err

    @pytest.mark.parametrize("value", [*LOOSE_DECIMALS, "nan", "inf", "x"])
    def test_loose_decimal_option(self, value):
        code, out, err = run_isolated(["report", "e", "--prefix", "100", "--terms", "20", "--slack", value])
        assert (code, out) == (2, "")
        assert f"argument --slack: bad decimal {value!r}" in err and err.endswith("(position 0)\n"), err

    def test_decimal_out_of_range(self):
        value = "1" + "0" * 400
        code, out, err = run_isolated(["report", "e", "--prefix", "100", "--terms", "20", "--slack", value])
        assert (code, out) == (2, "")
        assert "argument --slack: decimal" in err and err.endswith("is out of range (position 0)\n"), err

    @pytest.mark.parametrize("value, shown", [("0.15", "0.15"), ("0", "0.0"), ("-0.5", "-0.5")])
    def test_decimal_option(self, value, shown):
        code, out, _ = run_isolated(["report", "e", "--prefix", "100", "--terms", "20", "--slack", value])
        assert code == 0 and out.startswith(f"digit-word exponent vs irrationality terms (slack {shown})\n")

    @pytest.mark.parametrize("value", [*LOOSE_INTS, " 6_4"])
    def test_loose_env_budget(self, monkeypatch, value):
        monkeypatch.setenv("DIOWORDS_MAX_BITS", value)
        code, out, err = run_isolated(["digits", "e", "--count", "3"])
        assert (code, out) == (2, "")
        assert f"argument --max-bits: bad integer {value!r}" in err and err.endswith("(position 0)\n")


class TestCfAgainstOracles:
    """The text and JSON output of `cf` against Lagrange's PQa recurrence
    (surds and their images) and Gosper's algorithm (images of e), from
    `contfrac_oracle`, which shares no code with the command."""

    @pytest.mark.parametrize(
        "spec, terms, want",
        [
            ("surd:0,1,2", 3000, lambda n: oracle.surd_quotients(0, 1, 2, n)),
            ("surd:-3,7,13", 2000, lambda n: oracle.surd_quotients(-3, 7, 13, n)),
            ("surd:5,-6,11", 2000, lambda n: oracle.surd_quotients(5, -6, 11, n)),
            ("mobius:5,2,2,1:(surd:1,3,7)", 2000,
             lambda n: oracle.surd_quotients(*oracle.surd_image(5, 2, 2, 1, 1, 3, 7), n)),
            ("mobius:0,1,1,5:(surd:-3,-7,13)", 2000,
             lambda n: oracle.surd_quotients(*oracle.surd_image(0, 1, 1, 5, -3, -7, 13), n)),
            ("e", 3000, lambda n: oracle.e_image_quotients(1, 0, 0, 1, n)),
            ("mobius:-3,8,7,-19:(e)", 2000, lambda n: oracle.e_image_quotients(-3, 8, 7, -19, n)),
            ("mobius:1,-2,0,1:(e)", 2000, lambda n: oracle.e_image_quotients(1, -2, 0, 1, n)),
        ],
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_text_and_json_quotients(self, spec, terms, want):
        quotients = want(terms)
        code, out, err = run_isolated(["cf", spec, "--terms", str(terms)])
        assert (code, err) == (0, "")
        assert out == "[" + ", ".join(map(str, quotients)) + "]\n"
        # JSON carries every convergent too, so it runs at a fifth of the terms
        n = terms // 5
        code, out, err = run_isolated(["--format", "json", "cf", spec, "--terms", str(n)])
        payload = json.loads(out)
        assert (code, err, payload["certified"]) == (0, "", n)
        assert payload["quotients"] == [str(a) for a in quotients[:n]]
        convergents = oracle.convergents_from_quotients(quotients[:n])
        assert payload["convergents"] == [[str(p), str(q)] for p, q in convergents]

"""Tests of the benchmark itself: seeded job lists, output checks, tracing.

Run with `python3 -m pytest perfbench/tests`.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checks import check, flip_digit, shift_witness
from probe import run_job
from run import Clock
from spans import Recorder
from workloads import WORKLOADS, generate

from diowords import cli, realnum, sturmian

SEEDS = range(1, 31)


def _argvs(workload, seed):
    return [job.argv for job in generate(workload, seed)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs_and_other_seed_different(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


def _option(argv, name):
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_generated_input_parses(workload):
    for seed in SEEDS:
        for job in generate(workload, seed):
            argv = job.argv
            if argv[0] in ("digits", "cf", "mu", "approximant", "report"):
                realnum.parse_real_spec(argv[1])
            elif argv[0] in ("dio", "ice", "complexity", "gap"):
                cli.parse_word_source(argv[1])
            elif argv[0] == "sturmian":
                sturmian.parse_slope(argv[1])
                Fraction(_option(argv, "--intercept"))
            else:
                sturmian.parse_morphism(_option(argv, "--morphism"))
                sturmian.parse_slope(_option(argv, "--slope"))
                Fraction(_option(argv, "--intercept"))
            cli.build_parser().parse_args(list(argv))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_size_stays_in_its_range(workload):
    families = {fam.name: fam for fam in WORKLOADS[workload]}
    for seed in SEEDS:
        jobs = generate(workload, seed)
        assert len(jobs) == sum(fam.count for fam in families.values())
        for job in jobs:
            for key, value in job.sizes:
                lo, hi = families[job.family].ranges[key]
                assert lo <= value <= hi, (job.argv, key)


def test_checks_accept_real_output_and_reject_corruption():
    jobs = {job.argv[0]: job for seed in SEEDS for job in generate("certify", seed)}
    for command, corrupt in (("digits", flip_digit), ("approximant", shift_witness)):
        job = jobs[command]
        rc, out, _ = run_job(cli.main, job.argv)
        assert rc == 0 and check(job, out) is None
        assert check(job, corrupt(out)) is not None
    dio = next(job for job in generate("sturmian-scan", 1) if job.argv[0] == "dio")
    rc, out, _ = run_job(cli.main, dio.argv)
    assert rc == 0 and check(dio, out) is None
    assert check(dio, shift_witness(out)) is not None


def test_self_test_run_fails_with_two_failures():
    run_py = Path(__file__).resolve().parent.parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", "certify", "--seed", "3", "--seconds", "0.5",
         "--self-test"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert '"correct": false' in proc.stdout and '"failed": 2' in proc.stdout


def test_recorder_counts_layers_and_restores_bindings():
    import diowords.approx as approx

    original = approx.digits
    rec = Recorder()
    rec.install()
    try:
        assert approx.digits is not original and approx.digits is realnum.digits
        rc, _, _ = run_job(cli.main, ["dio", "sturmian:cfslope:(1)*|0", "--prefix", "300"])
        rc2, _, _ = run_job(cli.main, ["cf", "e", "--terms", "40"])
    finally:
        rec.uninstall()
    assert rc == rc2 == 0
    assert approx.digits is original
    calls = rec.calls()
    assert calls["sturmian"] and calls["repetition"] and calls["contfrac"]
    assert [span[0] for span in rec.spans].count("main") == 2
    assert not calls["words"] and not calls["approx"]
    assert rec.counts["contfrac"]["refinements"] > 0
    assert sum(rec.self_times().values()) > 0


def test_clock_calls_the_traced_cli_entry_point():
    clock = Clock(cli)
    rec = Recorder()
    rec.install()
    try:
        rc, out, dt, scaled = clock.run(["cf", "e", "--terms", "20"])
    finally:
        rec.uninstall()
    assert rc == 0 and out.startswith("[2, 1, 2") and dt > 0 and scaled > 0
    assert [span[0] for span in rec.spans].count("main") == 1

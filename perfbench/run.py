#!/usr/bin/env python3
"""The diowords benchmark: seeded CLI workloads, one client, closed loop.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each workload is a list of `diowords` CLI jobs generated from the seed
(workloads.py).  Jobs run back to back in this process through
`diowords.cli.main(argv)` with stdout captured: one client that waits
for each result before issuing the next.  Every output is checked
(checks.py); a job fails on an exception, a nonzero exit code or an
output that fails its check.

With --trace 0 the job list runs round(seconds / PASS_SECONDS) times,
about --seconds of job wall time on a 2-core box, and the end-to-end
metrics are printed.  A fixed calibration kernel (calibrate.py) runs
between jobs; each job execution's wall time is scaled by REF_CAL_S over
the mean calibration time just before and just after it, and each job's
time is the median of its scaled executions.  With --trace 1 the list
runs once untraced and once under the span recorder (spans.py), and the
per-layer metrics are printed; span times are raw, and the two ratios
of whole passes (trace overhead, --threads 2) compare scaled times.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  The exit code is 0
only when every job passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REF_CAL_S, calibrate
from checks import check, flip_digit, shift_witness
from probe import run_job, set_up
from spans import Recorder, layer_metrics
from workloads import DEFAULT_SEED, PASS_SECONDS, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5  # fresh-interpreter set-ups per benchmark run
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs beyond it

# layers each workload must not call (the traced run checks it)
BYPASSED = {
    "certify": ("words",),
    "sturmian-scan": ("realnum", "contfrac", "words", "approx"),
    "digit-stats": ("contfrac", "approx"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Ledger:
    """Checks every execution: the first output of a job against its
    reference, each later one against the first."""

    def __init__(self, jobs: list[Job], corrupt: dict[int, object] | None = None) -> None:
        self.jobs = jobs
        self.corrupt = corrupt or {}
        self.digest: dict[int, str] = {}
        self.first: dict[int, int] = {}  # job index -> its first execution
        self.attempted = 0
        self.failed: set[int] = set()  # executions with a failure

    def record(self, idx: int, rc, out: str, label: str = "") -> int:
        execution = self.attempted
        self.attempted += 1
        job = self.jobs[idx]
        if idx in self.corrupt:
            out = self.corrupt[idx](out)
        if idx not in self.digest:
            self.digest[idx] = _sha(out)
            self.first[idx] = execution
            reason = f"exit code {rc!r}" if rc != 0 else check(job, out)
        elif rc != 0:
            reason = f"exit code {rc!r}"
        else:
            reason = None if _sha(out) == self.digest[idx] else "stdout differs from its first run"
        if reason:
            self.fail(f"job {idx} {label}{' '.join(job.argv)}: {reason}", [execution])
        return execution

    def fail(self, message: str, executions) -> None:
        self.failed.update(executions)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    def output_digest(self) -> str:
        text = "".join(f"{i}:{self.digest[i]}\n" for i in sorted(self.digest))
        return hashlib.sha256(text.encode()).hexdigest()

    def compare_golden(self, workload: str) -> None:
        golden = json.loads(GOLDEN.read_text())[workload]
        if len(golden) != len(self.jobs):
            self.fail(f"golden digests list {len(golden)} jobs, the workload has {len(self.jobs)}",
                      self.first.values())
            return
        for idx, expected in enumerate(golden):
            if self.digest[idx] != expected:
                self.fail(f"job {idx} {' '.join(self.jobs[idx].argv)}: stdout differs from the "
                          "golden digest", [self.first[idx]])


def tail(samples: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile leaving TAIL_BEYOND samples beyond it."""
    n = len(samples)
    pct = max(50, math.floor(100 * (1 - TAIL_BEYOND / n)))
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(samples)[rank - 1], pct


class Clock:
    """Runs jobs with a calibration before the first and after each one.

    `run` returns a job's raw wall seconds and its scaled seconds: the raw
    time times REF_CAL_S over the mean of the two calibrations around it.
    """

    def __init__(self, cli) -> None:
        self.cli = cli  # not cli.main: the span recorder replaces it while tracing
        self.before = calibrate()

    def run(self, argv) -> tuple[object, str, float, float]:
        rc, out, dt = run_job(self.cli.main, argv)
        after = calibrate()
        scaled = dt * 2 * REF_CAL_S / (self.before + after)
        self.before = after
        return rc, out, dt, scaled


def timed_batch(cli, jobs: list[Job], ledger: Ledger, cycles: int) -> tuple[list[list[float]], float]:
    """Run the pass `cycles` times; return each job's scaled times and the raw batch seconds.

    The cycle count does not depend on how fast the first cycle was, so
    every run of a workload takes the median of the same number of samples.
    """
    clock = Clock(cli)
    samples: list[list[float]] = [[] for _ in jobs]
    raw = 0.0
    for _ in range(cycles):
        for idx, job in enumerate(jobs):
            rc, out, dt, scaled = clock.run(job.argv)
            ledger.record(idx, rc, out)
            samples[idx].append(scaled)
            raw += dt
    return samples, raw


def setup_samples(workload: str, seed: int) -> list[float]:
    """Scaled set-up times of fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, cal_s = map(float, proc.stdout.split())
        out.append(setup_s * REF_CAL_S / cal_s)
    return out


def end_to_end(workload: str, seed: int, seconds: float, corruptions=None):
    cli, jobs = set_up(workload, seed)
    setup_times = setup_samples(workload, seed)
    ledger = Ledger(jobs, corruptions(jobs) if corruptions else None)
    cycles = max(1, round(seconds / PASS_SECONDS))
    samples, raw = timed_batch(cli, jobs, ledger, cycles)
    times = [statistics.median(s) for s in samples]
    tail_s, pct = tail(times)
    print(f"perfbench {workload} seed={seed}: {len(jobs)} jobs x {cycles} cycles, "
          f"batch {raw:.3f} s wall; job times are medians of {cycles} scaled executions; "
          f"job_s_tail is p{pct} of {len(times)} jobs")
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return jobs, ledger, metrics


def traced(workload: str, seed: int):
    cli, jobs = set_up(workload, seed)
    ledger = Ledger(jobs)
    plain = [samples[0] for samples in timed_batch(cli, jobs, ledger, 1)[0]]

    rec = Recorder()
    clock = Clock(cli)
    rec.install()
    try:
        spanned, scaled, executions = [], [], []
        for idx, job in enumerate(jobs):
            rec.job = idx
            rc, out, dt, scaled_dt = clock.run(job.argv)
            spanned.append(dt)
            scaled.append(scaled_dt)
            executions.append(ledger.record(idx, rc, out, "traced: "))
    finally:
        rec.uninstall()

    calls = rec.calls()
    for layer in BYPASSED[workload]:
        if calls[layer]:
            ledger.fail(f"{workload} made {calls[layer]} calls into {layer}, which it must bypass",
                        executions)

    metrics = layer_metrics(rec, sum(spanned))
    metrics["trace.overhead_ratio"] = (sum(scaled) / sum(plain) - 1, "ratio")
    metrics["repetition.threads2_ratio"] = (threads2_ratio(cli, jobs, plain, ledger), "ratio") \
        if workload == "digit-stats" else (0.0, "ratio")
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    rec.write(path)
    print(f"perfbench {workload} seed={seed}: traced {len(jobs)} jobs, {len(rec.spans)} spans "
          f"written to {path.relative_to(ROOT)}")
    return jobs, ledger, metrics


def threads2_ratio(cli, jobs: list[Job], plain: list[float], ledger: Ledger) -> float:
    """Scaled time of the dio jobs with --threads 2 over their time with --threads 1."""
    clock = Clock(cli)
    one = two = 0.0
    for idx, job in enumerate(jobs):
        if job.argv[0] == "dio":
            rc, out, _, scaled = clock.run(("--threads", "2", *job.argv))
            ledger.record(idx, rc, out, "--threads 2: ")
            one += plain[idx]
            two += scaled
    return two / one


def self_test_corruptions(jobs: list[Job]) -> dict[int, object]:
    """Corrupt the first `digits` output with a flipped digit and the first
    `approximant` or `dio` output with an off-by-one witness."""
    digits = next(i for i, job in enumerate(jobs) if job.argv[0] == "digits")
    witness = next(i for i, job in enumerate(jobs) if job.argv[0] in ("approximant", "dio"))
    return {digits: flip_digit, witness: shift_witness}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one digits output and one witness (certify); the run must fail")
    args = parser.parse_args(argv)

    if args.trace:
        jobs, ledger, metrics = traced(args.workload, args.seed)
    else:
        corruptions = self_test_corruptions if args.self_test else None
        jobs, ledger, metrics = end_to_end(args.workload, args.seed, args.seconds, corruptions)

    if args.seed == DEFAULT_SEED:
        ledger.compare_golden(args.workload)

    failed = len(ledger.failed)
    print(f"output_digest {args.workload} {ledger.output_digest()}")
    print(f"failed_ratio {failed}/{ledger.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

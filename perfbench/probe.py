"""One benchmark set-up in a fresh interpreter, timed from its first line.

    python3 perfbench/probe.py WORKLOAD SEED

Set-up is what a CLI user pays on every call plus the benchmark's own
preparation: import diowords, generate the job list and run one warm-up
job of each family.  The clock starts before any other import, so every
module loaded on the way counts.  Prints the set-up seconds and then
the median of three calibration runs made right after it (calibrate.py).
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402  (the clock above must start first)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def load_program():
    """Import diowords from this checkout's src/ and return its CLI module."""
    if not os.path.isfile(os.path.join(SRC, "diowords", "__init__.py")):
        raise SystemExit(f"perfbench: no diowords sources under {SRC}")
    sys.path.insert(0, SRC)
    import diowords.cli

    return diowords.cli


def run_job(main, argv) -> tuple[object, str, float]:
    """(exit code or error text, stdout, wall seconds) of one CLI call."""
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        rc = traceback.format_exc(limit=3)
    return rc, out.getvalue(), perf_counter() - t0


def set_up(workload: str, seed: int):
    """Import the program, generate the job list, run one warm-up job per family."""
    cli = load_program()
    from workloads import generate, warmups

    jobs = generate(workload, seed)
    for job in warmups(workload):
        run_job(cli.main, job.argv)  # a broken program shows in the timed jobs
    return cli, jobs


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    set_up(workload, seed)
    setup_s = perf_counter() - T0
    from statistics import median

    from calibrate import calibrate

    print(f"{setup_s!r} {median(calibrate() for _ in range(3))!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

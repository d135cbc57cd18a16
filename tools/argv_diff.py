"""Replay drawn CLI argv through two source trees and print where they differ.

    python tools/argv_diff.py --base-src ../parent/src

The argv are those of `tests/strategies.cli_argvs`, drawn by hypothesis
with seeds 1, 2 and 3, 1000 draws each, with no example database.
`diowords.cli.main` runs them all in one worker subprocess per tree,
this checkout's src/ and the --base-src tree side by side; a worker
reports the exit code and the SHA-256 of stdout of each run.  Every
argv whose exit code or stdout digest differs is printed with both,
and the exit code is 1 when any differs.  It needs only the standard
library and hypothesis; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEEDS = (1, 2, 3)
EXAMPLES = 1000  # argv drawn per seed


def draw_argvs() -> list[list[str]]:
    """The argv hypothesis draws from `cli_argvs` with each seed, in order."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    from hypothesis import HealthCheck, Phase, given, seed, settings

    from strategies import cli_argvs

    out: list[list[str]] = []
    for s in SEEDS:

        @seed(s)
        @settings(max_examples=EXAMPLES, database=None, phases=[Phase.generate],
                  deadline=None, suppress_health_check=list(HealthCheck))
        @given(cli_argvs())
        def collect(argv):
            out.append(argv)

        collect()
    return out


def worker(src: str) -> None:
    """Run each argv of the JSON list on stdin; write [exit code, stdout digest] of each."""
    sys.path.insert(0, src)
    from diowords import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"argv_diff: diowords imported from {cli.__file__}, not {src}")
    results = []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare, not the end of the replay
                code = f"{type(exc).__name__}: {exc}"
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]])
    json.dump(results, sys.stdout)


def replay(src: str, argvs: list[list[str]]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "DIOWORDS_MAX_BITS"}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          check=False)
    if proc.returncode:
        raise SystemExit(f"argv_diff: worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-src", help="the src/ directory of the tree to compare with")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not args.base_src:
        parser.error("--base-src is required")
    argvs = draw_argvs()
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        base, this = pool.map(lambda src: replay(src, argvs), [args.base_src, SRC])
    differ = 0
    for argv, b, t in zip(argvs, base, this):
        if b != t:
            differ += 1
            print(shlex.join(argv))
            print(f"  base: exit {b[0]} stdout {b[1]}")
            print(f"  this: exit {t[0]} stdout {t[1]}")
    print(f"{len(argvs)} argv replayed, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Replay drawn CLI argv through two source trees, or with and without a budget.

    python tools/argv_diff.py --base-src ../parent/src
    python tools/argv_diff.py --budgets [--base-src ../parent/src]

The argv are those of `tests/strategies.cli_argvs`, drawn by hypothesis
with seeds 1, 2 and 3, 1000 draws each, with no example database; each
carries a `--max-bits`.  `diowords.cli.main` runs them all in one worker
subprocess per replay, which reports the exit code, the SHA-256 of
stdout and of stderr, and the last line of stderr of each run: the
message, which an argparse error prints after its usage lines.

With --base-src alone, this checkout's src/ and the --base-src tree run
side by side: every argv whose exit code, stdout or stderr differs is
printed with both, stderr's last line included, and the exit code is 1
when any differs.

With --budgets, one tree (--base-src, or this checkout's src/) runs each
argv with and without its `--max-bits`, and two lists are printed, with
counts by command: the argv that exit 2 on one side only, or on both with
another stderr (invariant A: a usage error is one under every budget),
and the argv that exit 0 on both sides with another stdout (invariant B).
The exit code is 1 when either list is not empty.

It needs only the standard library and hypothesis; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import collections
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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def worker(src: str) -> None:
    """Run each argv of the JSON list on stdin; write [exit code, stdout
    digest, stderr digest, last line of stderr] of each."""
    sys.path.insert(0, src)
    from diowords import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"argv_diff: diowords imported from {cli.__file__}, not {src}")
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare, not the end of the replay
                code = f"{type(exc).__name__}: {exc}"
        text = err.getvalue()
        results.append([code, _digest(out.getvalue()), _digest(text), text.rstrip("\n").rpartition("\n")[2]])
    json.dump(results, sys.stdout)


def replay(src: str, argvs: list[list[str]]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "DIOWORDS_MAX_BITS"}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          check=False)
    if proc.returncode:
        raise SystemExit(f"argv_diff: worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _show(argv: list[str], sides: dict[str, list]) -> None:
    print(shlex.join(argv))
    for name, (code, out, err, message) in sides.items():
        print(f"  {name}: exit {code} stdout {out} stderr {err} {message!r}")


def compare_trees(argvs: list[list[str]], base_src: str) -> int:
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        base, this = pool.map(lambda src: replay(src, argvs), [base_src, SRC])
    differ = 0
    for argv, b, t in zip(argvs, base, this):
        if b != t:
            differ += 1
            _show(argv, {"base": b, "this": t})
    print(f"{len(argvs)} argv replayed, {differ} differ")
    return differ


def compare_budgets(argvs: list[list[str]], src: str) -> int:
    unbudgeted = []
    for argv in argvs:
        i = argv.index("--max-bits")
        unbudgeted.append(argv[:i] + argv[i + 2 :])
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        budgeted, full = pool.map(lambda a: replay(src, a), [argvs, unbudgeted])
    kinds = {"A": [], "B": []}
    for argv, b, f in zip(argvs, budgeted, full):
        if (b[0] == 2) != (f[0] == 2) or b[0] == f[0] == 2 and b[2] != f[2]:
            kinds["A"].append((argv, b, f))
        elif b[0] == f[0] == 0 and b[1] != f[1]:
            kinds["B"].append((argv, b, f))
    for kind, rows in kinds.items():
        what = "exit 2 on one side or another stderr" if kind == "A" else "exit 0, other stdout"
        commands = collections.Counter(argv[argv.index("--max-bits") + 2] for argv, _, _ in rows)
        by_command = ", ".join(f"{c} {n}" for c, n in sorted(commands.items())) or "none"
        print(f"invariant {kind} ({what}): {len(rows)} argv; {by_command}")
        for argv, b, f in rows:
            _show(argv, {"budget": b, "no budget": f})
    print(f"{len(argvs)} argv replayed with and without their --max-bits")
    return len(kinds["A"]) + len(kinds["B"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-src", help="the src/ directory of the tree to compare with")
    parser.add_argument("--budgets", action="store_true",
                        help="replay one tree with and without each --max-bits")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if args.budgets:
        return 1 if compare_budgets(draw_argvs(), args.base_src or SRC) else 0
    if not args.base_src:
        parser.error("--base-src is required")
    return 1 if compare_trees(draw_argvs(), args.base_src) else 0


if __name__ == "__main__":
    sys.exit(main())

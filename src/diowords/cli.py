"""Command-line surface.

Deterministic by construction: identical configurations produce
byte-identical stdout; stderr carries only error messages and the
lower-bound note of text-format profiles.  Exact values appear in JSON
as numerator/denominator strings; floats are always estimates and are
tagged as such.

Every argument text, spec, word source and number option is read by
`spec`: integers are an optional '-' and ASCII digits, decimals such
as `--slack` add an optional '.' and ASCII digits, and a grammar error
names the position of its field in the argument.

Exit codes, by exception class: 0 success; 1 a failed criterion
or plateau check, or `realnum.CertificateError`, a failed certificate
check; 2 a usage error, `ValueError` or `TypeError`; 3
`realnum.PrecisionBudgetError`, an exhausted refinement budget, or a
`MemoryError`, an allocation the host refused; 141 a
stdout closed by its reader, the code a shell reports for a writer
stopped by SIGPIPE, with nothing on stderr.  Checks that need only the
argv come first, so a usage error is one under every budget; each is the
private check of the library module that owns the rule; the word
commands check the word's letter count before any letter of any source.
One writer, `_write`, writes each output whose size grows with the
request (`cf` JSON convergents, `sturmian` and `quasi` words, `digits`
JSON) a piece at a time, byte-identical to one `json.dumps(payload,
indent=2)` or one write of the whole text.  `--threads` changes nothing.

`main` builds its argument parser once per process, on its first call,
and never changes it; `DIOWORDS_MAX_BITS` is read on every call.  Only
callers that run `main` more than once in one process (tests, library
users, the benchmark) save the parser's build time; a fresh `diowords`
process builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from . import acceptance, approx, contfrac, realnum, repetition, spec, sturmian, words

ENV_MAX_BITS = "DIOWORDS_MAX_BITS"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

PROFILE_NOTE = "profile counts are lower bounds for the infinite word"
CSV_COMMANDS = ("complexity", "gap")


def parse_word_source(
    text: str, prefix: int = 1000, max_bits: int = realnum.DEFAULT_MAX_BITS
) -> words.Word:
    """Word-source grammar, read by `spec`: "lit:0100101", "digits:SPEC|BASE",
    "sturmian:SLOPE[|INTERCEPT]", "quasi:W|MORPHISM|SLOPE[|INTERCEPT]".

    Returns the source's prefix of length `prefix`, made within the
    refinement budget `max_bits`; the defaults are those of the CLI.  A
    literal is cut to at most `prefix` letters, and prefix 0 leaves it
    whole.
    """
    if text.startswith("lit:"):
        return spec.digit_word(text[4:], 4).prefix(_word_length(text, prefix))
    if text.startswith("digits:"):
        number, base = spec.digits_source(text)
        realnum._check_digits(base, word=True)
        stream = realnum.digits(number, base, prefix, max_bits=max_bits)
        if not stream.complete:
            raise realnum.PrecisionBudgetError(f"certified {stream.certified} of {prefix} digits")
        return stream.fractional_word()
    if text.startswith("sturmian:"):
        return sturmian.mechanical_word(*spec.sturmian_source(text), prefix)
    if text.startswith("quasi:"):
        return sturmian.apply_morphism(spec.quasi_source(text), prefix)
    raise spec.SpecSyntaxError(f"unknown word source {text!r}", 0)


def _word_length(text: str, prefix: int) -> int:
    """The letter count of `parse_word_source(text, prefix)`, read off the
    argv: `prefix`, or a literal's length cut by a nonzero `prefix`."""
    if text.startswith("lit:"):
        n = len(spec.digit_word(text[4:], 4))
        return min(prefix, n) if prefix else n
    return prefix


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# `sturmian` and `quasi` words and `digits` JSON are written this many letters or digits at a time
_TEXT_BLOCK = 1 << 14


def _write(payload: dict | None, key: str | None = None, pieces: Iterable[str] = ()) -> None:
    """Write the payload as indented JSON, or the pieces alone, and a newline.

    The pieces are the JSON text of the payload's value at `key`, written
    where it stands: the bytes are those of one `json.dumps(payload, indent=2)`.
    """
    text = "" if payload is None else json.dumps({**payload, key: "\0"} if key else payload, indent=2)
    # "\0" is written "\u0000", which no other text of these payloads holds
    head, _, tail = text.partition('"\\u0000"') if key else (text, "", "")
    sys.stdout.write(head)
    for piece in pieces:
        sys.stdout.write(piece)
    sys.stdout.write(tail + "\n")


def _list_text(blocks: Iterable[Iterable[str]]) -> Iterator[str]:
    """The JSON text of a list at depth 1 of an indented payload, one piece
    per block of its items' text, each item at depth 2."""
    opened = False
    for block in blocks:
        yield (",\n    " if opened else "[\n    ") + ",\n    ".join(block)
        opened = True
    yield "\n  ]" if opened else "[]"


def _word_out(w: words.Word, fmt: str) -> None:
    """Print a `sturmian` or `quasi` word, which has at most 10 letters, as
    one digit string, _TEXT_BLOCK letters at a time."""
    letters = (w.to_text(start, start + _TEXT_BLOCK) for start in range(0, len(w), _TEXT_BLOCK))
    if fmt == "json":
        # a digit string needs no escapes
        _write({"alphabet_size": w.alphabet_size}, "word", itertools.chain('"', letters, '"'))
    else:
        _write(None, pieces=letters)


def _estimate_json(est: repetition.ExponentEstimate) -> dict:
    payload = est.to_json_dict()
    payload["global_max"]["score"] = {"estimate": float(est.global_max.score)}
    payload["persistent_max"]["score"] = {"estimate": float(est.persistent_max.score)}
    payload["note"] = "finite-prefix estimates of a supremum"
    return payload


def _estimate_text(kind: str, est: repetition.ExponentEstimate) -> str:
    g, p = est.global_max, est.persistent_max
    return (
        f"{kind} estimate over prefix N={est.prefix_length} (threshold {est.threshold})\n"
        f"global:     score={float(g.score):.6f} ({g.m}/{g.u + g.v}) u={g.u} v={g.v} m={g.m}\n"
        f"persistent: score={float(p.score):.6f} ({p.m}/{p.u + p.v}) u={p.u} v={p.v} m={p.m}\n"
        f"note: finite-prefix estimates of a supremum; persistent restricts to u+v >= threshold"
    )


def cmd_digits(args) -> int:
    number = spec.parse_real_spec(args.spec)
    stream = realnum.digits(number, args.base, args.count, max_bits=args.max_bits)
    if args.format == "json":
        payload = {
            "base": stream.base,
            "integer_part": realnum.decimal_text(stream.integer_part),
            "fractional_digits": None,
            "certified": stream.certified,
            "requested": stream.requested,
        }
        digits = stream.fractional_digits
        blocks = (digits[i : i + _TEXT_BLOCK] for i in range(0, len(digits), _TEXT_BLOCK))
        # up to base 10 a digit's text is its one character, so the join runs over the characters
        texts = (
            b.translate(words.DIGITS_TO_CHARS).decode("ascii") if stream.base <= 10 else map(str, b)
            for b in blocks
        )
        _write(payload, "fractional_digits", _list_text(texts))
    else:
        _emit(stream.as_text())
    return EXIT_OK if stream.complete else EXIT_BUDGET


def cmd_complexity(args, gaps_only: bool = False) -> int:
    words._check_window(args.n_max, _word_length(args.source, args.prefix))  # before any letter
    w = parse_word_source(args.source, args.prefix, args.max_bits)
    profile = words.complexity_profile(w, args.n_max)
    gaps = words.gap_profile(profile)
    if args.format == "json":
        rows = [
            {"n": n, "p_n": c, "gap": g}
            for n, (c, g) in enumerate(zip(profile.counts, gaps), start=1)
        ]
        _write({"prefix_length": profile.prefix_length, "rows": rows, "note": PROFILE_NOTE})
    else:
        print(PROFILE_NOTE, file=sys.stderr)
        if gaps_only:
            lines = ["n,gap"] + [f"{n},{g}" for n, g in enumerate(gaps, start=1)]
            _emit("\n".join(lines))
        else:
            _emit(profile.to_csv())
    return EXIT_OK


def cmd_ice_dio(args, kind: str) -> int:
    repetition._checked_threshold(_word_length(args.source, args.prefix), args.threshold)  # before any letter
    w = parse_word_source(args.source, args.prefix, args.max_bits)
    if kind == "dio":
        est = repetition.dio_estimate(w, args.threshold)
    else:
        est = repetition.ice_estimate(w, args.threshold)
    if args.format == "json":
        _write(_estimate_json(est))
    else:
        _emit(_estimate_text(kind, est))
    return EXIT_OK


def cmd_cf(args) -> int:
    number = spec.parse_real_spec(args.spec)
    cf = contfrac.cf_from_enclosure(
        realnum.enclosure(number, max_bits=args.max_bits), args.terms
    )
    if args.format == "json":
        # every pair is certified before the first byte is written, then
        # computed again and written one at a time, so no pass holds them all
        for _ in contfrac.certified_convergents(cf.quotients):
            pass
        pairs = contfrac.certified_convergents(cf.quotients)
        items = (json.dumps([realnum.decimal_text(p), realnum.decimal_text(q)], indent=2) for p, q in pairs)
        _write(cf.to_json_dict(), "convergents", _list_text([item.replace("\n", "\n    ")] for item in items))
    else:
        _emit("[" + ", ".join(str(a) for a in cf.quotients) + "]")
        if cf.budget_exhausted:
            _emit(f"terms certified: {cf.certified}")
    return EXIT_BUDGET if cf.budget_exhausted else EXIT_OK


def cmd_mu(args) -> int:
    number = spec.parse_real_spec(args.spec)
    contfrac._check_terms(args.n_min, args.terms, number)  # before any quotient
    cf = contfrac.cf_from_enclosure(realnum.enclosure(number, max_bits=args.max_bits), args.terms)
    if contfrac._cut_short(cf, args.n_min):
        raise realnum.PrecisionBudgetError(
            f"refinement budget exhausted after {cf.certified} certified terms"
        )
    mu = contfrac.mu_estimate(cf, n_min=args.n_min)
    if args.format == "json":
        _write(mu.to_json_dict())
    else:
        lines = [f"{n} {v:.6f}" for n, v in mu.values]
        lines.append(f"global_max {mu.global_max:.6f}")
        lines.append(f"tail_max {mu.tail_max:.6f} (n >= {mu.tail_start})")
        if cf.budget_exhausted:
            lines.append(f"terms certified: {cf.certified}")
        _emit("\n".join(lines))
    return EXIT_BUDGET if cf.budget_exhausted else EXIT_OK


def cmd_sturmian(args) -> int:
    slope = spec.parse_slope(args.slope)
    w = sturmian.mechanical_word(slope, spec.read_intercept(args.intercept), args.length)
    _word_out(w, args.format)
    return EXIT_OK


def cmd_quasi(args) -> int:
    fields = (args.word, args.morphism, args.slope, args.intercept)
    w = sturmian.apply_morphism(spec.quasi_spec(*((f, 0) for f in fields)), args.length)
    if args.check_n_max:
        result = sturmian.quasi_sturmian_check(w, args.check_n_max)
        if args.format == "json":
            _write(
                {"plateau": None if result is None else {"k": result[0], "n0": result[1]}}
            )
        elif result is None:
            _emit("no quasi-Sturmian plateau detected")
        else:
            _emit(f"k={result[0]} n0={result[1]}")
        return EXIT_OK if result is not None else EXIT_FAIL
    _word_out(w, args.format)
    return EXIT_OK


def cmd_approximant(args) -> int:
    number = spec.parse_real_spec(args.spec)
    realnum._check_digits(args.base, word=True)  # before any digit
    repetition._checked_threshold(args.prefix, args.threshold)
    stream = realnum.digits(number, args.base, args.prefix, max_bits=args.max_bits)
    # the threshold fits --prefix, so only the budget can leave too few digits for it
    if not repetition._takes_threshold(stream.certified, args.threshold):
        raise realnum.PrecisionBudgetError(
            f"refinement budget exhausted after {stream.certified} certified digits"
        )
    w = stream.fractional_word()
    est = repetition.dio_estimate(w, args.threshold)
    a = approx.witness_to_approximant(w, est.global_max, args.base)
    # the witness lives on the fractional digits, so certify against xi - floor(xi)
    k = stream.integer_part
    fractional = spec.Mobius(1, -k, 0, 1, number) if k else number
    margin = approx.verify_approximation(realnum.enclosure(fractional, args.max_bits), a)
    # equality needs xi and p/q at opposite ends of the closed digit cell;
    # the margin itself follows the enclosure the budget left, so it is not printed
    cell_bound = "<=" if margin == Fraction(1, args.base**a.witness.m) else "<"
    p, q, rp, rq = map(realnum.decimal_text, (a.p, a.q, *a.reduced()))
    if args.format == "json":
        payload = a.to_json_dict()
        payload["reduced"] = [rp, rq]
        payload["cell_bound"] = cell_bound
        payload["certified"] = True
        _write(payload)
    else:
        _emit(
            f"p/q = {p}/{q} (reduced {rp}/{rq})\n"
            f"witness u={a.witness.u} v={a.witness.v} m={a.witness.m} "
            f"score={float(a.score):.6f}\n"
            f"certified: |xi - p/q| {cell_bound} {args.base}^-{a.witness.m} and < q^-score"
        )
    if stream.complete:
        return EXIT_OK
    print(f"budget exhausted: certified {stream.certified} of {args.prefix} digits", file=sys.stderr)
    return EXIT_BUDGET


def cmd_report(args) -> int:
    report = approx.dio_mu_report(
        spec.parse_real_spec(args.spec),
        base=args.base,
        prefix_length=args.prefix,
        cf_terms=args.terms,
        threshold=args.threshold,
        slack=args.slack,
        max_bits=args.max_bits,
    )
    if args.format == "json":
        _write(report.to_json_dict())
    else:
        lines = [f"digit-word exponent vs irrationality terms (slack {args.slack})"]
        if report.digit_estimate is not None:
            g = report.digit_estimate.global_max
            lines.append(f"dio:  {report.dio_value:.6f} (u={g.u} v={g.v} m={g.m})")
        if report.mu is not None:
            lines.append(
                f"mu:   global_max={report.mu.global_max:.6f} tail_max={report.mu.tail_max:.6f}"
            )
        lines.append(f"rational: {report.rational}")
        lines.append(f"inequality_holds: {report.inequality_holds}")
        for note in report.notes:
            lines.append(f"note: {note}")
        _emit("\n".join(lines))
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        for cid, _ in acceptance.select_criteria(args.suite):
            _emit(cid)
        return EXIT_OK
    results = acceptance.run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        _write(
            {
                "results": [
                    {"id": r.cid, "passed": r.passed, "detail": r.detail} for r in results
                ],
                "passed": all(r.passed for r in results),
            }
        )
    else:
        for r in results:
            _emit(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


_non_negative = functools.partial(spec.read_int, least=0)
_positive = functools.partial(spec.read_int, least=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diowords",
        description="Digit expansions, complexity profiles, repetition exponents "
        "and continued fractions of exactly-defined reals.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    # accepted, checked and ignored: `perfbench/run.py` still passes it
    parser.add_argument("--threads", type=_positive, default=1, help="ignored")
    parser.add_argument(
        "--max-bits",
        type=_non_negative,
        # None: main reads the environment on every call (see _env_max_bits)
        default=None,
        help=f"refinement budget in bits (env {ENV_MAX_BITS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="certified base-b digits of a real")
    p.add_argument("spec")
    p.add_argument("--base", type=spec.read_int, default=10)
    p.add_argument("--count", type=spec.read_int, required=True)
    p.set_defaults(func=cmd_digits)

    for name, gaps_only in (("complexity", False), ("gap", True)):
        p = sub.add_parser(name, help="factor complexity profile (CSV)")
        p.add_argument("source")
        p.add_argument("--n-max", type=spec.read_int, required=True)
        p.add_argument("--prefix", type=_non_negative, default=1000)
        p.set_defaults(func=lambda a, g=gaps_only: cmd_complexity(a, gaps_only=g))

    for name in ("ice", "dio"):
        p = sub.add_parser(name, help=f"{name} repetition-exponent estimate")
        p.add_argument("source")
        p.add_argument("--prefix", type=_non_negative, default=1000)
        p.add_argument("--threshold", type=spec.read_int, default=None)
        p.set_defaults(func=lambda a, k=name: cmd_ice_dio(a, k))

    p = sub.add_parser("cf", help="certified continued-fraction quotients")
    p.add_argument("spec")
    p.add_argument("--terms", type=_positive, required=True)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("mu", help="irrationality-exponent terms from a continued fraction")
    p.add_argument("spec")
    p.add_argument("--terms", type=_positive, required=True)
    p.add_argument("--n-min", type=spec.read_int, default=5)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("sturmian", help="mechanical word of an irrational slope")
    p.add_argument("slope")
    p.add_argument("--length", type=_positive, required=True)
    p.add_argument("--intercept", default="0")
    p.set_defaults(func=cmd_sturmian)

    p = sub.add_parser("quasi", help="W phi(s) word, optionally with the plateau check")
    p.add_argument("--word", default="")
    p.add_argument("--morphism", required=True)
    p.add_argument("--slope", required=True)
    p.add_argument("--length", type=_positive, required=True)
    p.add_argument("--intercept", default="0")
    p.add_argument("--check-n-max", type=spec.read_int, default=0)
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("approximant", help="rational approximant from the best witness")
    p.add_argument("spec")
    p.add_argument("--base", type=spec.read_int, default=10)
    p.add_argument("--prefix", type=_non_negative, required=True)
    p.add_argument("--threshold", type=spec.read_int, default=None)
    p.set_defaults(func=cmd_approximant)

    p = sub.add_parser("report", help="digit-word exponent vs irrationality terms")
    p.add_argument("spec")
    p.add_argument("--base", type=spec.read_int, default=10)
    p.add_argument("--prefix", type=_non_negative, required=True)
    p.add_argument("--terms", type=_positive, required=True)
    p.add_argument("--slack", type=spec.read_decimal, default=0.15)
    p.add_argument("--threshold", type=spec.read_int, default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default=None, help="substring filter on criterion ids")
    p.add_argument("--seed", type=spec.read_int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--list", action="store_true", help="list criterion ids and exit")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses; built on the first call, then never mutated."""
    return build_parser()


def _env_max_bits(parser: argparse.ArgumentParser) -> int:
    """The budget from `DIOWORDS_MAX_BITS`, checked like a `--max-bits` value."""
    text = os.environ.get(ENV_MAX_BITS)
    if text is None:
        return realnum.DEFAULT_MAX_BITS
    try:
        return _non_negative(text)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument --max-bits: {exc}")


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.max_bits is None:
        args.max_bits = _env_max_bits(parser)
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        parser.error(f"--format csv is only available for {' and '.join(CSV_COMMANDS)}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: later writes, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except realnum.PrecisionBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        # numpy's _ArrayMemoryError is one: a word too large for the host
        print(f"out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_BUDGET
    except realnum.CertificateError as exc:
        print(f"certificate check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Output checks: each job's stdout against the exact reference.

`check(job, stdout)` returns None for a correct output and a short
reason otherwise.  Digits, continued fractions and exponent terms are
compared byte for byte with text built from reference.py; repetition
witnesses are slice-checked against the reference word; approximants
are checked by their construction and by long division; complexity
profiles are checked row by row for shape and exactly at four window
sizes.  None of this calls into diowords.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from reference import (
    cf_quotients,
    digit_word,
    distinct_windows,
    fractional_digits,
    int_of_digits,
    is_witness,
    mu_lines,
    quasi_word,
    sturmian_word,
)
from workloads import Job

MU_N_MIN = 5  # the CLI default of --n-min
REPORT_SLACK = 0.15  # the CLI default of --slack

_ASCII = bytes.maketrans(bytes(range(10)), b"0123456789")


def reference_word(spec: tuple, length: int) -> bytes:
    kind = spec[0]
    if kind == "digits":
        _, x, base = spec
        return digit_word(fractional_digits(x, base, length)[1])
    if kind == "sturmian":
        _, slope, rho = spec
        return sturmian_word(slope, rho, length)
    _, prefix, image0, image1, slope, rho = spec
    return quasi_word(prefix, image0, image1, slope, rho, length)


def check(job: Job, stdout: str) -> str | None:
    return _CHECKS[job.info["kind"]](job.info, stdout)


def _digits(info: dict, out: str) -> str | None:
    ipart, text = fractional_digits(info["x"], info["base"], info["count"])
    if out != f"{ipart}.{text} certified:{info['count']}\n":
        return "digits differ from the reference"
    return None


def _cf(info: dict, out: str) -> str | None:
    quotients = cf_quotients(info["x"], info["terms"])
    if out != "[" + ", ".join(map(str, quotients)) + "]\n":
        return "quotients differ from the reference"
    return None


def _mu(info: dict, out: str) -> str | None:
    lines, top, tail, start = mu_lines(cf_quotients(info["x"], info["terms"]), MU_N_MIN)
    lines += [f"global_max {top:.6f}", f"tail_max {tail:.6f} (n >= {start})"]
    if out != "\n".join(lines) + "\n":
        return "exponent terms differ from the reference"
    return None


_APPROX = re.compile(
    r"p/q = (\d+)/(\d+) \(reduced (\d+)/(\d+)\)\n"
    r"witness u=(\d+) v=(\d+) m=(\d+) score=(\d+\.\d{6})\n"
    r"certified: \|xi - p/q\| < (\d+)\^-(\d+) and < q\^-score\n"
)


def _approximant(info: dict, out: str) -> str | None:
    match = _APPROX.fullmatch(out)
    if not match:
        return "approximant output malformed"
    p, q, rp, rq, u, v, m = (int(g) for g in match.group(1, 2, 3, 4, 5, 6, 7))
    base, m2 = int(match.group(9)), int(match.group(10))
    b, n = info["base"], info["prefix"]
    word = digit_word(fractional_digits(info["x"], b, n)[1])
    if not is_witness(word, u, v, m) or base != b or m2 != m:
        return f"witness u={u} v={v} m={m} fails its slice check"
    if match.group(8) != f"{m / (u + v):.6f}":
        return "score does not match the witness"
    block = b**v - 1
    if q != b**u * block or p != int_of_digits(word[:u], b) * block + int_of_digits(word[u : u + v], b):
        return "p/q is not U V V ... of the witness"
    # p/q agrees with the first m digits: it lies in [D, D + 1] / b^m, the
    # upper end when V is all (b-1)s and long division terminates instead
    digits_m = int_of_digits(word[:m], b)
    if not digits_m * q <= p * b**m <= (digits_m + 1) * q:
        return "long division of p/q disagrees with the digits"
    g = math.gcd(p, q)
    if (rp, rq) != (p // g, q // g):
        return "reduced form is wrong"
    return None


_DIO_LINE = r"score=(\d+\.\d{6}) \((\d+)/(\d+)\) u=(\d+) v=(\d+) m=(\d+)"
_ESTIMATE = re.compile(
    r"(dio|ice) estimate over prefix N=(\d+) \(threshold (\d+)\)\n"
    rf"global:     {_DIO_LINE}\n"
    rf"persistent: {_DIO_LINE}\n"
    r"note: finite-prefix estimates of a supremum; persistent restricts to u\+v >= threshold\n"
)


def _estimate(info: dict, out: str) -> str | None:
    match = _ESTIMATE.fullmatch(out)
    if not match or match.group(1) != info["kind"]:
        return "estimate output malformed"
    n, t = int(match.group(2)), int(match.group(3))
    if n != info["prefix"] or t != max(1, n // 20):
        return "prefix length or threshold wrong"
    word = reference_word(info["word"], n)
    witnesses = []
    for first in (4, 10):
        score, m1, d, u, v, m = match.groups()[first - 1 : first + 5]
        m1, d, u, v, m = int(m1), int(d), int(u), int(v), int(m)
        if not is_witness(word, u, v, m) or m1 != m or d != u + v:
            return f"witness u={u} v={v} m={m} fails its slice check"
        if score != f"{m / d:.6f}" or (info["kind"] == "ice" and u != 0):
            return "score or shape does not match the witness"
        witnesses.append(Fraction(m, d))
    if int(match.group(13)) + int(match.group(14)) < t or witnesses[0] < witnesses[1]:
        return "persistent witness below threshold or above the global one"
    return None


def _profile(info: dict, out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    gaps_only = info["kind"] == "gap"
    if lines[0] != ("n,gap" if gaps_only else "n,p_n,gap"):
        return "profile header wrong"
    n_max, length = info["n_max"], info["prefix"]
    counts = []
    for n, line in enumerate(lines[1:], start=1):
        fields = [int(f) for f in line.split(",")]
        if fields[0] != n or (not gaps_only and fields[2] != fields[1] - n):
            return f"profile row {n} malformed"
        counts.append(fields[1] + n if gaps_only else fields[1])
    if len(counts) != n_max:
        return "profile has the wrong number of rows"
    word = reference_word(info["word"], length)
    alphabet = len(set(word))
    for n, c in enumerate(counts, start=1):
        if not 1 <= c <= min(alphabet**n, length - n + 1) or (n < n_max and c > counts[n] + 1):
            return f"p({n}) = {c} out of range"
    for n in sorted({1, 2, max(1, n_max // 2), n_max}):
        if counts[n - 1] != distinct_windows(word, n):
            return f"p({n}) differs from the reference"
    return None


def _sturmian(info: dict, out: str) -> str | None:
    _, slope, rho = info["word"]
    if out != sturmian_word(slope, rho, info["length"]).translate(_ASCII).decode() + "\n":
        return "letters differ from the reference"
    return None


_QUASI = re.compile(r"k=(\d+) n0=(\d+)\n")


def _quasi(info: dict, out: str) -> str | None:
    match = _QUASI.fullmatch(out)
    if not match:
        return "plateau output malformed"
    k, n0 = int(match.group(1)), int(match.group(2))
    n_max = info["n_max"]
    if n_max - n0 + 1 < 50:
        return "plateau shorter than the detector's minimum"
    word = reference_word(info["word"], info["length"])
    for n in sorted({n0, (n0 + n_max) // 2, n_max}):
        if distinct_windows(word, n) - n != k:
            return f"p({n}) - {n} is not {k}"
    if n0 > 1 and distinct_windows(word, n0 - 1) - (n0 - 1) == k:
        return "plateau starts earlier than reported"
    return None


_REPORT_DIO = re.compile(r"dio:  (\d+\.\d{6}) \(u=(\d+) v=(\d+) m=(\d+)\)")


def _report(info: dict, out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    if len(lines) != 5 or lines[0] != f"digit-word exponent vs irrationality terms (slack {REPORT_SLACK})":
        return "report output malformed"
    match = _REPORT_DIO.fullmatch(lines[1])
    if not match:
        return "report dio line malformed"
    u, v, m = (int(g) for g in match.groups()[1:])
    word = digit_word(fractional_digits(info["x"], info["base"], info["prefix"])[1])
    if not is_witness(word, u, v, m) or match.group(1) != f"{m / (u + v):.6f}":
        return f"witness u={u} v={v} m={m} fails its slice check"
    _, top, tail, _ = mu_lines(cf_quotients(info["x"], info["terms"]), MU_N_MIN)
    holds = float(Fraction(m, u + v)) <= tail + REPORT_SLACK
    expected = [f"mu:   global_max={top:.6f} tail_max={tail:.6f}", "rational: False",
                f"inequality_holds: {holds}"]
    if lines[2:] != expected:
        return "exponent terms or comparison differ from the reference"
    return None


_CHECKS = {
    "digits": _digits,
    "cf": _cf,
    "mu": _mu,
    "approximant": _approximant,
    "report": _report,
    "dio": _estimate,
    "ice": _estimate,
    "complexity": _profile,
    "gap": _profile,
    "sturmian": _sturmian,
    "quasi": _quasi,
}


# ---------------------------------------------------------------------------
# corruptions for the self-test


def flip_digit(out: str) -> str:
    """Change the last fractional digit of a `digits` output."""
    head, sep, tail = out.rpartition(" certified:")
    flipped = "1" if head[-1] == "0" else "0"
    return head[:-1] + flipped + sep + tail


def shift_witness(out: str) -> str:
    """Claim one more letter of periodicity for the first witness in the output."""
    return re.sub(r"(\bm=)(\d+)", lambda g: g.group(1) + str(int(g.group(2)) + 1), out, count=1)

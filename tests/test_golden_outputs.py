"""Pinned outputs of the real-number, continued-fraction and approximant layers.

`golden_outputs.json` holds SHA-256 digests of the rendered outputs
below, recorded with the Fraction-based enclosures that preceded the
dyadic ones.  The `cf-json`, `approximant-json` and `report` keys pin
the CLI payloads, convergents and exponent terms included; the
`approximant-json` keys were recorded when `cell_bound` replaced the
payload's `margin`.  Every digit, quotient and approximant line must
stay byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from diowords.cli import main
from diowords.contfrac import cf_from_enclosure, mu_estimate
from diowords.realnum import FromCF, digits, enclosure, parse_real_spec

GOLDEN = Path(__file__).with_name("golden_outputs.json")

SPECS = (
    "e",
    "shallit",
    "surd:0,1,2",
    "surd:-1,3,7",
    "mobius:5,2,2,1:(e)",
    "mobius:1,1,1,2:(surd:0,1,3)",
    "rat:22/7",
    "stream:n+1",
)
BASES = (2, 3, 10, 16, 36, 257)
COUNTS = (200, 5000)
CF_TERMS = 300
APPROXIMANTS = (
    ("e", 10, 2000),
    ("surd:0,1,2", 2, 3000),
    ("mobius:5,2,2,1:(e)", 10, 1500),
    ("shallit", 2, 2000),
    ("rat:1/701", 10, 1981),
)
# the JSON payloads print the relation `cell_bound`, which depends on the
# number, base, prefix and threshold only; rat:3/4 in base 2 is its `<=` case
APPROXIMANT_JSON = (
    ("e", 10, 2000),
    ("surd:0,1,2", 2, 3000),
    ("mobius:5,2,2,1:(e)", 10, 1500),
    ("rat:1/701", 10, 1981),
    ("rat:3/4", 2, 5),
)
REPORTS = ("e", "surd:0,1,2")
# a nested image with negative entries over a surd with q < 0, and an image
# of e near its pole: |7e - 19| is about 0.028
IMAGES = ("mobius:0,1,1,0:(mobius:2,1,1,0:(surd:-1,-3,7))", "mobius:-3,8,7,-19:(e)")


def _spec(name: str):
    # [1; 2, 3, 4, ...] is an infinite quotient stream the spec grammar cannot express
    return FromCF(lambda n: n + 1) if name == "stream:n+1" else parse_real_spec(name)


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def rendered_outputs() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in SPECS:
        spec = _spec(name)
        for base in BASES:
            for count in COUNTS:
                out[f"digits {name} {base} {count}"] = digits(spec, base, count).as_text()
        cf = cf_from_enclosure(enclosure(spec), CF_TERMS)
        out[f"cf {name}"] = ",".join(map(str, cf.quotients))
        if name != "stream:n+1":
            out[f"cf-json {name}"] = _cli("--format", "json", "cf", name, "--terms", str(CF_TERMS))
        if not cf.rational:
            mu = mu_estimate(cf)
            out[f"mu {name}"] = "\n".join(f"{n} {v:.6f}" for n, v in mu.values)
    for name in IMAGES:
        spec = parse_real_spec(name)
        for base in (2, 10):
            for count in COUNTS:
                out[f"digits {name} {base} {count}"] = digits(spec, base, count).as_text()
        out[f"cf {name}"] = ",".join(map(str, cf_from_enclosure(enclosure(spec), CF_TERMS).quotients))
    for name, base, prefix in APPROXIMANTS:
        out[f"approximant {name} {base} {prefix}"] = _cli(
            "approximant", name, "--base", str(base), "--prefix", str(prefix)
        )
    for name, base, prefix in APPROXIMANT_JSON:
        out[f"approximant-json {name} {base} {prefix}"] = _cli(
            "--format", "json", "approximant", name, "--base", str(base), "--prefix", str(prefix)
        )
    for name in REPORTS:
        out[f"report {name}"] = _cli("report", name, "--prefix", "2000", "--terms", "60")
    return out


def digests() -> dict[str, str]:
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in rendered_outputs().items()}


def test_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == expected.keys()
    assert [k for k in got if got[k] != expected[k]] == []


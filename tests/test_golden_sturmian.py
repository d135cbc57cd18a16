"""Pinned Sturmian and quasi-Sturmian words.

`golden_sturmian.json` holds SHA-256 digests of `mechanical_word` and
`apply_morphism` outputs at 10^5 letters, recorded with the per-letter
exact floors that preceded the bracket-and-floor kernel.  Every letter
must stay the same.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from diowords.sturmian import (
    QuasiSturmianSpec,
    apply_morphism,
    mechanical_word,
    parse_morphism,
    parse_slope,
)
from diowords.words import Word
from diowords.spec import digit_word

GOLDEN = Path(__file__).with_name("golden_sturmian.json")

LENGTH = 100_000
SLOPES = (
    "surd:-3,-2,5",
    "surd:0,3,7",
    "surd:-1,1,2",
    "surd:-5,-7,3",
    "cfslope:(1)*",
    "cfslope:1,(2,3)*",
    "cfslope:2,(5,31,7)*",
    "cfslope:pow10",
)
INTERCEPTS = ("0", "7/31", "1/2", "999/1000")
QUASI = (("2", "0>01;1>001", "0"), ("", "0>010;1>11", "7/31"), ("3012", "0>1;1>20", "1/2"))


def _digest(w: Word) -> str:
    return hashlib.sha256(f"{w.alphabet_size}:".encode() + w.symbols).hexdigest()


def digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for text in SLOPES:
        slope = parse_slope(text)
        for rho in INTERCEPTS:
            out[f"mechanical {text} {rho}"] = _digest(mechanical_word(slope, Fraction(rho), LENGTH))
        for prefix, morphism, rho in QUASI:
            prefix_word = digit_word(prefix) if prefix else Word(b"", 2)
            spec = QuasiSturmianSpec(prefix_word, parse_morphism(morphism), slope, Fraction(rho))
            out[f"quasi {prefix}|{morphism}|{text}|{rho}"] = _digest(apply_morphism(spec, LENGTH))
    return out


def test_words_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == expected.keys()
    assert [k for k in got if got[k] != expected[k]] == []

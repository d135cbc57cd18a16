"""Hypothesis strategies shared by the word-statistics tests and the CLI fuzzer."""

from hypothesis import strategies as st

from diowords.words import Word


@st.composite
def mixed_words(draw, min_size: int):
    """Words of up to 60 letters over alphabets of size 2..256.

    Letters come from a drawn palette of at most 16 letters, so that
    words over large alphabets still repeat, and letter values anywhere
    in 0..255 meet in one word.
    """
    b = draw(st.integers(2, 256))
    palette = draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=16, unique=True))
    letters = draw(st.lists(st.sampled_from(palette), min_size=min_size, max_size=60))
    return Word(bytes(letters), b)


# ---------------------------------------------------------------------------
# argv of the CLI, drawn from its grammar (every command but `verify`)


def _mostly(valid, invalid):
    """`valid` in about nine draws of ten, else `invalid`."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda s: s)


@st.composite
def _ints(draw, count: int, lo: int, hi: int) -> str:
    return ",".join(str(draw(st.integers(lo, hi))) for _ in range(count))


_UNIMODULAR = ["1,0,0,1", "0,1,1,0", "1,-2,0,1", "0,1,1,5", "5,2,2,1", "1,2,1,3", "3,-1,1,0"]
_digit_text = st.text("0123456789", max_size=6)
# Spellings that Python's int() reads and the grammar refuses: a digit
# separator, a '+', a space, a digit of another script (ARABIC-INDIC ONE).
# Every argv that holds one exits 2 (`LOOSE_MARKS`).
LOOSE_INTS = ["1_0", "+5", " 5", "\u0661"]
LOOSE_MARKS = ("_", "+", " ", "\u0661", "\u0663")
# Spellings that Python's float() reads and the decimal grammar refuses
LOOSE_DECIMALS = ["1_0", " 0.5", "+0.5", ".5", "1e-1"]
_not_numbers = ["x", "1.5", "", *LOOSE_INTS]  # their message names no function of cli
# the values argparse accepts; each option draws them in about nine draws of ten
_valid_sizes, _valid_terms, _valid_bases, _valid_small = (
    st.integers(0, 60), st.integers(1, 25), st.integers(2, 40), st.integers(1, 12))
_sizes = _mostly(_valid_sizes, st.sampled_from([-1, *_not_numbers]))
_terms = _mostly(_valid_terms, st.sampled_from([0, *_not_numbers]))
_bases = _mostly(_valid_bases, st.integers(0, 1) | st.sampled_from(LOOSE_INTS))
_small = _mostly(_valid_small, st.integers(-3, 0) | st.sampled_from(LOOSE_INTS))
_GOOD_SLACKS = ["0.15", "0", "0.5"]
_slacks = _mostly(st.sampled_from(_GOOD_SLACKS), st.sampled_from(["nan", "x", *LOOSE_DECIMALS]))


def real_specs(depth: int = 2):
    """Number specs: the atoms, finite continued fractions and nested Moebius images."""
    atoms = _mostly(
        st.one_of(
            st.sampled_from(["e", "shallit"]),
            st.builds("rat:{}/{}".format, st.integers(-9, 9), st.integers(1, 12)),
            st.builds("surd:{},{},{}".format, st.integers(-4, 4), st.integers(1, 5),
                      st.integers(0, 12)),
            st.builds("cf:{},{}".format, st.integers(-2, 3), _ints(3, 1, 6)),
        ),
        st.one_of(
            st.sampled_from(["nope:1", "rat:", "rat:1/0", "cf:", "cf:1,0", "surd:1,2",
                             "surd:1,0,2",
                             # loose spellings of integer fields
                             "cf:1_0,2", "cf:\u0661,2", "cf: 1, 2", "surd: 0,1,2", "rat:+1/3",
                             "rat:1_0/3", "mobius:1,0,0,+1:(e)"]),
            st.builds("surd:{}".format, _ints(3, -4, 12)),
        ),
    )
    if depth == 0:
        return atoms
    matrices = _mostly(st.sampled_from(_UNIMODULAR), _ints(4, -3, 3))
    mobius = st.builds("mobius:{}:({})".format, matrices, real_specs(depth - 1))
    return st.one_of(atoms, mobius)


slopes = _mostly(
    st.one_of(
        st.sampled_from(["cfslope:(1)*", "cfslope:1,(2,3)*", "cfslope:pow10", "surd:-3,-2,5",
                         "surd:1,3,2", "surd:0,4,7"]),
        st.builds("cfslope:{},({})*".format, _ints(2, 1, 5), _ints(2, 1, 5)),
    ),
    st.one_of(
        st.sampled_from(["cfslope:1,2", "cfslope:", "cfslope:(1", "surd:1,2", "surd:2,1,2",
                         # empty fields and a tail without its comma are refused, not dropped
                         "cfslope:1,,2,(1)*", "cfslope:,1,(1)*", "cfslope:(1,,2)*",
                         "cfslope:1(2)*",
                         # loose spellings of integer fields
                         "cfslope:1_0,(1)*", "cfslope:(+1)*", "surd:-3,-2, 5",
                         "cfslope:(\u0661)*"]),
        st.builds("surd:{}".format, _ints(3, -4, 12)),
    ),
)
intercepts = _mostly(
    st.sampled_from(["0", "1/3", "7/31"]),
    # a loose spelling is refused, and so is a decimal point
    st.sampled_from(["1/0", "3/2", "x", " 1_0/3_1", "0.5", "+1/3", "1/\u0663"]),
)
morphisms = _mostly(
    st.sampled_from(["0>01;1>0", "0>01;1>001", "1>10;0>0", "0>011;1>01", "0>2;1>01"]),
    st.one_of(
        st.builds("0>{};1>{}".format, st.text("01", max_size=4), st.text("012", max_size=4)),
        st.sampled_from(["0>01", "0>a;1>0", "0>01;1>0101", "0>01;1>001;0>1",
                         # an image letter is an ASCII digit; a rule starts at its letter
                         "0>0_1;1>001", "0>01;1>0\u0661", "0>01; 1>001", "+0>01;1>001"]),
    ),
)


def _with_intercept(draw, fields: list[str]) -> str:
    if draw(st.booleans()):
        fields.append(draw(intercepts))
    return "|".join(fields)


@st.composite
def word_sources(draw) -> str:
    kind = draw(_mostly(st.sampled_from(["lit", "digits", "sturmian", "quasi"]), st.just("bad")))
    if kind == "lit":
        return "lit:" + draw(_digit_text)
    if kind == "digits":
        return f"digits:{draw(real_specs(1))}|{draw(_bases)}"
    if kind == "sturmian":
        return "sturmian:" + _with_intercept(draw, [draw(slopes)])
    if kind == "quasi":
        return "quasi:" + _with_intercept(draw, [draw(_digit_text), draw(morphisms), draw(slopes)])
    return draw(st.sampled_from(["", "lit", "digits:e", "sturmian:surd:1,2,5|0|0"]))


def _option(draw, name: str, values) -> list[str]:
    """`name value`, or nothing when the option is left at its default."""
    value = draw(st.none() | values)
    return [] if value is None else [name, str(value)]


@st.composite
def cli_argvs(draw) -> list[str]:
    """argv over every command but `verify`, at small sizes and budgets of 0-256 bits."""
    command = draw(st.sampled_from(["digits", "complexity", "gap", "ice", "dio", "cf", "mu",
                                    "sturmian", "quasi", "approximant", "report"]))
    formats = ["text", "json"] + (["csv"] if command in ("complexity", "gap") else [])
    argv = _option(draw, "--format", _mostly(st.sampled_from(formats), st.just("csv")))
    argv += ["--max-bits", str(draw(st.integers(0, 256))), command]
    if command == "digits":
        argv += [draw(real_specs()), "--count", str(draw(_sizes))]
        argv += _option(draw, "--base", _bases)
    elif command in ("complexity", "gap"):
        argv += [draw(word_sources()), "--n-max", str(draw(_mostly(st.integers(1, 8), st.just(0))))]
        argv += _option(draw, "--prefix", _sizes)
    elif command in ("ice", "dio"):
        argv += [draw(word_sources())]
        argv += _option(draw, "--prefix", _sizes) + _option(draw, "--threshold", _small)
    elif command in ("cf", "mu"):
        argv += [draw(real_specs()), "--terms", str(draw(_terms))]
        if command == "mu":
            argv += _option(draw, "--n-min", _small)
    elif command == "sturmian":
        argv += [draw(slopes), "--length", str(draw(_sizes))]
        argv += _option(draw, "--intercept", intercepts)
    elif command == "quasi":
        argv += ["--morphism", draw(morphisms), "--slope", draw(slopes)]
        argv += ["--length", str(draw(_sizes))] + _option(draw, "--word", _digit_text)
        argv += _option(draw, "--intercept", intercepts)
        argv += _option(draw, "--check-n-max", _mostly(st.integers(0, 6), st.sampled_from(LOOSE_INTS)))
    else:
        slack = _option(draw, "--slack", _slacks) if command == "report" else []
        # a refused --slack comes with numbers argparse accepts, so that the
        # decimal reader, not an earlier option, refuses the argv
        if slack and slack[1] not in _GOOD_SLACKS:
            sizes, bases, small, terms = _valid_sizes, _valid_bases, _valid_small, _valid_terms
        else:
            sizes, bases, small, terms = _sizes, _bases, _small, _terms
        argv += [draw(real_specs()), "--prefix", str(draw(sizes))]
        argv += _option(draw, "--base", bases)
        argv += _option(draw, "--threshold", small)
        if command == "report":
            argv += ["--terms", str(draw(terms))] + slack
    return argv

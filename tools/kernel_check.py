"""Check every tuned kernel of `diowords` against its oracle at the sizes
where it runs, and time both.

    python tools/kernel_check.py                      # every section, best of 5
    python tools/kernel_check.py near-integer euclid  # these sections only
    python tools/kernel_check.py --repeat 0           # each check once, nothing timed
    python tools/kernel_check.py rss extractions --src ../other/src
    python tools/kernel_check.py memory --repeat 20     # peaks and faults per call

Each in-process row, bar those of `memory`, runs the kernel and its oracle
once and exits nonzero unless they agree, then prints the best-of-k time of
each (--repeat k; with 0 the time columns read nan) and, for a pair, the
oracle's time over the kernel's.  Sections run in this order, or only those
named:

rss           the peak RSS (ru_maxrss) of fresh processes that run `dio` on
              10^6 letters of the Fibonacci word, the binary digits of e
              and (01)^k.  It runs first, because a forked child starts
              with its parent's peak.
memory        in process, with stdout and stderr sent to os.devnull: the
              traced peak (tracemalloc) in bytes per letter of one call,
              and the median minor page faults (ru_minflt) per call over
              --repeat more calls, or of one at --repeat 0, of `sturmian`
              text output, `ice` and `dio` on sturmian:cfslope:(1)*|1/3 and
              `complexity --n-max 400` on digits:e|2, and of `ice_estimate`
              alone on the letters of that Sturmian word without its slope,
              at MEMORY_SIZES letters.  It runs second, so that no other
              in-process section has shaped the heap first.
lpf           `suffix.longest_previous_factor` against the `lpf_from_index`
              stack loop of `tests/suffix_oracle.py` on the same suffix
              index, on WORDS at SIZES letters.
records       on the Sturmian words of WORDS, the record path
              (`sturmian.record_runs` and `repetition._record_lpf`) against
              the whole index path (`suffix_index` and the LPF kernel).
ice           `repetition.ice_estimate` on each Sturmian word from 10^4
              letters on, each of `SLOW_CASES` in `tests/sturmian_oracle.py`
              and [0; 30000, (2)*] at 2*10^5 letters, which reads Z at the
              slope's records, against the same letters without the slope,
              which reads the Z-array.
z-array       the two-phase `repetition._z_array` against the per-letter
              Z-box loop of `tests/repetition_oracle.py` at 10^5 letters.
mechanical    `sturmian.mechanical_word` against `mechanical_letters` in
              `tests/sturmian_oracle.py`, one exact floor per position: on
              surd slopes up to 10^6 letters, on continued-fraction slopes
              up to 10^5 (their oracle extends convergents for every
              floor); longer words are timed only.
near-integer  the same at 10^5 letters and the two intercepts of
              `near_integer_intercepts` for floor n0 = 5*10^4, so that the
              exact floor oracle `sturmian._floors` asks for brackets past
              64 bits; it prints the bits asked.
letters       on the Fibonacci word at 10^5 and 10^6 letters, the `Word`
              letter check, `Word.to_text` and the morphism image of
              `sturmian.apply_morphism` against the per-byte `translate` or
              per-letter join that each replaced (the image's is `image` in
              `tests/sturmian_oracle.py`).
profile       `words.complexity_profile` at n_max 16 and 400 on digit,
              Sturmian and quasi-Sturmian words at 10^4 to 10^6 letters:
              against `factor_counts_brute` where that costs at most
              BRUTE_WORK window letters (about a second), elsewhere against
              the counts read off the full-depth index by its SA, after
              checking its LCP against Kasai's scan (`lcp_array` in
              `tests/suffix_oracle.py`) and its SA order pair by pair, with
              the number of `suffix._sort` rounds each profile took; then
              the full-depth index against Kasai at 10^5 letters on digit
              words and 0^(N-1)1, timing `suffix_index` with the LPF kernel.
divmod        `realnum._divmod` and `realnum._sqrtrem` against the builtin
              `divmod` and `math.isqrt` on random n-bit operands, with a
              third column for the kernel cut at ceil(n/2) bits (n - 1 for
              the root), so that exactly the top level splits and its halves
              go to the builtin: `_BIGINT_CUT_BITS` belongs at the smallest
              size from which that one split wins.
euclid        `contfrac._interval_quotients` against the plain Euclid of
              `tests/contfrac_oracle.py` on the exact brackets of e, of
              (3 + sqrt 101)/7 and of (5e + 2)/(2e + 1); the Lehmer gate
              belongs where the batches stop winning.  Retune
              `_LEHMER_KEEP_BITS` and `_LEHMER_GATE_BITS` by running this
              section in a checkout where they are edited.
image         `realnum._image_bracket` against the two-product image of
              `tests/realnum_oracle.py` (dividing with `realnum._divmod`) on
              e's exact brackets under x -> (5x + 2)/(2x + 1) (det 1) and
              x -> (2x + 5)/(x + 2) (det -1), at scale bits + `_GUARD_BITS`,
              as the refine loop of `mobius:5,2,2,1:(e)` calls it.
extractions   the wall time and md5 of six runs, each in a fresh process:
              10^6 binary digits of e and of sqrt(2), and 3*10^5 decimal
              digits of both, timed inside the process, and the stdout of
              `cf e --terms 20000` and `cf surd:0,1,2 --terms 20000`, timed
              around it.

The fresh-process sections import `diowords` from --src (this checkout's
src/ by default) and run once at any --repeat; the others import it from
this checkout.  Digit words are made with a budget of 4 bits a digit, so
that every size is reached.  It needs only the standard library and
numpy; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import contfrac_oracle  # noqa: E402
import realnum_oracle  # noqa: E402
import repetition_oracle  # noqa: E402
from diowords import cli, contfrac, realnum  # noqa: E402
from diowords import sturmian as sturmian_module  # noqa: E402
from diowords import suffix as suffix_module  # noqa: E402
from diowords.cli import parse_word_source  # noqa: E402
from diowords.realnum import Mobius, SeriesE, Surd, _divmod, _sqrtrem  # noqa: E402
from diowords.repetition import _record_lpf, _z_array, ice_estimate  # noqa: E402
from diowords.spec import read_intercept  # noqa: E402
from diowords.sturmian import _image, mechanical_word, parse_slope, record_runs  # noqa: E402
from diowords.suffix import longest_previous_factor, suffix_index  # noqa: E402
from diowords.words import DIGITS_TO_CHARS, Word, complexity_profile, factor_counts_brute  # noqa: E402
from sturmian_oracle import SLOW_CASES, image, mechanical_letters, near_integer_intercepts  # noqa: E402
from suffix_oracle import lcp_array, lpf_from_index  # noqa: E402


def budget(n: int) -> int:
    """A refinement budget that certifies n digits in base 10 and below."""
    return 4 * n + 4096


def source(text: str):
    return lambda n: parse_word_source(text, n, budget(n))


def plain(make):
    return lambda n: Word(make(n)[:n], 2)


# word lengths of the lpf, records, ice and mechanical sections
SIZES = (1000, 3000, 10_000, 15_000, 200_000, 1_000_000)
# the Sturmian words: slope and intercept
MECHANICAL = {
    "fibonacci": ("cfslope:(1)*", "0"),
    "pow10|1/7": ("cfslope:pow10", "1/7"),
    "surd:-3,7,13|1/3": ("surd:-3,7,13", "1/3"),
    "surd:-1,10,2": ("surd:-1,10,2", "0"),
    "500,(1)*|5/7": ("cfslope:500,(1)*", "5/7"),
    "3000,(2)*|5/7": ("cfslope:3000,(2)*", "5/7"),
}
WORDS = {
    **{name: source(f"sturmian:{slope}|{rho}") for name, (slope, rho) in MECHANICAL.items()},
    "e base 2": source("digits:e|2"),
    "e base 10": source("digits:e|10"),
    "(01)^k": plain(lambda n: b"\0\1" * n),
    "0^(N-1)1": plain(lambda n: b"\0" * (n - 1) + b"\1"),
    "1/7 base 10": source("digits:rat:1/7|10"),
}
# the ice section: Sturmian words from this many letters on, and more cases
ICE_LETTERS = 10_000
ICE_CASES = [*SLOW_CASES, ("cfslope:30000,(2)*", 200_000)]
# the z-array section: words at this length, the random ones seeded by their alphabet size
Z_LETTERS = 100_000
Z_WORDS = {
    **{name: WORDS[name] for name in ("fibonacci", "0^(N-1)1", "(01)^k")},
    "(001)^k": plain(lambda n: b"\0\0\1" * n),
    **{name: WORDS[name] for name in ("e base 2", "e base 10")},
    **{f"random over {k}": lambda n, k=k: Word(bytes(random.Random(k).choices(range(k), k=n)), k)
       for k in (3, 10, 256)},
}
# the longest mechanical words checked against the per-position floors
ORACLE_LETTERS = {"surd": 1_000_000, "cf": 100_000}
# the mechanical words with one floor next to an integer, at this length
NEAR_LETTERS = 100_000
# the letter passes of `Word` and `apply_morphism`: word lengths and the images
LETTER_SIZES = (100_000, 1_000_000)
LETTER_IMAGES = (b"\0\1", b"\0\0\1")
# the profile section: word sources, lengths and windows, the largest
# L * n_max that `factor_counts_brute` checks, and the words of the
# full-depth index rows at INDEX_LETTERS letters
PROFILE_WORDS = {
    "e base 2": "digits:e|2",
    "e base 10": "digits:e|10",
    "(1,2,3)*|1/3": "sturmian:cfslope:(1,2,3)*|1/3",
    "quasi 012|01;011": "quasi:012|0>01;1>011|cfslope:(1,2,3)*|1/3",
}
PROFILE_SIZES = (10_000, 100_000, 1_000_000)
PROFILE_WINDOWS = (16, 400)
BRUTE_WORK = 2_000_000
INDEX_LETTERS = 100_000
INDEX_WORDS = ("e base 2", "e base 10", "1/7 base 10", "0^(N-1)1")
# operand sizes in bits of the divmod, euclid and image sections
BIGINT_BITS = (1000, 2000, 4000, 8000, 16_000, 32_000, 64_000, 100_000, 300_000, 1_000_000)
EUCLID_BITS = (500, 1000, 2000, 10_000, 50_000, 210_000)
EUCLID_NUMBERS = {
    "e": SeriesE(),
    "surd:3,7,101": Surd(3, 7, 101),
    "mobius:5,2,2,1:(e)": Mobius(5, 2, 2, 1, SeriesE()),
}
IMAGE_BITS = (10_000, 100_000, 1_000_000)
IMAGE_MATRICES = {"mobius:5,2,2,1": (5, 2, 2, 1), "mobius:2,5,1,2": (2, 5, 1, 2)}
# the `dio` word sources whose fresh-process peak is printed, at this length
RSS_LETTERS = 1_000_000
RSS_SOURCES = {
    "fibonacci": "sturmian:cfslope:(1)*",
    "e base 2": "digits:e|2",
    "(01)^k": "digits:rat:1/3|2",
}
RSS_CODE = """
import contextlib, io, resource, sys
from diowords import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--max-bits", sys.argv[3], "dio", sys.argv[1], "--prefix", sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
EXTRACTIONS = {
    "e base 2": ("SeriesE()", 2, 10**6),
    "sqrt(2) base 2": ("Surd(0, 1, 2)", 2, 10**6),
    "e base 10": ("SeriesE()", 10, 3 * 10**5),
    "sqrt(2) base 10": ("Surd(0, 1, 2)", 10, 3 * 10**5),
}
EXTRACT_CODE = """
import hashlib, sys, time
from diowords.realnum import SeriesE, Surd, digits
spec = eval(sys.argv[1])
t0 = time.perf_counter()
text = digits(spec, int(sys.argv[2]), int(sys.argv[3])).as_text()
print(time.perf_counter() - t0, hashlib.md5(text.encode()).hexdigest())
"""
# the memory section: word lengths, the CLI argv of each row at n letters,
# and the Sturmian word whose letters `ice_estimate` takes without the slope
MEMORY_SIZES = (200_000, 1_000_000)
MEMORY_ARGV = {
    "sturmian text": lambda n: ["sturmian", "cfslope:(1)*", "--length", str(n), "--intercept", "1/3"],
    "ice": lambda n: ["ice", "sturmian:cfslope:(1)*|1/3", "--prefix", str(n)],
    "dio": lambda n: ["dio", "sturmian:cfslope:(1)*|1/3", "--prefix", str(n)],
    "complexity e|2": lambda n: ["--max-bits", str(budget(n)), "complexity", "digits:e|2", "--prefix", str(n),
                                 "--n-max", "400"],
}
MEMORY_PLAIN = "sturmian:cfslope:(1)*|1/3"
CF_EXTRACTIONS = {
    "cf e": ("cf", "e", "--terms", "20000"),
    "cf surd:0,1,2": ("cf", "surd:0,1,2", "--terms", "20000"),
}


def timed(f, *args) -> float:
    t0 = time.perf_counter()
    f(*args)
    return time.perf_counter() - t0


def best_of(repeat: int, *calls) -> list[float]:
    """The best time of each (f, *args), run alternately, so that a slow
    spell of the host hits all of them; nan for each when repeat is 0."""
    runs = [[timed(*call) for call in calls] for _ in range(repeat)]
    return [min((r[i] for r in runs), default=math.nan) for i in range(len(calls))]


def agree(repeat: int, what: str, *calls, want=None):
    """Run each (f, *args) once and exit with `what` unless all results are
    equal, and equal to `want` if it is given; then return the first result
    and the best-of-`repeat` time of each call."""
    first, *rest = [f(*args) for f, *args in calls] + ([] if want is None else [want])
    if not all(np.array_equal(first, r) if isinstance(first, np.ndarray) else first == r for r in rest):
        raise SystemExit(what)
    return first, best_of(repeat, *calls)


def ms(times: list[float]) -> list[str]:
    """Each time in ms and, for two or more, the second over the first."""
    cells = [f"{t * 1e3:.3f}" for t in times]
    return cells + [f"{times[1] / times[0]:.2f}"] if len(times) > 1 else cells


def line(size, name: str, *cells) -> None:
    print(f"{size:>9}  {name:20}" + "".join(f" {cell:>14}" for cell in cells), flush=True)


def head(*cells) -> None:
    print()
    line(*cells)


def fresh(src: str, *argv: str) -> tuple[str, float]:
    """The stdout and wall seconds of `python *argv` with `diowords` taken from `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True)
    return out.stdout, time.perf_counter() - t0


def rss_section(args) -> None:
    for name, text in RSS_SOURCES.items():
        out, _ = fresh(args.src, "-c", RSS_CODE, text, str(RSS_LETTERS), str(budget(RSS_LETTERS)))
        print(f"fresh dio {name} at {RSS_LETTERS} letters: peak RSS {int(out) / 1024:.1f} MB", flush=True)


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_and_faults(repeat: int, call) -> tuple[int, float]:
    """The traced peak bytes of one call, then the median minor faults of
    `repeat` more calls, untraced (of one at 0)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = []
    for _ in range(max(repeat, 1)):
        before = minflt()
        call()
        faults.append(minflt() - before)
    return peak, statistics.median(faults)


def memory_section(args) -> None:
    head("letters", "call", "peak B/letter", "faults/call")
    rows = 0
    cli._shared_parser()  # built once per process, outside the calls
    with open(os.devnull, "w") as sink:
        for n in MEMORY_SIZES:
            calls = {name: lambda argv=argv(n): cli.main(argv) for name, argv in MEMORY_ARGV.items()}
            plain = Word(parse_word_source(MEMORY_PLAIN, n).symbols, 2)
            calls["ice_estimate, no slope"] = lambda: ice_estimate(plain)
            for name, call in calls.items():
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    peak, faults = peak_and_faults(args.repeat, call)
                rows += 1
                line(n, name, f"{peak / n:.3f}", f"{faults:.1f}")
    print(f"memory: {rows} calls at {', '.join(map(str, MEMORY_SIZES))} letters, traced peak of one call "
          f"and median minor faults of {max(args.repeat, 1)} more calls each")


def lpf_section(args) -> None:
    head("letters", "word", "kernel ms", "loop ms", "loop/kernel")
    totals = np.zeros(2)
    for n in SIZES:
        for name, make in WORDS.items():
            sa, lcp = suffix_index(make(n).symbols)
            _, times = agree(args.repeat, f"kernel and oracle differ on {name} at {len(sa)} letters",
                             (longest_previous_factor, sa, lcp), (lpf_from_index, sa, lcp))
            totals += times
            line(len(sa), name, *ms(times))
    print(f"lpf: {len(SIZES) * len(WORDS)} words, kernel {totals[0] * 1e3:.3f} ms, loop {totals[1] * 1e3:.3f} ms "
          f"in all (best of {args.repeat}); none differ")


def index_lpf(data: bytes):
    return longest_previous_factor(*suffix_index(data))


def record_lpf(w: Word):
    return _record_lpf(w.symbols, record_runs(w.slope, len(w)))


def records_section(args) -> None:
    head("letters", "word", "records", "records ms", "index ms", "index/records")
    totals = np.zeros(2)
    for n in SIZES:
        for name in MECHANICAL:
            w = WORDS[name](n)
            records = sum(run[3] for run in record_runs(w.slope, len(w)))
            _, times = agree(args.repeat, f"records and index differ on {name} at {len(w)} letters",
                             (record_lpf, w), (index_lpf, w.symbols))
            totals += times
            line(len(w), name, records, *ms(times))
    print(f"records: {len(SIZES) * len(MECHANICAL)} words, records {totals[0] * 1e3:.3f} ms, index "
          f"{totals[1] * 1e3:.3f} ms in all (best of {args.repeat}); none differ")


def ice_section(args) -> None:
    words = [(name, WORDS[name](n)) for n in SIZES if n >= ICE_LETTERS for name in MECHANICAL]
    words += [(text, mechanical_word(parse_slope(text), read_intercept("5/7"), n)) for text, n in ICE_CASES]
    head("letters", "word", "records ms", "Z-array ms", "Z/records")
    totals = np.zeros(2)
    for name, w in words:
        _, times = agree(args.repeat, f"ice from the records and from the Z-array differ on {name} at {len(w)} letters",
                         (ice_estimate, w), (ice_estimate, Word(w.symbols, 2)))
        totals += times
        line(len(w), name, *ms(times))
    print(f"ice: {len(words)} words, records {totals[0] * 1e3:.3f} ms, Z-array {totals[1] * 1e3:.3f} ms "
          f"in all (best of {args.repeat}); none differ")


def z_array_section(args) -> None:
    head("letters", "word", "kernel ms", "loop ms", "loop/kernel")
    totals = np.zeros(2)
    for name, make in Z_WORDS.items():
        data = make(Z_LETTERS).symbols
        _, times = agree(args.repeat, f"the Z-array and its loop differ on {name} at {len(data)} letters",
                         (_z_array, data), (repetition_oracle.z_array, data))
        totals += times
        line(len(data), name, *ms(times))
    print(f"z-array: {len(Z_WORDS)} words at {Z_LETTERS} letters, kernel {totals[0] * 1e3:.3f} ms, "
          f"loop {totals[1] * 1e3:.3f} ms in all (best of {args.repeat}); none differ")


def mechanical_section(args) -> None:
    head("letters", "word", "checked", "word ms")
    total, checked = 0.0, 0
    for n in SIZES:
        for name, (text, rho) in MECHANICAL.items():
            slope, rho = parse_slope(text), read_intercept(rho)
            check = n <= ORACLE_LETTERS["surd" if isinstance(slope, Surd) else "cf"]
            want = Word(mechanical_letters(slope, rho, n), 2) if check else None
            _, times = agree(args.repeat, f"mechanical_word and its oracle differ on {name} at {n} letters",
                             (mechanical_word, slope, rho, n), want=want)
            checked += check
            total += times[0]
            line(n, name, "yes" if check else "no", *ms(times))
    print(f"mechanical_word: {len(SIZES) * len(MECHANICAL)} words, {total * 1e3:.3f} ms in all "
          f"(best of {args.repeat}); {checked} checked against the per-position floors, none differ")


def bits_asked(slope, rho, n: int) -> list[int]:
    """The bits of every slope bracket that `mechanical_word(slope, rho, n)` asks for."""
    with mock.patch.object(sturmian_module, "_bracket", wraps=sturmian_module._bracket) as bracket:
        mechanical_word(slope, rho, n)
    return [call.args[1] for call in bracket.call_args_list]


def near_integer_section(args) -> None:
    n = NEAR_LETTERS
    head("letters", "word", "side", "bits asked", "word ms")
    total, deepest = 0.0, 0
    for name, (text, _) in MECHANICAL.items():
        slope = parse_slope(text)
        for side, rho in zip(("under", "over"), near_integer_intercepts(slope, n // 2)):
            asked = bits_asked(slope, rho, n)
            _, times = agree(args.repeat, f"mechanical_word and its oracle differ on {name} {side} at {n} letters",
                             (mechanical_word, slope, rho, n), want=Word(mechanical_letters(slope, rho, n), 2))
            total += times[0]
            deepest = max(deepest, *asked)
            line(n, name, side, ",".join(map(str, asked)), *ms(times))
    print(f"near-integer mechanical_word: {2 * len(MECHANICAL)} words at {n} letters, {total * 1e3:.3f} ms "
          f"in all (best of {args.repeat}), brackets up to {deepest} bits; none differ from the per-position floors")


def rejects(data: bytes) -> bool:
    """Whether `Word` refuses `data` as a binary word."""
    try:
        Word(data, 2)
    except ValueError:
        return True
    return False


def translate_rejects(data: bytes) -> bool:
    """Whether a letter is left once every letter of the binary alphabet is deleted."""
    return bool(data.translate(None, bytes(range(2))))


def translate_text(w: Word) -> str:
    return w.symbols.translate(DIGITS_TO_CHARS).decode("ascii")


def letters_section(args) -> None:
    head("letters", "pass", "pass ms", "oracle ms", "oracle/pass")
    totals = np.zeros(2)
    for n in LETTER_SIZES:
        w = mechanical_word(parse_slope("cfslope:(1)*"), read_intercept("0"), n)
        if rejects(w.symbols + b"\2") != translate_rejects(w.symbols + b"\2"):
            raise SystemExit(f"the letter check and translate differ at {n + 1} letters")
        rows = (
            ("letter check", "the letter check and translate", (rejects, w.symbols), (translate_rejects, w.symbols)),
            ("to_text", "to_text and translate", (Word.to_text, w), (translate_text, w)),
            ("morphism image", "the morphism image and the join",
             (_image, w.symbols, *LETTER_IMAGES), (image, w.symbols, *LETTER_IMAGES)),
        )
        for name, what, *calls in rows:
            _, times = agree(args.repeat, f"{what} differ at {n} letters", *calls)
            totals += times
            line(n, name, *ms(times))
    print(f"letters: {len(rows) * len(LETTER_SIZES)} passes at {', '.join(map(str, LETTER_SIZES))} letters, "
          f"passes {totals[0] * 1e3:.3f} ms, translate and join {totals[1] * 1e3:.3f} ms "
          f"in all (best of {args.repeat}); none differ")


def profile_counts(w: Word, n_max: int) -> list[int]:
    return list(complexity_profile(w, n_max).counts)


def sorts(f, *args) -> int:
    """How many rounds of `suffix._sort` one call of f(*args) runs."""
    with mock.patch.object(suffix_module, "_sort", wraps=suffix_module._sort) as sort:
        f(*args)
    return sort.call_count


def profile_section(args) -> None:
    head("letters", "word", "n_max", "checked by", "sorts", "profile ms")
    total, rows, brute, rounds = 0.0, 0, 0, 0
    for n in PROFILE_SIZES:
        for name, text in PROFILE_WORDS.items():
            w = parse_word_source(text, n, budget(n))
            index_counts = None
            for n_max in PROFILE_WINDOWS:
                if n * n_max <= BRUTE_WORK:
                    checked, want = "brute", factor_counts_brute(w.symbols, n_max)
                    brute += 1
                else:
                    if index_counts is None:
                        index_counts = checked_index_counts(w.symbols, name)
                    checked, want = "Kasai", index_counts[:n_max]
                _, times = agree(args.repeat, f"complexity_profile differs from the {checked} count on {name} "
                                 f"at {n} letters, n_max {n_max}", (profile_counts, w, n_max), want=want)
                count = sorts(profile_counts, w, n_max)
                total += times[0]
                rows += 1
                rounds += count
                line(n, name, n_max, checked, count, *ms(times))
    head("letters", "word", "checked by", "index+LPF ms")
    for name in INDEX_WORDS:
        data = WORDS[name](INDEX_LETTERS).symbols
        checked_index_counts(data, name)
        line(len(data), name, "Kasai", *ms(best_of(args.repeat, (index_lpf, data))))
    print(f"profile: {rows} profiles at {', '.join(map(str, PROFILE_SIZES))} letters, {total * 1e3:.3f} ms "
          f"in all (best of {args.repeat}), {rounds} sorts; {brute} checked against factor_counts_brute, "
          f"{rows - brute} against the full-depth index and Kasai; {len(INDEX_WORDS)} indexes at "
          f"{INDEX_LETTERS} letters against Kasai; none differ")


def checked_index_counts(data: bytes, name: str) -> list[int]:
    """p(n) for every n, read off the full-depth index by its SA, once its
    LCP matches Kasai's scan and each adjacent pair ascends after it.

    Suffix SA[r] gives one new factor of each length in (LCP[r], L - SA[r]].
    """
    sa, lcp = suffix_index(data)
    n = len(data)
    if lcp.tolist() != lcp_array(data, sa):
        raise SystemExit(f"the full-depth index and Kasai differ on {name} at {n} letters")
    letters = np.append(np.frombuffer(data, np.uint8).astype(np.int16), -1)  # -1: the end
    if (np.sort(sa) != np.arange(n)).any() or (letters[sa[:-1] + lcp[1:]] >= letters[sa[1:] + lcp[1:]]).any():
        raise SystemExit(f"the full-depth SA is out of order on {name} at {n} letters")
    diff = np.bincount(lcp + 1, minlength=n + 2) - np.bincount(n - sa + 1, minlength=n + 2)
    return np.cumsum(diff)[1 : n + 1].tolist()


def split_once(kernel, cut: int):
    """`kernel` with `realnum._BIGINT_CUT_BITS` at `cut` for the duration of a call."""

    def call(*args):
        saved = realnum._BIGINT_CUT_BITS
        realnum._BIGINT_CUT_BITS = cut
        try:
            return kernel(*args)
        finally:
            realnum._BIGINT_CUT_BITS = saved

    return call


def isqrt_rem(n: int) -> tuple[int, int]:
    s = math.isqrt(n)
    return s, n - s * s


def divmod_section(args) -> None:
    rng = random.Random(1)
    print(f"\ncut: {realnum._BIGINT_CUT_BITS} bits")
    line("bits", "kernel", "kernel ms", "builtin ms", "one split ms", "builtin/kernel")
    for n in BIGINT_BITS:
        b = rng.getrandbits(n) | 1 << (n - 1)
        a = rng.randrange(b << n)
        r = rng.getrandbits(n) | 1 << (n - 1)
        rows = (
            ("divmod", divmod, _divmod, (n + 1) // 2, (a, b)),
            ("sqrtrem", isqrt_rem, _sqrtrem, n - 1, (r,)),
        )
        for name, builtin, kernel, cut, operands in rows:
            _, times = agree(args.repeat, f"{name} differs from the builtin at {n} bits", (kernel, *operands),
                             (builtin, *operands), (split_once(kernel, cut), *operands))
            line(n, name, *ms(times))


def euclid_section(args) -> None:
    print(f"\nEuclid: keep {contfrac._LEHMER_KEEP_BITS} bits, gate {contfrac._LEHMER_GATE_BITS} bits")
    line("bits", "number", "quotients", "kernel ms", "plain ms", "plain/kernel")
    for bits in EUCLID_BITS:
        for name, number in EUCLID_NUMBERS.items():
            lo, hi, den, shift = realnum._bracket(number, bits)(bits)
            operands = (lo, hi, den << shift, bits)
            quotients, times = agree(args.repeat, f"Euclid differs from the plain loop on {name} at {bits} bits",
                                     (contfrac._interval_quotients, *operands),
                                     (contfrac_oracle.interval_quotients, *operands))
            line(bits, name, len(quotients), *ms(times))


def image_section(args) -> None:
    head("bits", "image of e", "kernel ms", "plain ms", "plain/kernel")
    totals = np.zeros(2)
    for bits in IMAGE_BITS:
        lo, hi, den, shift = realnum._e_bracket(bits)
        for name, matrix in IMAGE_MATRICES.items():
            operands = (*matrix, lo, hi, den << shift, bits + realnum._GUARD_BITS)
            _, times = agree(args.repeat, f"the image differs from the two-product image under {name} at {bits} bits",
                             (realnum._image_bracket, *operands), (realnum_oracle.image_bracket, *operands, _divmod))
            totals += times
            line(bits, name, *ms(times))
    print(f"image: {len(IMAGE_BITS) * len(IMAGE_MATRICES)} brackets of e at {', '.join(map(str, IMAGE_BITS))} "
          f"bits, kernel {totals[0] * 1e3:.3f} ms, two-product {totals[1] * 1e3:.3f} ms in all "
          f"(best of {args.repeat}); none differ")


def extractions_section(args) -> None:
    print(f"\nextractions from {os.path.abspath(args.src)}")
    for name, (spec, base, count) in EXTRACTIONS.items():
        out, _ = fresh(args.src, "-c", EXTRACT_CODE, spec, str(base), str(count))
        seconds, md5 = out.split()
        print(f"{name:16} {count:>8} digits {float(seconds):7.3f} s  md5 {md5}", flush=True)
    for name, argv in CF_EXTRACTIONS.items():
        out, seconds = fresh(args.src, "-m", "diowords.cli", *argv)
        print(f"{name:16} {argv[-1]:>8} terms  {seconds:7.3f} s  md5 {hashlib.md5(out.encode()).hexdigest()}",
              flush=True)


SECTIONS = {
    "rss": rss_section,
    "memory": memory_section,
    "lpf": lpf_section,
    "records": records_section,
    "ice": ice_section,
    "z-array": z_array_section,
    "mechanical": mechanical_section,
    "near-integer": near_integer_section,
    "letters": letters_section,
    "profile": profile_section,
    "divmod": divmod_section,
    "euclid": euclid_section,
    "image": image_section,
    "extractions": extractions_section,
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sections", nargs="*", metavar="section", help=f"one of {', '.join(SECTIONS)} (default: all)")
    ap.add_argument("--repeat", type=int, default=5, help="best of this many runs; 0 checks once and times nothing")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="src/ of the tree the fresh processes run")
    args = ap.parse_args(argv)
    unknown = [name for name in args.sections if name not in SECTIONS]
    if unknown:
        ap.error(f"unknown section {', '.join(unknown)}; the sections are {', '.join(SECTIONS)}")
    # in this order whatever the order named, so that rss runs before any in-process work
    for name, section in SECTIONS.items():
        if not args.sections or name in args.sections:
            section(args)


if __name__ == "__main__":
    main()

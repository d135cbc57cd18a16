"""Time the longest-previous-factor kernels: the index kernel against its
stack-loop oracle, and on Sturmian words the slope's records against the index
and `mechanical_word` against its per-position floors.

    python tools/word_kernels.py                       # every size, best of 5
    python tools/word_kernels.py --sizes 1000 10000 --repeat 3
    python tools/word_kernels.py --sizes --rss-src ../other/src  # only the peaks, of another tree

First it prints the peak RSS (ru_maxrss) of fresh processes that run the
`dio` command on 10^6 letters of the Fibonacci word, the binary digits
of e and (01)^k, with `diowords` taken from --rss-src (this checkout's
src/ by default); with an empty --sizes it stops there.  Then, for each
word of a fixed set and each size, it prints the best-of-k time of
`suffix.longest_previous_factor` and of the `lpf_from_index` stack loop
in `tests/suffix_oracle.py` on the same suffix index, and checks that
both give the same array.  On the Sturmian words it also prints the
best-of-k time of the whole index path (`suffix_index` and the kernel)
and of the record path (`sturmian.record_runs` and
`repetition._record_lpf`) and the record count, and checks that both
give the same array.  Then, for each Sturmian word at 10^4 letters and
more, each of `SLOW_CASES` in `tests/sturmian_oracle.py` and [0; 30000,
(2)*] at 2*10^5 letters, it prints the best-of-k time of
`repetition.ice_estimate` on the word, which reads Z at the slope's
records, and on the same letters without the slope, which reads the
Z-array, checks that both give the same estimate and prints a summary
line.  Last, for each Sturmian word and size, it prints the best-of-k
time of `sturmian.mechanical_word` and checks its letters against
`mechanical_letters` in `tests/sturmian_oracle.py`, one exact floor per
position: on surd slopes up to 10^6 letters, on continued-fraction
slopes up to 10^5 (their oracle extends convergents for every floor),
and prints a summary line.  At 10^5 letters it also builds each
Sturmian word at the two intercepts of `near_integer_intercepts` in
`tests/sturmian_oracle.py` for floor n0 = 5*10^4, so that the exact
floor oracle `sturmian._floors` asks for brackets past 64 bits, prints
their best-of-k time and the bits asked, checks them against
`mechanical_letters` and prints a summary line.  Then, on the Fibonacci
word at 10^5 and 10^6
letters, it prints the best-of-k time of the `Word` letter check,
`Word.to_text` and the morphism image of `sturmian.apply_morphism`, each
against the per-byte `translate` or per-letter join that it replaced
(the image's is `image` in `tests/sturmian_oracle.py`), checks that each
pair agrees and prints a summary line.  Then, on the binary and decimal
digits of e, a Sturmian word and a quasi-Sturmian word at 10^4 to 10^6
letters, it prints the best-of-k time of `words.complexity_profile` at
n_max 16 and 400 and checks the counts: against `factor_counts_brute`
where that costs at most `BRUTE_WORK` window letters (about a second),
and elsewhere against the counts read off the full-depth index by its
SA, after checking that index's LCP against Kasai's scan (`lcp_array` in
`tests/suffix_oracle.py`) and its SA order pair by pair.  It also checks
the full-depth index against Kasai at 10^5 letters on digit words and on
0^(N-1)1, prints the best-of-k time of `suffix_index` and
`longest_previous_factor` there, and prints a summary line.  It exits
nonzero on any difference.  Digit words are made with a budget of 4 bits
a digit, so that every size is reached.  It needs only the standard
library and numpy; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from diowords import sturmian as sturmian_module  # noqa: E402
from diowords.cli import parse_word_source  # noqa: E402
from diowords.realnum import Surd  # noqa: E402
from diowords.spec import read_intercept  # noqa: E402
from diowords.repetition import _record_lpf, ice_estimate  # noqa: E402
from diowords.sturmian import _image, mechanical_word, parse_slope, record_runs  # noqa: E402
from diowords.suffix import longest_previous_factor, suffix_index  # noqa: E402
from diowords.words import DIGITS_TO_CHARS, Word, complexity_profile, factor_counts_brute  # noqa: E402
from sturmian_oracle import SLOW_CASES, image, mechanical_letters, near_integer_intercepts  # noqa: E402
from suffix_oracle import lcp_array, lpf_from_index  # noqa: E402

SIZES = (1000, 3000, 10_000, 15_000, 200_000, 1_000_000)


def budget(n: int) -> int:
    """A refinement budget that certifies n digits in base 10 and below."""
    return 4 * n + 4096


def source(text: str):
    return lambda n: parse_word_source(text, n, budget(n))


def plain(make):
    return lambda n: Word(make(n)[:n], 2)


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


def timed(f, *args) -> float:
    t0 = time.perf_counter()
    f(*args)
    return time.perf_counter() - t0


def index_lpf(data: bytes):
    return longest_previous_factor(*suffix_index(data))


def record_lpf(w: Word):
    return _record_lpf(w.symbols, record_runs(w.slope, len(w)))


def best_of(repeat: int, *calls) -> list[float]:
    """The best time of each (f, *args), run alternately, so that a slow
    spell of the host hits all of them."""
    runs = [[timed(*call) for call in calls] for _ in range(repeat)]
    return [min(r[i] for r in runs) for i in range(len(calls))]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="*", default=list(SIZES))
    ap.add_argument("--repeat", type=int, default=5, help="best of this many runs (default 5)")
    ap.add_argument("--rss-src", default=os.path.join(ROOT, "src"), help="src/ of the tree whose peaks are measured")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.rss_src))
    # first: a child starts with the peak its parent had when it forked
    for name, text in RSS_SOURCES.items():
        out = subprocess.run(
            [sys.executable, "-c", RSS_CODE, text, str(RSS_LETTERS), str(budget(RSS_LETTERS))],
            env=env, capture_output=True, text=True, check=True,
        )
        print(f"fresh dio {name} at {RSS_LETTERS} letters: peak RSS {int(out.stdout) / 1024:.1f} MB", flush=True)
    if not args.sizes:
        return
    print(f"{'letters':>9}  {'word':18} {'kernel ms':>10} {'loop ms':>10} {'loop/kernel':>11}")
    sturmian = []
    for n in args.sizes:
        for name, make in WORDS.items():
            w = make(n)
            data = w.symbols
            sa, lcp = suffix_index(data)
            if longest_previous_factor(sa, lcp).tolist() != lpf_from_index(sa, lcp).tolist():
                raise SystemExit(f"kernel and oracle differ on {name} at {len(data)} letters")
            kernel, loop = best_of(args.repeat, (longest_previous_factor, sa, lcp), (lpf_from_index, sa, lcp))
            print(f"{len(data):>9}  {name:18} {kernel * 1e3:10.3f} {loop * 1e3:10.3f} {loop / kernel:11.2f}", flush=True)
            if w.slope is not None:
                sturmian.append((name, w))
    print(f"\n{'letters':>9}  {'word':18} {'records':>8} {'index ms':>10} {'records ms':>10} {'index/records':>13}")
    for name, w in sturmian:
        if not (index_lpf(w.symbols) == record_lpf(w)).all():
            raise SystemExit(f"records and index differ on {name} at {len(w)} letters")
        records = sum(run[3] for run in record_runs(w.slope, len(w)))
        index, rec = best_of(args.repeat, (index_lpf, w.symbols), (record_lpf, w))
        print(f"{len(w):>9}  {name:18} {records:>8} {index * 1e3:10.3f} {rec * 1e3:10.3f} {index / rec:13.2f}", flush=True)
    ice_section([(name, w) for name, w in sturmian if len(w) >= ICE_LETTERS], args.repeat)
    mechanical_section(args.sizes, args.repeat)
    near_integer_section(args.repeat)
    letters_section(args.repeat)
    profile_section(args.repeat)


def ice_section(words: list[tuple[str, Word]], repeat: int) -> None:
    """Time `ice_estimate` on each Sturmian word with its slope (Z at the
    records) and without it (the Z-array), and check that both agree."""
    words += [(text, mechanical_word(parse_slope(text), read_intercept("5/7"), n)) for text, n in ICE_CASES]
    print(f"\n{'letters':>9}  {'word':18} {'records ms':>10} {'Z-array ms':>10} {'Z/records':>9}")
    totals = [0.0, 0.0]
    for name, w in words:
        plain = Word(w.symbols, 2)
        if ice_estimate(w) != ice_estimate(plain):
            raise SystemExit(f"ice from the records and from the Z-array differ on {name} at {len(w)} letters")
        rec, z = best_of(repeat, (ice_estimate, w), (ice_estimate, plain))
        totals[0] += rec
        totals[1] += z
        print(f"{len(w):>9}  {name[:18]:18} {rec * 1e3:10.3f} {z * 1e3:10.3f} {z / rec:9.2f}", flush=True)
    print(f"ice: {len(words)} words, records {totals[0] * 1e3:.3f} ms, Z-array {totals[1] * 1e3:.3f} ms "
          f"in all (best of {repeat}); none differ")


def mechanical_section(sizes: list[int], repeat: int) -> None:
    """Time `mechanical_word` on each Sturmian word and size, and check its
    letters against the per-position floors up to ORACLE_LETTERS."""
    print(f"\n{'letters':>9}  {'word':18} {'word ms':>10} {'checked':>8}")
    total, checked = 0.0, 0
    for n in sizes:
        for name, (text, rho) in MECHANICAL.items():
            slope, rho = parse_slope(text), read_intercept(rho)
            (best,) = best_of(repeat, (mechanical_word, slope, rho, n))
            total += best
            check = n <= ORACLE_LETTERS["surd" if isinstance(slope, Surd) else "cf"]
            if check:
                if mechanical_word(slope, rho, n).symbols != mechanical_letters(slope, rho, n):
                    raise SystemExit(f"mechanical_word and its oracle differ on {name} at {n} letters")
                checked += 1
            print(f"{n:>9}  {name:18} {best * 1e3:10.3f} {'yes' if check else 'no':>8}", flush=True)
    words = len(sizes) * len(MECHANICAL)
    print(f"mechanical_word: {words} words, {total * 1e3:.3f} ms in all (best of {repeat}); "
          f"{checked} checked against the per-position floors, none differ")


def asked_bits(slope, rho, n: int) -> tuple[Word, list[int]]:
    """`mechanical_word(slope, rho, n)` and the bits of every slope bracket it asks for."""
    asked, bracket = [], sturmian_module._bracket
    sturmian_module._bracket = lambda s, bits: asked.append(bits) or bracket(s, bits)
    try:
        return mechanical_word(slope, rho, n), asked
    finally:
        sturmian_module._bracket = bracket


def near_integer_section(repeat: int) -> None:
    """Time `mechanical_word` on each Sturmian word at NEAR_LETTERS letters and
    the two intercepts that put floor NEAR_LETTERS // 2 next to an integer, and
    check its letters against the per-position floors."""
    n = NEAR_LETTERS
    print(f"\n{'letters':>9}  {'word':18} {'side':5} {'word ms':>10} {'bits asked':>16}")
    total, deepest = 0.0, 0
    for name, (text, _) in MECHANICAL.items():
        slope = parse_slope(text)
        for side, rho in zip(("under", "over"), near_integer_intercepts(slope, n // 2)):
            w, asked = asked_bits(slope, rho, n)
            if w.symbols != mechanical_letters(slope, rho, n):
                raise SystemExit(f"mechanical_word and its oracle differ on {name} {side} at {n} letters")
            (best,) = best_of(repeat, (mechanical_word, slope, rho, n))
            total += best
            deepest = max(deepest, *asked)
            print(f"{n:>9}  {name:18} {side:5} {best * 1e3:10.3f} {','.join(map(str, asked)):>16}", flush=True)
    print(f"near-integer mechanical_word: {2 * len(MECHANICAL)} words at {n} letters, {total * 1e3:.3f} ms "
          f"in all (best of {repeat}), brackets up to {deepest} bits; none differ from the per-position floors")



def letters_section(repeat: int) -> None:
    """Time the letter check, the text rendering and the morphism image
    against the per-byte passes they replaced, and check that both agree."""
    print(f"\n{'letters':>9}  {'pass':18} {'pass ms':>10} {'oracle ms':>10} {'oracle/pass':>11}")
    totals = [0.0, 0.0]
    for n in LETTER_SIZES:
        w = mechanical_word(parse_slope("cfslope:(1)*"), read_intercept("0"), n)
        for data in (w.symbols, w.symbols + b"\2"):
            if _rejects(data) != bool(translate_check(data)):
                raise SystemExit(f"the letter check and translate differ at {len(data)} letters")
        if w.to_text() != translate_text(w):
            raise SystemExit(f"to_text and translate differ at {n} letters")
        if _image(w.symbols, *LETTER_IMAGES) != image(w.symbols, *LETTER_IMAGES):
            raise SystemExit(f"the morphism image and the join differ at {n} letters")
        rows = (
            ("letter check", (Word, w.symbols, 2), (translate_check, w.symbols)),
            ("to_text", (Word.to_text, w), (translate_text, w)),
            ("morphism image", (_image, w.symbols, *LETTER_IMAGES), (image, w.symbols, *LETTER_IMAGES)),
        )
        for name, fast, loop in rows:
            a, b = best_of(repeat, fast, loop)
            totals[0] += a
            totals[1] += b
            print(f"{n:>9}  {name:18} {a * 1e3:10.3f} {b * 1e3:10.3f} {b / a:11.2f}", flush=True)
    print(f"letters: {len(rows) * len(LETTER_SIZES)} passes at {', '.join(map(str, LETTER_SIZES))} letters, "
          f"passes {totals[0] * 1e3:.3f} ms, translate and join {totals[1] * 1e3:.3f} ms "
          f"in all (best of {repeat}); none differ")


def translate_check(data: bytes) -> bytes:
    """The binary letters out of range: every letter of the alphabet deleted."""
    return data.translate(None, bytes(range(2)))


def translate_text(w: Word) -> str:
    return w.symbols.translate(DIGITS_TO_CHARS).decode("ascii")


def _rejects(data: bytes) -> bool:
    """Whether `Word` refuses `data` as a binary word."""
    try:
        Word(data, 2)
    except ValueError:
        return True
    return False



def profile_section(repeat: int) -> None:
    """Time `complexity_profile` at each window on each word and size and
    check its counts against an independent count; then check the
    full-depth index against Kasai at INDEX_LETTERS letters and time it
    with the LPF kernel."""
    print(f"\n{'letters':>9}  {'word':18} {'n_max':>5} {'profile ms':>10} {'checked by':>10}")
    total, rows, brute = 0.0, 0, 0
    for n in PROFILE_SIZES:
        for name, text in PROFILE_WORDS.items():
            w = parse_word_source(text, n, budget(n))
            index_counts = None
            for n_max in PROFILE_WINDOWS:
                counts = list(complexity_profile(w, n_max).counts)
                if n * n_max <= BRUTE_WORK:
                    checked = "brute"
                    want = factor_counts_brute(w.symbols, n_max)
                    brute += 1
                else:
                    checked = "Kasai"
                    if index_counts is None:
                        index_counts = checked_index_counts(w.symbols, name)
                    want = index_counts[:n_max]
                if counts != want:
                    raise SystemExit(f"complexity_profile differs from the {checked} count on {name} "
                                     f"at {n} letters, n_max {n_max}")
                (best,) = best_of(repeat, (complexity_profile, w, n_max))
                total += best
                rows += 1
                print(f"{n:>9}  {name:18} {n_max:>5} {best * 1e3:10.3f} {checked:>10}", flush=True)
    print(f"\n{'letters':>9}  {'word':18} {'index+LPF ms':>12}  full-depth index against Kasai")
    for name in INDEX_WORDS:
        data = WORDS[name](INDEX_LETTERS).symbols
        checked_index_counts(data, name)
        (best,) = best_of(repeat, (index_lpf, data))
        print(f"{len(data):>9}  {name:18} {best * 1e3:12.3f}  agrees", flush=True)
    print(f"profile: {rows} profiles at {', '.join(map(str, PROFILE_SIZES))} letters, {total * 1e3:.3f} ms "
          f"in all (best of {repeat}); {brute} checked against factor_counts_brute, {rows - brute} against "
          f"the full-depth index and Kasai; {len(INDEX_WORDS)} indexes at {INDEX_LETTERS} letters "
          f"against Kasai; none differ")


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


if __name__ == "__main__":
    main()

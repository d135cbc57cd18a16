"""Time the big-integer kernels of `realnum` and `contfrac` against the
plain code they replace, and the large extractions that run on them.

    python tools/bigint_kernels.py                          # every size, best of 5
    python tools/bigint_kernels.py --sizes 1000 8000 --euclid-bits 10000 --repeat 3
    python tools/bigint_kernels.py --sizes --euclid-bits --image-bits --src ../other/src  # only the extractions, of another tree
    python tools/bigint_kernels.py --sizes --keep 256 --gate 512   # Euclid rows with other Lehmer constants

For each size n in bits it prints the best-of-k time of the builtin
`divmod` of a random integer below 2^n b by a random n-bit b, of
`realnum._divmod` on the same operands with its size cut, and of
`_divmod` with its cut at ceil(n/2) bits, so that exactly the top level
splits and its half-size divisions go to the builtin; the cut belongs at
the smallest size from which that one split wins.  The same three
columns follow for `math.isqrt` and `realnum._sqrtrem` on a random n-bit
radicand, whose one split has its cut at n - 1 bits.
Each kernel's result is checked against the builtin.

The Euclid rows take the exact brackets of e, of (3 + sqrt 101)/7 and of
(5e + 2)/(2e + 1) at each of --euclid-bits bits and time the plain
Euclid of `contfrac_oracle.interval_quotients` against
`contfrac._interval_quotients`, with its Lehmer constants
`_LEHMER_KEEP_BITS` and `_LEHMER_GATE_BITS` at --keep and --gate (the
module's values by default): the gate belongs where the batches stop
winning, and the quotients must be equal, or the script exits.

The image rows take the exact brackets of e at each of --image-bits
bits and time the plain two-product image of
`realnum_oracle.image_bracket`, dividing with `realnum._divmod`, against
`realnum._image_bracket` under x -> (5x + 2)/(2x + 1) (det 1) and
x -> (2x + 5)/(x + 2) (det -1), at scale bits + `_GUARD_BITS`, as the
refine loop of `mobius:5,2,2,1:(e)` calls it; the images must be equal,
or the script exits.

Then it prints the wall time and md5 of six extractions, each in a
fresh process that imports `diowords` from --src (this checkout's src/
by default): the first 10^6 binary digits of e and of sqrt(2), the first
3*10^5 decimal digits of both, timed inside the process, and the stdout
of `cf e --terms 20000` and `cf surd:0,1,2 --terms 20000`, timed around
the whole process.  It needs only the standard library; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import contfrac_oracle  # noqa: E402
import realnum_oracle  # noqa: E402
from diowords import contfrac, realnum  # noqa: E402
from diowords.realnum import Mobius, SeriesE, Surd, _divmod, _sqrtrem  # noqa: E402

SIZES = (1000, 2000, 4000, 8000, 16_000, 32_000, 64_000, 100_000, 300_000, 1_000_000)
EUCLID_BITS = (500, 1000, 2000, 10_000, 50_000, 210_000)
IMAGE_BITS = (10_000, 100_000, 1_000_000)
IMAGE_MATRICES = {"mobius:5,2,2,1": (5, 2, 2, 1), "mobius:2,5,1,2": (2, 5, 1, 2)}
EUCLID_NUMBERS = {
    "e": SeriesE(),
    "surd:3,7,101": Surd(3, 7, 101),
    "mobius:5,2,2,1:(e)": Mobius(5, 2, 2, 1, SeriesE()),
}
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
    spell of the host hits all of them."""
    runs = [[timed(*call) for call in calls] for _ in range(repeat)]
    return [min(r[i] for r in runs) for i in range(len(calls))]


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


def euclid_rows(bits_list, repeat: int, keep: int, gate: int) -> None:
    contfrac._LEHMER_KEEP_BITS, contfrac._LEHMER_GATE_BITS = keep, gate
    print(f"\nEuclid: keep {keep} bits, gate {gate} bits")
    print(f"{'bits':>9}  {'number':20} {'quotients':>9} {'plain ms':>10} {'kernel ms':>10} {'plain/kernel':>12}")
    for bits in bits_list:
        for name, number in EUCLID_NUMBERS.items():
            lo, hi, den, shift = realnum._bracket(number, bits)(bits)
            operands = (lo, hi, den << shift, bits)
            want = contfrac_oracle.interval_quotients(*operands)
            if contfrac._interval_quotients(*operands) != want:
                raise SystemExit(f"Euclid differs from the plain loop on {name} at {bits} bits")
            plain, kern = best_of(repeat, (contfrac_oracle.interval_quotients, *operands),
                                  (contfrac._interval_quotients, *operands))
            row = f"{len(want):>9} {plain * 1e3:10.3f} {kern * 1e3:10.3f} {plain / kern:12.2f}"
            print(f"{bits:>9}  {name:20} {row}", flush=True)


def image_rows(bits_list, repeat: int) -> None:
    print(f"\n{'bits':>9}  {'image of e':16} {'plain ms':>10} {'kernel ms':>10} {'plain/kernel':>12}")
    totals = [0.0, 0.0]
    for bits in bits_list:
        lo, hi, den, shift = realnum._e_bracket(bits)
        for name, matrix in IMAGE_MATRICES.items():
            operands = (*matrix, lo, hi, den << shift, bits + realnum._GUARD_BITS)
            if realnum._image_bracket(*operands) != realnum_oracle.image_bracket(*operands, _divmod):
                raise SystemExit(f"the image differs from the two-product image under {name} at {bits} bits")
            plain, kern = best_of(repeat, (realnum_oracle.image_bracket, *operands, _divmod),
                                  (realnum._image_bracket, *operands))
            totals[0] += plain
            totals[1] += kern
            print(f"{bits:>9}  {name:16} {plain * 1e3:10.3f} {kern * 1e3:10.3f} {plain / kern:12.2f}", flush=True)
    sizes = ", ".join(map(str, bits_list))
    print(f"image: {len(bits_list) * len(IMAGE_MATRICES)} brackets of e at {sizes} bits, two-product "
          f"{totals[0] * 1e3:.3f} ms, kernel {totals[1] * 1e3:.3f} ms in all (best of {repeat}); none differ")


def isqrt_rem(n: int) -> tuple[int, int]:
    s = math.isqrt(n)
    return s, n - s * s


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="*", default=list(SIZES))
    ap.add_argument("--euclid-bits", type=int, nargs="*", default=list(EUCLID_BITS))
    ap.add_argument("--image-bits", type=int, nargs="*", default=list(IMAGE_BITS))
    ap.add_argument("--keep", type=int, default=contfrac._LEHMER_KEEP_BITS, help="Lehmer bits kept for the Euclid rows")
    ap.add_argument("--gate", type=int, default=contfrac._LEHMER_GATE_BITS, help="Lehmer gate for the Euclid rows")
    ap.add_argument("--repeat", type=int, default=5, help="best of this many runs (default 5)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="src/ of the tree whose extractions are timed")
    args = ap.parse_args()
    rng = random.Random(1)
    print(f"cut: {realnum._BIGINT_CUT_BITS} bits")
    print(f"{'bits':>9}  {'kernel':8} {'builtin ms':>11} {'kernel ms':>10} {'one split ms':>12} {'builtin/kernel':>14}")
    for n in args.sizes:
        b = rng.getrandbits(n) | 1 << (n - 1)
        a = rng.randrange(b << n)
        r = rng.getrandbits(n) | 1 << (n - 1)
        rows = (
            ("divmod", divmod, _divmod, (n + 1) // 2, (a, b)),
            ("sqrtrem", isqrt_rem, _sqrtrem, n - 1, (r,)),
        )
        for name, builtin, kernel, cut, operands in rows:
            once = split_once(kernel, cut)
            if not builtin(*operands) == kernel(*operands) == once(*operands):
                raise SystemExit(f"{name} differs from the builtin at {n} bits")
            base, kern, split = best_of(args.repeat, (builtin, *operands), (kernel, *operands), (once, *operands))
            row = f"{base * 1e3:11.3f} {kern * 1e3:10.3f} {split * 1e3:12.3f} {base / kern:14.2f}"
            print(f"{n:>9}  {name:8} {row}", flush=True)
    euclid_rows(args.euclid_bits, args.repeat, args.keep, args.gate)
    if args.image_bits:
        image_rows(args.image_bits, args.repeat)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    print(f"\nextractions from {os.path.abspath(args.src)}")
    for name, (spec, base, count) in EXTRACTIONS.items():
        out = subprocess.run(
            [sys.executable, "-c", EXTRACT_CODE, spec, str(base), str(count)],
            env=env, capture_output=True, text=True, check=True,
        )
        seconds, md5 = out.stdout.split()
        print(f"{name:16} {count:>8} digits {float(seconds):7.3f} s  md5 {md5}", flush=True)
    for name, argv in CF_EXTRACTIONS.items():
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "diowords.cli", *argv], env=env, capture_output=True, check=True)
        seconds = time.perf_counter() - t0
        print(f"{name:16} {argv[-1]:>8} terms  {seconds:7.3f} s  md5 {hashlib.md5(out.stdout).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()

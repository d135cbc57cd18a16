"""Seeded job lists for the three benchmark workloads.

A workload is a fixed mix of job families.  Each family contributes a
fixed number of `diowords` CLI jobs per pass, so every seed gives the
same mix; the seed draws the numbers, slopes, morphisms and sizes.
Sizes are stratified: a family of c jobs takes one size from each of c
equal slices of its range, and a second size where the family has one
(window size, terms, prefix in periods) also takes each of its c slices
once, in a seeded order, so the work of a pass varies little between
seeds.  The program under test sees only the generated argv.

Size ranges are narrower than a user might try, so that a 20 s run
holds enough jobs for a steady median and tail; README.md lists the
measured share of each layer, which shows the layers a workload targets
still dominate it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from reference import CFSlope, E, Mob, Rat, Real, Shallit, Slope, Surd, SurdSlope, order_mod

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    family: str
    argv: tuple[str, ...]
    sizes: tuple[tuple[str, int], ...]
    info: dict = field(compare=False, hash=False)


@dataclass(frozen=True)
class Family:
    name: str
    count: int
    ranges: dict[str, tuple[int, int]]
    make: Callable[[random.Random, "Family", float, float, int], Job]

    def size(self, key: str, u: float) -> int:
        lo, hi = self.ranges[key]
        return lo + int((hi - lo) * u)


# ---------------------------------------------------------------------------
# random inputs


def _surd(rng: random.Random) -> Surd:
    return Surd(rng.randint(0, 20), rng.randint(1, 12), _nonsquare(rng, 2, 500))


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randint(lo, hi)
        if math.isqrt(d) ** 2 != d:
            return d


def _mobius(rng: random.Random, inner: Real) -> Mob:
    # a product of [[k, 1], [1, 0]] has nonnegative entries and determinant +-1
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 4)
        a, b, c, d = a * k + b, a, c * k + d, c
    return Mob(a, b, c, d, inner)


def _irrational(rng: random.Random, j: int) -> Real:
    kind = j % 4
    if kind == 0:
        return E()
    if kind == 1:
        return _surd(rng)
    return _mobius(rng, E() if kind == 2 else _surd(rng))


def _any_real(rng: random.Random, j: int) -> Real:
    kind = j % 6
    if kind == 4:
        return Shallit()
    if kind == 5:
        q = rng.randint(3, 9999)
        return Rat(rng.randint(1, 4 * q), q)
    return _irrational(rng, kind)


def _surd_slope(rng: random.Random) -> SurdSlope:
    d = _nonsquare(rng, 2, 300)
    q = rng.randint(2, 20)
    r = math.isqrt(d)
    # 0 < p + sqrt(d) < q  <=>  -r <= p <= q - r - 1
    while q - r - 1 < -r:
        q += 1
    return SurdSlope(rng.randint(-r, q - r - 1), q, d)


def _cf_small(rng: random.Random) -> CFSlope:
    head = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
    return CFSlope(head, tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))


def _cf_large(rng: random.Random) -> CFSlope:
    head = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 2)))
    cycle = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
    cycle[rng.randrange(len(cycle))] = rng.randint(20, 40)
    return CFSlope(head, tuple(cycle))


def _slope(rng: random.Random, j: int) -> Slope:
    return (_surd_slope, _cf_small, _cf_large)[j % 3](rng)


def _intercept(rng: random.Random) -> Fraction:
    den = rng.randint(2, 60)
    return Fraction(rng.randrange(den), den)


# (prefix W, morphism) pairs whose images of Sturmian words show the
# p(n) = n + k plateau from small n on.  Slopes with quotients 1-3 recur
# quickly, so a prefix of 40 n letters holds every factor of length n; with
# large quotients or longer windows the finite prefix misses factors and
# the plateau check fails on a correct program.
QUASI_LETTERS_PER_WINDOW = 40
QUASI_SHAPES = (
    ("", "0>01;1>001"),
    ("2", "0>01;1>001"),
    ("012", "0>01;1>011"),
    ("", "0>10;1>100"),
    ("2", "0>001;1>01"),
    ("", "0>012;1>02"),
    ("10", "0>02;1>012"),
    ("", "0>21;1>201"),
)

# ordered by the period of 1/p in base 10, which sets the job's cost, so
# that stratifying over the list stratifies the period
APPROX_PRIMES = tuple(sorted(
    (p for p in range(7, 702)
     if all(p % f for f in range(2, math.isqrt(p) + 1)) and p not in (2, 5) and order_mod(10, p) >= 50),
    key=lambda p: (order_mod(10, p), p),
))


# ---------------------------------------------------------------------------
# job families


def _digits(base: int):
    def make(rng, fam, u, v, j):
        x = _any_real(rng, j)
        n = fam.size("count", u)
        argv = ("digits", x.text, "--base", str(base), "--count", str(n))
        return Job(fam.name, argv, (("count", n),), {"kind": "digits", "x": x, "base": base, "count": n})
    return make


def _cf(command: str):
    def make(rng, fam, u, v, j):
        x = _irrational(rng, j)
        n = fam.size("terms", u)
        argv = (command, x.text, "--terms", str(n))
        return Job(fam.name, argv, (("terms", n),), {"kind": command, "x": x, "terms": n})
    return make


def _approximant_irrational(rng, fam, u, v, j):
    x = _irrational(rng, j)
    base = (10, 2)[(j // 4) % 2]
    n = fam.size("prefix", u)
    argv = ("approximant", x.text, "--base", str(base), "--prefix", str(n))
    return Job(fam.name, argv, (("prefix", n),), {"kind": "approximant", "x": x, "base": base, "prefix": n})


def _approximant_rational(rng, fam, u, v, j):
    p = APPROX_PRIMES[int(u * len(APPROX_PRIMES))]
    period = order_mod(10, p)
    n = 2 * period + int(period * v)
    argv = ("approximant", f"rat:1/{p}", "--base", "10", "--prefix", str(n))
    info = {"kind": "approximant", "x": Rat(1, p), "base": 10, "prefix": n}
    return Job(fam.name, argv, (("period", period), ("prefix", n)), info)


def _report(rng, fam, u, v, j):
    x = _irrational(rng, j)
    n = fam.size("prefix", u)
    terms = fam.size("terms", v)
    argv = ("report", x.text, "--base", "10", "--prefix", str(n), "--terms", str(terms))
    info = {"kind": "report", "x": x, "base": 10, "prefix": n, "terms": terms}
    return Job(fam.name, argv, (("prefix", n), ("terms", terms)), info)


def _scan(command: str, slope_maker: Callable[[random.Random, int], Slope]):
    def make(rng, fam, u, v, j):
        slope, rho = slope_maker(rng, j), _intercept(rng)
        n = fam.size("prefix", u)
        argv = (command, f"sturmian:{slope.text}|{rho}", "--prefix", str(n))
        info = {"kind": command, "word": ("sturmian", slope, rho), "prefix": n}
        return Job(fam.name, argv, (("prefix", n),), info)
    return make


def _sturmian_length(rng, fam, u, v, j):
    slope, rho = _slope(rng, j), _intercept(rng)
    n = fam.size("length", u)
    argv = ("sturmian", slope.text, "--length", str(n), "--intercept", str(rho))
    return Job(fam.name, argv, (("length", n),), {"kind": "sturmian", "word": ("sturmian", slope, rho), "length": n})


def _profile(base: int, n_max_key: str):
    def make(rng, fam, u, v, j):
        x = _irrational(rng, j)
        n = fam.size("prefix", u)
        n_max = fam.size(n_max_key, v)
        command = ("complexity", "gap")[j % 2]
        argv = (command, f"digits:{x.text}|{base}", "--prefix", str(n), "--n-max", str(n_max))
        info = {"kind": command, "word": ("digits", x, base), "prefix": n, "n_max": n_max}
        return Job(fam.name, argv, (("prefix", n), (n_max_key, n_max)), info)
    return make


def _dio_digits(rng, fam, u, v, j):
    x = _irrational(rng, j)
    base = (2, 10)[(j // 4) % 2]
    n = fam.size("prefix", u)
    argv = ("dio", f"digits:{x.text}|{base}", "--prefix", str(n))
    return Job(fam.name, argv, (("prefix", n),), {"kind": "dio", "word": ("digits", x, base), "prefix": n})


def _profile_sturmian(rng, fam, u, v, j):
    slope, rho = _slope(rng, j), _intercept(rng)
    n = fam.size("prefix", u)
    key = ("n_max_shallow", "n_max_deep")[(j // 3) % 2]
    n_max = fam.size(key, v)
    argv = ("complexity", f"sturmian:{slope.text}|{rho}", "--prefix", str(n), "--n-max", str(n_max))
    info = {"kind": "complexity", "word": ("sturmian", slope, rho), "prefix": n, "n_max": n_max}
    return Job(fam.name, argv, (("prefix", n), (key, n_max)), info)


def _quasi(rng, fam, u, v, j):
    prefix, morphism = QUASI_SHAPES[j % len(QUASI_SHAPES)]
    slope, rho = _cf_small(rng), _intercept(rng)
    n = fam.size("length", u)
    lo, hi = fam.ranges["check_n_max"]
    n_max = lo + int((min(hi, n // QUASI_LETTERS_PER_WINDOW) - lo) * v)
    argv = ("quasi", "--word", prefix, "--morphism", morphism, "--slope", slope.text,
            "--intercept", str(rho), "--length", str(n), "--check-n-max", str(n_max))
    images = [bytes(int(c) for c in rule.split(">")[1]) for rule in morphism.split(";")]
    info = {"kind": "quasi", "word": ("quasi", bytes(int(c) for c in prefix), *images, slope, rho),
            "length": n, "n_max": n_max}
    return Job(fam.name, argv, (("length", n), ("check_n_max", n_max)), info)


SHALLOW = (8, 16)
DEEP = (100, 400)

WORKLOADS: dict[str, tuple[Family, ...]] = {
    # realnum, contfrac and approx; no words calls
    "certify": (
        Family("digits-b2", 30, {"count": (50_000, 100_000)}, _digits(2)),
        Family("digits-b10", 18, {"count": (10_000, 20_000)}, _digits(10)),
        Family("cf", 16, {"terms": (300, 1500)}, _cf("cf")),
        Family("mu", 16, {"terms": (300, 1500)}, _cf("mu")),
        Family("approximant-irrational", 16, {"prefix": (1000, 3000)}, _approximant_irrational),
        Family("approximant-rational", 20, {"period": (50, 700), "prefix": (100, 2100)},
               _approximant_rational),
        Family("report", 12, {"prefix": (1000, 3000), "terms": (100, 300)}, _report),
    ),
    # sturmian and repetition on high-exponent words; no realnum, contfrac, words or approx
    "sturmian-scan": (
        Family("dio-surd", 9, {"prefix": (5_000, 10_000)},
               _scan("dio", lambda rng, j: _surd_slope(rng))),
        Family("dio-cfslope-small", 9, {"prefix": (5_000, 10_000)},
               _scan("dio", lambda rng, j: _cf_small(rng))),
        Family("dio-cfslope-large", 9, {"prefix": (5_000, 10_000)},
               _scan("dio", lambda rng, j: _cf_large(rng))),
        Family("dio-pow10", 6, {"prefix": (5_000, 15_000)},
               _scan("dio", lambda rng, j: CFSlope(pow10=True))),
        Family("ice", 15, {"prefix": (50_000, 200_000)}, _scan("ice", _slope)),
        Family("sturmian-length", 15, {"length": (200_000, 400_000)}, _sturmian_length),
    ),
    # words and repetition on low-exponent digit words; no contfrac or approx
    "digit-stats": (
        Family("profile-shallow-b2", 8, {"prefix": (20_000, 25_000), "n_max_shallow": SHALLOW},
               _profile(2, "n_max_shallow")),
        Family("profile-shallow-b10", 8, {"prefix": (10_000, 12_500), "n_max_shallow": SHALLOW},
               _profile(10, "n_max_shallow")),
        Family("profile-deep-b2", 16, {"prefix": (20_000, 40_000), "n_max_deep": DEEP},
               _profile(2, "n_max_deep")),
        Family("profile-deep-b10", 8, {"prefix": (10_000, 20_000), "n_max_deep": DEEP},
               _profile(10, "n_max_deep")),
        Family("dio-digits", 16, {"prefix": (2_000, 4_000)}, _dio_digits),
        Family("profile-sturmian", 12,
               {"prefix": (10_000, 40_000), "n_max_shallow": SHALLOW, "n_max_deep": DEEP},
               _profile_sturmian),
        Family("quasi", 16, {"length": (5_000, 40_000), "check_n_max": (100, 1000)}, _quasi),
    ),
}


# Wall time of one pass of any workload, calibration included, on a
# 2-core x86 box (9-14 s).  A run makes round(seconds / PASS_SECONDS)
# passes, at least one, and keeps the median of each job's scaled times.
# Family sizes are multiples of the period of their input kinds, so
# every seed gets the same number of each kind.
PASS_SECONDS = 10.0


def generate(workload: str, seed: int) -> list[Job]:
    """One pass of the workload: every family's jobs, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    for fam in WORKLOADS[workload]:
        # job i takes the i-th stratum of the main size, a seeded stratum
        # of the second size (window size, terms, prefix in periods), and
        # the (offset + i)-th input kind, so every kind gets small and
        # large sizes and every seed covers both ranges evenly
        offset = rng.randrange(12)
        second = list(range(fam.count))
        rng.shuffle(second)
        for i in range(fam.count):
            u = (i + rng.random()) / fam.count
            v = (second[i] + rng.random()) / fam.count
            jobs.append(fam.make(rng, fam, u, v, offset + i))
    rng.shuffle(jobs)
    return jobs


def warmups(workload: str) -> list[Job]:
    """One job of each family, from the bottom of its size range; the same
    for every seed, so that set-up time does not depend on the seed."""
    rng = random.Random(f"{workload}:warmup")
    return [fam.make(rng, fam, 0.0, 0.0, i) for i, fam in enumerate(WORKLOADS[workload])]

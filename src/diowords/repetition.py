"""Repetition-witness search over word prefixes.

A witness (u, v, m) certifies that the length-m prefix factors as U V^w
with |U| = u, |V| = v and w = (m - u) / v >= 1; its score is the exact
rational m / (u + v).  Maximizing the score over all factorizations of
prefixes estimates the Diophantine exponent of the underlying infinite
word; restricting to u = 0 estimates the initial critical exponent.
Both are suprema over infinite data, so a finite prefix yields
estimates only: alongside the global maximum we report a "persistent"
maximum over witnesses with u + v >= threshold, which is less sensitive
to one lucky short repetition.

Index: a witness with d = u + v has m = d + min(lce(u, d), N - d), so
the best score with denominator d is (d + LPF[d]) / d, where
LPF[d] = max_{u < d} lce(u, d) is the longest-previous-factor array of
the prefix, and its smallest u is the first occurrence of the LPF[d]
letters at d.  On a word that carries its slope (`Word.slope`, set by
`sturmian.mechanical_word`) the earlier occurrence that sets LPF[i] lies
at one of the two nearest earlier intercepts of i, whose lags are the
slope's one-sided best approximations (`sturmian.record_runs`), so
d + LPF[d] changes only where the match at one of those records ends,
and a few rounds of one match per record read it at those denominators
alone (`_record_steps`).  Every other word, slices and prefixes of a
mechanical word included, takes the suffix index (see suffix.py).  Both
select the same witnesses.  Scores are compared exactly, by integer
cross-multiplication.  Initial
repetitions (u = 0) are selected the same way from Z[d] = lce(0, d) in
place of LPF, by the same rule: on a word that carries its slope only
the lags that can win are read, the one-sided records of the slope from
1 and from the threshold (`sturmian.record_runs`, `record_runs_from`),
each by a search of its letters or, when there are many, off one
Z-array; every other word takes the whole Z-array, where numpy passes
give every match shorter than _Z_SHORT letters and the Z-box loop runs
only at the positions whose match is longer, settling the long
positions of a wide box in one numpy step.  Both select the same
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .realnum import CertificateError
from .sturmian import record_runs, record_runs_from
from .suffix import longest_previous_factor, suffix_index
from .words import Word

_Cand = tuple[int, int, int]  # (m, u, v)


@dataclass(frozen=True)
class RepetitionWitness:
    """Certificate that the length-m prefix equals U V^w with w >= 1."""

    u: int
    v: int
    m: int

    def __post_init__(self) -> None:
        if self.v < 1 or self.u < 0 or self.m < self.u + self.v:
            raise ValueError(f"invalid witness (u={self.u}, v={self.v}, m={self.m})")

    @property
    def score(self) -> Fraction:
        return Fraction(self.m, self.u + self.v)

    def to_json_dict(self) -> dict:
        s = self.score
        return {
            "u": self.u,
            "v": self.v,
            "m": self.m,
            "score_num": str(s.numerator),
            "score_den": str(s.denominator),
        }


@dataclass(frozen=True)
class ExponentEstimate:
    global_max: RepetitionWitness
    persistent_max: RepetitionWitness
    prefix_length: int
    threshold: int

    def to_json_dict(self) -> dict:
        return {
            "prefix_length": self.prefix_length,
            "threshold": self.threshold,
            "global_max": self.global_max.to_json_dict(),
            "persistent_max": self.persistent_max.to_json_dict(),
        }


def verify_witness(prefix: Word, w: RepetitionWitness) -> bool:
    """Check the periodicity certificate a[i] = a[i+v] on [u, m-v-1], in
    place: the letters from u start with those from u + v to m."""
    if w.m > len(prefix):
        raise ValueError("witness exceeds prefix")
    data = prefix.symbols
    return data.startswith(memoryview(data)[w.u + w.v : w.m], w.u)


def _certified(prefix: Word, cand: _Cand, initial: bool) -> RepetitionWitness:
    """The witness of a computed candidate (m, u, v), once checked: V is
    not empty, the length-m prefix exists and is U V^w, and an initial
    repetition has u = 0."""
    m, u, v = cand
    shaped = v >= 1 and m <= len(prefix) and not (initial and u)
    if not (shaped and verify_witness(prefix, w := RepetitionWitness(u, v, m))):
        raise CertificateError(f"witness u={u} v={v} m={m} fails its periodicity check")
    return w


def _better(cand: _Cand, best: _Cand | None) -> bool:
    """Exact witness ordering: higher score, then smaller u+v, then smaller u."""
    if best is None:
        return True
    m1, u1, v1 = cand
    m2, u2, v2 = best
    d1, d2 = u1 + v1, u2 + v2
    if m1 * d2 != m2 * d1:
        return m1 * d2 > m2 * d1
    if d1 != d2:
        return d1 < d2
    return u1 < u2


def _checked_threshold(n: int, threshold: int | None) -> int:
    """The threshold rule: n >= 2 and t in [1, n/2], t = max(1, n // 20) by default."""
    if n < 2:
        raise ValueError("degenerate prefix (length < 2)")
    if not _takes_threshold(n, threshold):
        raise ValueError("threshold must be in [1, N/2]")
    return max(1, n // 20) if threshold is None else threshold


def _takes_threshold(n: int, threshold: int | None) -> bool:
    """Whether a prefix of n letters takes the threshold; the default fits any n >= 2."""
    return n >= 2 and (threshold is None or 1 <= threshold <= n // 2)


def dio_estimate(prefix: Word, threshold: int | None = None) -> ExponentEstimate:
    """Best repetition score over all (u, v) factorizations of the prefix.

    Exhaustive over u + v <= N with m capped at N; the score maximum is
    exact and the tie-break (smaller u+v, then smaller u) makes the
    returned witnesses deterministic.  A word that carries its slope reads
    d + LPF[d] at the denominators where it can change (`_record_steps`),
    and every other word the whole LPF off the suffix index.
    """
    t = _checked_threshold(len(prefix), threshold)
    data = prefix.symbols
    if prefix.slope is not None:
        lags, reach = _record_steps(data, prefix.slope, t)
        return _estimate(prefix, lags, reach - lags, t, False)
    lpf = longest_previous_factor(*suffix_index(data))
    return _estimate(prefix, np.arange(1, len(data)), lpf[1:], t, False)


def _record_steps(data: bytes, slope, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending denominators d at which d + LPF[d] can change, t among
    them, and d + LPF[d] at each, from the runs of `sturmian.record_runs`.

    LPF[i] is the longest match of the letters at i with those at a
    nearest earlier point of either side, since a cell of the factors of
    any length n >= 1 is an arc of the circle that holds x_i and, with any
    earlier point in it, the nearest earlier point of that side.  For the
    positions i = L + c that a record L holds, i + lce(c, L + c) is L + p,
    p >= c the first mismatch w[p] != w[p + L] (p + L = N ends it), so it
    holds from c to p and changes only at c = 0 and c = p + 1: each round
    reads one match per record at the first c of its open stretch
    (`_lce_past`), until no record holds a stretch past its last one.
    LPF[d + 1] >= LPF[d] - 1, the match at d less its first letter, so
    d + LPF[d] never falls: it is the running maximum of the values read
    at the stretches that start by d, the two that hold d among them.
    """
    n = len(data)
    _, firsts, steps, counts, lengths = np.array(record_runs(slope, n)).T
    lags = _run_lags(firsts, steps, counts)
    ends = np.minimum(lags + np.repeat(lengths, counts), n)  # each record holds [L, end)
    starts, reach = [], []
    c = 0  # the first c of each record's open stretch, the same for all at first
    while len(lags):
        d = lags + c
        m = _lce_past(data, lags, c)
        starts.append(d)
        reach.append(d + m)
        held = d + m + 1 < ends
        lags, c, ends = lags[held], (c + m + 1)[held], ends[held]
    d, reach = np.concatenate([*starts, [t]]), np.concatenate([*reach, [0]])
    order = np.lexsort((-reach, d))  # the highest first where stretches start together
    return d[order], np.maximum.accumulate(reach[order])


# Above this many lags, _lce_past reads them off one Z-array.  Searching
# costs about the sum of the matches, and a large first quotient a_1 gives
# about a_1 lags whose matches run about a_1 letters: on [0; 30000, (2)*]
# at 4.8 * 10^5 letters dio took 216 ms with the search alone and 25 ms
# with the Z-array in its first round.  A Z-array costs O(N) whatever the
# lags, so few lags search: reading every first-round lag off one took 48
# against 34 ms summed over the 99 dio jobs of benchmark seeds 1-3 (best
# of 5 each), and 8.4 against 1.5 ms on 10^6 letters of the golden slope.
# The limit went from 64 to 512 with the ice candidates, 30 to 170 on the
# benchmark's slopes.  Over [0; 1^k, A, (1)*] (k = 0, 5, 10, 15),
# [0; (1, A)*], [0; (A)*] and [0; A, (2)*] for A = 50 to 1000, ice took
# 232, 165, 135 and 147 ms in all at 2 * 10^5 letters with 64, 256, 512
# and 1024 (best of 3; 269 ms from the Z-array), and 1024 lost 8 times
# over on [0; 1^10, 1000, (1)*], whose 1020 candidates match for 111 N
# letters in all.  dio on [0; A, (2)*], [0; 2, A, (1)*], [0; 1, 1, A, (1)*]
# and [0; (1, A)*], A = 100, 300, 1000 and 3000, at 4.8 * 10^5 letters
# took 98-138 ms in all at 512 and 70-110 ms at 1024 (two runs, best of 3).
_Z_LAGS = 512


# _lce_past compares spans of at most _LCE_SPAN letters in numpy, for as
# many open lags at once as hold _LCE_BATCH letters in all; longer matches
# are extended one lag at a time.  On the 30 ice jobs of benchmark seeds 1
# and 2 (best of 7), spans up to 2^11, 2^13 and 2^15 took 0.31, 0.28 and
# 0.31 ms a job with batches of 2^16, 2^16 and 2^17 letters, and 2^13
# took 0.30 and 0.27 ms with 2^15 and 2^17.
_LCE_SPAN = 1 << 13
_LCE_BATCH = 1 << 16


def _lce_past(data: bytes, lags: np.ndarray, w) -> np.ndarray:
    """lce(w, L + w) for each lag L, from a start w common to all lags or
    one start per lag; each match ends by N - L - w.

    Many lags from a common start read it off the Z-array of the word from
    w.  The others compare their letters from their starts on in spans of
    64 letters, then spans that double up to _LCE_SPAN, in numpy, for
    _LCE_BATCH letters of open lags at a time, as long as the span ends
    inside the word; `_extend` settles the rest one lag at a time, in
    place.  No temporary outgrows _LCE_BATCH letters.
    """
    if np.ndim(w) == 0 and len(lags) > _Z_LAGS:
        z = _z_array(data[w:])
        # a lag with L + w = N matches no letter past the word
        return np.where(lags < len(z), z[np.minimum(lags, len(z) - 1)], 0)
    n = len(data)
    ends = lags + w
    out = np.empty(len(lags), dtype=np.int64)
    # todo: the open lags by ascending end; rest: (lag index, letters known to match)
    todo, rest = np.argsort(ends, kind="stable"), []
    k, chunk = 0, 64
    while len(todo) and chunk <= _LCE_SPAN:
        if ends[todo[-1]] + k + chunk > n:
            # the lags whose span passes the word's end are the last
            cut = int(np.searchsorted(ends[todo], n - k - chunk, side="right"))
            rest += [(i, k) for i in todo[cut:].tolist()]
            todo = todo[:cut]
            if not cut:
                break
        # row r is letters r .. r + chunk - 1, a view that numpy bounds by the word
        rows = np.ndarray((n - chunk + 1, chunk), np.uint8, data, strides=(1, 1))
        step, still = _LCE_BATCH // chunk, []
        for g in range(0, len(todo), step):
            part = todo[g : g + step]
            mis = rows[ends[part] + k] != rows[(w[part] if np.ndim(w) else w) + k]
            hit = mis.any(axis=1)
            out[part[hit]] = mis[hit].argmax(axis=1) + k
            still.append(part[~hit])
        todo = np.concatenate(still)
        k, chunk = k + chunk, 2 * chunk
    # a match that held through the spans so far goes on about as far again
    for i, k in rest + [(i, k) for i in todo.tolist()]:
        out[i] = _extend(data, int(ends[i]), k, int(ends[i] - lags[i]), max(k, 1))
    return out


def ice_estimate(prefix: Word, threshold: int | None = None) -> ExponentEstimate:
    """Best initial-repetition score (u = 0): V^w prefixes only, score m/v.

    On a word that carries its slope, Z is needed only at the records of
    the slope from 1 and from t.  x_d = {(d+1) alpha + rho} lies
    {d alpha} above x_0 and {-d alpha} below it, and the length-n factor
    at d equals the one at 0 exactly when x_d lies in the cell of x_0,
    an arc around x_0 that shrinks as n grows.  So Z[d] = lce(0, d) is
    min(N - d, max(A, B)), where A only falls as {d alpha} grows and B
    only falls as {-d alpha} grows: a lag d' in [lo, d) that is closer on
    the side that sets Z[d] has Z[d'] >= Z[d], and so scores at least as
    high with a smaller denominator.  The best lag of [lo, N) is thus a
    one-sided record from lo, the initial powers of a Sturmian word sit at
    the slope's one-sided best approximations (V. T. Sos, Ann. Univ. Sci.
    Budapest 1, 1958; Berthe, Holton & Zamboni, "Initial powers of
    Sturmian sequences", Acta Arith. 122, 2006), and `_lce_past` reads Z
    at those lags alone (`sturmian.record_runs`, `record_runs_from`).

    Every other word, slices and prefixes of a mechanical word included,
    takes the Z-array: O(N _Z_SHORT) letter comparisons in numpy, which
    settle every match shorter than _Z_SHORT; the Z-box loop over the
    positions with longer matches takes Python steps only at the first
    _Z_STEPS of them in each box and where a match is extended, and
    numpy settles the rest.  The selection after either is numpy.
    """
    t = _checked_threshold(len(prefix), threshold)
    data = prefix.symbols
    if prefix.slope is not None:
        lags = _record_lags(prefix.slope, len(data), t)
        return _estimate(prefix, lags, _lce_past(data, lags, 0), t, True)
    return _estimate(prefix, np.arange(1, len(data)), _z_array(data)[1:], t, True)


def _record_lags(slope, n: int, t: int) -> np.ndarray:
    """The records of both sides from 1 below t and from t below n,
    ascending; a lag listed twice only repeats a candidate.

    A record from 1 at or past t is a record from t too, so the runs of
    `record_runs` are cut at t.
    """
    runs = record_runs(slope, n)
    below = [
        (first, step, min(count, (t - 1 - first) // max(step, 1) + 1))
        for _, first, step, count, _ in runs
        if first < t
    ]
    from_t = [run[1:] for run in record_runs_from(slope, t, n, runs)]
    return np.sort(_run_lags(*np.array(below + from_t).T))


def _run_lags(firsts: np.ndarray, steps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The lags firsts[r] + steps[r] k for k < counts[r] of every run r, run by run."""
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(firsts, counts) + np.repeat(steps, counts) * k


def _estimate(
    prefix: Word, lags: np.ndarray, ext: np.ndarray, t: int, initial: bool
) -> ExponentEstimate:
    """Global and persistent (u + v >= t) maxima over the ascending
    denominators `lags`, each checked against the prefix."""
    data = prefix.symbols
    ratio = ext / lags
    global_max, persistent_max = (
        _certified(prefix, _best_from(data, lags[k:], ext[k:], ratio[k:], initial), initial)
        for k in (0, int(np.searchsorted(lags, t)))
    )
    return ExponentEstimate(global_max, persistent_max, prefix_length=len(prefix), threshold=t)


def _best_from(data: bytes, lags: np.ndarray, ext: np.ndarray, ratio: np.ndarray, initial: bool) -> _Cand:
    """Best witness with u + v in the ascending `lags`, in the order of _better.

    ext[k] is the longest match of the letters at d = lags[k] with earlier
    ones: LPF[d] for any u, Z[d] for u = 0, and ratio[k] is ext[k] / d in
    float.  The lags hold the best denominator of [lo, N) for some lo:
    every d there, or the candidates of `dio_estimate` or `ice_estimate`
    on a word that carries its slope; d = N only scores 1, which d = lo
    matches with a smaller denominator.  Float division rounds
    monotonically and ext and d are exact in float, so every d whose
    exact ext[k] / d is largest has the largest float ratio: those d stay
    candidates, and exact integer comparisons pick among them.  Its u is
    the first occurrence of the ext[k] letters at d, which for a Z-match
    (`initial`) is the start of the word.
    """
    kept = np.flatnonzero(ratio == ratio.max())
    best_c, best_d = 0, 0
    for cj, dj in zip(ext[kept].tolist(), lags[kept].tolist()):
        # ascending d, so a tie keeps the smaller denominator
        if best_d == 0 or cj * best_d > best_c * dj:
            best_c, best_d = cj, dj
    u = 0 if initial else data.find(memoryview(data)[best_d : best_d + best_c])
    return (best_d + best_c, u, best_d - u)


# Z-values below this come from one numpy pass per letter; only the
# positions that match the prefix for this many letters run the Z-box loop.
# On the Sturmian words of 5*10^4 to 2*10^5 letters the time is flat for
# 8 to 16 and 10% higher at 32; a uint8 counter holds it.
_Z_SHORT = 16
_Z_STEPS = 32  # long positions stepped per run; flat for 4 to 128 there


def _z_array(data: bytes) -> np.ndarray:
    """Z[d] = lce(0, d), the longest common prefix of the word and its
    suffix at d, with Z[0] = N, exactly and in two phases.

    Phase 1 compares every position with the prefix one letter at a time
    for _Z_SHORT letters, in numpy: O(N _Z_SHORT) letter comparisons give
    every Z[d] < _Z_SHORT.  Phase 2 runs the Z-box loop (Gusfield,
    Algorithms on Strings, Trees and Sequences, 1997, section 1.4) over
    the remaining positions only, settling wide boxes in numpy, and a
    match is extended in place by `_extend`, doubling then bisecting: on
    0^(N-1) 1 phase 2 takes _Z_STEPS Python steps and one extension.
    """
    n = len(data)
    a = np.frombuffer(data, dtype=np.uint8)
    # run[d]: the first h + 1 letters at d match the prefix
    run = np.ones(n, dtype=bool)
    run[:1] = False
    short = np.zeros(n, dtype=np.uint8)
    for h in range(min(_Z_SHORT, n)):
        run[n - h :] = False  # d + h = N: no letter left
        run[1 : n - h] &= a[1 + h :] == a[h]
        short += run
    z = short.astype(np.int64)
    z[:1] = n
    _z_long(data, np.flatnonzero(run), z)
    return z


def _z_long(data: bytes, long: np.ndarray, z: np.ndarray) -> None:
    """Fill in z at the ascending positions `long`, each with Z >= _Z_SHORT.

    Inside the box [left, right) of the last long match data[:right] has
    period left, so Z[d] = min(Z[d mod left], right - d) unless the two
    are equal, and then the match is extended past right.  Positions step
    in runs of _Z_STEPS; after a run, numpy settles the rest of the box
    where more than _Z_STEPS are left in it, bar those to extend.
    """
    zv = memoryview(z)  # Python ints in and out, without numpy scalars
    left = right = p = 0
    todo = []
    while True:
        for i in todo:
            room = right - i
            if room < _Z_SHORT:
                k = _extend(data, i, _Z_SHORT)
            else:
                k = zv[i - left]  # below i, so settled already
                if k == room:
                    k = _extend(data, i, room)
                elif k > room:
                    k = room  # what ends the box at right ends this match too
            zv[i] = k
            if i + k > right:
                left, right = i, i + k
        q = int(np.searchsorted(long, right))  # the long positions below right
        if q - p > _Z_STEPS:
            d = long[p:q]
            zj = z[d % left]
            room = right - d
            z[d] = np.minimum(zj, room)
            todo = d[zj == room].tolist()
            p = q
        elif p < len(long):
            todo = long[p : p + _Z_STEPS].tolist()
            p += len(todo)
        else:
            return


def _extend(data: bytes, i: int, k: int, j: int = 0, step: int = 1) -> int:
    """lce(j, i) for j < i, given that the first k letters at j and i match.

    The letters are compared in place, by `bytes.startswith` on a view of
    the word, over spans that start at `step` letters, double, and then
    halve.
    """
    top = len(data) - i
    # two letters by index first: most extensions in a Z-box loop end there
    for _ in range(2):
        if k == top or data[j + k] != data[i + k]:
            return k
        k += 1
    mv = memoryview(data)
    while k < top:
        hi = min(k + step, top)
        if not data.startswith(mv[i + k : i + hi], j + k):
            break
        k = hi
        step += step
    else:
        return k
    # the first mismatch lies in [k, hi)
    while hi - k > 1:
        mid = (k + hi) // 2
        if data.startswith(mv[i + k : i + mid], j + k):
            k = mid
        else:
            hi = mid
    return k


def dio_brute_force(prefix: Word, threshold: int | None = None) -> ExponentEstimate:
    """Triple-loop reference scan (O(N^3) worst case), for oracle tests.

    Independent of the suffix index: for every (u, v) the match is
    extended one position at a time.
    """
    data = prefix.symbols
    n = len(data)
    t = _checked_threshold(n, threshold)
    best_g: _Cand | None = None
    best_p: _Cand | None = None
    for u in range(n):
        for v in range(1, n - u + 1):
            m = u + v
            while m < n and data[m] == data[m - v]:
                m += 1
            cand = (m, u, v)
            if _better(cand, best_g):
                best_g = cand
            if u + v >= t and _better(cand, best_p):
                best_p = cand
    return ExponentEstimate(
        global_max=RepetitionWitness(best_g[1], best_g[2], best_g[0]),
        persistent_max=RepetitionWitness(best_p[1], best_p[2], best_p[0]),
        prefix_length=n,
        threshold=t,
    )


def ice_brute_force(prefix: Word, threshold: int | None = None) -> ExponentEstimate:
    """Reference scan for initial repetitions (u = 0 slice of dio_brute_force)."""
    data = prefix.symbols
    n = len(data)
    t = _checked_threshold(n, threshold)
    best_g: _Cand | None = None
    best_p: _Cand | None = None
    for v in range(1, n + 1):
        m = v
        while m < n and data[m] == data[m - v]:
            m += 1
        cand = (m, 0, v)
        if _better(cand, best_g):
            best_g = cand
        if v >= t and _better(cand, best_p):
            best_p = cand
    return ExponentEstimate(
        global_max=RepetitionWitness(0, best_g[2], best_g[0]),
        persistent_max=RepetitionWitness(0, best_p[2], best_p[0]),
        prefix_length=n,
        threshold=t,
    )

"""One suffix index for the word statistics.

The suffix array orders the suffixes of a word; the LCP array gives the
longest common prefix of each suffix with its predecessor in that order.
`suffix_index` builds both by prefix doubling (Manber & Myers, SIAM J.
Comput. 1993) and reads each LCP in the round that splits its pair: off
the XOR of the two adjacent sorted keys where the first round, which
packs whole windows of letters into one key, splits it; off the ranks
of the later rounds by binary lifting, as Manber & Myers did, where a
later round does; and as the depth where no round does.  With a depth
it sorts only as deep as a caller reads, and LCP = min(lce, depth).
Factor complexity is read off the histogram of the LCP array, and the
repetition scan off the longest-previous-factor array LPF[i] =
max_{j < i} lce(j, i), which the nearest suffixes in SA order that
start at a smaller text position determine (Crochemore & Ilie, IPL
2008).

`longest_previous_factor` finds those nearest suffixes, the previous and
the next smaller position in SA order, in one numpy kernel of pointer
jumping (Berkman, Schieber & Vishkin, J. Algorithms 1993).  Both
problems share one array: a sentinel, the positions in SA order, a
sentinel, the positions in reverse order.  Each entry points to an
earlier one, with every entry in between at a larger position, and
keeps the least LCP over that stretch.  Runs of falling positions get
their pointers and minima in one pass; the active entries then jump
together, ptr <- ptr[ptr], and entries that chase settled pointers skip
whole runs of rising positions or bisect inside one.  A short walk over
the settled pointers finishes the last few.  Kasai's per-letter LCP scan
and the stack loop over SA order that the kernel replaced are kept in
the tests as the oracles.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


def suffix_index(data: bytes, depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The suffix array SA of ``data`` and its LCP array.

    SA lists the start positions of the suffixes in lexicographic order,
    and LCP[r] = min(lcp(suffix SA[r-1], suffix SA[r]), depth), with
    LCP[0] = 0; without a depth the LCP is exact.

    Prefix doubling (Manber & Myers, SIAM J. Comput. 1993).  Each round
    sorts one int64 value per suffix, its key shifted left by the b =
    bit length of N - 1 bits that hold its position: the low bits of the
    sorted values are SA, the rest are the sorted keys, and equal keys
    come out by position.  The first rounds pack whole K-letter windows
    into one key, letters as 1..s and the end of the word as 0, while 2K
    windows still fit in 63 - b bits.  Each later round sorts by the pair
    (rank of the first k letters, rank of the next k); ranks are dense in
    [0, N), so a pair key is below (N + 1)^2.  Where (N + 1)^2 2^b passes
    int64, above N of about 2.09 * 10^6, the rounds argsort the keys
    alone instead.  With a depth, the last round sorts by exactly the
    first ``depth`` letters: suffixes that share them come in ascending
    position (past the int64 bound, in the order argsort leaves).

    Each LCP is read in the round that splits its pair.  Groups of tied
    suffixes only split, so a boundary between two groups keeps its place
    in SA order once it appears, and every member of one group shares the
    same prefix with every member of the next.  A pair that the first
    round splits agrees on as many letters as the XOR of its two adjacent
    sorted keys has zero letters on top.  A pair split by a later round
    climbs down the kept rank arrays from the top, as in Manber & Myers:
    two distinct positions share a rank of round k exactly when their lce
    is at least k, so it skips k letters where the ranks agree, and reads
    the last fewer than K letters off the XOR of the packed keys.  A pair
    that no round splits shares the first ``depth`` letters.  The rounds
    stop once every pair is split or at the depth, and the last round
    ranks nothing: no pair it splits would match there.
    """
    n = len(data)
    if n < 2:
        return np.arange(n), np.zeros(n, dtype=np.int64)
    a = np.frombuffer(data, dtype=np.uint8)
    code = np.cumsum(np.bincount(a, minlength=256) > 0)  # letters as 1..s
    bits = int(code[-1]).bit_length()
    b = _position_bits(n)
    key = np.zeros(n + 1, dtype=np.int64)  # key[N] = 0: the empty suffix
    key[:n] = code[a]
    k = 1
    while 2 * k * bits <= 63 - b and k < n:
        key[: n - k] = (key[: n - k] << (k * bits)) | key[k:n]
        key[n - k : n] <<= k * bits
        k *= 2
    packed = k
    # (k, an array whose entries at two positions agree exactly when the
    # suffixes there share their first k letters; index N stands for the
    # empty suffix)
    levels = [(k, key)]
    lead = k if depth is None else min(k, depth)
    # sorts a copy: levels[0] keeps the packed keys
    sa, ordered = _sort(key[:n] >> ((k - lead) * bits), b)
    split = ordered[1:] != ordered[:-1]
    # the first round's LCP: `lead` where it ties the pair, and otherwise
    # read off the XOR of the sorted keys, their `lead` letters shifted to
    # the top of `packed` (uint8: packed <= 32)
    at = np.flatnonzero(split)
    x = ordered[1:][at]
    x ^= ordered[:-1][at]
    x <<= (k - lead) * bits
    first = np.full(n - 1, lead, dtype=np.uint8)
    first[at] = _agreement(x, packed, bits)
    del at, x, ordered
    while not split.all() and (depth is None or k < depth):
        rank = np.empty(n + 1, dtype=np.int32 if n < 2**31 else np.int64)
        rank[n] = -1
        rank[sa] = np.concatenate(([0], np.cumsum(split)))
        if k > packed:
            levels.append((k, rank))
        # the next s letters, where s = k, or fewer to end at the depth
        s = k if depth is None else min(k, depth - k)
        # in int64 whatever the rank dtype: numpy < 2 keeps an int32 array
        # times an int64 scalar in int32, which wraps past N = 46340
        pair = np.multiply(rank[:n], n + 1, dtype=np.int64)
        pair[: n - s] += rank[s:n] + 1
        sa, pair = _sort(pair, b)
        split = pair[1:] != pair[:-1]
        del pair
        k += s
    tied = first == lead  # by the first round
    later = tied & split  # and split by a later one
    del split
    lce = _lcp_from_levels(sa, later, levels, bits)
    lcp = np.zeros(n, dtype=np.int64)
    lcp[1:] = first
    if depth is not None:
        lcp[1:][tied] = depth  # where no round splits them
    lcp[1:][later] = lce
    return sa, lcp


def _position_bits(n: int) -> int:
    """Bits for a position below each sort key, or 0 past the int64 bound."""
    b = (n - 1).bit_length()
    return b if (n + 1) ** 2 << b <= 2**63 else 0


def _sort(key: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """SA and the sorted keys, by one value sort of (key << b) | position
    in the memory of ``key``, or with b = 0 by argsort."""
    if not b:
        sa = np.argsort(key)
        return sa, key[sa]
    key <<= b
    key |= np.arange(len(key))
    key.sort()
    sa = key & ((1 << b) - 1)
    key >>= b
    return sa, key


def _agreement(x: np.ndarray, width: int, bits: int) -> np.ndarray:
    """How many leading letters, fewer than ``width``, two keys of
    ``width`` letters of ``bits`` bits agree on, as uint8: halving steps
    over their XOR ``x`` (nonnegative), which it shifts in place."""
    lce = np.zeros(len(x), dtype=np.uint8)
    step = width // 2
    while step:
        agree = x < 1 << (width - step) * bits  # the top `step` letters agree
        lce += agree * np.uint8(step)
        x <<= agree * np.int64(step * bits)
        step //= 2
    return lce


def _lcp_from_levels(sa: np.ndarray, pairs: np.ndarray, levels: list, bits: int) -> np.ndarray:
    """The LCP of the adjacent SA pairs that the mask ``pairs`` picks, by
    binary lifting over the rank levels: both positions of a pair advance
    together past the letters they share.  levels[0] holds the packed
    keys of `bits` bits per letter."""
    a, b = sa[:-1][pairs], sa[1:][pairs]
    for k, rank in reversed(levels):
        step = (rank[a] == rank[b]) * k
        a += step
        b += step
    # fewer than `packed` letters are left
    packed, key = levels[0]
    a += _agreement(key[a] ^ key[b], packed, bits)
    del b
    a -= sa[:-1][pairs]
    return a


# The LPF kernel hands the last _WALK active entries to a Python walk:
# plain jumping rounds run while more are active and each round settles at
# least _WALK of them, and rounds with run skips, which first build their
# run arrays, only while more than 4 _WALK are active.  On Fibonacci,
# digit, pow10 and surd words of 10^3 to 2*10^5 letters, 32 with 4 _WALK
# beat 64 and 128 used for both by up to 1.5x on digit words and lost
# nowhere by more than noise; a threshold of 512 for the run rounds was
# up to 6x slower on pow10 words.
_WALK = 32


def longest_previous_factor(sa: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """LPF[i] = max over j < i of lce(j, i); LPF[0] = 0.

    LPF[i] is the larger LCE of suffix i with its nearest earlier and its
    nearest later suffix in SA order that start before i (Crochemore &
    Ilie, IPL 2008): two all-nearest-smaller-values problems over the
    positions in SA order, solved together by pointer jumping in numpy
    (Berkman, Schieber & Vishkin, J. Algorithms 1993).

    Layout: one array of 2N + 2 entries, a sentinel of position -1, the
    positions in SA order (previous smaller position), a second sentinel,
    and the positions in reverse SA order (next smaller position).
    w[k] is the LCE of entries k - 1 and k, 0 next to a sentinel, so the
    LCE of entries j < k is the least w over (j, k].

    Invariant: entry k keeps a pointer ptr[k] < k and m[k], the least w
    over (ptr[k], k]; every entry strictly between ptr[k] and k has a
    larger position than k.  k is settled when pos[ptr[k]] < pos[k].

    Runs: inside a run of falling positions, an entry starts with its
    pointer just before the run and m its running minimum of w (one
    minimum.accumulate, restarted at each run by an offset).  An entry
    that rises from its predecessor is settled at once, so on a word of
    period p only the p run starts of each half can stay active.

    Jumping: the active entries move in step, ptr <- ptr[ptr] and
    m <- min(m, m[ptr]), while more than _WALK are active and each round
    settles at least _WALK of them.  Entries that then still chase
    settled pointers one hop a round, more than 4 _WALK of them, skip
    whole runs of rising positions in step: where the run that holds the
    pointer starts above pos[k], to the pointer of its start, with the
    least w of the run kept per entry (rmin); otherwise the answer lies
    inside the run, found by one searchsorted and its m by one
    minimum.reduceat.

    Walk: the rest is finished in ascending order by the same run skips
    over settled entries, bisecting inside a run: the stack algorithm's
    walk over the stack, which the settled pointers hold.  The stack loop
    itself is kept in the tests as the oracle.
    Arrays are int32 while 2N + 2 < 2^31.
    """
    n = len(sa)
    size = 2 * n + 2
    dt = np.int32 if size < 2**31 else np.int64
    pos = np.empty(size, dtype=dt)
    pos[0] = pos[n + 1] = -1
    pos[1 : n + 1] = sa
    pos[n + 2 :] = sa[::-1]
    w = np.zeros(size, dtype=dt)
    w[2 : n + 1] = lcp[1:]
    w[n + 3 :] = lcp[:0:-1]
    edge = int(w.max()) + 1  # above every w: no edge
    index = np.arange(size, dtype=dt)
    down = np.empty(size, dtype=bool)  # entry k falls from entry k - 1
    down[0] = False
    np.less(pos[1:], pos[:-1], out=down[1:])
    down[n + 1] = False  # a sentinel starts its own falling run
    ptr = np.maximum.accumulate(index * ~down)
    m = _run_min(w, ptr, edge + 1)
    ptr -= 1  # a sentinel's pointer is never read
    act = np.flatnonzero(down)
    act = act[pos[ptr[act]] > pos[act]]
    while len(act) > _WALK:
        j = ptr[act]
        m[act] = np.minimum(m[act], m[j])
        j = ptr[j]
        ptr[act] = j
        active = len(act)
        act = act[pos[j] > pos[act]]
        if active - len(act) < _WALK:
            break
    if not len(act):
        return _lpf(sa, m)
    down[n + 1] = True  # and a rising run
    rs = np.maximum.accumulate(index * down)
    del index
    rmin = key = None
    while len(act) > 4 * _WALK:  # below, the walk is cheaper than the run arrays
        j = ptr[act]
        s = rs[j]
        pk = pos[act]
        inside = pos[s] < pk
        if inside.any():
            if key is None:
                # increasing: runs in order, positions rising inside each
                key = rs.astype(np.int64)
                key *= n + 2
                key += pos
            k, j_in, s_in = act[inside], j[inside], s[inside]
            t = np.searchsorted(key, key[s_in] - pos[s_in] + pk[inside]) - 1
            order = np.argsort(t)
            bounds = np.empty(2 * len(t), dtype=np.intp)
            bounds[0::2] = t[order] + 1
            bounds[1::2] = j_in[order] + 1
            least = np.empty(len(t), dtype=dt)
            least[order] = np.minimum.reduceat(w, bounds)[0::2]
            m[k] = np.minimum(m[k], least)
            ptr[k] = t
            out = ~inside
            act, j, s, pk = act[out], j[out], s[out], pk[out]
        if rmin is None:
            rmin = _run_min(np.where(down, edge, w), rs, edge + 1)
        c = np.minimum(m[act], m[s])
        np.minimum(c, rmin[j], out=c)
        m[act] = c
        j = ptr[s]
        ptr[act] = j
        act = act[pos[j] > pk]
    del down, rmin, key
    _walk(act.tolist(), w, *(memoryview(a) for a in (pos, ptr, m, rs)))
    return _lpf(sa, m)


def _lpf(sa: np.ndarray, m: np.ndarray) -> np.ndarray:
    """LPF in text order from the settled minima of both halves."""
    n = len(sa)
    lpf = np.empty(n, dtype=np.int64)
    lpf[sa] = np.maximum(m[1 : n + 1], m[: n + 1 : -1])
    return lpf


def _run_min(values: np.ndarray, start: np.ndarray, bound: int) -> np.ndarray:
    """The least of values[start[k] .. k] for each k, for values below
    ``bound``: one minimum.accumulate, offset down by bound per start so
    that each run begins below every value before it."""
    wide = values.dtype if len(values) * bound < 2**31 else np.int64
    offset = np.multiply(start, bound, dtype=wide)
    v = np.subtract(values, offset, dtype=wide)
    np.minimum.accumulate(v, out=v)
    v += offset
    return v.astype(values.dtype, copy=False)


def _walk(act: list, w: np.ndarray, pos, ptr, m, rs) -> None:
    """Settle the entries ``act`` in ascending order, each by run skips
    over entries already settled (memoryviews of the kernel's arrays)."""
    for k in act:
        pk, j, c = pos[k], ptr[k], m[k]
        while pos[j] > pk:
            s = rs[j]
            if pos[s] > pk:  # the whole rising run lies above pk
                c = min(c, m[s], int(w[s + 1 : j + 1].min())) if s < j else min(c, m[s])
                j = ptr[s]
            else:
                t = bisect_left(pos, pk, s, j) - 1
                c = min(c, int(w[t + 1 : j + 1].min()))
                j = t
        ptr[k], m[k] = j, c

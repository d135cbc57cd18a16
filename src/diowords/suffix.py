"""One suffix index for the word statistics.

The suffix array orders the suffixes of a word; the LCP array gives the
longest common prefix of each suffix with its predecessor in that order.
`suffix_index` builds both by prefix doubling and reads the LCP off the
ranks of its doubling rounds, as Manber & Myers did (SIAM J. Comput.
1993); with a depth it sorts only as deep as a caller reads.  Factor
complexity is read off the LCP array, and the repetition scan off the
longest-previous-factor array LPF[i] = max_{j < i} lce(j, i), which the
nearest suffixes in SA order that start at a smaller text position
determine (Crochemore & Ilie, IPL 2008).  Kasai's per-letter LCP scan
is kept in the tests as the oracle.
"""

from __future__ import annotations

import numpy as np


def suffix_index(data: bytes, depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The suffix array SA of ``data`` and its LCP array.

    SA lists the start positions of the suffixes in lexicographic order,
    and LCP[r] = lcp(suffix SA[r-1], suffix SA[r]), with LCP[0] = 0.

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
    position (past the int64 bound, in the order argsort leaves), and
    each LCP is exact below ``depth`` and at least ``depth`` otherwise.

    The LCP comes from the same rounds, as in Manber & Myers: two
    distinct positions share a rank of round k exactly when their lce is
    at least k, so every adjacent SA pair climbs down the kept rank
    arrays from the top, skipping k letters where the ranks agree, and
    reads the last fewer than K letters off the XOR of the packed keys.
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
    while True:
        rank = np.empty(n + 1, dtype=np.int32 if n < 2**31 else np.int64)
        rank[n] = -1
        rank[sa] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        if rank[sa[-1]] == n - 1:
            break  # all ranks distinct: this level never matches
        if k > packed:
            levels.append((k, rank))
        if depth is not None and k >= depth:
            break
        # the next s letters, where s = k, or fewer to end at the depth
        s = k if depth is None else min(k, depth - k)
        # in int64 whatever the rank dtype: numpy < 2 keeps an int32 array
        # times an int64 scalar in int32, which wraps past N = 46340
        pair = np.multiply(rank[:n], n + 1, dtype=np.int64)
        pair[: n - s] += rank[s:n] + 1
        sa, ordered = _sort(pair, b)
        k += s
    return sa, _lcp_from_levels(sa, levels, bits)


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


def _lcp_from_levels(sa: np.ndarray, levels: list, bits: int) -> np.ndarray:
    """LCP of the adjacent SA pairs, by binary lifting over the rank levels;
    levels[0] holds the packed keys of `bits` bits per letter."""
    a, b = sa[:-1], sa[1:]
    lcp = np.zeros(len(sa), dtype=np.int64)
    lce = lcp[1:]
    for k, rank in reversed(levels):
        lce += k * (rank[a + lce] == rank[b + lce])
    # fewer than `packed` letters are left: count the leading letters on
    # which the packed keys agree.  (Past the depth, where the keys may
    # agree throughout, lce is at least the depth already.)
    packed, key = levels[0]
    x = key[a + lce] ^ key[b + lce]
    step = packed // 2
    while step:
        agree = (x >> ((packed - step) * bits)) == 0
        lce += step * agree
        x <<= step * bits * agree
        step //= 2
    return lcp


def longest_previous_factor(sa: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """LPF[i] = max over j < i of lce(j, i); LPF[0] = 0.

    One pass over SA order with a stack of increasing text positions:
    the entry below each stacked suffix is its nearest earlier suffix in
    SA order with a smaller position, and the suffix that pops it is the
    nearest later one.  The LCE with either is the minimum of the LCP
    values in between, carried along as the stack unwinds.
    """
    lpf = [0] * len(sa)
    positions = [-1]  # a sentinel below every position
    below = [0]  # below[k] = lce(positions[k], positions[k - 1])
    # the final -1 pops every suffix left on the stack, with LCE 0 to its right
    for pos, c in zip(sa.tolist() + [-1], lcp.tolist() + [0]):
        # c = lce(pos, positions[-1]), the previous suffix in SA order
        while positions[-1] > pos:
            top, b = positions.pop(), below.pop()
            if b > c:
                lpf[top] = b
            else:
                lpf[top] = c
                c = b
        positions.append(pos)
        below.append(c)
    return np.array(lpf, dtype=np.int64)

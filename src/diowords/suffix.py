"""One suffix index for the word statistics.

The suffix array orders the suffixes of a word; the LCP array gives the
longest common prefix of each suffix with its predecessor in that order
(Kasai et al., CPM 2001).  Factor complexity is read off the LCP array,
and the repetition scan off the longest-previous-factor array
LPF[i] = max_{j < i} lce(j, i), which the nearest suffixes in SA order
that start at a smaller text position determine (Crochemore & Ilie, IPL
2008).
"""

from __future__ import annotations

import numpy as np


def suffix_array(data: bytes) -> np.ndarray:
    """Start positions of the suffixes of ``data`` in lexicographic order.

    Prefix doubling (Manber & Myers 1993).  The first rounds pack whole
    k-letter windows into one int64 key, letters as 1..s and the end of
    the word as 0, while 2k windows still fit in 62 bits.  Each later
    round sorts by the pair (rank of the first k letters, rank of the
    next k); ranks are dense in [0, N), so the pair key fits in int64
    for any N below 3 * 10^9.
    """
    n = len(data)
    letters, inverse = np.unique(np.frombuffer(data, dtype=np.uint8), return_inverse=True)
    key = inverse.astype(np.int64) + 1
    bits = len(letters).bit_length()
    k = 1
    while 2 * k * bits <= 62 and k < n:
        key[: n - k] = (key[: n - k] << (k * bits)) | key[k:]
        key[n - k :] <<= k * bits
        k *= 2
    rank = np.empty(n, dtype=np.int64)
    while True:
        sa = np.argsort(key)
        ordered = key[sa]
        rank[sa] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        if n == 0 or rank[sa[-1]] == n - 1:
            return sa
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        k *= 2


def lcp_array(data: bytes, sa: np.ndarray) -> np.ndarray:
    """LCP[r] = lcp(suffix SA[r-1], suffix SA[r]), with LCP[0] = 0.

    Kasai's linear scan in text order, in the permuted form of
    Kärkkäinen, Manzini & Puglisi (CPM 2009): the match with the SA
    predecessor phi[i] of suffix i is at least one shorter than that of
    suffix i - 1.
    """
    n = len(data)
    phi = np.empty(n, dtype=np.int64)
    phi[sa[1:]] = sa[:-1]
    phi[sa[:1]] = n  # compares against the sentinel below, so LCP[0] = 0
    letters = list(data)
    letters.append(-1)  # differs from every letter, so no bounds checks
    plcp = [0] * n
    h = 0
    for i, j in enumerate(phi.tolist()):
        while letters[i + h] == letters[j + h]:
            h += 1
        plcp[i] = h
        if h:
            h -= 1
    return np.array(plcp, dtype=np.int64)[sa]


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

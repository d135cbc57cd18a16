"""Per-letter references for the suffix index of `suffix`.

`lcp_array` is Kasai's scan, which extends every match one letter at a
time; `suffix.suffix_index` reads the same array off the ranks of its
prefix-doubling rounds.  Two oracles give the longest-previous-factor
array that `suffix.longest_previous_factor` computes by pointer jumping:
`longest_previous_factor` grows each earlier occurrence one letter at a
time from the word alone, and `lpf_from_index` reads it off SA and LCP
with one stack pass (Crochemore & Ilie, IPL 2008), fast enough for
words of 10^5 letters and more.
"""

from __future__ import annotations

import numpy as np


def sorted_suffixes(data: bytes) -> list[int]:
    """Start positions of the suffixes in lexicographic order (quadratic)."""
    return sorted(range(len(data)), key=lambda i: data[i:])


def lcp_array(data: bytes, sa) -> list[int]:
    """LCP[r] = lcp(suffix SA[r-1], suffix SA[r]), with LCP[0] = 0.

    Kasai's linear scan in text order, in the permuted form of
    Kärkkäinen, Manzini & Puglisi (CPM 2009): the match with the SA
    predecessor phi[i] of suffix i is at least one shorter than that of
    suffix i - 1.  ``sa`` must be the full suffix array.
    """
    n = len(data)
    sa = list(sa)
    phi = [0] * n
    for prev, cur in zip(sa, sa[1:]):
        phi[cur] = prev
    if n:
        phi[sa[0]] = n  # compares against the sentinel below, so LCP[0] = 0
    letters = list(data)
    letters.append(-1)  # differs from every letter, so no bounds checks
    plcp = [0] * n
    h = 0
    for i, j in enumerate(phi):
        while letters[i + h] == letters[j + h]:
            h += 1
        plcp[i] = h
        if h:
            h -= 1
    return [plcp[i] for i in sa]


def longest_previous_factor(data: bytes) -> list[int]:
    """LPF[i] = max over j < i of lce(j, i), with LPF[0] = 0.

    Letter by letter: the L letters at i have an earlier occurrence
    exactly when they occur in data[: i + L - 1], and LPF[i] >= LPF[i-1] - 1,
    so each position starts one short of its predecessor and grows one
    letter per search.
    """
    n = len(data)
    lpf = [0] * n
    h = 0
    for i in range(1, n):
        h = max(h - 1, 0)
        while i + h < n and data.find(data[i : i + h + 1], 0, i + h) != -1:
            h += 1
        lpf[i] = h
    return lpf


def lpf_from_index(sa: np.ndarray, lcp: np.ndarray) -> np.ndarray:
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

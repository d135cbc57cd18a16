"""Per-letter references for the suffix index of `suffix`.

`lcp_array` is Kasai's scan, which extends every match one letter at a
time; `suffix.suffix_index` reads the same array off the ranks of its
prefix-doubling rounds.  `longest_previous_factor` grows each earlier
occurrence one letter at a time; `suffix.longest_previous_factor` reads
the same array off SA and LCP.
"""

from __future__ import annotations


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

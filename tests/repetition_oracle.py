"""Per-letter reference for the Z-array kernel of `repetition`.

`z_array` is the Z-box loop that extends every match one letter at a
time; `repetition._z_array` computes the same array with numpy for the
short matches and the loop only where matches are long.
"""

from __future__ import annotations


def z_array(data: bytes) -> list[int]:
    """Z[d] = lce(0, d), with Z[0] = N."""
    n = len(data)
    z = [0] * n
    if n:
        z[0] = n
    left = right = 0
    for i in range(1, n):
        if i < right:
            z[i] = min(right - i, z[i - left])
        while i + z[i] < n and data[z[i]] == data[i + z[i]]:
            z[i] += 1
        if i + z[i] > right:
            left, right = i, i + z[i]
    return z

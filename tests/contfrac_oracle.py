"""Exact references for continued fractions.

`convergents_from_quotients` is the per-step determinant reference for
`contfrac.convergents_from_quotients`: each pair (p_{k-1}, q_{k-1}, p_k, q_k)
of `realnum.convergents` is checked against
p_k q_{k-1} - p_{k-1} q_k = (-1)^(k+1), with two big-by-big products per
step; the production check tests the recurrence's links instead and gets
the same determinant by induction.

`e_image_quotients` gives the quotients of a Moebius image of e from e's
pattern by Gosper's homographic algorithm, with no enclosure and no code
of `realnum`.
"""

from __future__ import annotations

from diowords.realnum import CertificateError, convergents


def convergents_from_quotients(quotients) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    sign = 1
    for p_prev, q_prev, p, q in convergents(quotients):
        sign = -sign
        if p * q_prev - p_prev * q != sign:
            raise CertificateError("convergent not in lowest terms")
        if len(out) >= 2 and q <= q_prev:
            raise CertificateError("convergent denominators must increase")
        out.append((p, q))
    return tuple(out)


def e_quotient(k: int) -> int:
    """a_k of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    if k == 0:
        return 2
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


def e_image_quotients(a: int, b: int, c: int, d: int, count: int) -> list[int]:
    """The first `count` quotients of (a e + b)/(c e + d), ad - bc = +-1.

    Gosper's homographic algorithm (HAKMEM, MIT AI Memo 239, 1972, item
    101): the state y = (a x + b)/(c x + d) holds the image of the tail x
    of e still unread.  Once a quotient of e is read, x > 1, so y lies
    between a/c and (a + b)/(c + d) when c and c + d are nonzero and of one
    sign; if both floor to q, q is the next quotient of y and the state
    becomes 1/(y - q).  Otherwise the next quotient t of e is read:
    x = t + 1/x'.
    """
    out: list[int] = []
    read = 0
    while len(out) < count:
        if read and c and c + d and (c > 0) == (c + d > 0) and a // c == (a + b) // (c + d):
            q = a // c
            out.append(q)
            a, b, c, d = c, d, a - q * c, b - q * d
        else:
            t = e_quotient(read)
            read += 1
            a, b, c, d = a * t + b, a, c * t + d, c
    return out

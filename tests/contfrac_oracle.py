"""Per-step determinant reference for `contfrac.convergents_from_quotients`.

Each pair (p_{k-1}, q_{k-1}, p_k, q_k) of `realnum.convergents` is checked
against p_k q_{k-1} - p_{k-1} q_k = (-1)^(k+1), with two big-by-big
products per step; the production check tests the recurrence's links
instead and gets the same determinant by induction.
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

"""Exact references for continued fractions.

`convergents_from_quotients` is the per-step determinant reference for
`contfrac.convergents_from_quotients`: each pair (p_{k-1}, q_{k-1}, p_k, q_k)
of `realnum.convergents` is checked against
p_k q_{k-1} - p_{k-1} q_k = (-1)^(k+1), with two big-by-big products per
step; the production check tests the recurrence's links instead and gets
the same determinant by induction.

`mu_estimate` is the per-link reference for `contfrac.mu_estimate`: it
reads q_n off the pairs of `contfrac.certified_convergents`, which builds
every p_n too and checks each link of the recurrence, where production
streams q_n alone and checks its last pair against Euclid's matrix.

`interval_quotients` is the plain Euclid on an interval's integer
pairs, two big `divmod`s a quotient: the reference for
`contfrac._interval_quotients`, which takes Lehmer batches and resumes
from a known prefix.  `cf_from_enclosure` runs it from the top on every
bracket of a source, where `contfrac.cf_from_enclosure` resumes.

`e_image_quotients` gives the quotients of a Moebius image of e from e's
pattern by Gosper's homographic algorithm, with no enclosure and no code
of `realnum`.  `surd_quotients` gives those of a quadratic surd by
Lagrange's PQa recurrence, with one `isqrt` and small integer steps, and
`surd_image` writes a Moebius image of a surd as a surd.
"""

from __future__ import annotations

import math

from diowords.contfrac import CFExpansion, MuEstimate, _bits_for_terms, _check_terms, certified_convergents
from diowords.realnum import CertificateError, Enclosure, convergents


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


def mu_estimate(cf: CFExpansion, n_min: int = 5) -> MuEstimate:
    """Exponent terms 2 + log a_{n+1} / log q_n, with q_n from the certified
    convergents of a_0 .. a_{N-2}, where N quotients are certified."""
    _check_terms(n_min, cf.certified)
    pairs = enumerate(zip(certified_convergents(cf.quotients[:-1]), cf.quotients[1:]))
    values = [(n, 2.0 + math.log(a) / math.log(q)) for n, ((_, q), a) in pairs if n >= n_min]
    tail_start = values[len(values) // 2][0]
    return MuEstimate(n_min=n_min, values=tuple(values), tail_start=tail_start)


def interval_quotients(lo: int, hi: int, den: int, k_max: int) -> list[int]:
    """At most k_max quotients shared by every number in [lo/den, hi/den]
    (den > 0): Euclid on (lo, den) and (hi, den) in lockstep, the pairs
    swapping roles after every step, until the quotients differ or a
    remainder is zero."""
    out: list[int] = []
    (n_lo, d_lo), (n_hi, d_hi) = (lo, den), (hi, den)
    while len(out) < k_max:
        a, r_lo = divmod(n_lo, d_lo)
        a_hi, r_hi = divmod(n_hi, d_hi)
        if a != a_hi:
            break
        out.append(a)
        if r_lo == 0 or r_hi == 0:
            break
        (n_lo, d_lo), (n_hi, d_hi) = (d_hi, r_hi), (d_lo, r_lo)
    return out


def cf_from_enclosure(source: Enclosure, max_terms: int) -> CFExpansion:
    """The expansion of `contfrac.cf_from_enclosure`, from the same
    refinements, with `interval_quotients` run from the top on each bracket."""
    while True:
        point = source.is_point()
        if point:
            lo, den = source.bounds()[0].as_integer_ratio()
            hi = lo
        else:
            lo, hi, scale = source.dyadic()
            den = 1 << scale
        qs = interval_quotients(lo, hi, den, max_terms + 1)
        exhausted = False
        if not point and len(qs) < max_terms:
            target = _bits_for_terms(source.bits, len(qs), max_terms) if qs else None
            if source.refine(target):
                continue
            exhausted = True
        return CFExpansion(
            tuple(qs[:max_terms]),
            rational=point,
            complete=point and len(qs) <= max_terms,
            budget_exhausted=exhausted,
        )


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


def surd_quotients(p: int, q: int, d: int, count: int) -> list[int]:
    """The first `count` quotients of (p + sqrt d)/q, d not a square, q != 0.

    Lagrange's recurrence, known as PQa: once Q divides D - P^2 (after
    scaling by |q| if it does not), each complete quotient is
    (P + sqrt D)/Q with a = floor((P + s)/Q) for Q > 0 and
    floor((P + s + 1)/Q) for Q < 0, where s = isqrt(D) < sqrt D < s + 1,
    and the next is P' = aQ - P, Q' = (D - P'^2)/Q, an exact division.
    """
    if (d - p * p) % q:
        p, q, d = p * abs(q), q * abs(q), d * q * q
    s = math.isqrt(d)
    out: list[int] = []
    while len(out) < count:
        a = (p + s + (q < 0)) // q
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return out


def surd_image(a: int, b: int, c: int, d: int, p: int, q: int, r: int) -> tuple[int, int, int]:
    """(P, Q, D) with (P + sqrt D)/Q the image of (p + sqrt r)/q, r not a
    square, under x -> (ax + b)/(cx + d), ad - bc = +-1.

    The image is (a(p + sqrt r) + bq)/(c(p + sqrt r) + dq).  Multiplying by
    the conjugate of the denominator, u - c sqrt r with u = cp + dq, gives
    numerator (ap + bq)u - acr + (au - c(ap + bq)) sqrt r, whose root
    coefficient is (ad - bc) q, over u^2 - c^2 r, which is not 0; the sign
    of that coefficient moves to P and Q, and its square into D.
    """
    u = c * p + d * q
    num = (a * p + b * q) * u - a * c * r
    root = a * u - c * (a * p + b * q)
    den = u * u - c * c * r
    sign = 1 if root > 0 else -1
    return sign * num, sign * den, root * root * r

"""Exact closed-form algebra on raw-variant rationals.

Residual absorption and composition keep the family of rational functions
closed: R(x) + x and outer(inner(x)) are again rationals with coefficients
computed in closed form.  Everything here works on the raw variant only; the
safe variant's absolute value is not polynomial, so it is first converted
with ``safe_to_raw`` when its inner sum has constant sign.
"""

from __future__ import annotations

import numpy as np

from .rational import RAW, SAFE, RationalFunction, inner_poly, polyval


def poly_trim(p) -> np.ndarray:
    """Canonical form: drop exactly-zero leading coefficients, keep >= 1."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    nz = np.flatnonzero(p != 0.0)
    if nz.size == 0:
        return np.zeros(1)
    return p[: nz[-1] + 1].copy()


def poly_add(p, q) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.zeros(max(p.size, q.size))
    out[: p.size] += p
    out[: q.size] += q
    return out


def poly_mul(p, q) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return np.convolve(p, q)


def _require_raw(rf: RationalFunction, op: str) -> None:
    if rf.variant != RAW:
        raise ValueError(f"{op} is defined on the raw variant only; "
                         "convert with safe_to_raw first")


def absorb_residual(rf: RationalFunction) -> RationalFunction:
    """Fold a residual connection into the rational: returns R' = R + x.

    With R = P/Q in raw form, R(x) + x = (P(x) + x Q(x)) / Q(x), so the new
    numerator has degree M = max(m, n+1) and coefficients c_j = a_j + b_{j-1}
    (missing a_j, b_k read as zero).  The denominator is unchanged.
    """
    _require_raw(rf, "absorb_residual")
    a = rf.numerator
    b = rf.denominator
    m = a.size - 1
    n = b.size - 1
    big = max(m, n + 1)
    c = np.zeros(big + 1)
    c[: a.size] += a
    c[1 : b.size + 1] += b
    return RationalFunction(poly_trim(c), b.copy(), RAW)


def compose(outer: RationalFunction, inner: RationalFunction) -> RationalFunction:
    """Closed-form coefficients of outer(inner(x)).

    Writing outer = P1/Q1 and inner = P2/Q2, clearing Q2 powers gives
    numerator sum_j a1_j P2^j Q2^(D-j) and denominator
    sum_k b1_k P2^k Q2^(D-k) with D = max(deg P1, deg Q1).
    """
    _require_raw(outer, "compose")
    _require_raw(inner, "compose")
    p2 = inner.numerator
    q2 = inner.denominator
    depth = max(outer.m, outer.n)
    # powers P2^j Q2^(D-j) for j = 0..D, built incrementally
    p2_pow = [np.ones(1)]
    q2_pow = [np.ones(1)]
    for _ in range(depth):
        p2_pow.append(poly_mul(p2_pow[-1], p2))
        q2_pow.append(poly_mul(q2_pow[-1], q2))
    num = np.zeros(1)
    for j, aj in enumerate(outer.numerator):
        num = poly_add(num, aj * poly_mul(p2_pow[j], q2_pow[depth - j]))
    den = np.zeros(1)
    for k, bk in enumerate(outer.denominator):
        den = poly_add(den, bk * poly_mul(p2_pow[k], q2_pow[depth - k]))
    return RationalFunction(poly_trim(num), poly_trim(den), RAW)


def normalize(rf: RationalFunction) -> RationalFunction:
    """Scale all coefficients so the constant denominator term b_0 is 1."""
    _require_raw(rf, "normalize")
    b0 = rf.denominator[0]
    if b0 == 0.0:
        raise ValueError("cannot normalize: denominator constant term is zero")
    return RationalFunction(rf.numerator / b0, rf.denominator / b0, RAW)


def safe_to_raw(rf: RationalFunction, domain=(-3.0, 3.0)) -> RationalFunction:
    """Rewrite a safe rational in raw form on a domain where it is polynomial.

    Valid only when the inner sum S(x) = sum_{k>=1} b_k x^k does not change
    sign on the domain, so |S| = +-S there and Q = 1 +- S is a polynomial.
    S has one sign between consecutive real roots, so probing it at the
    domain's ends and midway between neighbouring roots inside decides the
    sign exactly.  An even-order root touches zero without crossing it and
    is accepted.  A probe within Horner's rounding bound of zero counts as
    zero; a sign change raises.
    """
    if rf.variant != SAFE:
        raise ValueError("safe_to_raw expects a safe-variant rational")
    b = rf.denominator
    if b.size == 0 or np.all(b == 0.0):
        return RationalFunction(rf.numerator.copy(), np.ones(1), RAW)
    s = inner_poly(rf)
    lo, hi = domain
    roots = np.roots(s[::-1])
    # two close real roots can come back as a complex pair; taking their
    # real parts only adds probes
    near_real = np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots))
    inside = np.sort(roots.real[near_real])
    edges = np.concatenate(([lo], inside[(inside > lo) & (inside < hi)], [hi]))
    probes = np.concatenate(([lo, hi], (edges[:-1] + edges[1:]) / 2.0))
    values = polyval(s, probes)
    slack = 4.0 * s.size * np.finfo(float).eps * polyval(np.abs(s), np.abs(probes))
    signs = np.sign(np.where(np.abs(values) <= slack, 0.0, values))
    if signs.max() > 0.0 and signs.min() < 0.0:
        raise ValueError("inner denominator sum changes sign on the domain; "
                         "no raw form exists there")
    raw_b = np.concatenate(([1.0], -b if signs.min() < 0.0 else b))
    return RationalFunction(rf.numerator.copy(), raw_b, RAW)

"""Rational functions R(x) = P(x)/Q(x) with trainable coefficients.

Two denominator conventions are supported, both built on a polynomial
T(x) = sum_k t_k x^k.  The raw variant stores the full coefficient vector
b_0..b_n = t_0..t_n and evaluates Q = T; it can have real poles but admits
exact polynomial algebra.  The safe variant stores only the free coefficients
b_1..b_n, pins t_0 = 0 and evaluates Q = 1 + |T|, so Q >= 1 everywhere and
training can never step onto a pole.  Its dQ/dT is sign(T), taken as 0 at the
kink.  This module is the only one that knows these rules: every value and
derivative of R takes one batched path, and the scalar functions wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RAW = "raw"
SAFE = "safe"


class PoleError(ArithmeticError):
    """A raw-variant denominator evaluated to exactly zero."""

    def __init__(self, x: float, index: int | None = None):
        self.x = x
        self.index = index
        where = f"x={x}" if index is None else f"x={x} (batch index {index})"
        super().__init__(f"rational function has a pole at {where}")


def polyval(coeffs: np.ndarray, x):
    """Horner evaluation of an ascending-order coefficient vector; an empty
    vector is the zero polynomial.

    The steps run in place on one array, each rounding as result * x + c
    would, so the bits match the out-of-place form.
    """
    x = np.asarray(x, dtype=float)
    result = np.full(x.shape, coeffs[-1] if len(coeffs) else 0.0, dtype=float)
    for c in coeffs[-2::-1]:
        np.multiply(result, x, out=result)
        np.add(result, c, out=result)
    return result


def polyder(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative polynomial."""
    if len(coeffs) <= 1:
        return np.zeros(1)
    return coeffs[1:] * np.arange(1, len(coeffs), dtype=float)


@dataclass
class RationalFunction:
    """Learnable rational activation function.

    ``numerator`` holds a_0..a_m in ascending degree order.  ``denominator``
    holds b_0..b_n for the raw variant and b_1..b_n for the safe variant
    (the safe b_0 is pinned to 1 inside the absolute value).
    """

    numerator: np.ndarray
    denominator: np.ndarray
    variant: str = SAFE

    def __post_init__(self):
        self.numerator = np.atleast_1d(np.asarray(self.numerator, dtype=float))
        self.denominator = np.atleast_1d(np.asarray(self.denominator, dtype=float))
        if self.variant not in (RAW, SAFE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.numerator.ndim != 1 or self.numerator.size < 1:
            raise ValueError("numerator needs at least one coefficient")
        if self.denominator.ndim != 1:
            raise ValueError("denominator must be a flat coefficient vector")
        if self.variant == RAW and self.denominator.size < 1:
            raise ValueError("raw variant needs at least b_0")
        if not (np.all(np.isfinite(self.numerator)) and np.all(np.isfinite(self.denominator))):
            raise ValueError("coefficients must be finite")

    @property
    def m(self) -> int:
        """Numerator degree."""
        return self.numerator.size - 1

    @property
    def n(self) -> int:
        """Denominator degree."""
        return inner_poly(self).size - 1

    def __call__(self, x):
        """Vectorized evaluation; preserves the input shape."""
        return eval_parts(self, np.asarray(x, dtype=float))[0]

    def copy(self) -> "RationalFunction":
        return RationalFunction(self.numerator.copy(), self.denominator.copy(), self.variant)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "numerator": self.numerator.tolist(),
            "denominator": self.denominator.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RationalFunction":
        return cls(
            numerator=np.asarray(d["numerator"], dtype=float),
            denominator=np.asarray(d["denominator"], dtype=float),
            variant=d["variant"],
        )


def init_identity(m: int, n: int, variant: str = SAFE) -> RationalFunction:
    """Rational of degrees (m, n) that evaluates to x everywhere.

    Sets a_1 = 1 and every other coefficient to zero; the raw variant gets
    b_0 = 1.  Requires m >= 1 since a degree-0 numerator cannot represent x.
    """
    if m < 1:
        raise ValueError("identity initialization needs numerator degree m >= 1")
    if n < 0:
        raise ValueError("denominator degree n must be >= 0")
    num = np.zeros(m + 1)
    num[1] = 1.0
    if variant == SAFE:
        den = np.zeros(n)
    elif variant == RAW:
        den = np.zeros(n + 1)
        den[0] = 1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return RationalFunction(num, den, variant)


def inner_poly(rf: RationalFunction) -> np.ndarray:
    """Coefficients t_0..t_n of T, the denominator's polynomial part.

    The raw Q is T itself.  The safe Q is 1 + |T|, where T has t_0 = 0 and
    the stored b_1..b_n above it.
    """
    if rf.variant == RAW:
        return rf.denominator
    return np.concatenate(([0.0], rf.denominator))


def _denominator_parts(rf: RationalFunction, x):
    """Return (Q(x), T(x)); a raw Q is checked for poles here.

    The safe T is evaluated as x * (b_1 + ... + b_n x^(n-1)), so its zero
    constant term costs nothing.  Keeping T around lets gradient code take
    dQ/dT without re-evaluating the polynomial.
    """
    if rf.variant == RAW:
        q = polyval(rf.denominator, x)
        _check_poles(q, x)
        return q, q
    t = polyval(rf.denominator, x)
    t *= x
    q = np.abs(t)
    q += 1.0
    return q, t


def dq_dt(rf: RationalFunction, t):
    """dQ/dT: 1 for raw, sign(T) for safe, whose kink at T = 0 takes the
    subgradient 0.  ``t`` is the T that ``eval_parts`` returned."""
    return 1.0 if rf.variant == RAW else np.sign(t)


def _check_poles(q: np.ndarray, x: np.ndarray) -> None:
    zero = q == 0.0
    if np.any(zero):
        flat = np.flatnonzero(zero)
        i = int(flat[0])
        xi = float(np.ravel(x)[i])
        raise PoleError(xi, index=i if np.size(x) > 1 else None)


def eval_parts(rf: RationalFunction, x: np.ndarray):
    """R(x) over an array x, with the (P(x), Q(x), T(x)) it divides.

    The gradients take these parts to skip evaluating the polynomials again
    at the same x; a raw Q is checked for poles here.
    """
    q, t = _denominator_parts(rf, x)
    p = polyval(rf.numerator, x)
    return p / q, (p, q, t)


def eval_batch(rf: RationalFunction, xs) -> np.ndarray:
    """Elementwise evaluation over an array of finite inputs.

    Raises PoleError when a raw Q is zero at some input.
    """
    x = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return eval_parts(rf, x)[0]


def grad_input_batch(rf: RationalFunction, xs, parts=None, dq=None) -> np.ndarray:
    """Elementwise dR/dx by the quotient rule, with dQ/dx = dQ/dT * T'(x).

    At the safe variant's kink (T exactly zero) the subgradient 0 is used
    for d|T|/dT, so the denominator contributes nothing there.  ``parts``
    is the (p, q, t) that ``eval_parts`` returned for the same xs; without
    it they are evaluated here.  ``dq`` is ``dq_dt(rf, t)`` of those parts,
    for a caller that already took it; without it it is taken here.
    """
    x = np.asarray(xs, dtype=float)
    p, q, t = eval_parts(rf, x)[1] if parts is None else parts
    dq = (dq_dt(rf, t) if dq is None else dq) * polyval(polyder(inner_poly(rf)), x)
    return (polyval(polyder(rf.numerator), x) * q - p * dq) / (q * q)


def power_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """x_i^j for j = 0..k-1 over a flat x, one column per power.

    Each column is the previous one times x, the same products in the same
    order as np.vander(x, k, increasing=True), so the two are bitwise equal.
    """
    v = np.empty((x.size, k))
    if k:
        v[:, 0] = 1.0
    for j in range(1, k):
        np.multiply(v[:, j - 1], x, out=v[:, j])
    return v


def coeff_powers(rf: RationalFunction, x: np.ndarray):
    """Power matrices x_i^j over a flat x, one column per coefficient.

    The numerator's columns are j = 0..m.  The denominator's are the stored
    ones: j = 0..n raw, j = 1..n safe.  Both are slices of one power matrix.
    """
    n = rf.n
    v = power_matrix(x, max(rf.m, n) + 1)
    return v[:, :rf.m + 1], v[:, n + 1 - rf.denominator.size:n + 1]


def coeff_jacobian(rf: RationalFunction, x: np.ndarray, powers) -> np.ndarray:
    """Jacobian dR(x_i)/dtheta_j over a flat x.

    The columns are the numerator's coefficients, then the stored
    denominator's.  ``powers`` is ``coeff_powers(rf, x)``; it depends only
    on x and the degrees, so a caller differentiating many coefficient
    vectors on one grid builds it once.
    """
    num_powers, den_powers = powers
    q, t = _denominator_parts(rf, x)
    d_den = -polyval(rf.numerator, x) * dq_dt(rf, t) / (q * q)
    return np.hstack((num_powers / q[:, None], den_powers * d_den[:, None]))


def grad_coeffs_batch(rf: RationalFunction, xs: np.ndarray, upstream: np.ndarray,
                      parts=None, dq=None):
    """Accumulated coefficient gradients sum_i upstream_i * dR/dtheta(x_i).

    This is the workhorse for training: with upstream = dLoss/dR(x_i) it
    yields the loss gradient for every stored coefficient in one pass.
    Returns (d/da_j for j=0..m, d/db_k) where the denominator vector matches
    the variant's stored layout (k=0..n raw, k=1..n safe).  ``parts`` is
    the (p, q, t) that ``eval_parts`` returned for the same xs; without it
    they are evaluated here.  ``dq`` is ``dq_dt(rf, t)`` of those parts,
    as in ``grad_input_batch``.
    """
    x = np.ravel(np.asarray(xs, dtype=float))
    u = np.ravel(np.asarray(upstream, dtype=float))
    if x.shape != u.shape:
        raise ValueError("xs and upstream must have matching sizes")
    p, q, t = eval_parts(rf, x)[1] if parts is None else map(np.ravel, parts)
    dq = dq_dt(rf, t) if dq is None else np.ravel(dq)
    num_powers, den_powers = coeff_powers(rf, x)
    return (u / q) @ num_powers, (-u * p * dq / q**2) @ den_powers


def evaluate(rf: RationalFunction, x: float) -> float:
    """R(x) at a single point.  Raises PoleError when a raw Q(x) is zero."""
    return float(eval_batch(rf, float(x)))


def grad_input(rf: RationalFunction, x: float) -> float:
    """dR/dx at a single point; see grad_input_batch."""
    return float(grad_input_batch(rf, float(x)))


def grad_coeffs(rf: RationalFunction, x: float):
    """Partial derivatives of R(x) at a single point; see grad_coeffs_batch."""
    return grad_coeffs_batch(rf, [float(x)], [1.0])

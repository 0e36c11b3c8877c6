"""Rational functions R(x) = P(x)/Q(x) with trainable coefficients.

Two denominator conventions are supported, both built on a polynomial
T(x) = sum_k t_k x^k.  The raw variant stores the full coefficient vector
b_0..b_n = t_0..t_n and evaluates Q = T; it can have real poles but admits
exact polynomial algebra.  The safe variant stores only the free coefficients
b_1..b_n, pins t_0 = 0 and evaluates Q = 1 + |T|, so Q >= 1 everywhere and
training can never step onto a pole.  Its dQ/dT is sign(T), taken as 0 at the
kink.  Every value and derivative of R takes one batched path here, and the
scalar functions wrap it; only the fit restates the safe rule, on its grid.

That path is an ``Evaluation``, R at an array x kept with the P, Q and T it
divided: reverse mode's tape for one site.  The forward is Horner and keeps
only those.  The first gradient adds the power table x^0..x^max(m, n) and
the partials dR/dP, dR/dT to the tape, and both gradients are products with
the table, so backpropagation never evaluates the polynomials again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    The steps run in place on one array that starts as x * c_last, each
    rounding as result * x + c would, so the bits match the out-of-place
    form that starts from a constant c_last.
    """
    x = np.asarray(x, dtype=float)
    if len(coeffs) < 2:
        return np.full(x.shape, coeffs[-1] if len(coeffs) else 0.0, dtype=float)
    result = np.multiply(x, coeffs[-1], out=np.empty(x.shape))
    np.add(result, coeffs[-2], out=result)
    for c in coeffs[-3::-1]:
        np.multiply(result, x, out=result)
        np.add(result, c, out=result)
    return result


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
        return Evaluation(self, np.asarray(x, dtype=float)).value

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


def _check_poles(q: np.ndarray, x: np.ndarray) -> None:
    zero = q == 0.0
    if np.any(zero):
        flat = np.flatnonzero(zero)
        i = int(flat[0])
        xi = float(np.ravel(x)[i])
        raise PoleError(xi, index=i if np.size(x) > 1 else None)


class Evaluation:
    """R at an array x of floats, kept with the P(x), Q(x) and T(x) it
    divided: reverse mode's tape for one rational site.  A raw Q is checked
    for poles here.  ``powers`` and ``partials`` are built on first use, by
    the gradients, and kept.
    """

    def __init__(self, rf: RationalFunction, x: np.ndarray):
        self.rf = rf
        self.x = x
        # the safe T is x * (b_1 + ... + b_n x^(n-1)): its zero t_0 costs nothing
        self.t = polyval(rf.denominator, x)
        if rf.variant == RAW:
            self.q = self.t
            _check_poles(self.q, x)
        else:
            self.t *= x
            self.q = np.abs(self.t)
            self.q += 1.0
        self.p = polyval(rf.numerator, x)
        self.value = self.p / self.q

    @cached_property
    def powers(self) -> np.ndarray:
        """``power_matrix`` of the flat x up to x^max(m, n): (K, N)."""
        return power_matrix(np.ravel(self.x), max(self.rf.m, self.rf.n) + 1)

    @cached_property
    def partials(self) -> np.ndarray:
        """(2, N) rows dR/dP = 1/Q and dR/dT = -R dQ/dT / Q over the flat x."""
        d = np.empty((2, np.size(self.x)))
        inv_q, d_t = d
        np.divide(1.0, self.q.reshape(-1), out=inv_q)
        # -dQ/dT: -1 raw, -sign(T) safe, taking the subgradient 0 at T = 0
        if self.rf.variant == RAW:
            d_t.fill(-1.0)
        else:
            np.sign(self.t.reshape(-1), out=d_t)
            np.negative(d_t, out=d_t)
        d_t *= self.value.reshape(-1)
        d_t *= inv_q
        return d


def eval_batch(rf: RationalFunction, xs) -> np.ndarray:
    """Elementwise evaluation over an array of finite inputs.

    Raises PoleError when a raw Q is zero at some input.
    """
    x = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return Evaluation(rf, x).value


def power_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """x_i^j for j = 0..k-1 over a flat x: a row-major (k, N) table, one row
    per power.

    Each row is the previous one times x, the same products in the same
    order as np.vander(x, k, increasing=True), so the two are bitwise equal
    up to the transpose.
    """
    v = np.empty((k, x.size))
    if k:
        v[0] = 1.0
    for j in range(1, k):
        np.multiply(v[j - 1], x, out=v[j])
    return v


def _stored_t(rf: RationalFunction) -> slice:
    """The powers of T that the stored denominator holds: t_0..t_n raw,
    t_1..t_n safe."""
    first = 0 if rf.variant == RAW else 1
    return slice(first, first + rf.denominator.size)


def grad_input_batch(ev: Evaluation) -> np.ndarray:
    """Elementwise dR/dx = P'(x) dR/dP + T'(x) dR/dT, with x's shape.

    P' and T' are one product of their coefficients with the record's power
    table.  At the safe variant's kink (T exactly zero) the subgradient 0 is
    used for d|T|/dT, so the denominator contributes nothing there.
    """
    rf, powers = ev.rf, ev.powers
    k = powers.shape[0]
    coef = np.zeros((2, k))
    coef[0, :rf.m + 1] = rf.numerator
    coef[1, _stored_t(rf)] = rf.denominator
    # P' and T' as rows, from the derivative coefficients j c_j, j = 1..k-1
    slopes = (coef[:, 1:] * np.arange(1, k)) @ powers[:k - 1]
    slopes *= ev.partials
    return np.add(slopes[0], slopes[1]).reshape(np.shape(ev.x))


def grad_coeffs_batch(ev: Evaluation, upstream: np.ndarray):
    """Accumulated coefficient gradients sum_i upstream_i * dR/dtheta(x_i).

    This is the workhorse for training: with upstream = dLoss/dR(x_i) it
    yields the loss gradient for every stored coefficient in one pass.
    Returns (d/da_j for j=0..m, d/db_k) where the denominator vector matches
    the variant's stored layout (k=0..n raw, k=1..n safe).  ``upstream``
    holds one entry per element of ev.x, in any shape.  Both come from one
    product of the upstream-weighted partials with the power table.
    """
    u = np.ravel(np.asarray(upstream, dtype=float))
    if u.size != np.size(ev.x):
        raise ValueError("upstream needs one entry per element of ev.x")
    grads = (ev.partials * u) @ ev.powers.T
    return grads[0, :ev.rf.m + 1], grads[1, _stored_t(ev.rf)]


def grad_input(rf: RationalFunction, x: float) -> float:
    """dR/dx at a single point; see grad_input_batch."""
    return float(grad_input_batch(Evaluation(rf, np.asarray(float(x)))))


def grad_coeffs(rf: RationalFunction, x: float):
    """Partial derivatives of R(x) at a single point; see grad_coeffs_batch."""
    return grad_coeffs_batch(Evaluation(rf, np.array([float(x)])), [1.0])

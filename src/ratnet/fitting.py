"""Reference activations and least-squares fitting of rational coefficients.

The fit is how rationals get initialized to resemble a classical activation
before training: sample the target on a grid, then minimize the mean squared
error by Levenberg-Marquardt with Marquardt's diagonal damping.  Two starts
come from linear least squares: multiplying R = P/(1 + |S|) out gives
P - y*|S| = y, which is linear in the coefficients once the sign pattern of
S is guessed, either S >= 0 on the grid or S of the sign of x.  The optimizer
only ever accepts improving steps, so the loss trajectory is non-increasing,
and everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import (RationalFunction, SAFE, coeff_jacobian, coeff_powers,
                       eval_batch, grad_coeffs_batch)

GRAD_TOLERANCE = 1e-10  # sup-norm gradient threshold for "converged"
# Levenberg-Marquardt damping: its start, the factor it grows by after a
# rejected trial and shrinks by after an accepted one, and its floor and cap
LM_DAMPING = 1e-3
LM_FACTOR = 10.0
LM_DAMPING_FLOOR = 1e-12
LM_DAMPING_CAP = 1e16
# an accepted step lowering the loss by at most this fraction is a stall
STALL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ReferenceActivation:
    """A named closed-form activation used as fit target or fixed baseline.

    ``slope`` only matters for lrelu and ``beta`` for swish; both are fixed
    parameters of the target, never trained.  The affine (scale*x + shift)
    and constant (shift) entries exist for exactness checks, since those are
    the targets a low-degree rational can represent with zero error.
    """

    name: str
    slope: float = 0.01
    beta: float = 1.0
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.name not in REFERENCE_NAMES:
            raise ValueError(f"unknown reference activation {self.name!r}; "
                             f"choose from {REFERENCE_NAMES}")
        vals = (self.slope, self.beta, self.scale, self.shift)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("reference parameters must be finite")

    def __call__(self, x):
        """Closed-form value of the named activation, vectorized."""
        return np.asarray(REFERENCES[self.name][0](self, np.asarray(x, dtype=float)),
                          dtype=float)

    def grad(self, x):
        """Derivative of the named activation, vectorized."""
        return np.asarray(REFERENCES[self.name][1](self, np.asarray(x, dtype=float)),
                          dtype=float)


def sigmoid(x):
    x = np.clip(np.asarray(x, dtype=float), -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-x))


def _tanh_grad(ref, x):
    t = np.tanh(x)
    return 1.0 - t * t


def _sigmoid_grad(ref, x):
    s = sigmoid(x)
    return s * (1.0 - s)


def _silu_grad(ref, x):
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _dsilu_grad(ref, x):
    s = sigmoid(x)
    return s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


def _swish_grad(ref, x):
    s = sigmoid(ref.beta * x)
    return s * (1.0 + ref.beta * x * (1.0 - s))


# name -> (value, derivative), each f(ref, x) on a float array x; dsilu is
# silu's derivative, so it shares that expression
REFERENCES = {
    "identity": (lambda ref, x: x + 0.0, lambda ref, x: np.ones_like(x)),
    "relu": (lambda ref, x: np.maximum(x, 0.0),
             lambda ref, x: (x > 0.0).astype(float)),
    "lrelu": (lambda ref, x: np.where(x >= 0.0, x, ref.slope * x),
              lambda ref, x: np.where(x >= 0.0, 1.0, ref.slope)),
    "tanh": (lambda ref, x: np.tanh(x), _tanh_grad),
    "sigmoid": (lambda ref, x: sigmoid(x), _sigmoid_grad),
    "silu": (lambda ref, x: x * sigmoid(x), _silu_grad),
    "dsilu": (_silu_grad, _dsilu_grad),
    "swish": (lambda ref, x: x * sigmoid(ref.beta * x), _swish_grad),
    "affine": (lambda ref, x: ref.scale * x + ref.shift,
               lambda ref, x: np.full_like(x, ref.scale)),
    "constant": (lambda ref, x: np.full_like(x, ref.shift),
                 lambda ref, x: np.zeros_like(x)),
}
REFERENCE_NAMES = tuple(REFERENCES)


@dataclass
class FitConfig:
    interval: tuple = (-3.0, 3.0)
    n_points: int = 1000
    max_iters: int = 20000
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval must satisfy lo < hi")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")


@dataclass
class FitReport:
    final_mse: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {"final_mse": self.final_mse, "iterations": self.iterations,
                "converged": self.converged}


def _unpack(theta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    return theta[: m + 1], theta[m + 1 :]


def fit(m: int, n: int, ref, cfg: FitConfig | None = None):
    """Fit a safe rational of degrees (m, n) to a reference activation.

    ``ref`` is a ReferenceActivation or any closed-form callable (e.g.
    another RationalFunction).  Minimizes mean((R(x_i) - ref(x_i))^2) over
    n_points uniform samples of the interval by Levenberg-Marquardt from
    each linearized start plus a small seeded uniform perturbation, and
    keeps the better result (the first on a tie).  ``cfg.max_iters`` caps
    the LM trials summed over both starts; the second start gets what the
    first leaves.  Returns the best iterate found and a FitReport; running
    out of trials is not an error, the report just carries converged=False.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    if cfg is None:
        cfg = FitConfig()
    if cfg.n_points < m + n + 1:
        raise ValueError("n_points must be at least m + n + 1")
    rng = np.random.default_rng(cfg.seed)
    jitter = rng.uniform(-1e-2, 1e-2, size=m + 1 + n)
    identity_start = jitter.copy()
    if m >= 1:
        identity_start[1] += 1.0

    xs = np.linspace(cfg.interval[0], cfg.interval[1], cfg.n_points)
    ys = np.asarray(ref(xs), dtype=float)

    def residual(t: np.ndarray):
        """(residual vector, mse) at t; (None, inf) where t is not finite."""
        if not np.all(np.isfinite(t)):
            return None, np.inf
        a, b = _unpack(t, m)
        # overflow at a trial point just means "reject the step"
        with np.errstate(over="ignore", invalid="ignore"):
            r = eval_batch(RationalFunction(a, b, SAFE), xs) - ys
            return r, float(np.mean(r * r))

    # checked before any feature matrix is built: on an interval wide enough
    # to overflow x^j the linearized solves would only spray warnings
    if not np.all(np.isfinite(ys)) or not np.isfinite(residual(identity_start)[1]):
        raise ValueError("loss is not finite at the starting point")

    # x^j depends only on the grid: one build serves every Jacobian and
    # both linearized starts
    powers = coeff_powers(RationalFunction(*_unpack(identity_start, m), SAFE), xs)

    def descend(theta: np.ndarray, budget: int):
        """LM from theta for at most `budget` trials, accepting only steps
        that lower the loss; returns (theta, loss, trials, converged)."""
        r, loss = residual(theta)
        damping = LM_DAMPING
        trials = 0
        while True:
            rf = RationalFunction(*_unpack(theta, m), SAFE)
            grad = np.concatenate(grad_coeffs_batch(rf, xs, 2.0 * r / xs.size))
            if np.max(np.abs(grad)) <= GRAD_TOLERANCE:
                return theta, loss, trials, True
            jac = coeff_jacobian(rf, xs, powers)
            # Marquardt's damping H + lambda * diag(H), solved in the
            # diagonally scaled variables where diag(H) becomes the identity
            hess = (2.0 / xs.size) * (jac.T @ jac)
            scale = np.sqrt(np.maximum(np.diag(hess), np.finfo(float).tiny))
            unit = hess / np.outer(scale, scale)
            while True:
                if trials == budget:
                    return theta, loss, trials, False
                trials += 1
                step = np.linalg.solve(unit + damping * np.eye(theta.size), -grad / scale)
                cand = theta + step / scale
                cand_r, cand_loss = residual(cand)
                if cand_loss < loss:
                    break
                damping *= LM_FACTOR
                if damping > LM_DAMPING_CAP:
                    # no improving step exists at float resolution
                    return theta, loss, trials, True
            decrease = (loss - cand_loss) / loss
            theta, r, loss = cand, cand_r, cand_loss
            damping = max(damping / LM_FACTOR, LM_DAMPING_FLOOR)
            if decrease <= STALL_TOLERANCE:
                return theta, loss, trials, True

    # linearized starts: P - y*w*S = y is linear in the coefficients and
    # equals the fit where |S| = w*S, so w = 1 assumes S >= 0 on the grid
    # and w = sign(x) the kink at 0 of every safe S with b_1 != 0
    best = None
    iterations = 0
    for w in (1.0, np.sign(xs)):
        # y*x^k can overflow where the identity start's loss does not
        with np.errstate(over="ignore", invalid="ignore"):
            lin = np.hstack((powers[0], -(w * ys)[:, None] * powers[1]))
        start = (np.linalg.lstsq(lin, ys, rcond=None)[0] + jitter
                 if np.all(np.isfinite(lin)) else identity_start)
        theta, loss, trials, converged = descend(start, cfg.max_iters - iterations)
        iterations += trials
        if best is None or loss < best[1]:
            best = (theta, loss, converged)
        if n == 0:
            break  # without S both starts are the same

    a, b = _unpack(best[0], m)
    return RationalFunction(a, b, SAFE), FitReport(best[1], iterations, best[2])

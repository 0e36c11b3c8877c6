"""Reference activations and least-squares fitting of rational coefficients.

The fit is how rationals get initialized to resemble a classical activation
before training: sample the target on a grid, then minimize the mean squared
error by Levenberg-Marquardt with Marquardt's diagonal damping.  Two starts
come from linear least squares: multiplying R = P/(1 + |S|) out gives
P - y*|S| = y, which is linear in the coefficients once the sign pattern of
S is guessed, either S >= 0 on the grid or S of the sign of x.  The optimizer
only ever accepts improving steps, so the loss trajectory is non-increasing,
and everything is deterministic given the seed.  Each LM trial evaluates the
rational once; an accepted trial's P, Q and T also serve the gradient and
the Jacobian.  The second start gives up as soon as it cannot beat the first
within its trial budget (see ``fit``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import (RationalFunction, SAFE, coeff_jacobian, coeff_powers,
                       dq_dt, eval_batch, eval_parts, grad_coeffs_batch)

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
        # an infinite end or width would turn the grid into inf and nan
        if not np.isfinite(hi - lo):
            raise ValueError("interval must be finite, and so must hi - lo")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        # the trial count never equals a negative or fractional cap
        if not (self.max_iters >= 0 and float(self.max_iters).is_integer()):
            raise ValueError("max_iters must be a whole number >= 0")


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
    the LM trials summed over both starts, and the report's ``iterations``
    counts those trials, each one evaluation of the loss; the second start
    gets what the first leaves.  Returns the best iterate found and a
    FitReport; running out of trials is not an error, the report just
    carries converged=False.

    The second start stops after an accepted step that lowered its loss by
    the fraction d when loss * (1 - d)^k >= incumbent, with k its trials
    left and the incumbent the first start's loss: even if every remaining
    trial repeated that step's decrease it would not win.  A stopped start
    has loss >= incumbent, so the first start wins as it would have on a
    tie.  This is a heuristic, since LM can speed up after a slow stretch,
    so in rare cases a start that would have won by a hair is stopped.  The
    best loss is still non-increasing in max_iters: a larger budget runs
    each start further along the same trajectory, and lengthens k.
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
        """(residual vector, mse, rational, its eval_parts parts) at t;
        (None, inf, None, None) where t is not finite."""
        if not np.all(np.isfinite(t)):
            return None, np.inf, None, None
        rf = RationalFunction(*_unpack(t, m), SAFE)
        # overflow at a trial point just means "reject the step"
        with np.errstate(over="ignore", invalid="ignore"):
            value, parts = eval_parts(rf, xs)
            r = value - ys
            return r, float(np.mean(r * r)), rf, parts

    # checked before any feature matrix is built: on an interval wide enough
    # to overflow x^j the linearized solves would only spray warnings.  A
    # finite loss also means finite targets, and eval_batch checks the grid.
    identity_rf = RationalFunction(*_unpack(identity_start, m), SAFE)
    with np.errstate(over="ignore", invalid="ignore"):
        r = eval_batch(identity_rf, xs) - ys
        if not np.isfinite(np.mean(r * r)):
            raise ValueError("loss is not finite at the starting point")

    # x^j depends only on the grid: one build serves every gradient, every
    # Jacobian and both linearized starts
    powers = coeff_powers(identity_rf, xs)

    def descend(theta: np.ndarray, budget: int, incumbent: float):
        """LM from theta for at most `budget` trials, accepting only steps
        that lower the loss, and giving up once the loss cannot fall below
        `incumbent` (see fit); returns (theta, loss, trials, converged)."""
        r, loss, rf, parts = residual(theta)
        damping = LM_DAMPING
        eye = np.eye(theta.size)
        trials = 0
        while True:
            # the accepted trial's P, Q and T serve the gradient and the
            # Jacobian, which are taken at the same theta
            dq = dq_dt(rf, parts[2])
            grad = np.concatenate(grad_coeffs_batch(rf, xs, 2.0 * r / xs.size,
                                                    parts, dq, powers))
            if np.max(np.abs(grad)) <= GRAD_TOLERANCE:
                return theta, loss, trials, True
            jac = coeff_jacobian(rf, xs, powers, parts, dq)
            # Marquardt's damping H + lambda * diag(H), solved in the
            # diagonally scaled variables where diag(H) becomes the identity
            hess = (2.0 / xs.size) * (jac.T @ jac)
            scale = np.sqrt(np.maximum(np.diag(hess), np.finfo(float).tiny))
            unit = hess / np.outer(scale, scale)
            while True:
                if trials == budget:
                    return theta, loss, trials, False
                trials += 1
                step = np.linalg.solve(unit + damping * eye, -grad / scale)
                cand = theta + step / scale
                cand_r, cand_loss, cand_rf, cand_parts = residual(cand)
                if cand_loss < loss:
                    break
                damping *= LM_FACTOR
                if damping > LM_DAMPING_CAP:
                    # no improving step exists at float resolution
                    return theta, loss, trials, True
            decrease = (loss - cand_loss) / loss
            theta, r, loss, rf, parts = cand, cand_r, cand_loss, cand_rf, cand_parts
            damping = max(damping / LM_FACTOR, LM_DAMPING_FLOOR)
            if decrease <= STALL_TOLERANCE:
                return theta, loss, trials, True
            # even this step's decrease repeated on every trial left cannot
            # take the loss below the incumbent (which implies loss >= it)
            if loss * (1.0 - decrease) ** (budget - trials) >= incumbent:
                return theta, loss, trials, False

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
        theta, loss, trials, converged = descend(
            start, cfg.max_iters - iterations, np.inf if best is None else best[1])
        iterations += trials
        if best is None or loss < best[1]:
            best = (theta, loss, converged)
        if n == 0:
            break  # without S both starts are the same

    a, b = _unpack(best[0], m)
    return RationalFunction(a, b, SAFE), FitReport(best[1], iterations, best[2])

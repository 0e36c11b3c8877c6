"""Reference activations and least-squares fitting of rational coefficients.

The fit is how rationals get initialized to resemble a classical activation
before training: sample the target on a grid, then run full-batch gradient
descent with a backtracking line search on the mean squared error.  The
descent direction is preconditioned by a fixed diagonal metric (the
Gauss-Newton diagonal at the identity start); without it the x^j features on
[-3, 3] make the landscape so ill-conditioned that plain gradient steps need
hundreds of thousands of iterations.  The optimizer only ever accepts
improving steps, so the loss trajectory is non-increasing, and everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import RationalFunction, SAFE, eval_batch, grad_coeffs_batch

GRAD_TOLERANCE = 1e-10  # sup-norm gradient threshold for "converged"


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


def reference_eval(ref: ReferenceActivation, x):
    """Closed-form value of the named activation, vectorized."""
    return REFERENCES[ref.name][0](ref, np.asarray(x, dtype=float))


def reference_grad(ref: ReferenceActivation, x):
    """Derivative of the named activation, vectorized."""
    return REFERENCES[ref.name][1](ref, np.asarray(x, dtype=float))


def reference_fn(ref: ReferenceActivation):
    """The activation as a plain callable, for the distance machinery."""
    return lambda x: reference_eval(ref, x)


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
    n_points uniform samples of the interval, starting from the identity
    coefficients (a_1 = 1 where representable) plus a small seeded uniform
    perturbation.  Returns the best iterate found and a FitReport; running
    out of iterations is not an error, the report just carries
    converged=False.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    if cfg is None:
        cfg = FitConfig()
    if cfg.n_points < m + n + 1:
        raise ValueError("n_points must be at least m + n + 1")
    rng = np.random.default_rng(cfg.seed)
    theta = np.zeros(m + 1 + n)
    if m >= 1:
        theta[1] = 1.0
    theta = theta + rng.uniform(-1e-2, 1e-2, size=theta.size)

    xs = np.linspace(cfg.interval[0], cfg.interval[1], cfg.n_points)
    if isinstance(ref, ReferenceActivation):
        ys = reference_eval(ref, xs)
    else:
        ys = np.asarray(ref(xs), dtype=float)

    def loss_of(t: np.ndarray) -> float:
        a, b = _unpack(t, m)
        # overflow during line-search exploration just means "reject step"
        with np.errstate(over="ignore", invalid="ignore"):
            r = eval_batch(RationalFunction(a, b, SAFE), xs) - ys
            return float(np.mean(r * r))

    def grad_of(t: np.ndarray) -> np.ndarray:
        a, b = _unpack(t, m)
        rf = RationalFunction(a, b, SAFE)
        r = eval_batch(rf, xs) - ys
        upstream = 2.0 * r / xs.size
        d_num, d_den = grad_coeffs_batch(rf, xs, upstream)
        return np.concatenate((d_num, d_den))

    loss = loss_of(theta)
    if not np.isfinite(loss) or not np.all(np.isfinite(ys)):
        raise ValueError("loss is not finite at the starting point")

    # fixed diagonal preconditioner: the Gauss-Newton diagonal of the MSE at
    # the identity start (Q ~ 1, P ~ x), which equalizes the wildly different
    # curvature scales of low- and high-degree coefficients
    num_feats = np.vander(xs, m + 1, increasing=True)
    scale = 2.0 * np.mean(num_feats * num_feats, axis=0)
    if n > 0:
        den_feats = np.vander(xs, n + 1, increasing=True)[:, 1:] * xs[:, None]
        scale = np.concatenate((scale, 2.0 * np.mean(den_feats * den_feats, axis=0)))
    precond = np.maximum(scale, 1e-12)

    best_theta = theta.copy()
    best_loss = loss
    step = 1.0
    converged = False
    iterations = 0
    while iterations < cfg.max_iters:
        g = grad_of(theta)
        direction = g / precond
        descent = float(g @ direction)
        if np.max(np.abs(g)) <= GRAD_TOLERANCE:
            converged = True
            break
        # backtracking line search with Armijo condition; the accepted step
        # is re-used (doubled) as the first trial of the next iteration
        accepted = False
        t = step
        while t > 1e-20:
            cand = theta - t * direction
            cand_loss = loss_of(cand)
            if np.isfinite(cand_loss) and cand_loss <= loss - 1e-4 * t * descent:
                theta, loss = cand, cand_loss
                step = min(t * 2.0, 1e6)
                accepted = True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            # no further progress possible at float resolution
            converged = True
            break
        if loss < best_loss:
            best_loss = loss
            best_theta = theta.copy()

    a, b = _unpack(best_theta, m)
    return RationalFunction(a, b, SAFE), FitReport(best_loss, iterations, converged)

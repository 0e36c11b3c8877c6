"""Reference activations and least-squares fitting of rational coefficients.

The fit is how rationals get initialized to resemble a classical activation
before training: sample the target on a grid, then minimize the mean squared
error by Levenberg-Marquardt with Marquardt's diagonal damping.  Two starts
come from linear least squares: multiplying R = P/(1 + |S|) out gives
P - y*|S| = y, which is linear in the coefficients once the sign pattern of
S is guessed, either S >= 0 on the grid or S of the sign of x.  The optimizer
only ever accepts improving steps, so the loss trajectory is non-increasing,
and everything is deterministic given the seed.  The grid's powers x^j are
built once: a trial's P and T, and an accepted step's gradient and
Gauss-Newton matrix, are each one product with them (``_moment_step``).  A
second start gives up once it cannot beat the first within its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import RationalFunction, SAFE, eval_batch, power_matrix
# not called here: perfbench's tracer patches fitting.grad_coeffs_batch by name
from .rational import grad_coeffs_batch  # noqa: F401

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
        if not (isinstance(self.n_points, (int, np.integer)) and self.n_points >= 2):
            raise ValueError("n_points must be an integer >= 2")
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


def _moment_step(powers: np.ndarray, m: int, n: int):
    """(J^T u, J^T J) of a safe (m, n) rational on a fixed grid, from weighted
    power moments; ``powers`` holds the grid's x^j as rows, j = 0..2 max(m, n).

    J's numerator columns are x^j v and its denominator columns x^k e, with
    v = 1/Q and e = -P sign(T)/Q^2.  So J^T u is (sum u v x^j, sum u e x^k),
    and J^T J has the Hankel blocks sum v^2 x^(i+j), sum v e x^(j+k) and
    sum e^2 x^(k+l): one (5, N) @ (N, 2 max(m, n) + 1) product holds them
    all.  Returns step(p, t, u), which takes P, T and u on the grid.
    """
    deg = np.concatenate((np.arange(m + 1), np.arange(1, n + 1)))
    den = (np.arange(deg.size) > m).astype(int)
    width = powers.shape[0]
    # flat positions in the (5, width) moments: the gradient reads row 0 or
    # 1 and J^T J row 2, 3 or 4, at the power deg_i or deg_i + deg_j
    grad_at = den * width + deg
    gram_at = (2 + np.add.outer(den, den)) * width + np.add.outer(deg, deg)
    weights = np.empty((5, powers.shape[1]))  # u v, u e, v^2, v e, e^2
    v, e = weights[2], weights[4]

    def step(p, t, u):
        np.divide(1.0, np.abs(t) + 1.0, out=v)
        np.multiply(np.sign(t) * -p, v * v, out=e)
        np.multiply(u, weights[2::2], out=weights[:2])
        np.multiply(v, e, out=weights[3])
        np.square(weights[2::2], out=weights[2::2])
        moments = (weights @ powers.T).ravel()
        return moments[grad_at], moments[gram_at]
    return step


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

    # checked before any feature matrix is built: on an interval wide enough
    # to overflow x^j the linearized solves would only spray warnings.  A
    # finite loss also means finite targets, and eval_batch checks the grid.
    with np.errstate(over="ignore", invalid="ignore"):
        r = eval_batch(RationalFunction(*_unpack(identity_start, m), SAFE), xs) - ys
        if not np.isfinite(np.mean(r * r)):
            raise ValueError("loss is not finite at the starting point")
        # x^j as rows, j = 0..2 max(m, n): one build serves both linearized
        # starts, every trial's P and T and every step's moments
        powers = power_matrix(xs, 2 * max(m, n) + 1)
    if not np.all(np.isfinite(powers[-1])):
        raise ValueError(f"x^{powers.shape[0] - 1} overflows on the interval")
    moments = _moment_step(powers, m, n)
    # rows a_0..a_m and the safe T's t_0 = 0, b_1..b_n, for x^0..x^max(m, n)
    coef = np.zeros((2, max(m, n) + 1))

    def residual(theta: np.ndarray):
        """(residual vector, mse, (P, T)) on the grid at theta; (None, inf,
        None) where theta is not finite."""
        if not np.isfinite(theta).all():
            return None, np.inf, None
        coef[0, : m + 1], coef[1, 1 : n + 1] = _unpack(theta, m)
        # overflow at a trial point just means "reject the step"
        with np.errstate(over="ignore", invalid="ignore"):
            pt = coef @ powers[: coef.shape[1]]
            r = pt[0] / (np.abs(pt[1]) + 1.0)
            r -= ys
            # np.mean's own sum and division, without its dispatch
            return r, float(np.add.reduce(r * r) / xs.size), pt

    def descend(theta: np.ndarray, budget: int, incumbent: float):
        """LM from theta for at most `budget` trials, accepting only steps
        that lower the loss, and giving up once the loss cannot fall below
        `incumbent` (see fit); returns (theta, loss, trials, converged)."""
        r, loss, pt = residual(theta)
        damping = LM_DAMPING
        eye = np.eye(theta.size)
        trials = 0
        while True:
            # the accepted trial's P and T serve the gradient and J^T J
            grad, gram = moments(*pt, 2.0 * r / xs.size)
            if np.max(np.abs(grad)) <= GRAD_TOLERANCE:
                return theta, loss, trials, True
            # Marquardt's damping H + lambda * diag(H), solved in the
            # diagonally scaled variables where diag(H) becomes the identity
            hess = (2.0 / xs.size) * gram
            scale = np.sqrt(np.maximum(np.diag(hess), np.finfo(float).tiny))
            unit = hess / np.outer(scale, scale)
            while True:
                if trials == budget:
                    return theta, loss, trials, False
                trials += 1
                step = np.linalg.solve(unit + damping * eye, -grad / scale)
                cand = theta + step / scale
                cand_r, cand_loss, cand_pt = residual(cand)
                if cand_loss < loss:
                    break
                damping *= LM_FACTOR
                if damping > LM_DAMPING_CAP:
                    # no improving step exists at float resolution
                    return theta, loss, trials, True
            decrease = (loss - cand_loss) / loss
            theta, r, loss, pt = cand, cand_r, cand_loss, cand_pt
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
            lin = np.hstack((powers[: m + 1].T, -(w * ys)[:, None] * powers[1 : n + 1].T))
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

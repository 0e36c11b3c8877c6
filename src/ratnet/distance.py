"""Affine-invariant distance between scalar functions.

The distance between f1 and f2 is the L1 gap minimized over all affine
reparameterizations a*f2(c*x + d) + b, so functions that differ only by
vertical/horizontal scale and shift come out equivalent.  Plain nd() is a
quasi-pseudo-metric (not symmetric); nd_sym() symmetrizes it by taking the
minimum of both directions, and rnd() weights the integrand by an empirical
input density so rarely-visited parts of the domain matter less.

Minimization runs in three stages: a coarse grid over (c, d), a closed-form
weighted least-squares solve for (a, b) inside each grid cell, and a local
Nelder-Mead polish of all four parameters from the best cells.  The simplex
search is written here rather than borrowed so its trajectory depends only
on objective comparisons; scaling the integrand by a positive constant then
provably cannot change the minimizer, which is what makes the uniform-density
rnd agree with nd up to the domain length exactly.

f2 is evaluated on many reparameterizations at once: each call gets a
(rows, quad_points) array of c*x + d, at most MAX_ROWS rows, so f2 must act
elementwise on an array of any shape.  The grid goes through in blocks of
rows, and the polish starts run as simplices in lockstep, each round making
one call over the points every live simplex asks for.  Every value is
computed by the same elementwise operations and per-row sums as one row at
a time, so batching moves no bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .histogram import Histogram
from .rational import PoleError


@dataclass
class AffineReparam:
    """Vertical scale/shift (a, b) and horizontal scale/shift (c, d)."""

    a: float = 1.0
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("reparameterization values must be finite")

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


# coarse search grid over the horizontal reparameterization (c, d): 34
# log-spaced scales of either sign in [0.1, 10], 13 shifts across [-3, 3]
_POS_C = np.logspace(-1.0, 1.0, 17)
C_GRID = np.concatenate((-_POS_C[::-1], _POS_C))
D_GRID = np.linspace(-3.0, 3.0, 13)
REFINE_STARTS = 8   # how many best grid cells seed the simplex search
RESTARTS = 2        # simplex re-initializations per start
SIMPLEX_TOL = 1e-8  # relative f-spread at which a simplex counts as converged
# most rows one f2 call evaluates.  All 442 grid cells in one call would take
# ~7 MiB per temporary array and raise the peak memory by tens of MiB.  At
# 2001 nodes, 4 rows make 64 KB temporaries; 8 rows make 128 KB ones, which
# sit at glibc's 128 KiB heap-trim threshold, so their pages were returned
# and faulted in again on most calls.  4 also splits the 8 polish starts'
# points evenly.
MAX_ROWS = 4


@dataclass
class DistanceConfig:
    domain: tuple = (-3.0, 3.0)
    quad_points: int = 2001
    refine_iters: int = 200

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("domain must satisfy lo < hi")
        if self.quad_points < 2:
            raise ValueError("quad_points must be >= 2")


def _nodes_and_weights(domain, quad_points):
    """Trapezoidal nodes and weights over the domain."""
    lo, hi = domain
    xs = np.linspace(lo, hi, quad_points)
    h = (hi - lo) / (quad_points - 1)
    w = np.full(quad_points, h)
    w[0] = w[-1] = h / 2.0
    return xs, w


def integrate_abs_diff(f1, f2, rp: AffineReparam, domain=(-3.0, 3.0),
                       quad_points: int = 2001, weights=None) -> float:
    """Trapezoidal quadrature of |f1(x) - (a f2(cx + d) + b)| over the domain.

    ``weights``, when given, is a density evaluated at the quadrature nodes
    (same length) that multiplies the integrand.
    """
    xs, w = _nodes_and_weights(domain, quad_points)
    y1 = np.asarray(f1(xs), dtype=float)
    y2 = np.asarray(f2(rp.c * xs + rp.d), dtype=float)
    if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))):
        raise ValueError("function values must be finite on the domain")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != xs.shape:
            raise ValueError("weights must match the quadrature nodes")
        w = w * weights
    return float(_gaps(w, y1, np.array([rp.a]), np.array([rp.b]), y2[None])[0])


def _gaps(w, y1, a, b, g) -> np.ndarray:
    """Weighted L1 gaps sum(w * |y1 - (a_i*g_i + b_i)|) of the rows g_i of
    g, one (a_i, b_i) per row; inf where a sum is not finite.

    Works in place on one (rows, nodes) temporary.  Each row takes the same
    elementwise operations and the same pairwise sum as a 1-D row would.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = a[:, None] * g
        r += b[:, None]
        np.subtract(y1, r, out=r)
        np.abs(r, out=r)
        r *= w
        totals = r.sum(axis=1)
    totals[~np.isfinite(totals)] = np.inf
    return totals


def _f2_rows(f2, xs, c, d) -> np.ndarray:
    """f2(c_i*xs + d_i) for every row i in one call.

    When f2 raises PoleError the rows are evaluated one at a time, and a row
    whose own call raises comes back all NaN, which scores as non-finite.
    """
    x = c[:, None] * xs
    x += d[:, None]
    try:
        return np.asarray(f2(x), dtype=float)
    except PoleError:
        pass
    g = np.full(x.shape, np.nan)
    for i, row in enumerate(x):
        try:
            g[i] = f2(row)
        except PoleError:
            pass
    return g


def _point_gaps(f2, xs, w, y1, points) -> np.ndarray:
    """The objective at every row (a, b, c, d) of points, MAX_ROWS rows per
    f2 call; a row on a pole of f2 scores inf."""
    values = np.empty(len(points))
    for lo in range(0, len(points), MAX_ROWS):
        p = points[lo:lo + MAX_ROWS]
        values[lo:lo + MAX_ROWS] = _gaps(w, y1, p[:, 0], p[:, 1],
                                         _f2_rows(f2, xs, p[:, 2], p[:, 3]))
    return values


def _solve_affine_ls(y1, g, w, sw, swy):
    """Weighted least squares for y1 ~ a*g + b; degenerate g falls back to a=0.

    ``sw`` = sum(w) and ``swy`` = w @ y1 do not depend on g, so the caller
    computes them once for every g it solves."""
    swg = float(w @ g)
    swgg = float(w @ (g * g))
    swgy = float(w @ (g * y1))
    det = swgg * sw - swg * swg
    if abs(det) < 1e-30 or sw <= 0.0:
        if sw <= 0.0:
            return 0.0, 0.0
        return 0.0, swy / sw
    a = (sw * swgy - swg * swy) / det
    b = (swgg * swy - swg * swgy) / det
    return a, b


def _grid_cells(f2, xs, w, y1) -> list:
    """(value, index, (a, b, c, d)) of every grid cell with a finite gap, in
    grid order: c outer, d inner.  Cells where f2 is non-finite or hits a
    pole are skipped."""
    sw, swy = float(w.sum()), float(w @ y1)
    cs, ds = np.repeat(C_GRID, D_GRID.size), np.tile(D_GRID, C_GRID.size)
    cells = []
    for lo in range(0, cs.size, MAX_ROWS):
        c, d = cs[lo:lo + MAX_ROWS], ds[lo:lo + MAX_ROWS]
        g = _f2_rows(f2, xs, c, d)
        # a non-finite row keeps (a, b) = (0, 0), so its gap is NaN -> inf
        ab = np.zeros((len(g), 2))
        for i in np.flatnonzero(np.isfinite(g).all(axis=1)):
            ab[i] = _solve_affine_ls(y1, g[i], w, sw, swy)
        vals = _gaps(w, y1, ab[:, 0], ab[:, 1], g)
        for i in np.flatnonzero(np.isfinite(vals)):
            cells.append((vals[i], len(cells), np.array([*ab[i], c[i], d[i]])))
    return cells


def _nelder_mead(x0: np.ndarray, max_iters: int, tol: float):
    """Simplex minimization with scale-invariant stopping, as a generator.

    It yields each (k, 4) array of points whose objective values it needs,
    takes their k values back through send(), and returns the best point
    and its value.  Every move is decided by comparisons of objective values
    and termination uses the relative f-spread of the simplex, so the
    trajectory is identical for fn and c*fn with any constant c > 0.
    """
    ndim = x0.size
    sim = [x0.astype(float)]
    for i in range(ndim):
        v = x0.astype(float).copy()
        v[i] = v[i] * 1.05 if v[i] != 0.0 else 0.00025
        sim.append(v)
    sim = np.asarray(sim)
    fs = yield sim

    for _ in range(max_iters):
        order = fs.argsort(kind="stable")
        sim, fs = sim[order], fs[order]
        if math.isfinite(fs[0]) and math.isfinite(fs[-1]) and fs[-1] - fs[0] <= tol * abs(fs[0]):
            break
        centroid = sim[:-1].sum(axis=0) / ndim
        xr = centroid + (centroid - sim[-1])
        fr, = yield xr[None]
        if fr < fs[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe, = yield xe[None]
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - sim[-1])
            fc, = yield xc[None]
            if fc < min(fr, fs[-1]):
                sim[-1], fs[-1] = xc, fc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fs[1:] = yield sim[1:]
    order = np.argsort(fs, kind="stable")
    return sim[order][0], float(fs[order][0])


def _polish(start: np.ndarray, max_iters: int):
    """Nelder-Mead from start, restarted RESTARTS times at its own result:
    a fresh simplex at the incumbent point recovers from premature simplex
    collapse.  Yields like _nelder_mead; returns every run's (point, value)."""
    runs, point = [], start
    for _ in range(RESTARTS + 1):
        point, val = yield from _nelder_mead(point, max_iters, SIMPLEX_TOL)
        runs.append((point, val))
    return runs


def _minimize(f1, f2, cfg: DistanceConfig, density=None):
    xs, wq = _nodes_and_weights(cfg.domain, cfg.quad_points)
    w = wq if density is None else wq * density
    y1 = np.asarray(f1(xs), dtype=float)
    if not np.all(np.isfinite(y1)):
        raise ValueError("f1 must be finite on the domain")

    cells = _grid_cells(f2, xs, w, y1)
    if not cells:
        raise ValueError("objective is non-finite over the whole search grid")
    # stable sort on value keeps the earliest (lexicographically smallest)
    # grid cell ahead on ties
    cells.sort(key=lambda t: (t[0], t[1]))
    best_val, _, best = cells[0]

    # polish from the few best cells in lockstep: each round evaluates the
    # points every live search asks for together and sends each its values
    searches = [_polish(start, cfg.refine_iters) for _, _, start in cells[:REFINE_STARTS]]
    asks = {k: next(search) for k, search in enumerate(searches)}
    runs = [None] * len(searches)
    while asks:
        values = _point_gaps(f2, xs, w, y1, np.concatenate(list(asks.values())))
        pos = 0
        for k, points in list(asks.items()):
            try:
                asks[k] = searches[k].send(values[pos:pos + len(points)])
            except StopIteration as done:
                runs[k] = done.value
                del asks[k]
            pos += len(points)
    # the winner as if the searches had run one after another: start by
    # start, restart by restart, replacing only on a strict improvement
    for search_runs in runs:
        for point, val in search_runs:
            if val < best_val:
                best_val, best = val, point
    a, b, c, d = best
    return float(best_val), AffineReparam(float(a), float(b), float(c), float(d))


def nd(f1, f2, cfg: DistanceConfig | None = None):
    """Distance from f1 to f2: min over (a,b,c,d) of the weighted L1 gap.

    Returns (value, best reparameterization).  The value is >= 0 and equals
    ~0 exactly when f2 can be affinely reparameterized into f1 on the domain.
    """
    if cfg is None:
        cfg = DistanceConfig()
    return _minimize(f1, f2, cfg)


def nd_sym(f1, f2, cfg: DistanceConfig | None = None) -> float:
    """Symmetrized distance: min(nd(f1, f2), nd(f2, f1))."""
    if cfg is None:
        cfg = DistanceConfig()
    v12, _ = nd(f1, f2, cfg)
    v21, _ = nd(f2, f1, cfg)
    return min(v12, v21)


def density_on_nodes(density, cfg: DistanceConfig) -> np.ndarray:
    """Density values at the quadrature nodes, normalized under the rule.

    Accepts a Histogram (resampled and rescaled so the trapezoid integral is
    exactly 1) or a precomputed array, which must already be normalized to 1
    within 1e-6 under the same rule.
    """
    xs, wq = _nodes_and_weights(cfg.domain, cfg.quad_points)
    if isinstance(density, Histogram):
        rho = density.density(xs)
        mass = float(wq @ rho)
        if mass <= 0.0:
            raise ValueError("density has no mass on the distance domain")
        return rho / mass
    rho = np.asarray(density, dtype=float)
    if rho.shape != xs.shape:
        raise ValueError("density array must match the quadrature nodes")
    if np.any(rho < 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("density must be finite and non-negative")
    mass = float(wq @ rho)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density integrates to {mass}, expected 1 "
                         "under the quadrature rule")
    return rho


def rnd(f1, f2, density, cfg: DistanceConfig | None = None):
    """Density-weighted distance: the integrand is multiplied by rho(x).

    ``density`` is a Histogram or an array of node values integrating to 1.
    Regions the inputs never visit contribute nothing, so two activations
    that only differ where the network never evaluates them come out close.
    """
    if cfg is None:
        cfg = DistanceConfig()
    rho = density_on_nodes(density, cfg)
    return _minimize(f1, f2, cfg, density=rho)

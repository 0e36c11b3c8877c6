import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.distance import (AffineReparam, DistanceConfig, _nodes_and_weights,
                             _point_gaps, density_on_nodes, integrate_abs_diff,
                             nd, nd_sym, rnd)
from ratnet.fitting import ReferenceActivation, sigmoid
from ratnet.histogram import Histogram
from ratnet.rational import RAW, RationalFunction

from conftest import random_rational

IDENTITY = lambda x: x + 0.0
RELU = lambda x: np.maximum(x, 0.0)
# x^2 / x as a raw rational: Q = x is exactly 0 at the quadrature node x = 0,
# so every grid cell with d = 0 hits the pole
POLE_AT_ZERO = RationalFunction([0.0, 0.0, 1.0], [0.0, 1.0], RAW)


def small_cfg(**kw):
    return DistanceConfig(quad_points=kw.pop("quad_points", 501), **kw)


class TestDistanceConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"refine_iters": -1}, "refine_iters"),
        ({"refine_iters": 2.5}, "refine_iters"),
        ({"refine_iters": float("nan")}, "refine_iters"),
        ({"refine_iters": float("inf")}, "refine_iters"),
        ({"quad_points": 300.5}, "quad_points"),
        ({"quad_points": 301.0}, "quad_points"),
        ({"quad_points": 1}, "quad_points"),
        ({"domain": (-np.inf, 3.0)}, "domain"),
        ({"domain": (-3.0, np.inf)}, "domain"),
        ({"domain": (-1e308, 1e308)}, "domain"),
        ({"domain": (np.nan, 3.0)}, "domain"),
    ])
    def test_unusable_values_rejected(self, kwargs, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=field):
                DistanceConfig(**kwargs)

    def test_whole_values_accepted(self):
        cfg = DistanceConfig(quad_points=np.int64(11), refine_iters=0)
        assert nd(np.tanh, np.tanh, cfg)[0] <= 1e-12
        DistanceConfig(refine_iters=20.0)


class TestIntegrateAbsDiff:
    @pytest.mark.parametrize("kwargs, field", [
        ({"domain": (3.0, -3.0)}, "domain"),
        ({"quad_points": 1}, "quad_points"),
        ({"quad_points": 300.5}, "quad_points"),
    ])
    def test_unusable_grid_rejected(self, kwargs, field):
        # the same rule as DistanceConfig's: a reversed domain used to give
        # a negative integral of an absolute value
        with pytest.raises(ValueError, match=field):
            integrate_abs_diff(np.tanh, np.tanh, AffineReparam(a=2.0), **kwargs)

    def test_zero_for_identical(self):
        rp = AffineReparam()
        assert integrate_abs_diff(IDENTITY, IDENTITY, rp, domain=(-1, 1)) == 0.0

    def test_constant_integrand(self):
        # |x - (x + 1)| = 1 over [0, 1]
        rp = AffineReparam(a=1.0, b=1.0, c=1.0, d=0.0)
        val = integrate_abs_diff(IDENTITY, IDENTITY, rp, domain=(0, 1), quad_points=2)
        assert val == pytest.approx(1.0)

    def test_quadratic_against_closed_form(self):
        # |x^2 - 2 x^2| = x^2; integral over [0, 1] is 1/3, trapezoid error
        # is bounded by (hi-lo) h^2 max|f''| / 12 = h^2 / 6
        sq = lambda x: x * x
        n = 101
        h = 1.0 / (n - 1)
        val = integrate_abs_diff(sq, sq, AffineReparam(a=2.0), domain=(0, 1),
                                 quad_points=n)
        # the bound is exactly attained for a quadratic, so allow rounding
        assert abs(val - 1.0 / 3.0) <= h * h / 6.0 + 1e-12

    def test_quadrature_convergence(self):
        sq = lambda x: x * x
        rp = AffineReparam(a=2.0)
        prev = integrate_abs_diff(sq, sq, rp, domain=(0, 1), quad_points=51)
        prev_bound = (1.0 / 50) ** 2 / 6.0
        fine = integrate_abs_diff(sq, sq, rp, domain=(0, 1), quad_points=101)
        assert abs(fine - prev) <= prev_bound

    def test_nonfinite_rejected(self):
        bad = lambda x: np.where(x > 0, np.inf, x)
        with pytest.raises(ValueError):
            integrate_abs_diff(bad, IDENTITY, AffineReparam(), domain=(-1, 1))


class TestNd:
    def test_self_distance_vanishes(self):
        val, rp = nd(np.tanh, np.tanh, small_cfg())
        assert 0.0 <= val <= 1e-6

    def test_self_distance_recovers_identity_reparam(self):
        # an asymmetric function has no competing mirror solution, so the
        # identity reparameterization is the unique argmin
        silu = lambda x: x / (1.0 + np.exp(-np.clip(x, -500, 500)))
        val, rp = nd(silu, silu, small_cfg())
        assert val <= 1e-6
        assert (rp.a, rp.b, rp.c, rp.d) == pytest.approx((1.0, 0.0, 1.0, 0.0),
                                                         abs=1e-6)

    def test_affine_pair_recovered(self):
        f2 = lambda x: 2.0 * np.tanh(3.0 * x - 1.0) + 5.0
        val, rp = nd(np.tanh, f2, DistanceConfig())
        assert val <= 1e-3
        # the recovered reparameterization maps f2 back onto tanh (oddness
        # makes the solution two-fold, so check the mapping, not the values)
        xs = np.linspace(-3, 3, 601)
        mapped = rp.a * f2(rp.c * xs + rp.d) + rp.b
        assert np.max(np.abs(mapped - np.tanh(xs))) <= 1e-3

    def test_relu_identity_matches_bruteforce(self):
        val, _ = nd(RELU, IDENTITY, DistanceConfig())
        # independent dense 4-D grid search oracle
        xs = np.linspace(-3, 3, 801)
        h = 6.0 / 800
        w = np.full(801, h)
        w[0] = w[-1] = h / 2
        y1 = np.maximum(xs, 0.0)
        best = np.inf
        for a in np.linspace(-2, 2, 21):
            for b in np.linspace(-2, 2, 21):
                for c in np.linspace(-2, 2, 21):
                    for d in np.linspace(-2, 2, 11):
                        cand = float(w @ np.abs(y1 - (a * (c * xs + d) + b)))
                        best = min(best, cand)
        assert val <= best  # the solver includes a least-squares inner step
        assert abs(val - best) / best <= 0.05

    def test_value_nonnegative(self, rng):
        for _ in range(5):
            f = random_rational(rng, 4, 3)
            g = random_rational(rng, 4, 3)
            val, _ = nd(f, g, small_cfg())
            assert val >= 0.0

    def test_random_affine_invariance(self, rng):
        # 20 random (function, reparameterization) pairs with |c| >= 0.1;
        # draws keep the inverse reparameterization inside the default
        # search region, since a fixed coarse grid cannot cover every shift
        for _ in range(20):
            f = random_rational(rng, 5, 4)
            a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            b = float(rng.uniform(-1.0, 1.0))
            c = float(rng.uniform(1.0 / 3.0, 3.0) * rng.choice([-1.0, 1.0]))
            d = float(rng.uniform(-1.0, 1.0))
            f2 = lambda x, f=f, a=a, b=b, c=c, d=d: a * f(c * x + d) + b
            val, _ = nd(f, f2, DistanceConfig())
            assert val <= 1e-3

    def test_refinement_never_worse_than_grid(self):
        # with zero refinement iterations the value is the best grid value;
        # refinement can only improve it
        coarse, _ = nd(np.tanh, RELU, small_cfg(refine_iters=0))
        refined, _ = nd(np.tanh, RELU, small_cfg(refine_iters=200))
        assert refined <= coarse


class TestNdSym:
    def test_self(self):
        assert nd_sym(np.tanh, np.tanh, small_cfg()) <= 1e-6

    def test_exact_symmetry(self):
        cfg = small_cfg()
        assert nd_sym(np.tanh, RELU, cfg) == nd_sym(RELU, np.tanh, cfg)

    def test_sigmoid_tanh_equivalent(self):
        # tanh(x) = 2 sigmoid(2x) - 1
        sigmoid = lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
        assert nd_sym(sigmoid, np.tanh, DistanceConfig()) <= 1e-2


class TestRnd:
    def test_uniform_density_equals_nd_over_length(self):
        cfg = DistanceConfig()
        rho = np.full(cfg.quad_points, 1.0 / 6.0)
        v_plain, _ = nd(np.tanh, RELU, cfg)
        v_weighted, _ = rnd(np.tanh, RELU, rho, cfg)
        assert abs(v_weighted - v_plain / 6.0) <= 1e-9

    def test_density_concentrated_where_functions_agree(self, rng):
        # relu and identity coincide on [0, 3]; a histogram that only ever
        # saw positive inputs makes them equivalent
        hist = Histogram(lo=-3.0, hi=3.0, bin_count=64)
        hist.observe(rng.uniform(0.5, 2.9, 2000))
        val, _ = rnd(RELU, IDENTITY, hist, DistanceConfig())
        assert val <= 1e-3

    def test_self_distance_any_density(self, rng):
        hist = Histogram(lo=-3.0, hi=3.0, bin_count=64)
        hist.observe(rng.normal(0, 1, 500))
        val, _ = rnd(np.tanh, np.tanh, hist, small_cfg())
        assert val <= 1e-6

    def test_unnormalized_array_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            rnd(np.tanh, np.tanh, np.full(cfg.quad_points, 1.0), cfg)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            rnd(np.tanh, np.tanh, Histogram(), small_cfg())

    def test_histogram_density_normalized_on_nodes(self, rng):
        hist = Histogram(lo=-3.0, hi=3.0, bin_count=32)
        hist.observe(rng.normal(0, 1.5, 1000))
        cfg = small_cfg()
        rho = density_on_nodes(hist, cfg)
        xs = np.linspace(*cfg.domain, cfg.quad_points)
        h = (cfg.domain[1] - cfg.domain[0]) / (cfg.quad_points - 1)
        w = np.full(cfg.quad_points, h)
        w[0] = w[-1] = h / 2
        assert float(w @ rho) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.2, 2), st.floats(-2, 2),
       st.floats(0.4, 2), st.floats(-0.8, 0.8))
@settings(max_examples=15, deadline=None)
def test_nd_invariance_property(a, b, c, d):
    # a and c bounded away from 0: a degenerate vertical scale collapses f2
    # to a constant that cannot be reparameterized back into tanh
    f2 = lambda x: a * np.tanh(c * x + d) + b
    val, _ = nd(np.tanh, f2, DistanceConfig(quad_points=301))
    assert val <= 1e-3


def golden_runs():
    """name -> the distance call whose bits GOLDEN holds.  The functions
    come from one seeded generator in a fixed order."""
    rng = np.random.default_rng(2024)
    sf, sg = random_rational(rng, 5, 4), random_rational(rng, 5, 4)
    rf, rg = random_rational(rng, 5, 4, RAW), random_rational(rng, 5, 4, RAW)
    hist = Histogram(lo=-3.0, hi=3.0, bin_count=64)
    hist.observe(rng.normal(0.3, 1.2, 2000))
    lrelu = ReferenceActivation("lrelu")
    relu = ReferenceActivation("relu")
    small = DistanceConfig(domain=(-2.0, 4.0), quad_points=101, refine_iters=50)
    return {
        "safe_nd": lambda: nd(sf, sg),
        "safe_rnd": lambda: rnd(sf, sg, hist),
        "raw_nd": lambda: nd(rf, rg),
        "raw_rnd": lambda: rnd(rg, rf, hist),
        "tanh_sigmoid": lambda: nd(np.tanh, sigmoid),
        "lrelu_relu": lambda: nd(lrelu, relu),
        "small_cfg": lambda: nd(sf, np.tanh, small),
        "pole": lambda: nd(np.tanh, POLE_AT_ZERO),
    }


# float.hex of (value, (a, b, c, d)) as the one-simplex-at-a-time search
# with one f2 call per point computed them; the lockstep search must match
GOLDEN = {
    "safe_nd": ('0x1.2125e780228fcp+0', ('0x1.1ec97b16ae2d2p+1', '0x1.4b877ee3e79bap+2',
                                         '-0x1.79e37ba284a2ap-2', '-0x1.aa22927dd1564p+0')),
    "safe_rnd": ('0x1.056a5b864cc0fp-3', ('0x1.d750d11dda2d6p+0', '0x1.1e4161cda0bc0p+2',
                                          '-0x1.05660185923e6p-1', '-0x1.d46107609325fp+0')),
    "raw_nd": ('0x1.49ab27815103fp+2', ('-0x1.ac2829d94d426p+3', '-0x1.83b3be339c8a2p+2',
                                        '-0x1.884efe25aa695p-3', '0x1.7cde4088e84a2p-2')),
    "raw_rnd": ('0x1.a532251c3801ep+2', ('-0x1.749fb29a98c2dp+1', '-0x1.718bf3a258309p+1',
                                         '0x1.0f89ff52050f2p-3', '0x1.48d38a2ef38ecp-2')),
    "tanh_sigmoid": ('0x1.99d26e560418ap-39', ('0x1.0000000000713p+1', '-0x1.0000000000314p+0',
                                               '0x1.fffffffff9c8ap+0', '-0x1.51fb14160a240p-43')),
    "lrelu_relu": ('0x1.6ec9265dfaafdp-6', ('0x1.874ad57a95a52p+2', '-0x1.ee781efef8536p-7',
                                            '0x1.4ef8d9d9a9e21p-3', '0x1.4380b0d01d7cap-9')),
    "small_cfg": ('0x1.df6ce19fe2819p+0', ('0x1.f7084f389efe2p+8', '0x1.f58c368d85361p+8',
                                           '-0x1.ddaea56eabca4p-3', '-0x1.90cb5cf9c9dedp+1')),
    "pole": ('0x1.26aebb990d552p+0', ('-0x1.d2e748938ef7ap-2', '0x1.d84123b4f2607p-3',
                                      '-0x1.0134ec54c7f2ep+0', '0x1.02ef194778e6bp-1')),
}


class TestLockstepSearch:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bits(self, name):
        value, rp = golden_runs()[name]()
        got = (float(value).hex(), tuple(float(v).hex() for v in (rp.a, rp.b, rp.c, rp.d)))
        assert got == GOLDEN[name]

    def test_pole_scores_only_its_own_row(self):
        # 11 points span two f2 calls; the pole rows map the node x = 0 to 0
        xs, w = _nodes_and_weights((-3.0, 3.0), 2001)
        y1 = np.tanh(xs)
        points = np.random.default_rng(5).uniform(0.5, 1.5, (11, 4))
        points[[2, 9], 3] = 0.0
        values = _point_gaps(POLE_AT_ZERO, xs, w, y1, points)
        assert values[2] == values[9] == np.inf
        for i in set(range(11)) - {2, 9}:
            a, b, c, d = points[i]
            one_row = float((w * np.abs(y1 - (a * POLE_AT_ZERO(c * xs + d) + b))).sum())
            assert values[i] == one_row

    def test_no_reference_cycles(self):
        # a search that leaves cycles keeps its (rows, nodes) temporaries
        # alive until the cyclic collector runs
        cfg = small_cfg(refine_iters=20)
        gc.collect()
        gc.disable()
        try:
            nd(np.tanh, POLE_AT_ZERO, cfg)
            rnd(np.tanh, RELU, np.full(cfg.quad_points, 1.0 / 6.0), cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.algebra import (absorb_residual, compose, normalize, poly_add,
                            poly_mul, poly_trim, safe_to_raw)
from ratnet.rational import RAW, SAFE, RationalFunction, eval_batch, polyval

from conftest import random_rational

GRID = np.linspace(-2.0, 2.0, 401)


def guarded_eval(rf, xs, q_floor=1e-3):
    """Evaluate a raw rational on the grid points where |Q| >= q_floor."""
    q = polyval(rf.denominator, xs)
    mask = np.abs(q) >= q_floor
    vals = np.full(xs.shape, np.nan)
    vals[mask] = polyval(rf.numerator, xs[mask]) / q[mask]
    return vals, mask


class TestPolyOps:
    def test_add(self):
        assert poly_add([1, 1], [0, 0, 1]).tolist() == [1, 1, 1]

    def test_mul(self):
        assert poly_mul([0, 1], [0, 1]).tolist() == [0, 0, 1]

    def test_trim(self):
        assert poly_trim([1.0, 2.0, 0.0, 0.0]).tolist() == [1.0, 2.0]
        assert poly_trim([0.0, 0.0]).tolist() == [0.0]

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_pointwise(self, p, q, x):
        lhs = float(polyval(poly_mul(p, q), x))
        rhs = float(polyval(np.asarray(p), x) * polyval(np.asarray(q), x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestAbsorbResidual:
    def test_identity_becomes_two_x(self):
        rf = RationalFunction([0.0, 1.0], [1.0], RAW)
        out = absorb_residual(rf)
        assert out.numerator.tolist() == [0.0, 2.0]
        assert out.denominator.tolist() == [1.0]

    def test_inverse_linear(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)  # 1 / (1 + x)
        out = absorb_residual(rf)
        assert out.numerator.tolist() == [1.0, 1.0, 1.0]
        assert out.denominator.tolist() == [1.0, 1.0]

    def test_safe_variant_rejected(self):
        with pytest.raises(ValueError):
            absorb_residual(RationalFunction([0.0, 1.0], [0.5], SAFE))

    def test_numerator_degree_is_max(self, rng):
        for _ in range(50):
            m = int(rng.integers(0, 7))
            n = int(rng.integers(0, 6))
            rf = random_rational(rng, m, n, RAW)
            out = absorb_residual(rf)
            assert out.numerator.size - 1 == max(m, n + 1)

    def test_pointwise_grid_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(0, 7))
            n = int(rng.integers(0, 6))
            rf = RationalFunction(rng.uniform(-1, 1, m + 1),
                                  rng.uniform(-1, 1, n + 1), RAW)
            direct, mask = guarded_eval(rf, GRID)
            got, mask2 = guarded_eval(absorb_residual(rf), GRID)
            both = mask & mask2
            if not both.any():
                continue
            worst = max(worst, float(np.max(np.abs(
                got[both] - (direct[both] + GRID[both])))))
        assert worst <= 1e-9

    def test_twice_adds_two_x(self, rng):
        for _ in range(30):
            rf = random_rational(rng, int(rng.integers(0, 7)),
                                 int(rng.integers(0, 6)), RAW)
            twice = absorb_residual(absorb_residual(rf))
            direct, mask = guarded_eval(rf, GRID)
            got, mask2 = guarded_eval(twice, GRID)
            both = mask & mask2
            assert np.max(np.abs(got[both] - (direct[both] + 2 * GRID[both]))) <= 1e-8


class TestCompose:
    def test_square_of_shift(self):
        outer = RationalFunction([0.0, 0.0, 1.0], [1.0], RAW)  # x^2
        inner = RationalFunction([1.0, 1.0], [1.0], RAW)       # x + 1
        out = compose(outer, inner)
        assert out.numerator.tolist() == [1.0, 2.0, 1.0]
        assert out.denominator.tolist() == [1.0]

    def test_reciprocal_of_square(self):
        outer = RationalFunction([1.0], [0.0, 1.0], RAW)       # 1 / x
        inner = RationalFunction([0.0, 0.0, 1.0], [1.0], RAW)  # x^2
        out = compose(outer, inner)
        assert out.numerator.tolist() == [1.0]
        assert out.denominator.tolist() == [0.0, 0.0, 1.0]

    def test_safe_variant_rejected(self):
        safe = RationalFunction([0.0, 1.0], [0.5], SAFE)
        raw = RationalFunction([0.0, 1.0], [1.0], RAW)
        with pytest.raises(ValueError):
            compose(safe, raw)
        with pytest.raises(ValueError):
            compose(raw, safe)

    def test_pointwise_grid_oracle(self, rng):
        # Guards: besides the |Q| >= 1e-3 pole exclusions on every
        # denominator in sight, points are dropped when the inner value or
        # the composed value is huge or when the composed Horner evaluation
        # is ill-conditioned; those are all pole neighborhoods where a
        # float64 absolute comparison at 1e-8 stops being meaningful.
        worst = 0.0
        kept = 0
        for _ in range(100):
            outer = RationalFunction(rng.uniform(-1, 1, rng.integers(0, 7) + 1),
                                     rng.uniform(-1, 1, rng.integers(0, 6) + 1), RAW)
            inner = RationalFunction(rng.uniform(-1, 1, rng.integers(0, 7) + 1),
                                     rng.uniform(-1, 1, rng.integers(0, 6) + 1), RAW)
            q2 = polyval(inner.denominator, GRID)
            mask = np.abs(q2) >= 1e-3
            iv = np.where(mask, polyval(inner.numerator, GRID) / np.where(mask, q2, 1.0), np.inf)
            mask &= np.abs(iv) <= 1e3
            ivs = np.where(mask, iv, 0.0)
            q1i = polyval(outer.denominator, ivs)
            mask &= np.abs(q1i) >= 1e-3
            direct = polyval(outer.numerator, ivs) / np.where(mask, q1i, 1.0)
            mask &= np.abs(direct) <= 1e3
            comp = compose(outer, inner)
            nc = polyval(comp.numerator, GRID)
            dc = polyval(comp.denominator, GRID)
            mask &= np.abs(dc) >= 1e-3
            mask &= polyval(np.abs(comp.numerator), np.abs(GRID)) <= 1e5 * np.abs(nc)
            mask &= polyval(np.abs(comp.denominator), np.abs(GRID)) <= 1e5 * np.abs(dc)
            if not mask.any():
                continue
            got = nc[mask] / dc[mask]
            worst = max(worst, float(np.max(np.abs(got - direct[mask]))))
            kept += int(mask.sum())
        assert worst <= 1e-8
        assert kept > 10000  # the guards must keep the oracle non-vacuous


class TestNormalize:
    def test_constant(self):
        out = normalize(RationalFunction([2.0], [2.0], RAW))
        assert out.numerator.tolist() == [1.0]
        assert out.denominator.tolist() == [1.0]

    def test_linear(self):
        out = normalize(RationalFunction([0.0, 4.0], [2.0, 2.0], RAW))
        assert out.numerator.tolist() == [0.0, 2.0]
        assert out.denominator.tolist() == [1.0, 1.0]

    def test_zero_b0_rejected(self):
        with pytest.raises(ValueError):
            normalize(RationalFunction([1.0], [0.0, 1.0], RAW))

    def test_pointwise_preservation(self, rng):
        for _ in range(30):
            rf = random_rational(rng, int(rng.integers(0, 7)),
                                 int(rng.integers(0, 6)), RAW)
            out = normalize(rf)
            direct, mask = guarded_eval(rf, GRID)
            got, mask2 = guarded_eval(out, GRID)
            both = mask & mask2
            scale = np.maximum(np.abs(direct[both]), 1.0)
            assert np.max(np.abs(got[both] - direct[both]) / scale) <= 1e-12


class TestSafeToRaw:
    def test_nonnegative_inner_sum(self):
        rf = RationalFunction([0.0, 1.0], [0.0, 0.5], SAFE)  # S = 0.5 x^2 >= 0
        raw = safe_to_raw(rf)
        assert raw.variant == RAW
        assert raw.denominator.tolist() == [1.0, 0.0, 0.5]
        xs = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(eval_batch(raw, xs), eval_batch(rf, xs), rtol=1e-12)

    def test_nonpositive_inner_sum(self):
        rf = RationalFunction([1.0, 1.0], [0.0, -0.25], SAFE)  # S = -x^2/4 <= 0
        raw = safe_to_raw(rf)
        assert raw.denominator.tolist() == [1.0, 0.0, 0.25]
        xs = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(eval_batch(raw, xs), eval_batch(rf, xs), rtol=1e-12)

    def test_zero_inner_sum(self):
        rf = RationalFunction([0.0, 1.0], [0.0, 0.0], SAFE)
        raw = safe_to_raw(rf)
        assert raw.denominator.tolist() == [1.0]

    def test_sign_change_rejected(self):
        rf = RationalFunction([0.0, 1.0], [1.0], SAFE)  # S = x changes sign
        with pytest.raises(ValueError):
            safe_to_raw(rf)

    def test_sign_change_between_grid_points_rejected(self):
        # S = x^2 ((x - 0.5025)^2 - 0.001^2) is negative only on
        # (0.5015, 0.5035), which falls between the points of a 2001-point
        # grid over [-3, 3] (0.501 and 0.504)
        b = [0.0, 0.5025**2 - 0.001**2, -1.005, 1.0]
        rf = RationalFunction([0.0, 1.0], b, SAFE)
        assert polyval(np.asarray(b), 0.5025) * 0.5025 < 0.0
        with pytest.raises(ValueError):
            safe_to_raw(rf)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_even_order_root_accepted(self, r, c, sign):
        # S = sign * c * x^2 (x - r)^2 touches zero without crossing it
        s = sign * c * np.convolve([0.0, 0.0, 1.0], np.convolve([-r, 1.0], [-r, 1.0]))
        rf = RationalFunction([0.5, 1.0], s[1:], SAFE)
        raw = safe_to_raw(rf)
        xs = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(eval_batch(raw, xs), eval_batch(rf, xs), rtol=1e-12)

    def test_raw_input_rejected(self):
        with pytest.raises(ValueError):
            safe_to_raw(RationalFunction([0.0, 1.0], [1.0], RAW))

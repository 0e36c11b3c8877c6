import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.network import ActivationSlot
from ratnet.rational import (RAW, SAFE, PoleError, RationalFunction,
                             coeff_jacobian, coeff_powers, dq_dt, eval_batch,
                             eval_parts, evaluate, grad_coeffs, grad_coeffs_batch,
                             grad_input, grad_input_batch, init_identity,
                             power_matrix)

from conftest import central_diff, random_rational


class TestInitIdentity:
    def test_default_degrees(self):
        rf = init_identity(5, 4)
        assert rf.numerator.tolist() == [0, 1, 0, 0, 0, 0]
        assert rf.denominator.tolist() == [0, 0, 0, 0]
        assert evaluate(rf, 7.3) == 7.3

    def test_minimal_degrees(self):
        rf = init_identity(1, 0)
        assert rf.numerator.tolist() == [0, 1]
        assert evaluate(rf, -2.0) == -2.0

    def test_raw_variant_gets_unit_b0(self):
        rf = init_identity(2, 1, variant=RAW)
        assert rf.denominator.tolist() == [1, 0]
        assert evaluate(rf, 3.5) == 3.5

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            init_identity(0, 4)

    def test_identity_on_grid_is_exact(self):
        rf = init_identity(5, 4)
        xs = np.linspace(-10, 10, 1001)
        assert np.max(np.abs(eval_batch(rf, xs) - xs)) <= 1e-12

    def test_identity_gradient_is_one(self):
        rf = init_identity(5, 4)
        for x in np.linspace(-10, 10, 101):
            assert abs(grad_input(rf, x) - 1.0) <= 1e-10


class TestEval:
    def test_raw_simple_pole_function(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)  # 1 / (1 + x)
        assert evaluate(rf, 1.0) == 0.5

    def test_safe_denominator_uses_abs(self):
        rf = RationalFunction([0.0, 1.0], [-1.0], SAFE)  # x / (1 + |-x|)
        assert evaluate(rf, -2.0) == pytest.approx(-2.0 / 3.0)

    def test_raw_pole_raises(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)
        with pytest.raises(PoleError):
            evaluate(rf, -1.0)

    def test_deterministic_bitwise(self, rng):
        rf = random_rational(rng, 5, 4)
        xs = rng.uniform(-3, 3, 100)
        assert np.array_equal(eval_batch(rf, xs), eval_batch(rf, xs))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_safe_eval_always_finite(self, xs, seed):
        rf = random_rational(np.random.default_rng(seed), 5, 4, scale=3.0)
        assert np.all(np.isfinite(eval_batch(rf, np.array(xs))))

    def test_nonfinite_input_rejected(self):
        rf = init_identity(1, 0)
        with pytest.raises(ValueError):
            evaluate(rf, np.inf)

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            RationalFunction([np.nan, 1.0], [0.0], SAFE)


class TestEvalBatch:
    def test_identity_passthrough(self):
        rf = init_identity(5, 4)
        assert eval_batch(rf, [-1.0, 0.0, 2.0]).tolist() == [-1.0, 0.0, 2.0]

    def test_pole_error_carries_index(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)
        with pytest.raises(PoleError) as err:
            eval_batch(rf, [0.0, -1.0, 2.0])
        assert err.value.index == 1
        assert err.value.x == -1.0


class TestGradInput:
    def test_square_power_rule(self):
        rf = RationalFunction([0.0, 0.0, 1.0], [1.0], RAW)  # x^2
        assert grad_input(rf, 3.0) == 6.0

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(0, 5))
            variant = SAFE if rng.random() < 0.5 else RAW
            rf = random_rational(rng, m, n, variant)
            count = 0
            for x in rng.uniform(-3, 3, 400):
                q, t = _den_parts(rf, x)
                # near a raw pole the FD truncation error itself blows up, so
                # the oracle is only meaningful away from it; the safe guard
                # avoids the |.| kink where the subgradient is a convention
                if abs(q) < 1e-1:
                    continue
                if _at_kink(rf, t):
                    continue
                expected = central_diff(lambda v: evaluate(rf, v), x)
                got = grad_input(rf, x)
                assert got == pytest.approx(expected, rel=1e-5, abs=1e-9)
                count += 1
                if count >= 100:
                    break
            assert count >= 50  # the guard must not consume the sample


class TestGradCoeffs:
    def test_identity_safe_at_two(self):
        rf = init_identity(5, 4)
        d_num, d_den = grad_coeffs(rf, 2.0)
        assert d_num.tolist() == [1, 2, 4, 8, 16, 32]
        # the inner sum is 0 at the identity, so the kink subgradient kills
        # every denominator component
        assert np.all(d_den == 0.0)

    def test_raw_direct_substitution(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)
        d_num, d_den = grad_coeffs(rf, 1.0)
        assert d_num.tolist() == [0.5]
        assert d_den.tolist() == [-0.25, -0.25]

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(0, 5))
            variant = SAFE if rng.random() < 0.5 else RAW
            rf = random_rational(rng, m, n, variant)
            x = float(rng.uniform(-3, 3))
            q, t = _den_parts(rf, x)
            if abs(q) < 1e-2 or _at_kink(rf, t):
                continue
            d_num, d_den = grad_coeffs(rf, x)
            for j in range(rf.numerator.size):
                def f(v, j=j):
                    num = rf.numerator.copy()
                    num[j] = v
                    return evaluate(RationalFunction(num, rf.denominator, rf.variant), x)
                assert d_num[j] == pytest.approx(
                    central_diff(f, rf.numerator[j]), rel=1e-5, abs=1e-9)
            for k in range(rf.denominator.size):
                def f(v, k=k):
                    den = rf.denominator.copy()
                    den[k] = v
                    return evaluate(RationalFunction(rf.numerator, den, rf.variant), x)
                assert d_den[k] == pytest.approx(
                    central_diff(f, rf.denominator[k]), rel=1e-5, abs=1e-9)

    def test_batch_accumulation_matches_pointwise(self, rng):
        rf = random_rational(rng, 4, 3)
        xs = rng.uniform(-2, 2, 50)
        upstream = rng.normal(size=50)
        d_num, d_den = grad_coeffs_batch(rf, xs, upstream)
        ref_num = np.zeros_like(rf.numerator)
        ref_den = np.zeros_like(rf.denominator)
        for x, u in zip(xs, upstream):
            dn, dd = grad_coeffs(rf, x)
            ref_num += u * dn
            ref_den += u * dd
        np.testing.assert_allclose(d_num, ref_num, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_den, ref_den, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("variant", [RAW, SAFE])
    @pytest.mark.parametrize("n", [0, 3])
    def test_jacobian_contracts_to_batch_gradient(self, rng, variant, n):
        rf = random_rational(rng, 4, n, variant)
        xs = rng.uniform(-2, 2, 50)
        u = rng.normal(size=50)
        jac = coeff_jacobian(rf, xs, coeff_powers(rf, xs))
        assert jac.shape == (50, rf.numerator.size + rf.denominator.size)
        np.testing.assert_allclose(u @ jac, np.concatenate(grad_coeffs_batch(rf, xs, u)),
                                   rtol=1e-12, atol=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPowerMatrix:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("x", [
        np.zeros(0),
        np.array([0.0, -0.0, -1.5, 2.0, -3.25, 1e-3, -7.0]),
        # the higher powers overflow to inf of both signs
        np.array([1e50, -1e50, 3e200, -2e300, 1.0]),
        np.random.default_rng(0).normal(scale=3.0, size=500),
    ], ids=["empty", "zeros_and_negatives", "overflow", "random"])
    def test_bitwise_equals_vander(self, k, x):
        with np.errstate(over="ignore"):
            got = power_matrix(x, k)
            want = np.vander(x, k, increasing=True)
        assert _same_bits(got, want)


class TestForwardParts:
    """Gradients given the forward's (p, q, t), and the dQ/dT taken from
    them once, are the gradients without them, bit for bit."""

    @pytest.mark.parametrize("variant", [RAW, SAFE])
    def test_parts_path_matches_wrappers(self, rng, variant):
        rf = random_rational(rng, 5, 4, variant)
        z = rng.normal(size=(32, 16))
        u = rng.normal(size=(32, 16))
        value, parts = eval_parts(rf, z)
        dq = dq_dt(rf, parts[2])
        assert _same_bits(value, eval_batch(rf, z))
        for got, got_dq, want in zip(grad_coeffs_batch(rf, z, u, parts),
                                     grad_coeffs_batch(rf, z, u, parts, dq),
                                     grad_coeffs_batch(rf, z, u)):
            assert _same_bits(got, want) and _same_bits(got_dq, want)
        assert _same_bits(grad_input_batch(rf, z, parts), grad_input_batch(rf, z))
        assert _same_bits(grad_input_batch(rf, z, parts, dq), grad_input_batch(rf, z))
        slot = ActivationSlot("r", rf)
        value, slot_parts = slot.apply(z)
        assert _same_bits(value, rf(z))
        assert _same_bits(slot.input_grad(z, slot_parts), slot.input_grad(z))
        assert _same_bits(slot.input_grad(z, slot_parts, dq), slot.input_grad(z))


def _den_parts(rf, x):
    """(Q(x), T(x)) for the denominator's polynomial part T."""
    from ratnet.rational import _denominator_parts
    q, t = _denominator_parts(rf, np.asarray(float(x)))
    return float(q), float(t)


def _at_kink(rf, t):
    """A safe T near zero, where d|T|/dT is a convention; an empty safe
    denominator has T = 0 everywhere and no kink."""
    return rf.variant == SAFE and rf.denominator.size > 0 and abs(t) < 1e-6


def test_json_roundtrip(rng):
    rf = random_rational(rng, 5, 4, RAW)
    back = RationalFunction.from_dict(rf.to_dict())
    assert back.variant == rf.variant
    assert np.array_equal(back.numerator, rf.numerator)
    assert np.array_equal(back.denominator, rf.denominator)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet import fitting, rational
from ratnet.network import ActivationSlot
from ratnet.fitting import ReferenceActivation
from ratnet.rational import (RAW, SAFE, Evaluation, PoleError, RationalFunction,
                             coeff_powers, eval_batch, grad_coeffs,
                             grad_coeffs_batch, grad_input, grad_input_batch,
                             init_identity, polyval, power_matrix)

from conftest import central_diff, random_rational


class TestInitIdentity:
    def test_default_degrees(self):
        rf = init_identity(5, 4)
        assert rf.numerator.tolist() == [0, 1, 0, 0, 0, 0]
        assert rf.denominator.tolist() == [0, 0, 0, 0]
        assert eval_batch(rf, 7.3) == 7.3

    def test_minimal_degrees(self):
        rf = init_identity(1, 0)
        assert rf.numerator.tolist() == [0, 1]
        assert eval_batch(rf, -2.0) == -2.0

    def test_raw_variant_gets_unit_b0(self):
        rf = init_identity(2, 1, variant=RAW)
        assert rf.denominator.tolist() == [1, 0]
        assert eval_batch(rf, 3.5) == 3.5

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
        assert eval_batch(rf, 1.0) == 0.5

    def test_safe_denominator_uses_abs(self):
        rf = RationalFunction([0.0, 1.0], [-1.0], SAFE)  # x / (1 + |-x|)
        assert eval_batch(rf, -2.0) == pytest.approx(-2.0 / 3.0)

    def test_raw_pole_raises(self):
        rf = RationalFunction([1.0], [1.0, 1.0], RAW)
        with pytest.raises(PoleError):
            eval_batch(rf, -1.0)

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
            eval_batch(rf, np.inf)

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
                expected = central_diff(lambda v: float(eval_batch(rf, v)), x)
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
                    return float(eval_batch(RationalFunction(num, rf.denominator, rf.variant), x))
                assert d_num[j] == pytest.approx(
                    central_diff(f, rf.numerator[j]), rel=1e-5, abs=1e-9)
            for k in range(rf.denominator.size):
                def f(v, k=k):
                    den = rf.denominator.copy()
                    den[k] = v
                    return float(eval_batch(RationalFunction(rf.numerator, den, rf.variant), x))
                assert d_den[k] == pytest.approx(
                    central_diff(f, rf.denominator[k]), rel=1e-5, abs=1e-9)

    def test_batch_accumulation_matches_pointwise(self, rng):
        rf = random_rational(rng, 4, 3)
        xs = rng.uniform(-2, 2, 50)
        upstream = rng.normal(size=50)
        d_num, d_den = grad_coeffs_batch(Evaluation(rf, xs), upstream)
        ref_num = np.zeros_like(rf.numerator)
        ref_den = np.zeros_like(rf.denominator)
        for x, u in zip(xs, upstream):
            dn, dd = grad_coeffs(rf, x)
            ref_num += u * dn
            ref_den += u * dd
        np.testing.assert_allclose(d_num, ref_num, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_den, ref_den, rtol=1e-12, atol=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _polyval_from_constant(coeffs, x):
    """Horner from a constant array holding the leading coefficient."""
    x = np.asarray(x, dtype=float)
    result = np.full(x.shape, coeffs[-1] if len(coeffs) else 0.0, dtype=float)
    for c in coeffs[-2::-1]:
        np.multiply(result, x, out=result)
        np.add(result, c, out=result)
    return result


class TestPolyval:
    @pytest.mark.parametrize("degree", range(-1, 8))
    def test_bits_match_horner_from_constant(self, degree):
        rng = np.random.default_rng(degree + 1)
        mags = np.logspace(-3, 3, 61)
        xs = [np.zeros(0), np.asarray(0.5), np.asarray(-0.0), np.asarray(np.inf),
              np.array([0.0, -0.0, np.inf, -np.inf]),
              np.concatenate((mags, -mags)), rng.normal(size=(4, 7))]
        for scale in (1e-3, 1.0, 1e3):
            coeffs = rng.uniform(-scale, scale, degree + 1)
            coeffs[rng.random(coeffs.size) < 0.3] = 0.0
            for c, x in itertools.product((coeffs, -coeffs), xs):
                with np.errstate(invalid="ignore", over="ignore"):  # inf * 0
                    assert _same_bits(polyval(c, x), _polyval_from_constant(c, x))


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
    """Gradients read from forward's Evaluation, whose dQ/dT and power
    matrix are kept after their first use, are the gradients from a fresh
    record, bit for bit."""

    @pytest.mark.parametrize("variant", [RAW, SAFE])
    def test_parts_path_matches_wrappers(self, rng, variant):
        rf = random_rational(rng, 5, 4, variant)
        z = rng.normal(size=(32, 16))
        u = rng.normal(size=(32, 16))
        ev = Evaluation(rf, z)
        assert _same_bits(ev.value, eval_batch(rf, z))
        # the first reads fill the record's dq and powers; the second reuse them
        for _ in range(2):
            for got, want in zip(grad_coeffs_batch(ev, u),
                                 grad_coeffs_batch(Evaluation(rf, z), u)):
                assert _same_bits(got, want)
            assert _same_bits(grad_input_batch(ev), grad_input_batch(Evaluation(rf, z)))
        slot = ActivationSlot("r", rf)
        value, slot_ev = slot.apply(z)
        assert _same_bits(value, rf(z))
        assert _same_bits(slot.input_grad(z, slot_ev), slot.input_grad(z))
        assert _same_bits(slot.input_grad(z, ev), slot.input_grad(z))
        # a flat x, with and without a denominator
        for n in (0, 3):
            rf = random_rational(rng, 5, n, variant)
            x = rng.normal(size=64)
            u = rng.normal(size=64)
            ev = Evaluation(rf, x)
            p, q, dq = ev.p, ev.q, ev.dq
            powers = coeff_powers(rf, x)
            assert _same_bits(ev.powers[0], powers[0])
            assert _same_bits(ev.powers[1], powers[1])
            for got, want in zip(grad_coeffs_batch(ev, u),
                                 (u / q @ powers[0], -u * p * dq / q**2 @ powers[1])):
                assert _same_bits(got, want)

    @pytest.mark.parametrize("variant", [RAW, SAFE])
    def test_record_computes_dq_and_powers_once(self, rng, variant):
        rf = random_rational(rng, 5, 4, variant)
        x = rng.normal(size=64)
        ev = Evaluation(rf, x)
        assert ev.dq is ev.dq
        assert ev.powers is ev.powers
        assert _same_bits(ev.value, ev.p / ev.q)
        with pytest.raises(ValueError, match="upstream"):
            grad_coeffs_batch(ev, np.ones(63))

    def test_fit_builds_power_matrix_once(self, monkeypatch):
        calls = []

        def counted(x, k):
            calls.append(k)
            return power_matrix(x, k)

        # under either name, so a call through rational counts as well
        monkeypatch.setattr(rational, "power_matrix", counted)
        monkeypatch.setattr(fitting, "power_matrix", counted)
        _, report = fitting.fit(5, 4, ReferenceActivation("lrelu"))
        assert report.iterations > 1
        assert calls == [11]  # x^0..x^10, what the (5, 4) moments need


def _den_parts(rf, x):
    """(Q(x), T(x)) for the denominator's polynomial part T."""
    ev = Evaluation(rf, np.asarray(float(x)))
    return float(ev.q), float(ev.t)


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

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet import fitting, rational
from ratnet.network import ActivationSlot
from ratnet.fitting import ReferenceActivation
from ratnet.rational import (RAW, SAFE, Evaluation, PoleError, RationalFunction,
                             eval_batch, grad_coeffs, grad_coeffs_batch,
                             grad_input, grad_input_batch, init_identity,
                             polyval, power_matrix)

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


def _horner_grads(rf, x, u):
    """dR/dx at x and the coefficient gradients weighted by u, by the
    quotient rule with P, T, P' and T' each from its own Horner pass and one
    np.vander column per coefficient."""
    t_coef = (rf.denominator if rf.variant == RAW
              else np.concatenate(([0.0], rf.denominator)))
    p, t = polyval(rf.numerator, x), polyval(t_coef, x)
    q = t if rf.variant == RAW else 1.0 + np.abs(t)
    dq = 1.0 if rf.variant == RAW else np.sign(t)
    dp = polyval(rf.numerator[1:] * np.arange(1, rf.numerator.size), x)
    dt = polyval(t_coef[1:] * np.arange(1, t_coef.size), x)
    d_x = (dp * q - p * dq * dt) / (q * q)
    # the scale of the quotient rule's two terms, for a rounding allowance
    scale = np.abs(dp / q) + np.abs(p * dt / (q * q))
    flat = [np.ravel(a) for a in np.broadcast_arrays(x, u, p, q, dq)]
    xf, uf, pf, qf, dqf = flat
    vander = np.vander(xf, max(rf.numerator.size, t_coef.size), increasing=True)
    d_num = (uf / qf) @ vander[:, :rf.numerator.size]
    d_den = (-uf * pf * dqf / qf**2) @ vander[:, t_coef.size - rf.denominator.size:t_coef.size]
    return d_x, scale, d_num, d_den


class TestBackwardOracles:
    """Both gradients, from the power table and the partials, against the
    quotient rule by Horner and against central differences."""

    H = 1e-5

    @staticmethod
    def _case(variant, m, n):
        rng = np.random.default_rng(100 * m + 10 * n + (variant == RAW))
        rf = random_rational(rng, m, n, variant)
        if variant == RAW and n:
            rf.denominator[0] -= polyval(rf.denominator, 1.3)  # a pole at 1.3
        x = rng.uniform(-3.0, 3.0, size=(7, 30))
        x[0, 0] = 0.0  # the safe T is exactly 0 there: the kink
        x[3, 4] = -0.0
        return rf, x, rng.normal(size=x.shape)

    def _smooth(self, rf, x):
        """Points where R is smooth over [x - h, x + h]: the safe T keeps its
        nonzero sign, and a raw Q stays away from its poles."""
        lo, t, hi = (Evaluation(rf, x + d).t for d in (-self.H, 0.0, self.H))
        if rf.variant == RAW:
            return np.abs(t) > 0.1
        if rf.denominator.size == 0:
            return np.ones(x.shape, dtype=bool)
        return (t != 0.0) & (np.sign(lo) == np.sign(t)) & (np.sign(hi) == np.sign(t))

    @pytest.mark.parametrize("variant", [SAFE, RAW])
    @pytest.mark.parametrize("m, n", [(5, 4), (3, 2), (1, 0), (0, 0)])
    def test_matches_horner_quotient_rule(self, variant, m, n):
        rf, x, u = self._case(variant, m, n)
        ev = Evaluation(rf, x)
        if n:
            assert np.any(ev.t > 0) and np.any(ev.t < 0)
        d_x, scale, d_num, d_den = _horner_grads(rf, x, u)
        got_num, got_den = grad_coeffs_batch(ev, u)
        np.testing.assert_allclose(got_num, d_num, rtol=1e-12)
        np.testing.assert_allclose(got_den, d_den, rtol=1e-12)
        got_x = grad_input_batch(ev)
        assert got_x.shape == x.shape
        # elementwise: where the two terms cancel, the rounding allowance is
        # relative to the terms rather than to their difference
        np.testing.assert_allclose(got_x, d_x, rtol=1e-12, atol=1e-14 * scale.max())
        if variant == SAFE:
            # at the kink dQ/dT = 0: dR/dx is P'(0) / Q(0) = a_1
            a_1 = rf.numerator[1] if m else 0.0
            assert got_x[0, 0] == a_1 and got_x[3, 4] == a_1
        # a 0-d x, through the scalar wrappers and the batch path
        for x0 in (0.0, 1.7, -2.3):
            want_x, _, want_num, want_den = _horner_grads(rf, np.asarray(x0), 1.0)
            assert grad_input(rf, x0) == pytest.approx(float(want_x), rel=1e-12, abs=1e-14)
            ev0 = Evaluation(rf, np.asarray(x0))
            assert grad_input_batch(ev0).shape == ()
            for got, want in zip(grad_coeffs_batch(ev0, 1.0), (want_num, want_den)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
            for got, want in zip(grad_coeffs(rf, x0), (want_num, want_den)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("variant", [SAFE, RAW])
    @pytest.mark.parametrize("m, n", [(5, 4), (3, 2), (1, 0), (0, 0)])
    def test_matches_central_differences(self, variant, m, n):
        rf, x, u = self._case(variant, m, n)
        smooth = self._smooth(rf, x)
        assert smooth.sum() >= 150
        u = np.where(smooth, u, 0.0)
        ev = Evaluation(rf, x)
        got_x = grad_input_batch(ev)
        want_x = central_diff(lambda v: eval_batch(rf, v), x, self.H)
        np.testing.assert_allclose(got_x[smooth], want_x[smooth], rtol=1e-5, atol=1e-8)

        def loss(num, den):
            return float(np.sum(u * eval_batch(RationalFunction(num, den, variant), x)))

        got_num, got_den = grad_coeffs_batch(ev, u)
        atol = 1e-7 * np.abs(u).sum()
        for j in range(rf.numerator.size):
            def f(v, j=j):
                num = rf.numerator.copy()
                num[j] = v
                return loss(num, rf.denominator)
            assert got_num[j] == pytest.approx(
                central_diff(f, rf.numerator[j], self.H), rel=1e-5, abs=atol)
        for k in range(rf.denominator.size):
            def f(v, k=k):
                den = rf.denominator.copy()
                den[k] = v
                return loss(rf.numerator, den)
            assert got_den[k] == pytest.approx(
                central_diff(f, rf.denominator[k], self.H), rel=1e-5, abs=atol)


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
        # one row per power, each row contiguous
        assert got.flags.c_contiguous
        assert _same_bits(got, want.T)


class TestForwardParts:
    """Gradients read from forward's Evaluation, whose power table and
    partials are kept after their first use, are the gradients from a fresh
    record, bit for bit."""

    @pytest.mark.parametrize("variant", [RAW, SAFE])
    def test_parts_path_matches_wrappers(self, rng, variant):
        rf = random_rational(rng, 5, 4, variant)
        z = rng.normal(size=(32, 16))
        u = rng.normal(size=(32, 16))
        ev = Evaluation(rf, z)
        assert _same_bits(ev.value, eval_batch(rf, z))
        # the first reads fill the record's powers and partials; the second
        # reuse them
        for _ in range(2):
            for got, want in zip(grad_coeffs_batch(ev, u),
                                 grad_coeffs_batch(Evaluation(rf, z), u)):
                assert _same_bits(got, want)
            assert _same_bits(grad_input_batch(ev), grad_input_batch(Evaluation(rf, z)))
        slot = ActivationSlot("r", rf)
        value, slot_ev = slot.apply(z)
        assert _same_bits(value, rf(z))
        assert _same_bits(slot.input_grad(z, slot_ev),
                          grad_input_batch(Evaluation(rf, z)))
        assert _same_bits(slot.input_grad(z, ev), slot.input_grad(z, slot_ev))
        # a flat x, with and without a denominator
        for n in (0, 3):
            rf = random_rational(rng, 5, n, variant)
            x = rng.normal(size=64)
            u = rng.normal(size=64)
            ev = Evaluation(rf, x)
            powers = power_matrix(x, 6)
            assert _same_bits(ev.powers, powers)
            dq = 1.0 if variant == RAW else np.sign(ev.t)
            partials = np.array([1.0 / ev.q, -dq * ev.value * (1.0 / ev.q)])
            assert _same_bits(ev.partials, partials)
            grads = (partials * u) @ powers.T
            den = slice(0, n + 1) if variant == RAW else slice(1, n + 1)
            for got, want in zip(grad_coeffs_batch(ev, u), (grads[0], grads[1, den])):
                assert _same_bits(got, want)
            coef = np.zeros((2, 6))
            coef[0], coef[1, den] = rf.numerator, rf.denominator
            slopes = (coef[:, 1:] * np.arange(1.0, 6.0)) @ powers[:5] * partials
            assert _same_bits(grad_input_batch(ev), slopes[0] + slopes[1])

    @pytest.mark.parametrize("variant", [RAW, SAFE])
    def test_record_computes_partials_and_powers_once(self, rng, variant):
        rf = random_rational(rng, 5, 4, variant)
        x = rng.normal(size=64)
        ev = Evaluation(rf, x)
        # forward keeps only x, P, Q, T and the value: the tape grows on the
        # first gradient
        assert "powers" not in vars(ev) and "partials" not in vars(ev)
        grad_coeffs_batch(ev, np.ones(64))
        assert ev.partials is ev.partials
        assert ev.powers is ev.powers
        assert ev.powers.shape == (6, 64) and ev.partials.shape == (2, 64)
        assert _same_bits(ev.value, ev.p / ev.q)
        with pytest.raises(ValueError, match="upstream"):
            grad_coeffs_batch(ev, np.ones(63))

    def test_fit_builds_power_matrix_once(self, monkeypatch):
        calls = []

        def counted(x, k):
            table = power_matrix(x, k)
            calls.append(table.shape)
            return table

        # under either name, so a call through rational counts as well
        monkeypatch.setattr(rational, "power_matrix", counted)
        monkeypatch.setattr(fitting, "power_matrix", counted)
        _, report = fitting.fit(5, 4, ReferenceActivation("lrelu"))
        assert report.iterations > 1
        # x^0..x^10 over the 1000-point grid, what the (5, 4) moments need,
        # as the row-major table the moments and trials read
        assert calls == [(11, 1000)]


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

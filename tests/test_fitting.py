import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.fitting import FitConfig, ReferenceActivation, fit, sigmoid
from ratnet.rational import RationalFunction, SAFE

from conftest import central_diff


class TestReferenceEval:
    def test_silu_at_zero(self):
        assert ReferenceActivation("silu")(0.0) == 0.0

    def test_dsilu_at_zero(self):
        assert ReferenceActivation("dsilu")(0.0) == 0.5

    def test_lrelu_negative_side(self):
        ref = ReferenceActivation("lrelu", slope=0.01)
        assert ref(-3.0) == pytest.approx(-0.03)

    def test_dsilu_is_silu_derivative(self):
        xs = np.linspace(-5, 5, 101)
        silu = ReferenceActivation("silu")
        dsilu = ReferenceActivation("dsilu")(xs)
        fd = central_diff(lambda v: silu(v), xs, h=1e-6)
        np.testing.assert_allclose(dsilu, fd, atol=1e-8)

    def test_swish_beta_one_is_silu(self):
        xs = np.linspace(-4, 4, 51)
        np.testing.assert_allclose(
            ReferenceActivation("swish", beta=1.0)(xs),
            ReferenceActivation("silu")(xs))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ReferenceActivation("gelu")

    @pytest.mark.parametrize("name", ["identity", "relu", "lrelu", "tanh",
                                      "sigmoid", "silu", "dsilu", "swish",
                                      "affine", "constant"])
    def test_gradients_match_finite_differences(self, name):
        ref = ReferenceActivation(name, slope=0.07, beta=1.3, scale=2.0, shift=0.5)
        xs = np.linspace(-4, 4, 81)
        xs = xs[np.abs(xs) > 1e-3]  # relu/lrelu kink
        fd = central_diff(lambda v: ref(v), xs, h=1e-6)
        np.testing.assert_allclose(ref.grad(xs), fd, atol=1e-7)

    @given(st.floats(-600, 600))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_bounded(self, x):
        s = float(sigmoid(x))
        assert 0.0 <= s <= 1.0


class TestFit:
    def test_exact_affine_target(self):
        rf, report = fit(1, 0, ReferenceActivation("affine", scale=2.0, shift=1.0),
                         FitConfig(max_iters=3000, seed=0))
        assert report.final_mse <= 1e-10
        np.testing.assert_allclose(rf.numerator, [1.0, 2.0], atol=1e-4)

    def test_reference_and_plain_callable_fit_identically(self):
        cfg = FitConfig(max_iters=500, seed=2)
        rf_ref, rep_ref = fit(5, 4, ReferenceActivation("tanh"), cfg)
        rf_fn, rep_fn = fit(5, 4, lambda x: np.tanh(x), cfg)
        assert rf_ref.numerator.tobytes() == rf_fn.numerator.tobytes()
        assert rf_ref.denominator.tobytes() == rf_fn.denominator.tobytes()
        assert rep_ref == rep_fn

    def test_constant_target(self):
        rf, report = fit(0, 0, ReferenceActivation("constant", shift=5.0),
                         FitConfig(max_iters=3000, seed=0))
        assert report.final_mse <= 1e-10
        assert rf.numerator[0] == pytest.approx(5.0, abs=1e-4)

    def test_lrelu_default_degrees(self):
        rf, report = fit(5, 4, ReferenceActivation("lrelu", slope=0.01),
                         FitConfig(seed=0))
        # the LM fit reaches 3.1e-5 here; the acceptance threshold is 1e-3
        assert report.final_mse <= 1e-3
        assert rf.variant == SAFE

    def test_loss_finite_at_start_required(self):
        # an insane interval overflows the x^j features immediately; the fit
        # must refuse it before building any feature matrix, so silently
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                fit(5, 4, ReferenceActivation("lrelu"),
                    FitConfig(interval=(-1e160, 1e160), n_points=100, seed=0))

    def test_n_points_lower_bound(self):
        with pytest.raises(ValueError):
            fit(5, 4, ReferenceActivation("tanh"),
                FitConfig(n_points=8, seed=0))

    def test_determinism_bitwise(self):
        cfg = FitConfig(max_iters=400, seed=11)
        rf1, rep1 = fit(3, 2, ReferenceActivation("tanh"), cfg)
        rf2, rep2 = fit(3, 2, ReferenceActivation("tanh"), cfg)
        assert np.array_equal(rf1.numerator, rf2.numerator)
        assert np.array_equal(rf1.denominator, rf2.denominator)
        assert rep1.final_mse == rep2.final_mse

    def test_loss_nonincreasing(self):
        # short run vs longer run from the same seed: the best-so-far MSE
        # cannot get worse since only improving steps are accepted
        mses = []
        for iters in (50, 200, 800):
            _, report = fit(4, 3, ReferenceActivation("silu"),
                            FitConfig(max_iters=iters, seed=3))
            mses.append(report.final_mse)
        assert mses[0] >= mses[1] >= mses[2]

    @pytest.mark.parametrize("name, mse_bound", [("lrelu", 1e-4), ("tanh", 1e-6),
                                                 ("sigmoid", 1e-6), ("silu", 1e-6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_default_fit_converges(self, name, mse_bound, seed):
        # the default (5, 4) init fit stops on a convergence criterion, not
        # on the iteration cap
        _, report = fit(5, 4, ReferenceActivation(name), FitConfig(seed=seed))
        assert report.converged
        assert report.final_mse <= mse_bound

    @pytest.mark.parametrize("target_seed", range(20))
    def test_self_fit_consistency(self, target_seed):
        # fitting a rational that is exactly representable recovers it
        rng = np.random.default_rng(target_seed)
        target = RationalFunction(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 2), SAFE)
        _, report = fit(3, 2, target, FitConfig(max_iters=30000, seed=target_seed))
        assert report.final_mse <= 1e-8

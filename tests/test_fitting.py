import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.fitting import FitConfig, ReferenceActivation, fit, sigmoid
from ratnet.rational import RationalFunction, SAFE

from conftest import central_diff

# sha256 of the float64 bytes of numerator then denominator of the default
# (5, 4) fit, recorded before starts that cannot win were cut short
DEFAULT_FIT_SHA256 = {
    ("lrelu", 0): "f66bb732bcb70cd2741a7320f5bdf7327ca15f48e1a79c652d604711686d6ff0",
    ("lrelu", 1): "b1863aa221c1109b108ca074e15ce211be284cc512433cb977355569893b1492",
    ("lrelu", 2): "536da176383315cf685098208c988d8603ef6255e7ec4044a58a79c8249eaff5",
    ("lrelu", 3): "4c04e2dc98b2cb89df575f36d175077a393d2a0f387c05bcfa3afaf62f3d48d0",
    ("lrelu", 4): "93520874495c8c8b534d217564d9c39459024df7d7a13570eb27cfa038cc7057",
    ("lrelu", 5): "e2cec379fc668c4a6793c0ce80419ef5ee59e15f380d0d6c241c8c36f7876656",
    ("lrelu", 6): "83f4ff52f1a999bd8af626a0aa98d947312417fffda488795e3efdc4c77ae031",
    ("lrelu", 7): "0b37d71a6f92fc3310cf1547b3a7555ea448a6158003569cbe4877c83341bf8f",
    ("tanh", 0): "696095a9595367252428909db1ed822fa6c5bf7afc697953866dc8b74c6e3934",
    ("tanh", 1): "ee4119bef85f81d5f7409308d67dc25376a8bbbba5659ad43cc735492136ec35",
    ("tanh", 2): "0ed37d85e57e089d5a2b452da8cf39bf982c53a4cafaacb4dba1fcac9011c5e3",
    ("tanh", 3): "e5441a04c750eedf1e73f529274f2967c2406a5e46aa15e4387587826902c0df",
    ("tanh", 4): "7b6f2b5746caa3f0e244c688cf7b7d8cd25023ff91ffb83fcb630670e490a40c",
    ("tanh", 5): "05c8db19d2661903ad73969ac22665040b8236f2f6a4192cf9f08c46b80c74ec",
    ("tanh", 6): "85b38b290ef5c866345297c728f60abd9617de84eea8769e070b7acb43b427b8",
    ("tanh", 7): "829d3468099d3dbc9a96813cb2523877be5d44d4fe9741b9f3eaba30ee56d1e9",
    ("sigmoid", 0): "ef69fa8f0cc13c36f000fccbd11f6e5d548d8a433f0ba0163dd22cc405392af1",
    ("sigmoid", 1): "cc3afcbc02e26efcadd04f77d51e86cac36ed75511cbc6d4f9a83ca290ba91b7",
    ("sigmoid", 2): "2f69fe254875e1031ed18d9a3d23ff24244739d1ddee2df364f04f0cb0e43eff",
    ("sigmoid", 3): "a08f4920f2b46e474509cbb9ef1f68c197e4c24cad022f48eaaeaf8b3cb161b4",
    ("sigmoid", 4): "51e44bed8b53346fd2f2d272451a423cf973b713d4098de0f9329b30c1b6faff",
    ("sigmoid", 5): "1979af50e8960460ef63c5f4bee9e08b555df271dfe494b64873478fcb8ec505",
    ("sigmoid", 6): "838939c32732d277521f9e5f63c47ea1fb07363d4358b52007d57dab014c9a09",
    ("sigmoid", 7): "60fb8b39043151f10c1a0ae98789141fd4b2479c575591c9b475f67289562485",
    ("silu", 0): "7f6962d21e187ed6a2d9c98e11534cd62f979b3a3ac573ca178445f048cc9da0",
    ("silu", 1): "4f6f72ac1a7b87b9bb81c8dfc02c6c91e3c22fc4e8114483677da85ef0019c8d",
    ("silu", 2): "97411a19127364560e0128bcac3405b1e07977ba82ebd57b3b2a5d17e4cadb2b",
    ("silu", 3): "ca4a697f5e83c7f83d7f0f658422217df930979e2fabe9598d8e082bd374c6de",
    ("silu", 4): "4aace47e3967c64a471b6f26f8c1a9d2b5a0dce1261975358c43cc86a5c15f15",
    ("silu", 5): "04237e7f6723da93becf78dadaad66775fe32e90510df9c269097b6a2cf815e6",
    ("silu", 6): "724c7b029ec5d176fa643b543628f2e735c57a37b0d10602b9ed77f25e9b6667",
    ("silu", 7): "92e6512b0861f535fb5264c353a0cb8b4dcaad1cbb2671c944c644c1923f3c8c",
}

# fit(5, 4, sigmoid) at seed 3, recorded when its losing second start still
# ran 4887 trials in all
SIGMOID_SEED3_HEX = (
    "0x1.0000000022bfap-1", "0x1.00000eb857e95p-2", "0x1.c62fc2539a372p-5",
    "0x1.c36969eec61bap-8", "0x1.fc6c0ec39ebccp-12", "0x1.067994f79f374p-16",
    "0x1.e2c9aa8398800p-22", "0x1.c62f86068c279p-4", "0x1.78f08c637fa00p-25",
    "0x1.fc6b9b785a79cp-11")


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

    @pytest.mark.parametrize("kwargs", [{"interval": (-np.inf, 3.0)},
                                        {"interval": (-3.0, np.inf)},
                                        {"interval": (-1e308, 1e308)},
                                        {"max_iters": -5}, {"max_iters": 10.5}],
                             ids=["lo-inf", "hi-inf", "width-inf", "max-iters-negative",
                                  "max-iters-fractional"])
    def test_config_rejects_unusable_values(self, kwargs):
        # an infinite grid, or a negative or fractional budget that would
        # mean "no cap"
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

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

    def test_losing_start_stops_early(self):
        # the sign(x) start cannot catch the S >= 0 start's 1e-18 here; it is
        # stopped within a few dozen trials, and the winner keeps its bits
        rf, report = fit(5, 4, ReferenceActivation("sigmoid"), FitConfig(seed=3))
        coeffs = np.concatenate((rf.numerator, rf.denominator))
        assert tuple(float(c).hex() for c in coeffs) == SIGMOID_SEED3_HEX
        assert report.iterations < 100

    @pytest.mark.parametrize("name", ["lrelu", "tanh", "sigmoid", "silu"])
    def test_default_fit_bits(self, name):
        for seed in range(8):
            rf, _ = fit(5, 4, ReferenceActivation(name), FitConfig(seed=seed))
            coeffs = np.concatenate((rf.numerator, rf.denominator))
            assert hashlib.sha256(coeffs.tobytes()).hexdigest() == \
                DEFAULT_FIT_SHA256[name, seed], f"{name} seed {seed}"

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

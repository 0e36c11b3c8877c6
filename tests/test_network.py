import json

import numpy as np
import pytest

from ratnet.algebra import compose
from ratnet.datasets import Dataset, make_blobs, make_two_spirals
from ratnet.distance import DistanceConfig
from ratnet.fitting import ReferenceActivation
from ratnet.histogram import Histogram
from ratnet.network import (ActivationSlot, DenseLayer, FixedActivation,
                            Gradients, NetworkSpec, Optimizer, TrainConfig,
                            apply_affine_equivalence, backward,
                            build_dense_network, clone_network, forward,
                            pairwise_layer_distances, softmax_cross_entropy,
                            suggest_sharing, train_classifier)
from ratnet.rational import RAW, RationalFunction, init_identity
from ratnet.distance import AffineReparam

from conftest import random_rational


def tiny_net(weights, biases, slot_act=None):
    """Single-layer network, optionally with one activation slot."""
    layer = DenseLayer(np.asarray(weights, float), np.asarray(biases, float))
    if slot_act is None:
        return NetworkSpec([layer], {}, [None])
    slot = ActivationSlot("s0", slot_act)
    return NetworkSpec([layer], {"s0": slot}, ["s0"])


class TestForward:
    def test_identity_single_layer(self):
        net = tiny_net([[1.0]], [0.0], init_identity(5, 4))
        out, _ = forward(net, [[3.25]])
        assert out.tolist() == [[3.25]]

    def test_zero_weights_expose_bias_path(self):
        # both layers have zero weights, so the output is the second bias
        # plus nothing: activation(b0) * 0 + b1
        l0 = DenseLayer(np.zeros((2, 3)), np.array([1.0, -2.0]))
        l1 = DenseLayer(np.zeros((1, 2)), np.array([0.5]))
        slot = ActivationSlot("s", ReferenceActivation("tanh"))
        net = NetworkSpec([l0, l1], {"s": slot}, ["s", None])
        out, _ = forward(net, [[9.0, 9.0, 9.0]])
        assert out.tolist() == [[0.5]]

    def test_matches_straight_line_evaluation(self, rng):
        # independently coded forward pass: explicit loops, no caching
        net = build_dense_network([3, 5, 4, 2], activation="rational",
                                  init="identity", seed=1)
        x = rng.normal(size=(6, 3))
        out, _ = forward(net, x)

        def rational_scalar(rf, v):
            num = sum(a * v**j for j, a in enumerate(rf.numerator))
            den = 1.0 + abs(sum(b * v**(k + 1) for k, b in enumerate(rf.denominator)))
            return num / den

        expected = np.zeros_like(out)
        for r in range(x.shape[0]):
            h = x[r]
            for i, layer in enumerate(net.layers):
                z = layer.weights @ h + layer.biases
                sid = net.site_slots[i]
                if sid is not None:
                    rf = net.slots[sid].activation
                    z = np.array([rational_scalar(rf, v) for v in z])
                h = z
            expected[r] = h
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        net = tiny_net([[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError):
            forward(net, [[1.0]])

    def test_tracking_observes_preactivations(self):
        net = build_dense_network([2, 4, 2], activation="rational",
                                  init="identity", seed=0, track_inputs=True)
        forward(net, np.ones((8, 2)))
        sid = net.site_slots[0]
        assert net.slots[sid].histogram.total == 8 * 4
        forward(net, np.ones((8, 2)), track=False)
        assert net.slots[sid].histogram.total == 8 * 4


# a network with one reference slot, serialized with json.dumps at the
# commit before reference activations became callable; the bytes must not move
REFERENCE_NET_JSON = (
    '{"layers": [{"weights": [[1.0, -0.5], [0.25, 2.0]], "biases": [0.5, -1.0]}, '
    '{"weights": [[2.0, 1.0]], "biases": [0.125]}], "site_slots": ["lrelu0", null], '
    '"slots": {"lrelu0": {"activation": {"type": "reference", "name": "lrelu", '
    '"slope": 0.2, "beta": 1.0, "scale": 1.0, "shift": 0.0}, "histogram": '
    '{"lo": -1.0, "hi": 1.0, "bin_count": 2, "counts": [1, 2], "underflow": 0, '
    '"overflow": 1}}}}')


class TestSlots:
    def test_reference_slot_holds_and_calls_the_reference(self, rng):
        ref = ReferenceActivation("swish", beta=1.7)
        slot = ActivationSlot("s", ref)
        assert slot.activation is ref
        assert not slot.trainable
        z = rng.normal(size=(4, 5))
        assert np.array_equal(slot.input_grad(z, None), ref.grad(z))
        value, parts = slot.apply(z)
        assert np.array_equal(value, ref(z)) and parts is None

    def test_other_activations_rejected(self):
        with pytest.raises(TypeError):
            ActivationSlot("s", np.tanh)

    def test_slot_keyed_under_another_id_rejected(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="'b'.*'a'"):
            NetworkSpec([layer], {"a": ActivationSlot("b", init_identity(3, 2))}, ["a"])

    def test_reference_slot_json_bytes(self):
        layers = [DenseLayer([[1.0, -0.5], [0.25, 2.0]], [0.5, -1.0]),
                  DenseLayer([[2.0, 1.0]], [0.125])]
        hist = Histogram(lo=-1.0, hi=1.0, bin_count=2)
        hist.observe([-0.5, 0.5, 0.75, 3.0])
        slot = ActivationSlot("lrelu0", ReferenceActivation("lrelu", slope=0.2),
                              histogram=hist)
        net = NetworkSpec(layers, {"lrelu0": slot}, ["lrelu0", None])
        assert json.dumps(net.to_dict()) == REFERENCE_NET_JSON
        back = NetworkSpec.from_dict(json.loads(REFERENCE_NET_JSON))
        assert back.slots["lrelu0"].activation == ReferenceActivation("lrelu", slope=0.2)
        assert json.dumps(back.to_dict()) == REFERENCE_NET_JSON

    def test_ad_hoc_activation_not_serializable(self):
        net = tiny_net([[1.0]], [0.0], FixedActivation("t", np.tanh, None))
        with pytest.raises(ValueError):
            net.to_dict()


class TestBackward:
    def test_identity_activation_equals_linear_grads(self, rng):
        # with f(x) = x the layer gradients are those of the plain linear net
        w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=4)
        w1, b1 = rng.normal(size=(2, 4)), rng.normal(size=2)
        slot = ActivationSlot("s", init_identity(3, 2))
        net = NetworkSpec([DenseLayer(w0.copy(), b0.copy()),
                           DenseLayer(w1.copy(), b1.copy())], {"s": slot},
                          ["s", None])
        x = rng.normal(size=(5, 3))
        g_out = rng.normal(size=(5, 2))
        out, cache = forward(net, x)
        grads = backward(net, cache, g_out)
        # linear reference
        z0 = x @ w0.T + b0
        d1 = g_out
        dw1 = d1.T @ z0
        db1 = d1.sum(0)
        d0 = d1 @ w1
        dw0 = d0.T @ x
        db0 = d0.sum(0)
        np.testing.assert_allclose(grads.layers[1][0], dw1, rtol=1e-12)
        np.testing.assert_allclose(grads.layers[1][1], db1, rtol=1e-12)
        np.testing.assert_allclose(grads.layers[0][0], dw0, rtol=1e-12)
        np.testing.assert_allclose(grads.layers[0][1], db0, rtol=1e-12)

    def test_shared_slot_doubles_gradient(self, rng):
        # identity layers and identity-initialized rational: both sites see
        # the same pre-activations and upstream deltas, so the shared
        # gradient is exactly twice the single-site gradient
        eye = np.eye(3)
        shared = ActivationSlot("r", init_identity(5, 4))
        net = NetworkSpec([DenseLayer(eye, np.zeros(3)) for _ in range(2)],
                          {"r": shared}, ["r", "r"])
        single = ActivationSlot("r", init_identity(5, 4))
        net1 = NetworkSpec([DenseLayer(eye, np.zeros(3)) for _ in range(2)],
                           {"r": single}, ["r", None])
        x = rng.normal(size=(4, 3))
        g_out = rng.normal(size=(4, 3))
        _, cache = forward(net, x)
        shared_grads = backward(net, cache, g_out)
        _, cache1 = forward(net1, x)
        single_grads = backward(net1, cache1, g_out)
        np.testing.assert_allclose(shared_grads.slots["r"][0],
                                   2.0 * single_grads.slots["r"][0], rtol=1e-12)

    def test_shared_gradient_is_sum_of_masked_sites(self, rng):
        # generic masking check: the same architecture with the slot split
        # into two independent copies gives per-site gradients that sum to
        # the shared gradient
        proto = random_rational(rng, 5, 4)
        shared = build_dense_network([3, 6, 6, 2], activation="shared-rational",
                                     init="identity", seed=4)
        shared.slots[shared.site_slots[0]].activation = proto.copy()
        split = build_dense_network([3, 6, 6, 2], activation="rational",
                                    init="identity", seed=4)
        for sid in split.slots:
            split.slots[sid].activation = proto.copy()
        x = rng.normal(size=(7, 3))
        g_out = rng.normal(size=(7, 2))
        _, cache_a = forward(shared, x)
        ga = backward(shared, cache_a, g_out)
        _, cache_b = forward(split, x)
        gb = backward(split, cache_b, g_out)
        total_num = sum(gb.slots[s][0] for s in gb.slots)
        total_den = sum(gb.slots[s][1] for s in gb.slots)
        sid = shared.site_slots[0]
        np.testing.assert_allclose(ga.slots[sid][0], total_num, rtol=1e-9)
        np.testing.assert_allclose(ga.slots[sid][1], total_den, rtol=1e-9)

    def test_stale_cache_rejected(self, rng):
        net = build_dense_network([2, 3, 2], seed=0, init="identity")
        x = rng.normal(size=(4, 2))
        out, cache = forward(net, x)
        grads = backward(net, cache, np.ones_like(out))
        Optimizer(net, TrainConfig(learning_rate=0.1)).step(net, grads)
        with pytest.raises(ValueError):
            backward(net, cache, np.ones_like(out))

    def test_replaced_activation_rejected(self, rng):
        # backward reuses the polynomials forward evaluated, so a slot whose
        # function was swapped since forward must not be differentiated
        net = build_dense_network([2, 3, 2], seed=0, init="identity")
        x = rng.normal(size=(4, 2))
        out, cache = forward(net, x)
        slot = net.slot_at(0)
        slot.activation = random_rational(rng, 5, 4)
        with pytest.raises(ValueError, match="stale forward cache"):
            backward(net, cache, np.ones_like(out))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_parameter_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = build_dense_network([3, 10, 10, 2], activation="rational",
                                  init="identity", seed=seed)
        # move the rationals off the identity so denominator grads are live
        for slot in net.slots.values():
            slot.activation.numerator += rng.uniform(-0.3, 0.3,
                                                     slot.activation.numerator.size)
            slot.activation.denominator += rng.uniform(-0.3, 0.3,
                                                       slot.activation.denominator.size)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)

        def loss_value():
            out, _ = forward(net, x, track=False)
            loss, _ = softmax_cross_entropy(out, y)
            return loss

        out, cache = forward(net, x, track=False)
        _, dlogits = softmax_cross_entropy(out, y)
        grads = backward(net, cache, dlogits)

        def check(param, grad, label):
            flat_p = param.ravel()
            flat_g = grad.ravel()
            for idx in range(flat_p.size):
                old = flat_p[idx]
                h = 1e-5
                flat_p[idx] = old + h
                up = loss_value()
                flat_p[idx] = old - h
                down = loss_value()
                flat_p[idx] = old
                fd = (up - down) / (2 * h)
                assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8), label

        for i, layer in enumerate(net.layers):
            check(layer.weights, grads.layers[i][0], f"W{i}")
            check(layer.biases, grads.layers[i][1], f"b{i}")
        for sid, slot in net.slots.items():
            check(slot.activation.numerator, grads.slots[sid][0], f"{sid}.num")
            check(slot.activation.denominator, grads.slots[sid][1], f"{sid}.den")


class TestStep:
    def test_sgd_basic(self):
        net = tiny_net([[1.0]], [0.0])
        grads = Gradients(layers=[(np.array([[1.0]]), np.array([0.0]))])
        Optimizer(net, TrainConfig(learning_rate=0.1, optimizer="sgd")).step(net, grads)
        assert net.layers[0].weights[0, 0] == pytest.approx(0.9)

    def test_zero_gradients_leave_net_unchanged(self):
        for opt in ("sgd", "adam"):
            net = tiny_net([[2.0]], [1.0])
            grads = Gradients(layers=[(np.zeros((1, 1)), np.zeros(1))])
            Optimizer(net, TrainConfig(learning_rate=0.5, optimizer=opt)).step(net, grads)
            assert net.layers[0].weights[0, 0] == 2.0
            assert net.layers[0].biases[0] == 1.0

    def test_adam_first_step_hand_computed(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, so the update
        # is lr * g / (|g| + eps) regardless of the gradient's magnitude
        lr, eps, g = 0.01, 1e-8, 0.37
        net = tiny_net([[1.0]], [0.0])
        grads = Gradients(layers=[(np.array([[g]]), np.zeros(1))])
        Optimizer(net, TrainConfig(learning_rate=lr, optimizer="adam")).step(net, grads)
        expected = 1.0 - lr * g / (np.sqrt(g * g) + eps)
        assert net.layers[0].weights[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_shared_slot_updated_once(self):
        net = build_dense_network([2, 3, 3, 2], activation="shared-rational",
                                  init="identity", seed=0)
        sid = net.site_slots[0]
        before = net.slots[sid].activation.numerator.copy()
        g_num = np.ones_like(before)
        g_den = np.zeros_like(net.slots[sid].activation.denominator)
        grads = Gradients(layers=[(np.zeros_like(l.weights), np.zeros_like(l.biases))
                                  for l in net.layers],
                          slots={sid: (g_num, g_den)})
        Optimizer(net, TrainConfig(learning_rate=0.1, optimizer="sgd")).step(net, grads)
        after = net.slots[sid].activation.numerator
        # one SGD step of -0.1 * 1, not one per site
        np.testing.assert_allclose(after, before - 0.1, rtol=1e-12)

    def test_nonfinite_gradient_names_parameter(self):
        net = tiny_net([[1.0]], [0.0])
        grads = Gradients(layers=[(np.array([[np.nan]]), np.zeros(1))])
        with pytest.raises(RuntimeError, match=r"layers\[0\]\.weights"):
            Optimizer(net, TrainConfig(learning_rate=0.1)).step(net, grads)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_nonfinite_gradient_updates_nothing(self, rng, optimizer):
        # the bad value sits in the last array of the update order, so a step
        # that updates as it checks would already have moved everything else
        net = build_dense_network([3, 4, 4, 2], activation="rational",
                                  init="identity", seed=0)
        assert sorted(net.slots) == ["r0", "r1"]
        out, cache = forward(net, rng.normal(size=(5, 3)))
        grads = backward(net, cache, rng.normal(size=out.shape))
        grads.slots["r1"][1][-1] = np.nan
        before = clone_network(net)
        opt = Optimizer(net, TrainConfig(learning_rate=0.1, optimizer=optimizer))
        with pytest.raises(RuntimeError, match=r"slots\[r1\]\.denominator"):
            opt.step(net, grads)
        for l0, l1 in zip(before.layers, net.layers):
            assert np.array_equal(l0.weights, l1.weights)
            assert np.array_equal(l0.biases, l1.biases)
        for sid in net.slots:
            a0, a1 = before.slots[sid].activation, net.slots[sid].activation
            assert np.array_equal(a0.numerator, a1.numerator)
            assert np.array_equal(a0.denominator, a1.denominator)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_empty_denominator_slot_steps(self, rng, optimizer):
        net = tiny_net(rng.normal(size=(3, 2)), rng.normal(size=3),
                       init_identity(3, 0))
        rf = net.slots["s0"].activation
        assert rf.denominator.size == 0
        before = rf.numerator.copy()
        out, cache = forward(net, rng.normal(size=(6, 2)))
        grads = backward(net, cache, rng.normal(size=out.shape))
        Optimizer(net, TrainConfig(learning_rate=0.1, optimizer=optimizer)).step(net, grads)
        assert not np.array_equal(rf.numerator, before)
        assert rf.denominator.size == 0


class TestAffineEquivalence:
    def test_double_identity_halves_next_layer(self, rng):
        # f1 = 2x, f2 = x with rp (2, 0, 1, 0): outputs are preserved
        f1 = FixedActivation("double", lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0))
        l0 = DenseLayer(rng.normal(size=(3, 2)), rng.normal(size=3))
        l1 = DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
        net = NetworkSpec([l0, l1], {"s": ActivationSlot("s", f1)}, ["s", None])
        f2 = FixedActivation("identity", lambda x: x + 0.0, lambda x: np.ones_like(x))
        out = apply_affine_equivalence(net, 0, AffineReparam(a=2.0), f2)
        x = rng.normal(size=(20, 2))
        np.testing.assert_allclose(forward(out, x)[0], forward(net, x)[0],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.layers[1].weights, 2.0 * l1.weights)

    def test_tanh_shift(self, rng):
        f1 = FixedActivation("tanh", lambda x: np.tanh(x), None)
        f2 = FixedActivation("tanh_shifted", lambda x: np.tanh(x - 1.0), None)
        l0 = DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=4))
        l1 = DenseLayer(rng.normal(size=(2, 4)), rng.normal(size=2))
        net = NetworkSpec([l0, l1], {"s": ActivationSlot("s", f1)}, ["s", None])
        out = apply_affine_equivalence(net, 0, AffineReparam(d=1.0), f2)
        x = rng.normal(size=(50, 3))
        np.testing.assert_allclose(forward(out, x)[0], forward(net, x)[0],
                                   rtol=0, atol=1e-9)

    def test_random_nets_random_reparams(self):
        # acceptance-grade check: 10 random nets, outputs preserved on 100
        # random inputs within 1e-9
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            b = float(rng.uniform(-1.0, 1.0))
            c = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            d = float(rng.uniform(-1.0, 1.0))
            f2_fn = lambda x, a=a: np.tanh(x)
            f1 = FixedActivation("f1", lambda x, a=a, b=b, c=c, d=d:
                                 a * np.tanh(c * x + d) + b, None)
            f2 = FixedActivation("f2", np.tanh, None)
            sizes = [3, int(rng.integers(3, 8)), int(rng.integers(3, 8)), 2]
            layers = [DenseLayer(rng.normal(size=(o, i)), rng.normal(size=o))
                      for i, o in zip(sizes[:-1], sizes[1:])]
            site = int(rng.integers(0, len(layers) - 1))
            slots = {"s": ActivationSlot("s", f1)}
            site_slots = [None] * len(layers)
            site_slots[site] = "s"
            net = NetworkSpec(layers, slots, site_slots)
            rewritten = apply_affine_equivalence(net, site, AffineReparam(a, b, c, d), f2)
            x = rng.normal(size=(100, 3))
            diff = np.max(np.abs(forward(rewritten, x)[0] - forward(net, x)[0]))
            assert diff <= 1e-9, f"seed {seed}: {diff}"

    def test_final_layer_site_rejected(self):
        net = build_dense_network([2, 3, 2], init="identity", seed=0)
        net.site_slots[-1] = net.site_slots[0]
        net2 = NetworkSpec(net.layers, net.slots, net.site_slots)
        with pytest.raises(ValueError):
            apply_affine_equivalence(net2, len(net2.layers) - 1,
                                     AffineReparam(), np.tanh)

    def test_site_without_activation_rejected(self):
        net = build_dense_network([2, 3, 2], init="identity", seed=0)
        with pytest.raises(ValueError):
            apply_affine_equivalence(net, len(net.layers) - 1,
                                     AffineReparam(),
                                     FixedActivation("t", np.tanh, None))

    def test_shared_slot_other_sites_keep_original(self, rng):
        net = build_dense_network([2, 3, 3, 3, 2], activation="shared-rational",
                                  init="identity", seed=0)
        sid = net.site_slots[0]
        out = apply_affine_equivalence(net, 1, AffineReparam(),
                                       net.slots[sid].activation.copy())
        assert out.site_slots[0] == sid
        assert out.site_slots[2] == sid
        assert out.site_slots[1] != sid
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(forward(out, x)[0], forward(net, x)[0],
                                   atol=1e-12)


    def test_unused_old_slot_dropped_shared_slot_kept(self):
        net = build_dense_network([2, 3, 3, 3, 2], activation="tanh", seed=0)
        assert sorted(net.slots) == ["tanh0", "tanh1", "tanh2"]
        out = apply_affine_equivalence(net, 1, AffineReparam(), ReferenceActivation("silu"))
        assert sorted(out.slots) == ["tanh0", "tanh1@rewritten", "tanh2"]
        assert out.slots["tanh1@rewritten"].activation == ReferenceActivation("silu")

        shared = build_dense_network([2, 3, 3, 3, 2], activation="shared-rational",
                                     init="identity", seed=0)
        out = apply_affine_equivalence(shared, 1, AffineReparam(), init_identity(5, 4))
        assert sorted(out.slots) == ["r0_1_2", "r0_1_2@rewritten"]
        assert out.site_slots == ["r0_1_2", "r0_1_2@rewritten", "r0_1_2", None]

    def test_tracked_slot_gets_a_fresh_histogram(self, rng):
        net = build_dense_network([2, 3, 3, 2], init="identity", seed=0,
                                  track_inputs=True)
        forward(net, rng.normal(size=(5, 2)))
        out = apply_affine_equivalence(net, 0, AffineReparam(), init_identity(5, 4))
        assert out.slots["r0@rewritten"].histogram.total == 0
        assert out.slots["r1"].histogram.total == 15


def _affine_of_raw(rf, a, b, c, d):
    """Exact raw rational equal to a*rf(c*x + d) + b."""
    inner = RationalFunction([d, c], [1.0], RAW)
    moved = compose(rf, inner)
    num = a * moved.numerator
    num = np.concatenate([num, np.zeros(max(0, moved.denominator.size - num.size))])
    num[: moved.denominator.size] += b * moved.denominator
    return RationalFunction(num, moved.denominator, RAW)


class TestPairwiseDistances:
    def _net_with_slots(self, rationals, rng):
        layers = [DenseLayer(np.eye(2), np.zeros(2)) for _ in range(len(rationals) + 1)]
        slots = {}
        site_slots = []
        for i, rf in enumerate(rationals):
            hist = Histogram(lo=-3, hi=3, bin_count=32)
            hist.observe(rng.normal(0, 1.2, 400))
            slots[f"s{i}"] = ActivationSlot(f"s{i}", rf, histogram=hist)
            site_slots.append(f"s{i}")
        site_slots.append(None)
        return NetworkSpec(layers, slots, site_slots)

    def test_identical_functions_near_zero(self, rng):
        rf = random_rational(rng, 3, 2)
        net = self._net_with_slots([rf.copy() for _ in range(3)], rng)
        dist = pairwise_layer_distances(net, DistanceConfig(quad_points=501))
        assert np.max(dist) <= 1e-6
        assert np.all(np.diag(dist) == 0.0)

    def test_exactly_symmetric(self, rng):
        nets = [random_rational(rng, 3, 2) for _ in range(3)]
        net = self._net_with_slots(nets, rng)
        dist = pairwise_layer_distances(net, DistanceConfig(quad_points=301))
        assert np.array_equal(dist, dist.T)

    def test_constructed_pairs_and_sharing_suggestion(self, rng):
        # slots 0-1 and 2-3 are exact affine pairs; cross-pair distances
        # must dominate so the greedy partition groups {0,1} and {2,3}
        base1 = RationalFunction([0.0, 1.0, 0.4], [1.0, 0.0, 0.5], RAW)
        base2 = RationalFunction([0.1, -0.8, 0.0, 0.3], [1.0, 0.0, 0.8], RAW)
        pair1 = _affine_of_raw(base1, 1.6, 0.3, 0.8, -0.2)
        pair2 = _affine_of_raw(base2, -1.2, 0.5, 1.3, 0.4)
        net = self._net_with_slots([base1, pair1, base2, pair2], rng)
        dist = pairwise_layer_distances(net, DistanceConfig())
        in_pair = max(dist[0, 1], dist[2, 3])
        off_pair = min(dist[0, 2], dist[0, 3], dist[1, 2], dist[1, 3])
        assert in_pair < off_pair
        threshold = np.sqrt(in_pair * off_pair)  # geometric midpoint
        assert suggest_sharing(dist, threshold) == [[0, 1], [2, 3]]

    def test_empty_histogram_rejected(self, rng):
        rf = random_rational(rng, 3, 2)
        layers = [DenseLayer(np.eye(2), np.zeros(2)), DenseLayer(np.eye(2), np.zeros(2))]
        slot = ActivationSlot("s0", rf, histogram=Histogram())
        net = NetworkSpec(layers, {"s0": slot}, ["s0", None])
        with pytest.raises(ValueError):
            pairwise_layer_distances(net, DistanceConfig(quad_points=101))


class TestSuggestSharing:
    def test_all_above_threshold_gives_singletons(self):
        d = np.array([[0, 5, 5], [5, 0, 5], [5, 5, 0]], dtype=float)
        assert suggest_sharing(d, 1.0) == [[0], [1], [2]]

    def test_all_below_threshold_gives_one_group(self):
        d = np.full((4, 4), 0.1)
        np.fill_diagonal(d, 0.0)
        assert suggest_sharing(d, 1.0) == [[0, 1, 2, 3]]

    def test_two_pair_partition(self):
        d = np.full((4, 4), 9.0)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 0.1
        d[2, 3] = d[3, 2] = 0.2
        assert suggest_sharing(d, 0.5) == [[0, 1], [2, 3]]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            suggest_sharing(np.zeros((2, 3)), 1.0)


class TestTrainClassifier:
    def test_blobs_reach_high_accuracy(self):
        dataset = make_blobs(n_per_class=60, separation=4.0, spread=0.7, seed=5)
        # the dataset is linearly separable by construction: every point is
        # on its center's side of the diagonal midline
        margin = dataset.x_train @ np.array([1.0, 1.0])
        assert np.all((margin > 0) == (dataset.y_train == 1))
        net = build_dense_network([2, 8, 2], activation="rational",
                                  init="identity", seed=0)
        _, history = train_classifier(net, dataset,
                                      TrainConfig(learning_rate=0.05,
                                                  optimizer="adam", epochs=50,
                                                  seed=0))
        assert max(history["train_accuracy"]) >= 0.99

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("epochs", [-1, -3])
    def test_config_rejects_negative_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    def test_zero_epochs_returns_initial_accuracy(self):
        dataset = make_blobs(n_per_class=20, seed=1)
        net = build_dense_network([2, 4, 2], init="identity", seed=1)
        before = clone_network(net)
        _, history = train_classifier(net, dataset,
                                      TrainConfig(epochs=0, seed=0))
        assert len(history["train_accuracy"]) == 1
        for l0, l1 in zip(before.layers, net.layers):
            assert np.array_equal(l0.weights, l1.weights)

    def test_empty_dataset_rejected(self):
        net = build_dense_network([2, 4, 2], init="identity", seed=1)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train_classifier(net, empty, TrainConfig(epochs=1))

    def test_deterministic_bitwise(self):
        dataset = make_blobs(n_per_class=30, seed=3)
        nets = []
        for _ in range(2):
            net = build_dense_network([2, 6, 2], activation="rational",
                                      init="identity", seed=9)
            net, _ = train_classifier(net, dataset,
                                      TrainConfig(learning_rate=0.02,
                                                  optimizer="adam", epochs=5,
                                                  seed=9))
            nets.append(net)
        for l0, l1 in zip(nets[0].layers, nets[1].layers):
            assert np.array_equal(l0.weights, l1.weights)
            assert np.array_equal(l0.biases, l1.biases)
        for sid in nets[0].slots:
            a0 = nets[0].slots[sid].activation
            a1 = nets[1].slots[sid].activation
            assert np.array_equal(a0.numerator, a1.numerator)
            assert np.array_equal(a0.denominator, a1.denominator)

    def test_histogram_counts_conserved_through_training(self):
        n_per_class, epochs, batch_size = 25, 3, 16
        dataset = make_blobs(n_per_class=n_per_class, seed=2)
        net = build_dense_network([2, 5, 7, 2], activation="rational",
                                  init="identity", seed=2, track_inputs=True)
        train_classifier(net, dataset, TrainConfig(batch_size=batch_size,
                                                   epochs=epochs, seed=2,
                                                   learning_rate=0.005,
                                                   optimizer="adam"))
        n = 2 * n_per_class
        # every training sample passes each slot once per epoch, and the
        # slot sees one value per unit
        units = {net.site_slots[0]: 5, net.site_slots[1]: 7}
        for sid, width in units.items():
            assert net.slots[sid].histogram.total == n * epochs * width

    def test_two_spirals_with_rational_net(self):
        dataset = make_two_spirals(n_per_class=100, noise=0.03, seed=0)
        net = build_dense_network([2, 24, 24, 2], activation="rational",
                                  init="lrelu", seed=0)
        _, history = train_classifier(net, dataset,
                                      TrainConfig(learning_rate=0.01,
                                                  optimizer="adam",
                                                  epochs=150, seed=0))
        assert max(history["train_accuracy"]) >= 0.95

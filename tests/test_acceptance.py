"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Random draws and budgets are frozen; every tolerance is
stated inline.
"""

import json
import time

import numpy as np
import pytest

from ratnet.algebra import absorb_residual, compose
from ratnet.distance import AffineReparam, DistanceConfig, nd, nd_sym, rnd
from ratnet.fitting import FitConfig, ReferenceActivation, fit
from ratnet.histogram import Histogram
from ratnet.network import (ActivationSlot, DenseLayer, FixedActivation,
                            NetworkSpec, TrainConfig, apply_affine_equivalence,
                            backward, build_dense_network, forward,
                            pairwise_layer_distances, softmax_cross_entropy,
                            suggest_sharing)
from ratnet.rational import (RAW, SAFE, RationalFunction, eval_batch,
                             grad_coeffs, grad_input, init_identity, polyval)
from ratnet.rl import (DqnConfig, GridWorld, dqn_train, greedy_return,
                       normalize_score, optimal_return)
from ratnet import cli

from score_tables import NORMALIZED_TABLE, RAW_MEAN_SCORES


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status}" + (f" ({detail})" if detail else ""))


def test_01_score_normalization_reproduction():
    t0 = time.monotonic()
    deviations = []
    for game, (lrelu, rrn, rn, rand) in RAW_MEAN_SCORES.items():
        for agent_name, agent in (("RRN", rrn), ("RN", rn)):
            printed = NORMALIZED_TABLE[game][0 if agent_name == "RRN" else 1]
            got = normalize_score(agent, rand, lrelu)
            deviations.append((abs(got - printed), game, agent_name, got, printed))
    elapsed = time.monotonic() - t0
    worst = max(deviations)
    n_out = sum(1 for d in deviations if d[0] > 1.5)
    ok = n_out == 0 and elapsed < 1.0
    detail = (f"{30 - n_out}/30 within +-1.5, worst |delta|={worst[0]:.1f} "
              f"[{worst[1]} {worst[2]}: computed {worst[3]:.1f} vs printed "
              f"{worst[4]:.0f}], {elapsed:.3f}s")
    report(1, "score-normalization reproduction", ok, detail)
    for dev, game, agent_name, got, printed in sorted(deviations, reverse=True):
        if dev > 1.5:
            print(f"   outside +-1.5: {game:14s} {agent_name}: computed "
                  f"{got:10.2f} printed {printed:8.0f} (rel {dev / abs(printed):.3%})")
    assert elapsed < 1.0
    assert n_out == 0, (
        f"{n_out}/30 printed normalized entries are farther than 1.5 from the "
        "value recomputed off the printed raw means; the published raw table "
        "is rounded too coarsely for rows with small baseline-random gaps "
        "(all entries agree within 0.36% relative)")


def test_02_residual_closure_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    xs = np.linspace(-2.0, 2.0, 401)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 7))
        n = int(rng.integers(0, 6))
        rf = RationalFunction(rng.uniform(-1, 1, m + 1),
                              rng.uniform(-1, 1, n + 1), RAW)
        q = polyval(rf.denominator, xs)
        mask = np.abs(q) >= 1e-3
        if not mask.any():
            continue
        direct = polyval(rf.numerator, xs[mask]) / q[mask] + xs[mask]
        ab = absorb_residual(rf)
        got = polyval(ab.numerator, xs[mask]) / polyval(ab.denominator, xs[mask])
        worst = max(worst, float(np.max(np.abs(got - direct))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(2, "residual-closure oracle", ok,
           f"worst |R'(x) - (R(x)+x)| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_03_composition_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(43)
    xs = np.linspace(-2.0, 2.0, 401)
    worst = 0.0
    kept = 0
    for _ in range(100):
        outer = RationalFunction(rng.uniform(-1, 1, rng.integers(0, 7) + 1),
                                 rng.uniform(-1, 1, rng.integers(0, 6) + 1), RAW)
        inner = RationalFunction(rng.uniform(-1, 1, rng.integers(0, 7) + 1),
                                 rng.uniform(-1, 1, rng.integers(0, 6) + 1), RAW)
        q2 = polyval(inner.denominator, xs)
        mask = np.abs(q2) >= 1e-3
        iv = np.where(mask, polyval(inner.numerator, xs) / np.where(mask, q2, 1.0),
                      np.inf)
        mask &= np.abs(iv) <= 1e3
        ivs = np.where(mask, iv, 0.0)
        q1i = polyval(outer.denominator, ivs)
        mask &= np.abs(q1i) >= 1e-3
        direct = polyval(outer.numerator, ivs) / np.where(mask, q1i, 1.0)
        mask &= np.abs(direct) <= 1e3
        comp = compose(outer, inner)
        nc = polyval(comp.numerator, xs)
        dc = polyval(comp.denominator, xs)
        mask &= np.abs(dc) >= 1e-3
        # only float64-representable comparisons: Horner must be
        # well-conditioned on the composed coefficients (near inner poles it
        # is not, and neither side of the comparison means anything there)
        mask &= polyval(np.abs(comp.numerator), np.abs(xs)) <= 1e5 * np.abs(nc)
        mask &= polyval(np.abs(comp.denominator), np.abs(xs)) <= 1e5 * np.abs(dc)
        if not mask.any():
            continue
        got = nc[mask] / dc[mask]
        worst = max(worst, float(np.max(np.abs(got - direct[mask]))))
        kept += int(mask.sum())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0 and kept > 10000
    report(3, "composition oracle", ok,
           f"worst |compose(o,i)(x) - o(i(x))| = {worst:.2e} over {kept} points, "
           f"{elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def _central(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_04_gradient_suite():
    # the mismatch budget per comparison is rel * |fd| + floor, the floor
    # covering finite-difference roundoff (eps * |f| / h ~ 1e-11) where the
    # true derivative is itself tiny; pass means worst ratio <= 1
    rng = np.random.default_rng(44)
    worst_scalar = 0.0

    def ratio(got, fd, rel, floor):
        return abs(got - fd) / (rel * abs(fd) + floor)

    # grad_input and grad_coeffs over 20 random safe rationals
    for _ in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        rf = RationalFunction(rng.uniform(-1, 1, m + 1), rng.uniform(-1, 1, n), SAFE)
        checked = 0
        for x in rng.uniform(-3, 3, 200):
            s = float(polyval(rf.denominator, np.asarray(x)) * x)
            if abs(s) < 1e-6:
                continue
            fd = _central(lambda v: float(eval_batch(rf, np.asarray(v))), x)
            got = grad_input(rf, x)
            worst_scalar = max(worst_scalar, ratio(got, fd, 1e-5, 1e-9))
            d_num, d_den = grad_coeffs(rf, x)
            for j in range(m + 1):
                def f_num(v, j=j):
                    num = rf.numerator.copy()
                    num[j] = v
                    return float(eval_batch(RationalFunction(num, rf.denominator,
                                                             SAFE), np.asarray(x)))
                fd = _central(f_num, rf.numerator[j])
                worst_scalar = max(worst_scalar, ratio(d_num[j], fd, 1e-5, 1e-9))
            for k in range(n):
                def f_den(v, k=k):
                    den = rf.denominator.copy()
                    den[k] = v
                    return float(eval_batch(RationalFunction(rf.numerator, den,
                                                             SAFE), np.asarray(x)))
                fd = _central(f_den, rf.denominator[k])
                worst_scalar = max(worst_scalar, ratio(d_den[k], fd, 1e-5, 1e-9))
            checked += 1
            if checked >= 5:
                break

    # full network gradients on a 2-hidden-layer, 10-unit net
    net = build_dense_network([3, 10, 10, 2], activation="rational",
                              init="identity", seed=44)
    for slot in net.slots.values():
        slot.activation.numerator += rng.uniform(-0.3, 0.3,
                                                 slot.activation.numerator.size)
        slot.activation.denominator += rng.uniform(-0.3, 0.3,
                                                   slot.activation.denominator.size)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)

    def loss_value():
        out, _ = forward(net, x, track=False)
        return softmax_cross_entropy(out, y)[0]

    out, cache = forward(net, x, track=False)
    _, dlogits = softmax_cross_entropy(out, y)
    grads = backward(net, cache, dlogits)
    worst_net = 0.0

    def sweep(param, grad):
        nonlocal worst_net
        flat_p, flat_g = param.ravel(), grad.ravel()
        for idx in range(flat_p.size):
            old = flat_p[idx]
            flat_p[idx] = old + 1e-5
            up = loss_value()
            flat_p[idx] = old - 1e-5
            down = loss_value()
            flat_p[idx] = old
            fd = (up - down) / 2e-5
            worst_net = max(worst_net, ratio(flat_g[idx], fd, 1e-4, 1e-8))

    for i, layer in enumerate(net.layers):
        sweep(layer.weights, grads.layers[i][0])
        sweep(layer.biases, grads.layers[i][1])
    for sid, slot in net.slots.items():
        sweep(slot.activation.numerator, grads.slots[sid][0])
        sweep(slot.activation.denominator, grads.slots[sid][1])

    ok = worst_scalar <= 1.0 and worst_net <= 1.0
    report(4, "gradient suite", ok,
           f"worst scalar mismatch at {worst_scalar:.3f} of the 1e-5 rel "
           f"budget, worst network mismatch at {worst_net:.3f} of the 1e-4 "
           f"rel budget")
    assert worst_scalar <= 1.0
    assert worst_net <= 1.0


def test_05_identity_initialization():
    rf = init_identity(5, 4)
    xs = np.linspace(-10.0, 10.0, 1001)
    eval_dev = float(np.max(np.abs(eval_batch(rf, xs) - xs)))
    grad_dev = max(abs(grad_input(rf, float(x)) - 1.0) for x in xs)
    ok = eval_dev <= 1e-12 and grad_dev <= 1e-10
    report(5, "identity initialization", ok,
           f"max |R(x)-x| = {eval_dev:.1e}, max |R'(x)-1| = {grad_dev:.1e}")
    assert eval_dev <= 1e-12
    assert grad_dev <= 1e-10


def test_06_lrelu_fit():
    t0 = time.monotonic()
    _, rep = fit(5, 4, ReferenceActivation("lrelu", slope=0.01), FitConfig(seed=0))
    elapsed = time.monotonic() - t0
    ok = rep.final_mse <= 1e-3 and elapsed < 30.0
    report(6, "leaky-ReLU fit (m=5, n=4)", ok,
           f"final mse {rep.final_mse:.2e} (tol 1e-3), {elapsed:.1f}s")
    assert rep.final_mse <= 1e-3
    assert elapsed < 30.0


def test_07_neural_distance_invariance():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(20):
        f = RationalFunction(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 4), SAFE)
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(1.0 / 3.0, 3.0) * rng.choice([-1.0, 1.0]))
        d = float(rng.uniform(-1.0, 1.0))
        f2 = lambda x, f=f, a=a, b=b, c=c, d=d: a * f(c * x + d) + b
        val, _ = nd(f, f2, DistanceConfig())
        worst = max(worst, val)

    cfg = DistanceConfig()
    relu = lambda x: np.maximum(x, 0.0)
    sym_ab = nd_sym(np.tanh, relu, cfg)
    sym_ba = nd_sym(relu, np.tanh, cfg)

    rho = np.full(cfg.quad_points, 1.0 / 6.0)
    v_plain, _ = nd(np.tanh, relu, cfg)
    v_weighted, _ = rnd(np.tanh, relu, rho, cfg)
    uniform_gap = abs(v_weighted - v_plain / 6.0)

    ok = worst <= 1e-3 and sym_ab == sym_ba and uniform_gap <= 1e-9
    report(7, "neural-distance invariance", ok,
           f"worst self-equivalence {worst:.2e} (tol 1e-3), symmetry gap "
           f"{abs(sym_ab - sym_ba):.1e}, uniform-density gap {uniform_gap:.1e}")
    assert worst <= 1e-3
    assert sym_ab == sym_ba
    assert uniform_gap <= 1e-9


def test_08_affine_network_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
        d = float(rng.uniform(-1.0, 1.0))
        f1 = FixedActivation("warped", lambda x, a=a, b=b, c=c, d=d:
                             a * np.tanh(c * x + d) + b, None)
        f2 = FixedActivation("plain", np.tanh, None)
        sizes = [4, int(rng.integers(3, 9)), int(rng.integers(3, 9)), 3]
        layers = [DenseLayer(rng.normal(size=(o, i)), rng.normal(size=o))
                  for i, o in zip(sizes[:-1], sizes[1:])]
        site = int(rng.integers(0, len(layers) - 1))
        site_slots = [None] * len(layers)
        site_slots[site] = "s"
        net = NetworkSpec(layers, {"s": ActivationSlot("s", f1)}, site_slots)
        rewritten = apply_affine_equivalence(net, site, AffineReparam(a, b, c, d), f2)
        x = rng.normal(size=(100, 4))
        diff = float(np.max(np.abs(forward(rewritten, x)[0] - forward(net, x)[0])))
        worst = max(worst, diff)
    ok = worst <= 1e-9
    report(8, "affine network equivalence", ok,
           f"worst output deviation {worst:.2e} over 10 nets x 100 inputs")
    assert worst <= 1e-9


def _affine_of_raw(rf, a, b, c, d):
    inner = RationalFunction([d, c], [1.0], RAW)
    moved = compose(rf, inner)
    num = a * moved.numerator
    num = np.concatenate([num, np.zeros(max(0, moved.denominator.size - num.size))])
    num[: moved.denominator.size] += b * moved.denominator
    return RationalFunction(num, moved.denominator, RAW)


def test_09_recurrent_sharing():
    rng = np.random.default_rng(99)
    # masking test: shared-slot gradient equals the sum over per-site copies
    proto = RationalFunction(rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.5, 0.5, 4),
                             SAFE)
    shared = build_dense_network([3, 6, 6, 2], activation="shared-rational",
                                 init="identity", seed=9)
    shared.slots[shared.site_slots[0]].activation = proto.copy()
    split = build_dense_network([3, 6, 6, 2], activation="rational",
                                init="identity", seed=9)
    for sid in split.slots:
        split.slots[sid].activation = proto.copy()
    x = rng.normal(size=(10, 3))
    g_out = rng.normal(size=(10, 2))
    _, cache = forward(shared, x)
    ga = backward(shared, cache, g_out)
    _, cache2 = forward(split, x)
    gb = backward(split, cache2, g_out)
    sum_num = sum(gb.slots[s][0] for s in gb.slots)
    sum_den = sum(gb.slots[s][1] for s in gb.slots)
    sid = shared.site_slots[0]
    add_gap = max(float(np.max(np.abs(ga.slots[sid][0] - sum_num))),
                  float(np.max(np.abs(ga.slots[sid][1] - sum_den))))

    # constructed 4-slot instance: sites 0-1 and 2-3 are affine pairs
    base1 = RationalFunction([0.0, 1.0, 0.4], [1.0, 0.0, 0.5], RAW)
    base2 = RationalFunction([0.1, -0.8, 0.0, 0.3], [1.0, 0.0, 0.8], RAW)
    rationals = [base1, _affine_of_raw(base1, 1.6, 0.3, 0.8, -0.2),
                 base2, _affine_of_raw(base2, -1.2, 0.5, 1.3, 0.4)]
    layers = [DenseLayer(np.eye(2), np.zeros(2)) for _ in range(5)]
    slots, site_slots = {}, []
    for i, rf in enumerate(rationals):
        hist = Histogram(lo=-3, hi=3, bin_count=32)
        hist.observe(rng.normal(0, 1.2, 400))
        slots[f"s{i}"] = ActivationSlot(f"s{i}", rf, histogram=hist)
        site_slots.append(f"s{i}")
    site_slots.append(None)
    net = NetworkSpec(layers, slots, site_slots)
    dist = pairwise_layer_distances(net, DistanceConfig())
    in_pair = max(dist[0, 1], dist[2, 3])
    off_pair = min(dist[0, 2], dist[0, 3], dist[1, 2], dist[1, 3])
    threshold = float(np.sqrt(in_pair * off_pair))
    partition = suggest_sharing(dist, threshold)

    ok = add_gap <= 1e-10 and partition == [[0, 1], [2, 3]]
    report(9, "recurrent sharing", ok,
           f"additivity gap {add_gap:.1e}, partition {partition} "
           f"(in-pair {in_pair:.1e} vs off-pair {off_pair:.2f})")
    assert add_gap <= 1e-10
    assert partition == [[0, 1], [2, 3]]


@pytest.mark.parametrize("activation", ["rational", "shared-rational"])
def test_10_desk_scale_dqn(activation):
    t0 = time.monotonic()
    env = GridWorld()
    target = optimal_return(env)
    net = build_dense_network([env.n_states, 64, 64, env.n_actions],
                              activation=activation, init="lrelu", seed=0,
                              track_inputs=True)
    sid = net.site_slots[0]
    theta0 = np.concatenate([net.slots[sid].activation.numerator.copy(),
                             net.slots[sid].activation.denominator.copy()])
    net, _ = dqn_train(env, net, DqnConfig(seed=0))
    ret = greedy_return(env, net)
    theta1 = np.concatenate([net.slots[sid].activation.numerator,
                             net.slots[sid].activation.denominator])
    moved = float(np.linalg.norm(theta1 - theta0))
    elapsed = time.monotonic() - t0
    ok = ret >= 0.9 * target and moved > 0.0 and elapsed < 300.0
    report(10, f"desk-scale DQN ({activation})", ok,
           f"greedy return {ret} vs optimal {target} "
           f"(needs >= {0.9 * target:.2f}), coefficient movement {moved:.3f}, "
           f"{elapsed:.0f}s")
    assert ret >= 0.9 * target
    assert moved > 0.0
    assert elapsed < 300.0


def test_11_cli_determinism(tmp_path, capsys):
    invocations = [
        ("fit", "--ref", "lrelu", "--m", "3", "--n", "2", "--seed", "5",
         "--max-iters", "300"),
        ("distance", "--f1", "sigmoid", "--f2", "tanh", "--seed", "5",
         "--quad-points", "301"),
        ("absorb", "--rf", None),  # placeholder filled below
        ("train", "--dataset", "blobs", "--samples", "20", "--hidden", "4",
         "--epochs", "3", "--seed", "5"),
        ("rl", "--activation", "shared-rational", "--steps", "600", "--seed", "5"),
        ("profile", "--rf", None, "--points", "21"),
    ]
    rf_path = tmp_path / "ident.json"
    rf_path.write_text(json.dumps(init_identity(1, 0, variant=RAW).to_dict()))
    all_ok = True
    for argv in invocations:
        argv = [str(rf_path) if tok is None else tok for tok in argv]
        outputs, artifacts = [], []
        for run in range(2):
            out_dir = tmp_path / f"{argv[0]}_{run}"
            code = cli.main([*argv, "--out", str(out_dir)])
            assert code == 0, f"{argv[0]} failed"
            outputs.append(capsys.readouterr().out)
            artifacts.append(sorted((p.relative_to(out_dir).as_posix(),
                                     p.read_bytes())
                                    for p in out_dir.rglob("*") if p.is_file()))
        if outputs[0] != outputs[1] or artifacts[0] != artifacts[1]:
            all_ok = False
    with capsys.disabled():
        report(11, "CLI determinism", all_ok,
               "6 subcommands, stdout and artifacts byte-identical across reruns")
    assert all_ok

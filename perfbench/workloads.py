"""The benchmark's three workloads, each a single closed-loop caller.

ratnet is a library with no arrivals, so every workload issues its next call
only after the last one returns.  Inputs come only from the workload seed.

* ``fit``: cold ``fitting.fit(5, 4, ref)`` calls at the default FitConfig,
  one per reference per round, each with its own seed.  This is what every
  ``ratnet train``/``rl`` process pays for its lrelu init.
* ``dqn``: ``rl.dqn_train`` on the default 5x5 GridWorld with a
  [25, 64, 64, 4] two-slot rational net at identity init, so the fit stays
  out of it.  It crosses every per-step layer.
* ``distance``: ``network.pairwise_layer_distances`` on nets of safe (5, 4)
  rational sites, two of which are exact affine copies of two others.  It is
  the forward-only use of the rational layer.

Each workload has ``run_unit(i, rec, tracer)`` (the timed calls of unit i),
``check(results, rec)`` (known-answer checks, outside the timed calls and
outside tracing), ``fingerprint(results)`` (the bytes a traced pass must
reproduce) and ``trace_unit(rec, tracer)`` (the fixed plan of a traced run).
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ratnet import fitting, network, rl
from ratnet.algebra import compose, safe_to_raw
from ratnet.fitting import FitConfig, ReferenceActivation
from ratnet.histogram import Histogram
from ratnet.network import (ActivationSlot, DenseLayer, NetworkSpec, backward,
                            build_dense_network, clone_network, forward)
from ratnet.rational import RAW, SAFE, RationalFunction
from ratnet.rl import DqnConfig, GridWorld

clock = time.perf_counter


def derive_seed(*path: int) -> int:
    """A 32-bit seed determined by the workload seed and a unit path."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


@dataclass
class Record:
    """What the operations of one pass did."""

    op_s: list = field(default_factory=list)   # latency of each succeeded op
    busy_s: float = 0.0                         # wall time the ops took, for ops/s
    attempted: int = 0
    failed: int = 0
    quality: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 10:
            self.problems.append(why)


# ---------------------------------------------------------------- fit

FIT_REFS = ("lrelu", "tanh", "sigmoid", "silu")
# stated accuracy of a default (5, 4) fit on [-3, 3]: lrelu is acceptance 6's
# bound; the others sit 4-40x above what the fit reaches at the seed commit
FIT_ACCURACY = {"lrelu": 1e-3, "tanh": 1e-4, "sigmoid": 1e-4, "silu": 1e-4}


class FitWorkload:
    name = "fit"
    op = "fit"
    # end-to-end metric -> (name in the issue's table, unit, scale)
    issue_names = {"op_s.p50": ("fit_s.p50", "s", 1.0),
                   "op_s.tail": ("fit_s.tail", "s", 1.0),
                   "ops_per_s": ("fits_per_s", "1/s", 1.0),
                   "quality": ("fit_mse", "mse", 1.0)}

    def __init__(self, seed: int):
        self.seed = seed

    def _fit(self, k: int, rec: Record, tracer):
        """Fit number k of the run: its reference and its own seed."""
        ref = FIT_REFS[k % len(FIT_REFS)]
        cfg = FitConfig(seed=derive_seed(self.seed, k))
        rec.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            rf, report = fitting.fit(5, 4, ReferenceActivation(ref), cfg)
        except Exception as exc:  # a failed call is counted, the run goes on
            rec.fail(1, f"fit {ref}: {exc!r}")
            return None
        dt = clock() - t0
        rec.op_s.append(dt)
        rec.busy_s += dt
        rec.counters["fitting.iterations"] += report.iterations
        return ref, rf, report

    def run_unit(self, i: int, rec: Record, tracer=None) -> list:
        """One round: every reference once, so runs fit the same mix."""
        n = len(FIT_REFS)
        return [self._fit(n * i + j, rec, tracer) for j in range(n)]

    def trace_unit(self, rec: Record, tracer=None) -> list:
        return [self._fit(self.seed % len(FIT_REFS), rec, tracer)]

    def check(self, results: list, rec: Record) -> None:
        for res in results:
            if res is None:
                continue
            ref, rf, report = res
            finite = np.all(np.isfinite(rf.numerator)) and np.all(np.isfinite(rf.denominator))
            if not (finite and report.final_mse <= FIT_ACCURACY[ref]):
                rec.fail(1, f"fit {ref}: final mse {report.final_mse:.3e} above "
                            f"{FIT_ACCURACY[ref]:.0e}")
            rec.quality.append(report.final_mse)

    @staticmethod
    def fingerprint(results: list) -> bytes:
        return b"".join(r[1].numerator.tobytes() + r[1].denominator.tobytes()
                        for r in results if r is not None)

    @staticmethod
    def summarize_quality(values: list) -> float:
        """Geometric-mean final MSE."""
        return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------- dqn

DQN_SIZES = [25, 64, 64, 4]
# steps per training, DqnConfig defaults otherwise: 501 updates, target copies
# at steps 500, 750 and 1000, and one greedy eval at step 1000.  That eval
# comes before the policy can reach the goal, so its rollout always runs the
# full 100 steps, and the tail's eval steps cost the same in every run.
DQN_STEPS = 1000
FD_STEP = 1e-7          # central-difference step of the gradient check


class DqnWorkload:
    name = "dqn"
    op = "step"
    issue_names = {"op_s.p50": ("step_ms.p50", "ms", 1e3),
                   "op_s.tail": ("step_ms.tail", "ms", 1e3),
                   "ops_per_s": ("updates_per_s", "1/s", 1.0)}

    def __init__(self, seed: int):
        self.seed = seed
        self.env = GridWorld()
        self.net = build_dense_network(DQN_SIZES, activation="rational",
                                       init="identity", seed=seed, track_inputs=True)
        rng = np.random.default_rng(derive_seed(seed, 1))
        states = rng.integers(self.env.n_states, size=16)
        self.check_x = np.eye(self.env.n_states)[states]
        self.check_g = rng.normal(size=(states.size, self.env.n_actions))
        self.check_rng_seed = derive_seed(seed, 2)

    def run_unit(self, i: int, rec: Record, tracer=None):
        """One training from the set-up net, with its own DQN seed.

        Step latency is the time between consecutive ``probe`` calls; only
        steps that update the net (buffer ready) are timed.
        """
        net = clone_network(self.net)
        cfg = DqnConfig(train_steps=DQN_STEPS, seed=derive_seed(self.seed, 0, i))
        first = cfg.initial_fill - 1
        updates = cfg.train_steps - first
        rec.attempted += updates
        stamps = []

        def probe(step, net_, target):
            stamps.append(clock())
            if tracer is not None:
                tracer.begin_op()

        if tracer is not None:
            tracer.begin_op()
        try:
            stamps.append(clock())
            rl.dqn_train(self.env, net, cfg, probe=probe)
        except Exception as exc:  # a failed training fails all its updates
            rec.fail(updates, f"dqn_train: {exc!r}")
            return None
        lat = np.diff(stamps)[first:]
        rec.op_s.extend(lat.tolist())
        rec.busy_s += stamps[-1] - stamps[first]
        return net, updates

    def trace_unit(self, rec: Record, tracer=None):
        return self.run_unit(0, rec, tracer)

    def check(self, result, rec: Record) -> None:
        if result is None:
            return
        net, updates = result
        problem = self._problem(net)
        if problem:
            rec.fail(updates, problem)

    def _problem(self, net: NetworkSpec) -> str | None:
        layer_params = [p for l in net.layers for p in (l.weights, l.biases)]
        slot_params = [p for s in net.slots.values()
                       for p in (s.activation.numerator, s.activation.denominator)]
        if not all(np.all(np.isfinite(p)) for p in layer_params + slot_params):
            return "non-finite parameters after training"
        for sid, slot in net.slots.items():
            start = self.net.slots[sid].activation
            if (np.array_equal(slot.activation.numerator, start.numerator)
                    and np.array_equal(slot.activation.denominator, start.denominator)):
                return f"slot {sid} coefficients never moved"
        # backward against central differences of sum(outputs * G) on a fixed
        # batch: every slot coefficient and a seeded sample of layer entries
        _, cache = forward(net, self.check_x, track=False)
        grads = backward(net, cache, self.check_g)
        rng = np.random.default_rng(self.check_rng_seed)
        probes = []
        for i, layer in enumerate(net.layers):
            d_w, d_b = grads.layers[i]
            for param, grad, k in ((layer.weights, d_w, 6), (layer.biases, d_b, 2)):
                flat = rng.choice(param.size, size=k, replace=False)
                probes += [(f"layers[{i}]", param, grad, np.unravel_index(j, param.shape))
                           for j in flat]
        for sid, (d_num, d_den) in grads.slots.items():
            rf = net.slots[sid].activation
            for param, grad in ((rf.numerator, d_num), (rf.denominator, d_den)):
                probes += [(f"slot {sid}", param, grad, (j,)) for j in range(param.size)]

        def loss() -> float:
            return float(np.sum(forward(net, self.check_x, track=False)[0] * self.check_g))

        for where, param, grad, idx in probes:
            old = param[idx]
            param[idx] = old + FD_STEP
            up = loss()
            param[idx] = old - FD_STEP
            down = loss()
            param[idx] = old
            fd = (up - down) / (2.0 * FD_STEP)
            if abs(fd - grad[idx]) > 1e-6 + 1e-4 * abs(fd):
                return (f"backward {grad[idx]:.6e} vs central difference {fd:.6e} "
                        f"at {where}{list(idx)}")
        return None

    @staticmethod
    def fingerprint(result) -> bytes:
        if result is None:
            return b""
        net = result[0]
        return b"".join(s.activation.numerator.tobytes() + s.activation.denominator.tobytes()
                        for _, s in sorted(net.slots.items()))


# ---------------------------------------------------------------- distance

DIST_SITES = 5
DIST_PLANTED = {1: 0, 3: 2}   # site -> the site it is an exact affine copy of
DIST_NETS = 8                 # nets built in set-up; units cycle through them
PLANTED_TOL = 1e-3            # acceptance 9's bound for an affine pair


def affine_copy(rf: RationalFunction, a, b, c, d) -> RationalFunction:
    """a * rf(c x + d) + b as a raw rational, exactly, by composition.

    ``rf`` must be safe with a sign-constant inner sum, so that its raw form
    is the same function everywhere.
    """
    moved = compose(safe_to_raw(rf), RationalFunction([d, c], [1.0], RAW))
    return compose(RationalFunction([b, a], [1.0], RAW), moved)


def distance_network(seed: int) -> NetworkSpec:
    """DIST_SITES safe (5, 4) rational slots with seeded coefficients and
    histograms, where each site in DIST_PLANTED is an affine copy of its
    partner.  A copied site's denominator is b2 x^2 + b4 x^4 with b2, b4 >= 0,
    which keeps its inner sum non-negative on the whole line."""
    rng = np.random.default_rng(seed)
    bases = set(DIST_PLANTED.values())
    rationals = []
    for i in range(DIST_SITES):
        if i in DIST_PLANTED:
            sign = rng.choice([-1.0, 1.0], size=2)
            a, c = rng.uniform(0.5, 2.0, size=2) * sign
            b, d = rng.uniform(-1.0, 1.0, size=2)
            rationals.append(affine_copy(rationals[DIST_PLANTED[i]], a, b, c, d))
            continue
        num = rng.uniform(-1.0, 1.0, 6)
        if i in bases:
            den = np.array([0.0, rng.uniform(0.0, 1.0), 0.0, rng.uniform(0.0, 1.0)])
        else:
            den = rng.uniform(-1.0, 1.0, 4)
        rationals.append(RationalFunction(num, den, SAFE))
    slots = {}
    for i, rf in enumerate(rationals):
        hist = Histogram()
        hist.observe(rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5), 2000))
        slots[f"s{i}"] = ActivationSlot(f"s{i}", rf, histogram=hist)
    layers = [DenseLayer(np.eye(2), np.zeros(2)) for _ in range(DIST_SITES + 1)]
    return NetworkSpec(layers, slots, [f"s{i}" for i in range(DIST_SITES)] + [None])


@contextlib.contextmanager
def timed_rnd(rec: Record, tracer):
    """Time every directed ``rnd`` call pairwise_layer_distances makes."""
    inner = network.rnd

    def rnd(*args, **kwargs):
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        out = inner(*args, **kwargs)
        rec.op_s.append(clock() - t0)
        return out

    network.rnd = rnd
    try:
        yield
    finally:
        network.rnd = inner


class DistanceWorkload:
    name = "distance"
    op = "rnd"
    issue_names = {"op_s.p50": ("rnd_s.p50", "s", 1.0),
                   "op_s.tail": ("rnd_s.tail", "s", 1.0),
                   "ops_per_s": ("rnd_per_s", "1/s", 1.0),
                   "quality": ("rnd_value", "l1", 1.0)}

    def __init__(self, seed: int):
        self.nets = [distance_network(derive_seed(seed, k)) for k in range(DIST_NETS)]

    def run_unit(self, i: int, rec: Record, tracer=None):
        net = self.nets[i % len(self.nets)]
        calls = DIST_SITES * (DIST_SITES - 1)
        rec.attempted += calls
        done = len(rec.op_s)
        t0 = clock()
        try:
            with timed_rnd(rec, tracer):
                dist = network.pairwise_layer_distances(net)
        except Exception as exc:  # the whole matrix is lost
            del rec.op_s[done:]
            rec.fail(calls, f"pairwise_layer_distances: {exc!r}")
            return None
        rec.busy_s += clock() - t0
        return dist

    def trace_unit(self, rec: Record, tracer=None):
        return self.run_unit(0, rec, tracer)

    def check(self, dist, rec: Record) -> None:
        if dist is None:
            return
        k = DIST_SITES
        if not (dist.shape == (k, k) and np.all(np.isfinite(dist)) and np.all(dist >= 0.0)
                and np.array_equal(dist, dist.T) and np.all(np.diag(dist) == 0.0)):
            rec.fail(k * (k - 1), "distance matrix not finite, non-negative, "
                                  "symmetric with a zero diagonal")
            return
        planted = {(i, j) for j, i in DIST_PLANTED.items() if j < k}
        for i, j in sorted(planted):
            if not dist[i, j] <= PLANTED_TOL:
                rec.fail(2, f"planted affine pair ({i}, {j}) at {dist[i, j]:.3e}")
        rec.quality += [float(dist[i, j]) for i in range(k) for j in range(i + 1, k)
                        if (i, j) not in planted]

    @staticmethod
    def fingerprint(dist) -> bytes:
        return b"" if dist is None else dist.tobytes()

    @staticmethod
    def summarize_quality(values: list) -> float:
        """Mean minimised distance over the non-planted pairs."""
        return sum(values) / len(values)


WORKLOADS = {w.name: w for w in (FitWorkload, DqnWorkload, DistanceWorkload)}

"""Dense networks with learnable rational activations and shared slots.

Activation functions live in slots.  A slot can be referenced from several
sites (a site is the position right after one dense layer), which is how a
recurrent rational network shares one set of coefficients across layers:
during backpropagation the coefficient gradients from every site of a slot
are summed, and the optimizer updates the slot exactly once per step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .distance import DistanceConfig, rnd
from .fitting import ReferenceActivation, fit
from .histogram import Histogram
from .rational import (Evaluation, RationalFunction, grad_coeffs_batch,
                       grad_input_batch, init_identity)

# optimizer coefficients: SGD momentum and Adam's moment decays and epsilon
MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class FixedActivation:
    """A non-trainable ad hoc activation: a value function and its derivative.

    It works for in-memory use but cannot be written to JSON; a named
    ReferenceActivation is the serializable fixed activation.
    """

    name: str
    fn: Callable
    grad: Callable | None = None

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)


class ActivationSlot:
    """One activation function and, when its inputs are tracked, their
    histogram.  The sites that use the slot are the network's
    ``site_slots`` entries naming its id."""

    def __init__(self, slot_id: str, activation,
                 histogram: Histogram | None = None):
        if not isinstance(activation, (RationalFunction, ReferenceActivation,
                                       FixedActivation)):
            raise TypeError("slot activation must be a RationalFunction, "
                            "ReferenceActivation or FixedActivation")
        self.slot_id = slot_id
        self.activation = activation
        self.histogram = histogram

    @property
    def trainable(self) -> bool:
        return isinstance(self.activation, RationalFunction)

    def apply(self, z: np.ndarray, track: bool = True):
        """The activation's value at z and, for a rational, the Evaluation
        that the gradients at the same z reuse (None otherwise)."""
        if track and self.histogram is not None:
            self.histogram.observe(z)
        if self.trainable:
            ev = Evaluation(self.activation, z)
            return ev.value, ev
        return self.activation(z), None

    def input_grad(self, z: np.ndarray, ev: Evaluation | None) -> np.ndarray:
        """dActivation/dz at z; a rational reads ``ev``, the Evaluation that
        ``apply`` returned for the same z, and a fixed activation takes None."""
        if self.trainable:
            return grad_input_batch(ev)
        if self.activation.grad is None:
            raise ValueError(f"slot {self.slot_id!r} has no derivative; "
                             "it cannot be trained through")
        return np.asarray(self.activation.grad(z), dtype=float)

    def as_callable(self) -> Callable:
        return self.activation


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be 2-d and biases 1-d")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError("weights and biases disagree on output size")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]


class NetworkSpec:
    """Dense layers with an optional activation slot after each layer.

    ``site_slots[i]`` names the slot applied to layer i's output, or None for
    a purely affine layer (typically the output layer).  Several sites may
    name the same slot; that is the weight-shared (recurrent) configuration.
    """

    def __init__(self, layers: list[DenseLayer], slots: dict[str, ActivationSlot],
                 site_slots: list[str | None]):
        if len(site_slots) != len(layers):
            raise ValueError("need one site entry per layer (None for no activation)")
        for i in range(1, len(layers)):
            if layers[i].in_size != layers[i - 1].out_size:
                raise ValueError(f"layer {i} input size {layers[i].in_size} does not "
                                 f"match layer {i - 1} output size {layers[i - 1].out_size}")
        for sid, slot in slots.items():
            if slot.slot_id != sid:
                raise ValueError(f"slot {slot.slot_id!r} is keyed under {sid!r}; "
                                 "a slot's key must be its slot_id")
        for sid in site_slots:
            if sid is not None and sid not in slots:
                raise ValueError(f"site references unknown slot {sid!r}")
        self.layers = layers
        self.slots = slots
        self.site_slots = list(site_slots)
        self.version = 0

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size

    def slot_at(self, site: int) -> ActivationSlot | None:
        sid = self.site_slots[site]
        return None if sid is None else self.slots[sid]

    def to_dict(self) -> dict:
        slots = {}
        for sid, slot in self.slots.items():
            act = slot.activation
            if isinstance(act, RationalFunction):
                act_doc = {"type": "rational", **act.to_dict()}
            elif isinstance(act, ReferenceActivation):
                act_doc = {"type": "reference", **asdict(act)}
            else:
                raise ValueError(f"slot {sid!r} holds an ad hoc callable and "
                                 "cannot be serialized")
            slots[sid] = {
                "activation": act_doc,
                "histogram": None if slot.histogram is None else slot.histogram.to_dict(),
            }
        return {
            "layers": [{"weights": l.weights.tolist(), "biases": l.biases.tolist()}
                       for l in self.layers],
            "site_slots": self.site_slots,
            "slots": slots,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkSpec":
        layers = [DenseLayer(np.asarray(l["weights"], dtype=float),
                             np.asarray(l["biases"], dtype=float))
                  for l in doc["layers"]]
        slots = {}
        for sid, sdoc in doc["slots"].items():
            act_doc = sdoc["activation"]
            if act_doc["type"] == "rational":
                act = RationalFunction.from_dict(act_doc)
            elif act_doc["type"] == "reference":
                act = ReferenceActivation(**{k: v for k, v in act_doc.items()
                                             if k != "type"})
            else:
                raise ValueError(f"unknown activation type {act_doc['type']!r}")
            hist = sdoc.get("histogram")
            slots[sid] = ActivationSlot(sid, act,
                                        histogram=None if hist is None
                                        else Histogram.from_dict(hist))
        return cls(layers, slots, list(doc["site_slots"]))


def clone_network(net: NetworkSpec) -> NetworkSpec:
    """Deep copy with independent parameters, slots and histograms."""
    return copy.deepcopy(net)


@dataclass
class ForwardCache:
    inputs: list        # h_0 = batch, h_1, ..., h_{L-1} (input to each layer)
    pre_acts: list      # z_i for every layer
    outputs: np.ndarray
    net_id: int
    version: int
    activations: list   # the activation object each site evaluated, or None
    evals: list         # the Evaluation of each rational site, else None


@dataclass
class Gradients:
    layers: list                     # (dW, db) per layer
    slots: dict = field(default_factory=dict)  # slot_id -> (d_num, d_den)


def forward(net: NetworkSpec, batch, track: bool = True):
    """Run the network; returns (outputs, cache for backward).

    When tracking is on, every slot's histogram observes the pre-activation
    values flowing into it.
    """
    h = np.atleast_2d(np.asarray(batch, dtype=float))
    if h.shape[1] != net.in_size:
        raise ValueError(f"batch has {h.shape[1]} features, network expects {net.in_size}")
    inputs = []
    pre_acts = []
    activations = []
    evals = []
    for i, layer in enumerate(net.layers):
        inputs.append(h)
        z = h @ layer.weights.T + layer.biases
        pre_acts.append(z)
        slot = net.slot_at(i)
        activations.append(None if slot is None else slot.activation)
        h, ev = slot.apply(z, track=track) if slot is not None else (z, None)
        evals.append(ev)
    return h, ForwardCache(inputs, pre_acts, h, id(net), net.version, activations, evals)


def backward(net: NetworkSpec, cache: ForwardCache, loss_grad) -> Gradients:
    """Reverse accumulation of all parameter gradients.

    ``loss_grad`` is dLoss/dOutputs with the outputs' shape.  Coefficient
    gradients of a slot referenced at several sites are summed over sites,
    which is the standard weight-sharing rule.

    Each rational site's gradients read the Evaluation that forward kept,
    so the polynomials are not evaluated again: the site's power table and
    partials dR/dP, dR/dT are built once and serve both gradients.  A cache
    is stale, and raises, once an optimizer step ran or a slot's activation
    was replaced since forward; coefficients edited in place are not
    detected.
    """
    live = [None if slot is None else slot.activation
            for slot in map(net.slot_at, range(len(net.layers)))]
    if (cache.net_id != id(net) or cache.version != net.version
            or any(a is not b for a, b in zip(live, cache.activations))):
        raise ValueError("stale forward cache: the network changed since forward()")
    delta = np.asarray(loss_grad, dtype=float)
    if delta.shape != cache.outputs.shape:
        raise ValueError("loss gradient shape does not match network outputs")
    layer_grads: list = [None] * len(net.layers)
    slot_grads: dict = {}
    for sid, slot in net.slots.items():
        if slot.trainable:
            rf = slot.activation
            slot_grads[sid] = (np.zeros_like(rf.numerator), np.zeros_like(rf.denominator))
    for i in reversed(range(len(net.layers))):
        slot = net.slot_at(i)
        z = cache.pre_acts[i]
        if slot is not None:
            ev = cache.evals[i]
            if slot.trainable:
                d_num, d_den = grad_coeffs_batch(ev, delta)
                acc_num, acc_den = slot_grads[slot.slot_id]
                acc_num += d_num
                acc_den += d_den
            delta = delta * slot.input_grad(z, ev)
        layer = net.layers[i]
        layer_grads[i] = (delta.T @ cache.inputs[i], delta.sum(axis=0))
        if i > 0:
            delta = delta @ layer.weights
    return Gradients(layers=layer_grads, slots=slot_grads)


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    optimizer: str = "sgd"

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:  # zero epochs reports the initial accuracies
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")


def parameters(net: NetworkSpec, grads: Gradients | None = None):
    """Yield (name, array, gradient or None) for every trained array.

    The order is each layer's weights then biases, then each trainable slot
    by sorted id, numerator then denominator; this is the one place that
    fixes it.  A slot shared across sites is one entry.
    """
    for i, layer in enumerate(net.layers):
        d_w, d_b = grads.layers[i] if grads is not None else (None, None)
        yield f"layers[{i}].weights", layer.weights, d_w
        yield f"layers[{i}].biases", layer.biases, d_b
    for sid in sorted(net.slots):
        if net.slots[sid].trainable:
            rf = net.slots[sid].activation
            d_num, d_den = grads.slots[sid] if grads is not None else (None, None)
            yield f"slots[{sid}].numerator", rf.numerator, d_num
            yield f"slots[{sid}].denominator", rf.denominator, d_den


class Optimizer:
    """SGD-with-momentum or Adam over layer and slot parameters.

    The moments are two flat vectors over `parameters` order, so a slot
    shared across sites is updated exactly once per step from its summed
    gradient.
    """

    def __init__(self, net: NetworkSpec, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        size = sum(param.size for _, param, _ in parameters(net))
        self.m = np.zeros(size)  # Adam's first moment; SGD leaves it at 0
        self.v = np.zeros(size)  # SGD velocity or Adam's second moment

    def step(self, net: NetworkSpec, grads: Gradients) -> None:
        """One update; a non-finite gradient raises before any array moves."""
        entries = list(parameters(net, grads))
        for name, param, grad in entries:
            if np.shape(grad) != param.shape:
                raise ValueError(f"gradient for {name} has shape {np.shape(grad)}, "
                                 f"expected {param.shape}")
        grad = np.concatenate([np.ravel(g) for _, _, g in entries])
        if not np.all(np.isfinite(grad)):
            name = next(n for n, _, g in entries if not np.all(np.isfinite(g)))
            raise RuntimeError(f"non-finite gradient at {name}")
        self.t += 1
        cfg = self.cfg
        if cfg.optimizer == "sgd":
            self.v = MOMENTUM * self.v + grad
            update = cfg.learning_rate * self.v
        else:
            self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
            self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
            m_hat = self.m / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v / (1 - ADAM_BETA2 ** self.t)
            update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        start = 0
        for _, param, _ in entries:
            param -= update[start:start + param.size].reshape(param.shape)
            start += param.size
        net.version += 1


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    loss = float(-np.mean(np.log(np.maximum(p[rows, labels], 1e-300))))
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


def accuracy(net: NetworkSpec, x: np.ndarray, y: np.ndarray) -> float:
    out, _ = forward(net, x, track=False)
    return float(np.mean(np.argmax(out, axis=1) == y))


def train_classifier(net: NetworkSpec, dataset, cfg: TrainConfig):
    """Cross-entropy training loop, deterministic given cfg.seed.

    ``dataset`` provides x_train/y_train and optional x_test/y_test arrays.
    Returns the trained network and the accuracy trajectory, whose first
    entry is the accuracy before any update (so zero epochs just reports the
    initial accuracies).
    """
    x_train = np.asarray(dataset.x_train, dtype=float)
    y_train = np.asarray(dataset.y_train, dtype=np.int64)
    if x_train.shape[0] == 0:
        raise ValueError("dataset is empty")
    has_test = dataset.x_test is not None
    x_test = np.asarray(dataset.x_test, dtype=float) if has_test else x_train
    y_test = np.asarray(dataset.y_test, dtype=np.int64) if has_test else y_train

    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(net, cfg)
    history = {"train_accuracy": [accuracy(net, x_train, y_train)],
               "test_accuracy": [accuracy(net, x_test, y_test)]}
    n = x_train.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            out, cache = forward(net, x_train[idx], track=True)
            _, dlogits = softmax_cross_entropy(out, y_train[idx])
            grads = backward(net, cache, dlogits)
            opt.step(net, grads)
        history["train_accuracy"].append(accuracy(net, x_train, y_train))
        history["test_accuracy"].append(accuracy(net, x_test, y_test))
    return net, history


def apply_affine_equivalence(net: NetworkSpec, site_index: int, rp,
                             f2) -> NetworkSpec:
    """Swap the activation at one site for an affinely equivalent one.

    Assumes f1(x) = a*f2(c*x + d) + b at that site.  The layer feeding the
    site absorbs (c, d) and the following layer absorbs (a, b):

        W_i f1(W_{i-1} x + B_{i-1}) + B_i
          = a W_i f2(c W_{i-1} x + (c B_{i-1} + d)) + (B_i + b W_i 1)

    so the rewritten network computes identical outputs.  The site gets a
    fresh slot holding f2 (other sites of a shared slot keep the original).
    """
    if site_index < 0 or site_index >= len(net.layers):
        raise ValueError("site index out of range")
    if net.site_slots[site_index] is None:
        raise ValueError("site has no activation to replace")
    if site_index + 1 >= len(net.layers):
        raise ValueError("cannot rewrite the final activation: no following "
                         "layer exists to absorb the vertical reparameterization")
    if isinstance(f2, RationalFunction):
        f2 = f2.copy()

    out = clone_network(net)
    prev = out.layers[site_index]
    nxt = out.layers[site_index + 1]
    prev.weights *= rp.c
    prev.biases = rp.c * prev.biases + rp.d
    nxt.biases = nxt.biases + rp.b * nxt.weights.sum(axis=1)
    nxt.weights *= rp.a

    old_slot = out.slots[out.site_slots[site_index]]
    new_id = f"{old_slot.slot_id}@rewritten"
    k = 1
    while new_id in out.slots:
        new_id = f"{old_slot.slot_id}@rewritten{k}"
        k += 1
    hist = None if old_slot.histogram is None else Histogram()
    out.slots[new_id] = ActivationSlot(new_id, f2, histogram=hist)
    out.site_slots[site_index] = new_id
    if old_slot.slot_id not in out.site_slots:
        del out.slots[old_slot.slot_id]
    return out


def pairwise_layer_distances(net: NetworkSpec,
                             cfg: DistanceConfig | None = None) -> np.ndarray:
    """Symmetrized density-weighted distances between the sites' activations.

    Entry (i, j) weights the integrand by the merged normalized density of
    the two sites' histograms, so the comparison happens where the inputs
    actually live.  Sites must hold rational activations with populated
    histograms.  The diagonal is zero and the matrix is exactly symmetric.
    """
    if cfg is None:
        cfg = DistanceConfig()
    sites = [i for i, sid in enumerate(net.site_slots) if sid is not None]
    slots = [net.slot_at(i) for i in sites]
    for slot in slots:
        if not slot.trainable:
            raise ValueError(f"slot {slot.slot_id!r} is not a rational activation")
        if slot.histogram is None or slot.histogram.in_range == 0:
            raise ValueError(f"slot {slot.slot_id!r} has an empty histogram")
    k = len(sites)
    dist = np.zeros((k, k))
    for i in range(k):
        fi = slots[i].as_callable()
        for j in range(i + 1, k):
            fj = slots[j].as_callable()
            merged = slots[i].histogram.merge(slots[j].histogram)
            vij, _ = rnd(fi, fj, merged, cfg)
            vji, _ = rnd(fj, fi, merged, cfg)
            dist[i, j] = dist[j, i] = min(vij, vji)
    return dist


def suggest_sharing(distances: np.ndarray, threshold: float) -> list[list[int]]:
    """Greedy partition of consecutive layers into shared-activation groups.

    Walks the layers in order and appends layer j to the current group when
    the distance between j-1 and j is at or below the threshold; otherwise j
    starts a new group.  Only consecutive layers ever merge.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    k = d.shape[0]
    if k == 0:
        return []
    groups = [[0]]
    for j in range(1, k):
        if d[j - 1, j] <= threshold:
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


def xavier_normal(rng: np.random.Generator, out_size: int, in_size: int) -> np.ndarray:
    std = np.sqrt(2.0 / (in_size + out_size))
    return rng.normal(0.0, std, size=(out_size, in_size))


def build_dense_network(layer_sizes: list[int], activation: str = "rational",
                        degrees: tuple[int, int] = (5, 4), init: str = "lrelu",
                        seed: int = 0, track_inputs: bool = False) -> NetworkSpec:
    """Construct a dense network with activations after every hidden layer.

    ``activation`` is "rational" (one trainable slot per site),
    "shared-rational" (one slot for all sites) or a reference name for fixed
    baselines.  Rational coefficients start at the identity or at the seeded
    leaky-ReLU fit, matching how these networks are initialized in practice.
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output size")
    rng = np.random.default_rng(seed)
    layers = [DenseLayer(xavier_normal(rng, o, i), np.zeros(o))
              for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
    n_sites = len(layers) - 1  # output layer stays affine
    site_slots: list[str | None] = [None] * len(layers)
    slots: dict[str, ActivationSlot] = {}

    if activation in ("rational", "shared-rational"):
        m, n = degrees
        if init == "identity":
            proto = init_identity(m, n)
        elif init == "lrelu":
            proto, _ = fit(m, n, ReferenceActivation("lrelu"))
        else:
            raise ValueError("init must be 'identity' or 'lrelu'")
        groups = [[i] for i in range(n_sites)] if activation == "rational" \
            else [list(range(n_sites))]
        for group in groups:
            sid = "r" + "_".join(str(i) for i in group)
            slots[sid] = ActivationSlot(sid, proto.copy(),
                                        histogram=Histogram() if track_inputs else None)
            for i in group:
                site_slots[i] = sid
    else:
        ref = ReferenceActivation(activation)
        for i in range(n_sites):
            sid = f"{activation}{i}"
            slots[sid] = ActivationSlot(sid, ref,
                                        histogram=Histogram() if track_inputs else None)
            site_slots[i] = sid
    return NetworkSpec(layers, slots, site_slots)

"""In-memory span tracing of ratnet's public functions, installed from outside.

`Tracer.installed()` swaps module attributes and methods of ratnet for thin
wrappers that record one span per call: name, start, end, parent span,
operation id and element count.  Nothing under ``src/`` is edited, and every
original is put back on exit.  Spans stay in memory until the run writes them
out at the end.

Span names are the per-layer metric prefixes: ``rational.*``,
``histogram.observe``, ``network.*``, ``rl.*``, ``fitting.fit`` and
``distance.rnd``.  Forwards called from ``ratnet.rl`` are named by caller:
track=True is the training forward (``network.forward``), an untracked batch
of more than one row is the target network (``rl.target_forward``) and a
single row is acting or greedy evaluation (``rl.act_forward``).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

# span tuple fields
NAME, START, END, PARENT, OP, ELEMS = range(6)


def _size_of(i):
    return lambda args, kwargs: int(np.size(args[i]))


def _forward_name(args, kwargs):
    track = kwargs.get("track", args[2] if len(args) > 2 else True)
    if track:
        return "network.forward"
    batch = args[1]
    rows = np.shape(batch)[0] if np.ndim(batch) > 1 else 1
    return "rl.target_forward" if rows > 1 else "rl.act_forward"


class Tracer:
    """Records spans as lists ``[name, start, end, parent, op, elems]``.

    ``parent`` is the index of the enclosing span or -1; ``op`` is the
    operation id current when the span opened (one per DQN step, fit or
    directed ``rnd`` call), advanced by `begin_op`.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.op = 0
        self._stack: list = []

    def begin_op(self) -> None:
        self.op += 1

    def wrap(self, name, fn, elems=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's (args, kwargs), and so may ``elems``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   elems(args, kwargs) if elems else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
        return traced

    def _as_callable(self, orig):
        def as_callable(slot):
            return self.wrap("rational.eval", orig(slot), _size_of(0))
        return as_callable

    def _rnd(self, orig):
        counters = self.counters

        def rnd(f1, f2, *rest, **kwargs):
            def counted_f2(x):
                counters["distance.f2_evals"] += 1
                return f2(x)
            return orig(f1, counted_f2, *rest, **kwargs)
        return self.wrap("distance.rnd", rnd)

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer boundary the workloads cross, then restore."""
        from ratnet import fitting, histogram, network, rl

        slot, hist = network.ActivationSlot, histogram.Histogram
        w = self.wrap
        patches = [
            (slot, "apply", lambda f: w("rational.eval", f, _size_of(1))),
            (slot, "as_callable", self._as_callable),
            (slot, "input_grad", lambda f: w("rational.grad_input", f, _size_of(1))),
            (fitting, "eval_batch", lambda f: w("rational.eval", f, _size_of(1))),
            (fitting, "grad_coeffs_batch",
             lambda f: w("rational.grad_coeffs", f, _size_of(1))),
            (network, "grad_coeffs_batch",
             lambda f: w("rational.grad_coeffs", f, _size_of(1))),
            (hist, "observe", lambda f: w("histogram.observe", f, _size_of(1))),
            (rl, "forward", lambda f: w(_forward_name, f)),
            (rl, "backward", lambda f: w("network.backward", f)),
            (network.Optimizer, "step", lambda f: w("network.optimizer", f)),
            (rl.ReplayBuffer, "sample", lambda f: w("rl.replay_sample", f)),
            (rl.GridWorld, "step", lambda f: w("rl.env_step", f)),
            (rl, "clone_network", lambda f: w("rl.target_clone", f)),
            (rl, "greedy_return", lambda f: w("rl.greedy_eval", f)),
            (fitting, "fit", lambda f: w("fitting.fit", f)),
            (network, "rnd", self._rnd),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for (owner, attr, make), (_, _, orig) in zip(patches, saved):
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        run_lo = run_hi = None
        parts = sorted((max(spans[c][START], start), min(spans[c][END], end))
                       for c in children.get(i, ()))
        for lo, hi in parts:
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict:
    """name -> {"calls", "elems", "self_s"} summed over all spans."""
    totals: dict = defaultdict(lambda: {"calls": 0, "elems": 0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        t = totals[s[NAME]]
        t["calls"] += 1
        t["elems"] += s[ELEMS]
        t["self_s"] += own
    return dict(totals)


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans directly under a ``parent_name`` span."""
    return sum(1 for s in spans
               if s[NAME] == child_name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)


# span name -> the fields reported for it; a layer a workload bypasses
# reports 0 calls and 0 s
SPAN_FIELDS = (
    ("rational.eval", ("calls", "elems", "self_s")),
    ("rational.grad_input", ("calls", "self_s")),
    ("rational.grad_coeffs", ("calls", "elems", "self_s")),
    ("histogram.observe", ("calls", "elems", "self_s")),
    ("network.forward", ("self_s",)),
    ("network.backward", ("self_s",)),
    ("network.optimizer", ("calls", "self_s")),
    ("rl.replay_sample", ("self_s",)),
    ("rl.env_step", ("calls", "self_s")),
    ("rl.target_forward", ("self_s",)),
    ("rl.act_forward", ("calls", "self_s")),
    ("rl.target_clone", ("calls", "self_s")),
    ("rl.greedy_eval", ("self_s",)),
    ("fitting.fit", ("calls", "self_s")),
    ("distance.rnd", ("calls", "self_s")),
)
_UNITS = {"calls": "count", "elems": "count", "self_s": "s"}


def layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``iterations`` is the summed ``FitReport.iterations`` of the traced fits.
    A fit evaluates the loss alone on every line-search trial and together
    with the coefficient gradient once per iteration, so its loss-only
    evaluations are its eval spans minus its grad_coeffs spans.
    """
    spans = tracer.spans
    totals = layer_totals(spans)
    out = {}
    for name, fields in SPAN_FIELDS:
        got = totals.get(name, {})
        for f in fields:
            out[f"{name}.{f}"] = (got.get(f, 0), _UNITS[f])
    loss_evals = (child_calls(spans, "fitting.fit", "rational.eval")
                  - child_calls(spans, "fitting.fit", "rational.grad_coeffs"))
    out["fitting.iterations"] = (iterations, "count")
    out["fitting.loss_evals"] = (loss_evals, "count")
    out["fitting.accept_ratio"] = (iterations / loss_evals if loss_evals else 0.0, "ratio")
    f2_evals = tracer.counters["distance.f2_evals"]
    rnd_calls = totals.get("distance.rnd", {}).get("calls", 0)
    out["distance.f2_evals"] = (f2_evals, "count")
    out["distance.f2_evals_per_rnd"] = (f2_evals / rnd_calls if rnd_calls else 0.0,
                                        "count/call")
    out["trace.spans"] = (len(spans), "count")
    return out

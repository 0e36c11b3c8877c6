"""Tests of the benchmark's own arithmetic and of tracing's transparency.

    python3 -m pytest perfbench/tests
"""

import functools
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402
from ratnet import fitting, network, rl  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_covered_child_time_once():
    spans = [span("p", 0.0, 10.0),
             span("a", 1.0, 3.0, 0),
             span("b", 2.0, 5.0, 0),    # overlaps a: together they cover 1..5
             span("c", 8.0, 12.0, 0),   # clipped to its parent: covers 8..10
             span("g", 1.5, 2.5, 1)]    # grandchild: comes off a, not off p
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    totals = layer_totals(spans + [span("a", 20.0, 20.5)])
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(1.5)
    assert totals["p"]["self_s"] == pytest.approx(4.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 10)
    assert tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0, 2)


@pytest.mark.parametrize("name, shrink, expect_span", [
    ("fit", ("FitConfig", functools.partial(fitting.FitConfig, max_iters=300)),
     "fitting.fit"),
    ("dqn", ("DQN_STEPS", 700), "rl.target_forward"),
    ("distance", ("DIST_SITES", 3), "distance.rnd"),
])
def test_traced_outputs_equal_untraced_bitwise(monkeypatch, name, shrink, expect_span):
    monkeypatch.setattr(workloads, *shrink)
    originals = (network.rnd, rl.forward, fitting.fit, network.ActivationSlot.apply)
    wl = workloads.WORKLOADS[name](seed=5)
    plain = workloads.Record()
    out_plain = wl.trace_unit(plain, None)
    wl.check(out_plain, plain)
    tracer = Tracer()
    traced = workloads.Record()
    with tracer.installed():
        out_traced = wl.trace_unit(traced, tracer)
    wl.check(out_traced, traced)

    assert wl.fingerprint(out_plain) and wl.fingerprint(out_plain) == wl.fingerprint(out_traced)
    assert (plain.failed, plain.problems) == (traced.failed, traced.problems)
    assert any(s[0] == expect_span for s in tracer.spans)
    assert originals == (network.rnd, rl.forward, fitting.fit, network.ActivationSlot.apply)

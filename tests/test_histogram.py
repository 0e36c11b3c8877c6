import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet.histogram import Histogram


def test_observe_counts_in_bins():
    h = Histogram(lo=0.0, hi=1.0, bin_count=4)
    h.observe([0.05, 0.3, 0.3, 0.9])
    assert h.counts.tolist() == [1, 2, 0, 1]
    assert h.total == 4


def test_boundary_conventions():
    h = Histogram(lo=0.0, hi=1.0, bin_count=4)
    h.observe([0.0, 1.0, -0.001, 2.5])
    assert h.counts[0] == 1          # lo lands in the first bin
    assert h.overflow == 2           # hi itself overflows
    assert h.underflow == 1


@given(st.lists(st.floats(-20, 20), min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_count_conservation(values):
    h = Histogram()
    h.observe(values)
    assert h.total == len(values)


def test_edge_values_land_in_their_buckets():
    h = Histogram(lo=-5.0, hi=5.0, bin_count=64)
    # (hi - 1e-15 - lo) / bin_width rounds to 64.0, one past the last bin
    assert np.floor((5.0 - 1e-15 + 5.0) / h.bin_width) == 64
    h.observe(np.array([5.0 - 1e-15, -5.0, 5.0, 1e300, -1e300]))
    assert h.counts[-1] == 1 and h.counts[0] == 1
    assert h.in_range == 2
    assert (h.underflow, h.overflow) == (1, 2)
    rho = h.density(np.array([5.0 - 1e-15, -5.0, 5.0, 1e300, -1e300]))
    width = 10.0 / 64
    assert rho.tolist() == [0.5 / width, 0.5 / width, 0.0, 0.0, 0.0]


def test_observe_rejects_nonfinite():
    h = Histogram()
    with pytest.raises(ValueError):
        h.observe([1.0, np.nan])


def test_merge_requires_same_binning():
    a = Histogram(lo=0.0, hi=1.0, bin_count=4)
    b = Histogram(lo=0.0, hi=2.0, bin_count=4)
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_adds_counts(rng):
    a = Histogram()
    b = Histogram()
    a.observe(rng.normal(size=100))
    b.observe(rng.normal(size=50) + 8.0)  # mostly overflow
    merged = a.merge(b)
    assert merged.total == 150
    assert np.array_equal(merged.counts, a.counts + b.counts)


def test_density_integrates_to_one(rng):
    h = Histogram(lo=-2.0, hi=2.0, bin_count=16)
    h.observe(rng.normal(size=500))
    # step-function integral: bin value * bin width, summed
    centers = h.lo + (np.arange(h.bin_count) + 0.5) * h.bin_width
    total = float(np.sum(h.density(centers) * h.bin_width))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_density_zero_outside_range(rng):
    h = Histogram(lo=-1.0, hi=1.0, bin_count=8)
    h.observe(rng.uniform(-1, 1, 100))
    assert h.density(np.array([-1.5, 1.0, 3.0])).tolist() == [0.0, 0.0, 0.0]


def test_empty_density_raises():
    with pytest.raises(ValueError):
        Histogram().density(np.array([0.0]))


def test_dict_roundtrip(rng):
    h = Histogram(lo=-3.0, hi=3.0, bin_count=12)
    h.observe(rng.normal(size=200) * 3)
    back = Histogram.from_dict(h.to_dict())
    assert back.total == h.total
    assert np.array_equal(back.counts, h.counts)
    assert (back.underflow, back.overflow) == (h.underflow, h.overflow)

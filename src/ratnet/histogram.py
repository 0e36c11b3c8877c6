"""Streaming fixed-bin histogram used to track activation input distributions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Histogram:
    """Binned counter over [lo, hi) with under/overflow buckets.

    Bins are half-open intervals of equal width; values below ``lo`` land in
    ``underflow`` and values at or above ``hi`` in ``overflow``, so the total
    observation count is always conserved.  Bounds are fixed at construction
    (no adaptive rebinning), which keeps densities comparable across a
    training run.
    """

    lo: float = -5.0
    hi: float = 5.0
    bin_count: int = 64
    counts: np.ndarray = field(default=None, repr=False)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")
        if self.counts is None:
            self.counts = np.zeros(self.bin_count, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.bin_count,):
                raise ValueError("counts length does not match bin_count")
            if np.any(self.counts < 0):
                raise ValueError("counts must be non-negative")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bin_count

    @property
    def total(self) -> int:
        """Number of observations recorded, including under/overflow."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    @property
    def in_range(self) -> int:
        return int(self.counts.sum())

    def _bin_index(self, x: np.ndarray) -> np.ndarray:
        """The bin of each x: -1 below lo, bin_count at or above hi, else
        the half-open bin that holds it."""
        # floor can round up to bin_count for values just under hi; the clip
        # runs in float, so huge values cannot overflow the int64 cast
        idx = np.clip(np.floor((x - self.lo) / self.bin_width), 0, self.bin_count - 1)
        return (idx - (x < self.lo) + (x >= self.hi)).astype(np.int64)

    def observe(self, values) -> None:
        """Record one value or an array of values."""
        x = np.atleast_1d(np.asarray(values, dtype=float)).ravel()
        if x.size == 0:
            return
        if not np.all(np.isfinite(x)):
            raise ValueError("histogram observations must be finite")
        tally = np.bincount(self._bin_index(x) + 1, minlength=self.bin_count + 2)
        self.underflow += int(tally[0])
        self.overflow += int(tally[-1])
        self.counts += tally[1:-1]

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms with identical binning into a new one."""
        if (other.lo, other.hi, other.bin_count) != (self.lo, self.hi, self.bin_count):
            raise ValueError("histograms have different binning")
        return Histogram(
            self.lo,
            self.hi,
            self.bin_count,
            counts=self.counts + other.counts,
            underflow=self.underflow + other.underflow,
            overflow=self.overflow + other.overflow,
        )

    def density(self, xs) -> np.ndarray:
        """Piecewise-constant density estimate evaluated at ``xs``.

        The step function integrates to 1 over [lo, hi); points outside get
        density 0.  Raises if no in-range observations exist.
        """
        if self.in_range == 0:
            raise ValueError("histogram is empty over its range")
        x = np.asarray(xs, dtype=float)
        rho = np.zeros_like(x)
        inside = (x >= self.lo) & (x < self.hi)
        rho[inside] = (self.counts[self._bin_index(x[inside])]
                       / (self.in_range * self.bin_width))
        return rho

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bin_count": self.bin_count,
            "counts": self.counts.tolist(),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        return cls(
            lo=float(d["lo"]),
            hi=float(d["hi"]),
            bin_count=int(d["bin_count"]),
            counts=np.asarray(d["counts"], dtype=np.int64),
            underflow=int(d.get("underflow", 0)),
            overflow=int(d.get("overflow", 0)),
        )

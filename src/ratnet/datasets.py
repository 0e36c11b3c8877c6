"""Small 2-D classification datasets and the label,f1,f2,... CSV format."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPIRAL_TURNS = 1.5  # revolutions each spiral arm makes


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None


def make_blobs(n_per_class: int = 100, separation: float = 4.0,
               spread: float = 0.7, seed: int = 0) -> Dataset:
    """Two Gaussian clusters along the diagonal; separable when
    separation is comfortably larger than the spread."""
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    x0 = rng.normal(0.0, spread, size=(n_per_class, 2)) + [-half, -half]
    x1 = rng.normal(0.0, spread, size=(n_per_class, 2)) + [half, half]
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])
    order = rng.permutation(x.shape[0])
    return Dataset(x[order], y[order])


def make_two_spirals(n_per_class: int = 100, noise: float = 0.05,
                     seed: int = 0) -> Dataset:
    """Classic interleaved-spirals benchmark, scaled into roughly [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.05, 1.0, size=n_per_class)) * SPIRAL_TURNS * 2.0 * np.pi
    r = t / (SPIRAL_TURNS * 2.0 * np.pi)
    x0 = np.column_stack([r * np.cos(t), r * np.sin(t)])
    x1 = -x0
    x0 = x0 + rng.normal(0.0, noise, size=x0.shape)
    x1 = x1 + rng.normal(0.0, noise, size=x1.shape)
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])
    order = rng.permutation(x.shape[0])
    return Dataset(x[order], y[order])


def load_csv(path) -> Dataset:
    """Read rows of "label,f1,f2,..." into arrays."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] < 2:
        raise ValueError("dataset rows need a label and at least one feature")
    return Dataset(rows[:, 1:].astype(float), rows[:, 0].astype(np.int64))

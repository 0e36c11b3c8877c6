"""Learnable rational activation functions and their surrounding calculus."""

from .algebra import absorb_residual, compose, normalize, safe_to_raw
from .distance import AffineReparam, DistanceConfig, integrate_abs_diff, nd, nd_sym, rnd
from .fitting import FitConfig, FitReport, ReferenceActivation, fit
from .histogram import Histogram
from .network import (ActivationSlot, DenseLayer, FixedActivation, NetworkSpec,
                      Optimizer, TrainConfig, apply_affine_equivalence,
                      backward, build_dense_network, forward,
                      pairwise_layer_distances, suggest_sharing, train_classifier)
from .rational import (PoleError, RationalFunction, eval_batch, evaluate,
                       grad_coeffs, grad_input, init_identity)
from .rl import (DqnConfig, GridWorld, ReplayBuffer, ScoreReport, dqn_train,
                 epsilon_at, normalize_score, optimal_return, value_iteration)

__all__ = [
    "AffineReparam", "ActivationSlot", "DenseLayer", "DistanceConfig",
    "DqnConfig", "FitConfig", "FitReport", "FixedActivation", "GridWorld",
    "Histogram", "NetworkSpec", "Optimizer", "PoleError", "RationalFunction",
    "ReferenceActivation", "ReplayBuffer", "ScoreReport", "TrainConfig",
    "absorb_residual", "apply_affine_equivalence", "backward",
    "build_dense_network", "compose", "dqn_train", "epsilon_at", "eval_batch",
    "evaluate", "fit", "forward", "grad_coeffs", "grad_input", "init_identity",
    "integrate_abs_diff", "nd", "nd_sym", "normalize", "normalize_score",
    "optimal_return", "pairwise_layer_distances", "rnd", "safe_to_raw",
    "suggest_sharing", "train_classifier", "value_iteration",
]

__version__ = "0.1.0"

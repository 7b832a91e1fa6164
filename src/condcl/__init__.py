"""Conditioned sentence-embedding projection over frozen encoders.

A condition embedding is mapped, by a learned affine generator, to a linear
operator that projects sentence embeddings into a condition-specific
subspace. The package covers training (contrastive + regression objectives
with analytic gradients), baselines (elementwise and concatenation
composers), request-stream serving with cache and cost counters, and an
analysis toolkit (rank correlations, filtered ranking metrics, clustering
impurity, operator-norm variance).
"""

__version__ = "0.1.0"

from .encoder import EmbeddingStore, HashingProvider, StoreProvider, load_embeddings
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    apply_stack,
    generate_operators,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .losses import CstsQuadruplet, KgTriple, LossConfig, grad_check
from .trainer import TrainConfig, TrainReport, fit, make_synthetic_csts, make_synthetic_kg, train

__all__ = [
    "__version__",
    "EmbeddingStore",
    "HashingProvider",
    "StoreProvider",
    "load_embeddings",
    "ConditionOperator",
    "HyperNetParams",
    "apply_stack",
    "generate_operators",
    "init_params",
    "load_checkpoint",
    "param_count",
    "save_checkpoint",
    "CstsQuadruplet",
    "KgTriple",
    "LossConfig",
    "grad_check",
    "TrainConfig",
    "TrainReport",
    "fit",
    "train",
    "make_synthetic_csts",
    "make_synthetic_kg",
]

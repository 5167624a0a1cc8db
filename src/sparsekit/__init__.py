"""Structured sparse training with gradual magnitude pruning.

Core pieces: dense tensor helpers and reductions (:mod:`.tensor`), the
sparsity-threshold schedule (:mod:`.schedule`), mask generators for every
pruning granularity (:mod:`.masking`), a minimal convolutional trainer
with per-batch mask re-evaluation (:mod:`.model`, :mod:`.trainer`),
fixed-mask weight compression (:mod:`.compressed`), gradient-sign
robustness evaluation (:mod:`.adversarial`), and a JSON-config experiment
runner (:mod:`.cli`).
"""

from .adversarial import AttackSpec, fgsm_perturb, robustness_sweep
from .compressed import (
    CKSparseLayer,
    WindowSparseLayer,
    compress_ck,
    compress_window,
    decompress_ck,
    decompress_window,
    multiply_count,
)
from .errors import ConfigError, FormatError, ShapeMismatchError, TrainingDivergedError
from .masking import (
    ck_mask,
    combined_mask,
    conv_driven_fc_elimination,
    ensure_column_coverage,
    fc_block_mask,
    fc_fine_mask,
    monotone_and,
    prune_count,
    window_mask,
)
from .model import ToyModel, backward, forward, input_gradient, sgd_step
from .schedule import Granularity, Phase, PruningSchedule, phase_at, threshold_at
from .tensor import apply_mask, kernel_max, load_tensors, measured_sparsity, save_tensors
from .trainer import (
    MetricsRow,
    SyntheticSpec,
    TrainingConfig,
    build_model,
    make_synthetic_dataset,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "CKSparseLayer",
    "ConfigError",
    "FormatError",
    "Granularity",
    "MetricsRow",
    "Phase",
    "PruningSchedule",
    "ShapeMismatchError",
    "SyntheticSpec",
    "ToyModel",
    "TrainingConfig",
    "TrainingDivergedError",
    "WindowSparseLayer",
    "apply_mask",
    "backward",
    "build_model",
    "ck_mask",
    "combined_mask",
    "compress_ck",
    "compress_window",
    "conv_driven_fc_elimination",
    "decompress_ck",
    "decompress_window",
    "ensure_column_coverage",
    "fc_block_mask",
    "fc_fine_mask",
    "fgsm_perturb",
    "forward",
    "input_gradient",
    "kernel_max",
    "load_tensors",
    "make_synthetic_dataset",
    "measured_sparsity",
    "monotone_and",
    "multiply_count",
    "phase_at",
    "prune_count",
    "robustness_sweep",
    "save_tensors",
    "sgd_step",
    "threshold_at",
    "train",
    "window_mask",
]

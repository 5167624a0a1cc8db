"""Sparse training loop: per-batch mask re-evaluation during the pruning
era, masked momentum SGD, and a frozen mask afterwards.

Also provides the deterministic synthetic dataset the toy network trains
on, the per-epoch metrics log, checkpoint save/load (tensor container
plus a JSON sidecar with the config, the epoch and the tensor order), and
the JSON schema of the config dataclasses.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
import types
import typing
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, TrainingDivergedError
from .masking import (
    ck_mask,
    combined_mask,
    conv_driven_fc_elimination,
    ensure_column_coverage,
    fc_block_mask,
    fc_fine_mask,
    monotone_and,
    window_mask,
)
from .model import ToyModel, backward, cross_entropy, forward, sgd_step
from .schedule import Granularity, Phase, PruningSchedule, phase_at, threshold_at
from .tensor import load_tensors, measured_sparsity, save_tensors

EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class SyntheticSpec:
    """Class-conditional Gaussian-blob images, reproducible from the seed."""

    n_train: int
    n_val: int
    image_size: int
    channels: int
    n_classes: int
    seed: int

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.channels, self.n_classes) < 1:
            raise ConfigError("dataset counts must all be >= 1")
        if self.image_size < 2:
            raise ConfigError(f"image_size must be >= 2, got {self.image_size}")
        if self.seed < 0:
            raise ConfigError(f"dataset seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int
    batch_size: int
    lr0: float
    lr_drop_epochs: list[int]
    seed: int
    schedule: PruningSchedule
    dataset: SyntheticSpec
    lr_drop_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    conv1_out: int = 8
    conv2_out: int = 8
    pool: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0 < self.lr_drop_factor < 1:
            raise ConfigError(f"lr_drop_factor must be in (0, 1), got {self.lr_drop_factor}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.conv1_out, self.conv2_out, self.pool) < 1:
            raise ConfigError("conv1_out, conv2_out and pool must be >= 1, got "
                              f"{self.conv1_out}, {self.conv2_out} and {self.pool}")


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    top1: float
    loss: float
    sparsity: float
    lr: float
    phase: str


METRICS_HEADER = [f.name for f in dataclasses.fields(MetricsRow)]


class Split(NamedTuple):
    x: np.ndarray
    y: np.ndarray

    def batches(self):
        """(x, y) slices in order, ``EVAL_BATCH_SIZE`` samples at a time."""
        for start in range(0, len(self.y), EVAL_BATCH_SIZE):
            stop = start + EVAL_BATCH_SIZE
            yield self.x[start:stop], self.y[start:stop]


def make_synthetic_dataset(spec: SyntheticSpec) -> tuple[Split, Split]:
    """Build (train, val) splits of labeled blob images in [0, 1].

    Each class has a Gaussian bump at a distinct position on a ring;
    samples are the class pattern plus iid noise, clipped to [0, 1].
    Splits are class-balanced (label counts differ by at most one) and
    byte-for-byte reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    s = spec.image_size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    sigma = s / 5.0
    means = np.empty((spec.n_classes, spec.channels, s, s))
    for i in range(spec.n_classes):
        angle = 2.0 * np.pi * i / spec.n_classes
        cy = (s - 1) / 2.0 + (s / 4.0) * np.sin(angle)
        cx = (s - 1) / 2.0 + (s / 4.0) * np.cos(angle)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        means[i] = 0.25 + 0.5 * bump

    def draw(n: int) -> Split:
        labels = rng.permutation(np.arange(n) % spec.n_classes)
        x = means[labels] + 0.1 * rng.standard_normal((n, spec.channels, s, s))
        return Split(np.clip(x, 0.0, 1.0), labels.astype(np.int64))

    return draw(spec.n_train), draw(spec.n_val)


def build_model(config: TrainingConfig) -> ToyModel:
    d = config.dataset
    return ToyModel(
        channels=d.channels,
        image_size=d.image_size,
        n_classes=d.n_classes,
        conv1_out=config.conv1_out,
        conv2_out=config.conv2_out,
        pool=config.pool,
        seed=config.seed,
    )


def network_sparsity(model: ToyModel) -> float:
    return measured_sparsity([layer.weight for _, layer in model.prunable()])


def regenerate_masks(model: ToyModel, sched: PruningSchedule, threshold: float) -> None:
    """One mask re-evaluation at the given threshold, folded monotonically.

    Conv layers use the schedule's granularity (1x1 layers always prune
    at kernel granularity since a 1x1 window is a single weight); the FC
    layer prunes fine under the conv granularities or with its own regime
    under the FC granularities. Conv-zero-driven row elimination runs on
    the FC mask before the monotone fold, and column-coverage repair
    after it, among the bits the previous mask kept, so every FC column
    keeps a bit. Weights and momenta are re-masked afterwards.
    """
    g = sched.granularity
    cap = sched.max_non_zero
    if g in (Granularity.WINDOW, Granularity.CK, Granularity.COMBINED):
        if g is Granularity.WINDOW:
            new1 = window_mask(model.conv1.weight, threshold, cap)
        elif g is Granularity.CK:
            new1 = ck_mask(model.conv1.weight, threshold, cap)
        else:
            new1 = combined_mask(model.conv1.weight, threshold, sched.window_fraction, cap)
        new2 = ck_mask(model.conv2.weight, threshold, cap)
        model.conv1.mask = monotone_and(model.conv1.mask, new1)
        model.conv2.mask = monotone_and(model.conv2.mask, new2)

    if g is Granularity.FC_BLOCK:
        raw = fc_block_mask(model.fc.weight, threshold, sched.fc_block)
    else:
        raw = fc_fine_mask(model.fc.weight, threshold)
    elim = conv_driven_fc_elimination(
        model.conv2.mask, model.fc.weight, model.neurons_per_channel
    )
    model.fc.mask = _cover_columns(monotone_and(model.fc.mask, raw * elim),
                                   model.fc.mask, model.fc.weight)
    model.apply_masks()


def _cover_columns(mask: np.ndarray, prev: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Give each column that ``mask`` left empty one bit back from ``prev``.

    Pruned weights are exactly 0, so a column's largest-magnitude weight
    is a bit ``prev`` kept unless the whole column is 0; then the lowest
    row ``prev`` kept returns instead of row 0.
    """
    m = ensure_column_coverage(mask, w)
    vacuous = np.flatnonzero((m > prev).any(axis=0))
    first = np.argmax(prev[:, vacuous], axis=0)
    m[:, vacuous] = 0.0
    m[first, vacuous] = prev[first, vacuous]
    return m


def _learning_rate(config: TrainingConfig, epoch: int) -> float:
    drops = sum(1 for d in config.lr_drop_epochs if epoch >= d)
    return config.lr0 * config.lr_drop_factor**drops


def evaluate(model: ToyModel, split: Split) -> tuple[float, float]:
    """(top-1 accuracy, mean loss) over a split, masked weights as-is."""
    correct = 0
    loss_sum = 0.0
    n = len(split.y)
    for xb, yb in split.batches():
        logits = forward(model, xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
        loss_sum += cross_entropy(logits, yb) * len(yb)
    return correct / n, loss_sum / n


def train(model: ToyModel, config: TrainingConfig,
          on_epoch_end=None) -> tuple[ToyModel, list[MetricsRow]]:
    """Run the sparse training protocol and return per-epoch metrics.

    Per batch: one ``backward`` call (forward, then masked gradients), a
    momentum SGD step, then (inside the pruning era) a mask re-evaluation
    at the epoch's threshold. A non-finite loss raises
    ``TrainingDivergedError`` before the step. At the very end of the last
    era epoch one extra evaluation runs at the final target so the frozen
    mask achieves it exactly; afterwards no new pruning occurs.
    ``on_epoch_end(model, row)`` is called after each epoch's metrics row
    is appended, before any end-of-era evaluation.
    """
    sched = config.schedule
    if sched.s_f > 0 and sched.e_i + sched.l_p > config.epochs:
        warnings.warn(
            f"pruning era [{sched.e_i}, {sched.e_i + sched.l_p}) extends past "
            f"{config.epochs} epochs; the run will end below the target sparsity",
            stacklevel=2,
        )
    rng = np.random.default_rng(config.seed)
    train_split, val_split = make_synthetic_dataset(config.dataset)
    n = len(train_split.y)
    rows: list[MetricsRow] = []

    for epoch in range(config.epochs):
        lr = _learning_rate(config, epoch)
        phase = phase_at(sched, epoch)
        threshold = threshold_at(sched, epoch)
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb, yb = train_split.x[idx], train_split.y[idx]
            logits, grads = backward(model, xb, yb)
            if not np.isfinite(cross_entropy(logits, yb)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            sgd_step(model, grads, lr, config.momentum, config.weight_decay)
            if phase is Phase.PRUNING:
                regenerate_masks(model, sched, threshold)

        top1, val_loss = evaluate(model, val_split)
        rows.append(
            MetricsRow(
                epoch=epoch,
                top1=top1,
                loss=val_loss,
                sparsity=network_sparsity(model),
                lr=lr,
                phase=phase.value,
            )
        )
        if on_epoch_end is not None:
            on_epoch_end(model, rows[-1])
        if phase is Phase.PRUNING and epoch == sched.e_i + sched.l_p - 1:
            regenerate_masks(model, sched, sched.s_f)

    return model, rows


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(METRICS_HEADER) + "\n")
        for r in rows:
            f.write(",".join(str(getattr(r, name)) for name in METRICS_HEADER) + "\n")


def read_metrics_csv(path) -> list[MetricsRow]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != METRICS_HEADER:
            raise ConfigError(f"unexpected metrics header {reader.fieldnames} in {path}")
        hints = typing.get_type_hints(MetricsRow)
        for rec in reader:
            rows.append(MetricsRow(**{name: hints[name](rec[name]) for name in METRICS_HEADER}))
    return rows


# ---------------------------------------------------------------------------
# Config <-> dict (for JSON configs and checkpoint sidecars)
# ---------------------------------------------------------------------------


def take_fields(d, cls, where: str) -> dict:
    """Check a JSON object against dataclass ``cls`` and return its fields.

    Fields with a default are optional, the rest required. Each value must
    match the field's annotation: a ``bool`` counts as neither ``int`` nor
    ``float``, a number for a ``float`` must be finite and within the float
    range (ints included), and a nested dataclass field only has to be an
    object here, which the caller then parses.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} section must be an object, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing field(s) in {where}: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for f in fields:
        if f.name in d and not _matches(d[f.name], hints[f.name]):
            raise ConfigError(f"{where} field {f.name} must be {f.type}, got {d[f.name]!r}")
    return dict(d)


def _matches(value, tp) -> bool:
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin is types.UnionType:
        return any(_matches(value, a) for a in args)
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        return (isinstance(value, (list, tuple)) and (not fixed or len(value) == len(args))
                and all(_matches(v, args[0]) for v in value))
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if dataclasses.is_dataclass(tp):
        return isinstance(value, dict)
    if issubclass(tp, Enum):
        return value in [m.value for m in tp]
    return isinstance(value, tp)


def schedule_from_dict(d) -> PruningSchedule:
    if isinstance(d, dict) and "s_i" in d:  # the initial sparsity, a field once, always 0
        d = dict(d)
        initial = d.pop("s_i")
        if isinstance(initial, bool) or initial != 0:
            raise ConfigError(f"schedule field s_i is pinned to 0, got {initial!r}")
    return PruningSchedule(**take_fields(d, PruningSchedule, "schedule"))


def config_to_dict(c: TrainingConfig) -> dict:
    d = dataclasses.asdict(c)
    d["schedule"]["granularity"] = c.schedule.granularity.value
    return d


def config_from_dict(d) -> TrainingConfig:
    fields = take_fields(d, TrainingConfig, "training")
    fields["schedule"] = schedule_from_dict(fields["schedule"])
    fields["dataset"] = SyntheticSpec(**take_fields(fields["dataset"], SyntheticSpec, "dataset"))
    return TrainingConfig(**fields)


# ---------------------------------------------------------------------------
# Checkpoints: tensor container + JSON sidecar
# ---------------------------------------------------------------------------

_PER_LAYER = ("weight", "bias", "mask", "vel_w", "vel_b")


def save_checkpoint(path, model: ToyModel, config: TrainingConfig,
                    epoch: int | None = None) -> None:
    """Write weights, masks, and momentum buffers plus a ``.json`` sidecar.

    Tensor order is fixed: for each prunable layer in model order, the
    tensors named in the sidecar's ``tensor_order``. The sidecar also
    carries the full config and the epoch.
    """
    arrays = []
    order = []
    for name, layer in model.prunable():
        for attr in _PER_LAYER:
            arrays.append(getattr(layer, attr))
            order.append(f"{name}.{attr}")
    save_tensors(path, arrays)
    sidecar = {
        "config": config_to_dict(config),
        "epoch": epoch,
        "tensor_order": order,
    }
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, sort_keys=True, indent=1)
        f.write("\n")


def load_checkpoint(path) -> tuple[ToyModel, TrainingConfig, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    Every tensor must be finite and every mask binary, with zero weight
    and zero momentum wherever the mask is 0, as training leaves them.
    Raises ``FormatError`` naming the first tensor that breaks this.
    """
    with open(str(path) + ".json") as f:
        sidecar = json.load(f)
    if not isinstance(sidecar, dict):
        raise FormatError(f"checkpoint sidecar {path}.json holds a JSON "
                          f"{type(sidecar).__name__}, not an object")
    config = config_from_dict(sidecar["config"])
    model = build_model(config)
    arrays = load_tensors(path)
    expected = [f"{name}.{attr}" for name, _ in model.prunable() for attr in _PER_LAYER]
    if sidecar["tensor_order"] != expected or len(arrays) != len(expected):
        raise ConfigError(f"checkpoint {path} does not match its sidecar layout")
    i = 0
    for name, layer in model.prunable():
        for attr in _PER_LAYER:
            current = getattr(layer, attr)
            if arrays[i].shape != current.shape:
                raise ConfigError(f"checkpoint tensor {expected[i]} has shape "
                                  f"{arrays[i].shape}, expected {current.shape}")
            setattr(layer, attr, arrays[i])
            i += 1
        _check_trained_state(name, layer)
    return model, config, sidecar


def _check_trained_state(name: str, layer) -> None:
    for attr in _PER_LAYER:
        if not np.isfinite(getattr(layer, attr)).all():
            raise FormatError(f"checkpoint tensor {name}.{attr} holds a non-finite value")
    pruned = layer.mask == 0.0
    if not (pruned | (layer.mask == 1.0)).all():
        raise FormatError(f"checkpoint tensor {name}.mask holds a value other than 0 and 1")
    for attr in ("weight", "vel_w"):
        if getattr(layer, attr)[pruned].any():
            raise FormatError(f"checkpoint tensor {name}.{attr} is nonzero where {name}.mask is 0")

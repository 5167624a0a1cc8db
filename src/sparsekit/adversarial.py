"""Single-step gradient-sign attacks and the epsilon-sweep evaluation.

The attack perturbs each input by ``epsilon * sign(d loss / d input)``
using the true labels, then clamps back to the valid input range. The
sweep measures top-1 accuracy on the full validation split at each
epsilon; epsilon 0 reproduces the clean accuracy by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ToyModel, input_gradient
from .trainer import Split, evaluate

DEFAULT_EPSILONS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@dataclass(frozen=True)
class AttackSpec:
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    clamp_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps:
            raise ConfigError("epsilons must be nonempty")
        if any(e < 0 for e in eps):
            raise ConfigError(f"epsilons must be nonnegative, got {eps}")
        if list(eps) != sorted(eps):
            raise ConfigError(f"epsilons must be sorted ascending, got {eps}")
        lo, hi = (float(v) for v in self.clamp_range)
        object.__setattr__(self, "clamp_range", (lo, hi))
        if not lo < hi:
            raise ConfigError(f"clamp_range must satisfy lo < hi, got {self.clamp_range}")


def fgsm_perturb(
    model: ToyModel,
    batch: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    clamp_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """x + epsilon * sign(input gradient), clamped to the input domain.

    sign(0) = 0, so coordinates with zero gradient are left untouched.
    """
    if epsilon < 0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    x = np.asarray(batch, dtype=np.float64)
    lo, hi = clamp_range
    return np.clip(x + epsilon * np.sign(input_gradient(model, x, labels)), lo, hi)


def robustness_sweep(model: ToyModel, val: Split, spec: AttackSpec) -> list[tuple[float, float]]:
    """Top-1 accuracy on the attacked validation split at each epsilon."""
    # the gradient sign is the same at every epsilon; unclamped at 1, fgsm_perturb moves by it
    step = np.concatenate([np.sign(fgsm_perturb(model, xb, yb, 1.0, (-np.inf, np.inf)) - xb)
                           for xb, yb in val.batches()])
    adv = np.empty_like(step)
    results = []
    for eps in spec.epsilons:
        np.multiply(step, eps, out=adv)
        adv += val.x
        np.clip(adv, *spec.clamp_range, out=adv)
        results.append((eps, evaluate(model, Split(adv, val.y))[0]))
    return results


def write_robustness_csv(path, results: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="") as f:
        f.write("epsilon,top1\n")
        for eps, top1 in results:
            f.write(f"{eps!r},{top1!r}\n")


def read_robustness_csv(path) -> list[tuple[float, float]]:
    out = []
    with open(path, newline="") as f:
        header = f.readline().strip()
        if header != "epsilon,top1":
            raise ConfigError(f"unexpected robustness header {header!r} in {path}")
        for line in f:
            eps, top1 = line.strip().split(",")
            out.append((float(eps), float(top1)))
    return out

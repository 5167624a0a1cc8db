"""Gradual sparsity-threshold schedule and the pruning-era state machine.

The target sparsity rises from 0 to ``s_f`` over a pruning era of ``l_p``
epochs starting at epoch ``e_i``:

    threshold(e) = s_f - s_f * (1 - (e - e_i) / l_p) ** r

This is the gradual-pruning ramp of Zhu & Gupta (2017) with the initial
sparsity pinned to 0, so the threshold is exactly 0 at the era start and
exactly ``s_f`` at the era end. Before the era training is dense;
after it the mask is frozen and no new pruning occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError


class Granularity(str, Enum):
    WINDOW = "window"
    CK = "ck"
    COMBINED = "combined"
    FC_FINE = "fc_fine"
    FC_BLOCK = "fc_block"


class Phase(str, Enum):
    DENSE = "dense"
    PRUNING = "pruning"
    FROZEN = "frozen"


@dataclass(frozen=True)
class PruningSchedule:
    """Everything the threshold formula and the mask generators need.

    ``max_non_zero`` caps survivors per locale (weights per kernel for
    window pruning, kernels per channel column for CK). ``window_fraction``
    is the share of the threshold handled by the window phase of combined
    pruning. ``fc_block`` is the tile edge for block FC pruning.
    """

    s_f: float
    e_i: int
    l_p: int
    granularity: Granularity
    r: float = 3.0
    max_non_zero: int | None = None
    window_fraction: float = 0.8
    fc_block: int = 2

    def __post_init__(self):
        if not 0.0 <= self.s_f <= 1.0:
            raise ConfigError(f"s_f must be in [0, 1], got {self.s_f}")
        if self.e_i < 0:
            raise ConfigError(f"e_i must be >= 0, got {self.e_i}")
        if self.l_p < 1:
            raise ConfigError(f"l_p must be >= 1, got {self.l_p}")
        if self.r < 1:
            raise ConfigError(f"r must be >= 1, got {self.r}")
        if not isinstance(self.granularity, Granularity):
            try:
                object.__setattr__(self, "granularity", Granularity(self.granularity))
            except ValueError:
                raise ConfigError(f"unknown granularity {self.granularity!r}") from None
        if self.max_non_zero is not None and self.max_non_zero < 0:
            raise ConfigError(f"max_non_zero must be >= 0, got {self.max_non_zero}")
        if not 0.0 <= self.window_fraction <= 1.0:
            raise ConfigError(f"window_fraction must be in [0, 1], got {self.window_fraction}")
        if not 1 <= self.fc_block <= 4:
            raise ConfigError(f"fc_block must be in [1, 4], got {self.fc_block}")


def threshold_at(sched: PruningSchedule, e_c: int) -> float:
    """Sparsity threshold in effect for epoch ``e_c``.

    Evaluated at epoch granularity: every batch within an epoch uses the
    same threshold. Exactly 0 at the era start and exactly ``s_f`` from
    the era end onward; clamped against floating-point overshoot.
    """
    if e_c < sched.e_i:
        return 0.0
    if e_c > sched.e_i + sched.l_p:
        return sched.s_f
    frac = (e_c - sched.e_i) / sched.l_p
    t = sched.s_f - sched.s_f * (1.0 - frac) ** sched.r
    return min(max(t, 0.0), sched.s_f)


def phase_at(sched: PruningSchedule, e_c: int) -> Phase:
    """Dense before the era, Pruning inside it, Frozen from its end on."""
    if e_c < sched.e_i:
        return Phase.DENSE
    if e_c < sched.e_i + sched.l_p:
        return Phase.PRUNING
    return Phase.FROZEN

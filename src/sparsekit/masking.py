"""Mask-generation algorithms for every pruning granularity.

All generators are pure functions from (weights, threshold, options) to a
0/1 mask congruent with the weights. Selection is always by magnitude
score with a deterministic tie-break (lowest index pruned first), so two
runs over the same inputs produce bit-identical masks.

Locales:

* window pruning scores individual weights within each (k, c) kernel;
* CK pruning scores whole kernels by their maximum weight magnitude and
  selects across the entire layer, so the achieved layer sparsity is
  within one kernel of the target;
* combined pruning runs window pruning at a fraction of the threshold,
  then removes whole kernels (smallest post-window kernel max first)
  until the layer as a whole reaches the target;
* fine FC pruning scores individual weights across the whole matrix;
* block FC pruning scores block x block tiles by their absolute sum.

FC masks additionally guarantee that every output column keeps at least
one surviving weight (see :func:`ensure_column_coverage`).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .tensor import as_conv_weight, as_fc_weight, check_mask, kernel_max

# Absolute slack when comparing an integer zero count against the real
# target count; covers float64 rounding in threshold * size, never a
# whole missing zero.
_TARGET_EPS = 1e-9


class CoverageWarning(RuntimeWarning):
    """A column had to be covered by a weight that is exactly zero."""


def _check_threshold(threshold: float) -> float:
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"sparsity threshold must be in [0, 1], got {threshold}")
    return float(threshold)


def prune_count(locale_size: int, threshold: float, max_non_zero: int | None = None) -> int:
    """Number of elements to prune from a locale of ``locale_size``.

    ``floor(locale_size * threshold)``, raised to ``locale_size -
    max_non_zero`` when a survivor cap is set, clamped to the locale.
    """
    _check_threshold(threshold)
    count = math.floor(locale_size * threshold)
    if max_non_zero is not None:
        count = max(count, locale_size - max_non_zero)
    return min(max(count, 0), locale_size)


def _prune_smallest(scores: np.ndarray, p: int) -> np.ndarray:
    """0/1 mask that zeroes the ``p`` smallest entries of each row of ``scores``.

    Ties are broken by lowest index. Exact O(n) selection: partition finds
    each row's p-th smallest value, and every entry at or below it is
    pruned unless the row has more ties at that value than its quota
    leaves room for; then only the lowest-index ties are pruned.
    """
    if p == 0:
        return np.ones(scores.shape)
    pth = np.partition(scores, p - 1, axis=1)[:, p - 1 : p].copy()  # frees the partitioned copy
    pruned = scores <= pth
    if np.count_nonzero(pruned) > p * len(scores):
        ties = scores == pth
        room = p - (scores < pth).sum(axis=1, keepdims=True)
        pruned &= ~ties | (ties.cumsum(axis=1) <= room)
    return (~pruned).astype(np.float64)


def window_mask(w: np.ndarray, threshold: float, max_non_zero: int | None = None) -> np.ndarray:
    """Prune the smallest-magnitude weights inside each (k, c) kernel.

    Every kernel independently loses ``prune_count(R*S, threshold,
    max_non_zero)`` weights; ties broken by lowest flat index within the
    kernel.
    """
    w = as_conv_weight(w)
    K, C, R, S = w.shape
    p = prune_count(R * S, threshold, max_non_zero)
    return _prune_smallest(np.abs(w).reshape(K * C, R * S), p).reshape(w.shape)


def _kernel_order(km: np.ndarray) -> np.ndarray:
    """Flat (k*C + c) kernel indices sorted ascending by (score, c, k)."""
    K, C = km.shape
    by_ck = np.argsort(km.T.ravel(), kind="stable")  # flat c*K + k, ties in (c, k) order
    return by_ck % K * C + by_ck // K


def ck_mask(w: np.ndarray, threshold: float, max_non_zero: int | None = None) -> np.ndarray:
    """Prune whole kernels, smallest kernel max first, across the layer.

    The layer-wide quota is ``floor(K*C*threshold)`` kernels, so the
    achieved sparsity is within one kernel granule of the threshold.
    A ``max_non_zero`` cap limits survivors per input-channel column:
    each column prunes at least ``K - max_non_zero`` kernels regardless
    of the quota. The mask is kernel-uniform; ties on kernel max are
    broken by ascending (c, k).
    """
    w = as_conv_weight(w)
    K, C, R, S = w.shape
    km = kernel_max(w)
    order = _kernel_order(km)
    quota = prune_count(K * C, threshold)

    pruned = np.zeros(K * C, dtype=bool)
    if max_non_zero is not None and max_non_zero < K:
        # Rank of each kernel within its column, in the column's (score, k) order.
        rank = np.argsort(np.argsort(km, axis=0, kind="stable"), axis=0)
        pruned = (rank < K - max_non_zero).ravel()
        order = order[~pruned[order]]
    pruned[order[: max(quota - int(pruned.sum()), 0)]] = True

    return np.broadcast_to(np.where(pruned.reshape(K, C, 1, 1), 0.0, 1.0), w.shape).copy()


def combined_mask(
    w: np.ndarray,
    threshold: float,
    window_fraction: float = 0.8,
    max_non_zero: int | None = None,
) -> np.ndarray:
    """Window pruning at ``threshold * window_fraction``, then whole-kernel
    pruning until the layer reaches the full threshold.

    Phase 2 ranks kernels by their maximum magnitude *after* the window
    phase and removes them in ascending order, counting the window
    phase's zeros toward the target. A kernel is skipped if it is the
    last survivor of its input-channel column. The endpoints dispatch
    exactly: ``window_fraction=1`` is window pruning at the full
    threshold, ``window_fraction=0`` is CK pruning at the full threshold.
    """
    _check_threshold(threshold)
    if not 0.0 <= window_fraction <= 1.0:
        raise ConfigError(f"window_fraction must be in [0, 1], got {window_fraction}")
    if window_fraction == 1.0:
        return window_mask(w, threshold, max_non_zero)
    if window_fraction == 0.0:
        return ck_mask(w, threshold, max_non_zero)

    w = as_conv_weight(w)
    K, C, R, S = w.shape
    total = w.size

    wm = window_mask(w, threshold * window_fraction, max_non_zero)
    km = kernel_max(w * wm)
    order = _kernel_order(km)

    # Phase 2 prunes kernels in order until the layer reaches the target,
    # skipping a column's last survivor. Only the last kernel of a column
    # in that order (largest (score, k)) can be its last survivor, so
    # phase 2 prunes a prefix of the order with those kernels left out.
    kept_per_kernel = wm.reshape(K * C, R * S).sum(axis=1).astype(int)
    zeros = total - int(kept_per_kernel.sum())
    candidate = np.ones((K, C), dtype=bool)
    candidate[K - 1 - km[::-1].argmax(axis=0), np.arange(C)] = False
    order = order[candidate.ravel()[order]]
    kept = kept_per_kernel[order]
    zeros_before = zeros + kept.cumsum() - kept
    ck_kc = np.ones(K * C)
    ck_kc[order[zeros_before < threshold * total - _TARGET_EPS]] = 0.0

    return wm * ck_kc.reshape(K, C, 1, 1)


def fc_fine_mask(w: np.ndarray, threshold: float) -> np.ndarray:
    """Prune the smallest-magnitude weights across the whole FC matrix,
    then repair any column left without a survivor."""
    w = as_fc_weight(w)
    mask = _prune_smallest(np.abs(w).reshape(1, -1), prune_count(w.size, threshold))
    return ensure_column_coverage(mask.reshape(w.shape), w)


def fc_block_mask(w: np.ndarray, threshold: float, block: int) -> np.ndarray:
    """Prune whole block x block tiles with the smallest absolute sum.

    Ragged edge tiles are allowed and scored by their actual sum. Tile
    ties are broken in (tile-row, tile-col) order. Column coverage is
    repaired afterwards, as for fine pruning.
    """
    if not 1 <= block <= 4:
        raise ConfigError(f"block size must be in [1, 4], got {block}")
    w = as_fc_weight(w)
    rows, cols = w.shape
    tr = -(-rows // block)
    tc = -(-cols // block)

    padded = np.zeros((tr * block, tc * block))
    np.abs(w, out=padded[:rows, :cols])
    tiles = padded.reshape(tr, block, tc, block)
    scores = tiles.sum(axis=(1, 3)).reshape(1, -1)
    # The padded buffer is reused for the mask: each tile takes its 0/1.
    tiles[...] = _prune_smallest(scores, prune_count(tr * tc, threshold)).reshape(tr, 1, tc, 1)
    return ensure_column_coverage(padded[:rows, :cols], w)


def conv_driven_fc_elimination(
    last_conv_mask: np.ndarray, fc: np.ndarray, neurons_per_channel: int
) -> np.ndarray:
    """Zero the FC input rows fed by conv output channels that are fully pruned.

    An output channel whose kernels are all zero produces an identically
    zero activation, so the ``neurons_per_channel`` FC rows it feeds can
    be eliminated without looking at the FC weights. Returns a mask over
    ``fc`` with those rows zeroed and ones elsewhere; AND it with any
    existing FC mask.
    """
    m = np.asarray(last_conv_mask, dtype=np.float64)
    if m.ndim != 4:
        raise ShapeMismatchError(f"conv mask must be 4-D, got shape {m.shape}")
    fc = as_fc_weight(fc)
    K = m.shape[0]
    if fc.shape[0] != K * neurons_per_channel:
        raise ShapeMismatchError(
            f"fc rows {fc.shape[0]} != K * neurons_per_channel = {K} * {neurons_per_channel}"
        )
    out = np.ones_like(fc)
    dead = np.all(m.reshape(K, -1) == 0.0, axis=1)
    out[np.repeat(dead, neurons_per_channel)] = 0.0
    return out


def ensure_column_coverage(mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Restore one bit in every column that lost all survivors.

    The restored position is the column's largest-magnitude weight,
    lowest row on ties. Warns if that weight is exactly zero (the column
    is structurally dead and coverage is vacuous).
    """
    w = as_fc_weight(w)
    m = check_mask(mask, w).copy()
    empty = np.flatnonzero(m.sum(axis=0) == 0.0)
    for j in empty:
        i = int(np.argmax(np.abs(w[:, j])))
        m[i, j] = 1.0
        if w[i, j] == 0.0:
            warnings.warn(
                f"column {j} has no nonzero weights; coverage restore is vacuous",
                CoverageWarning,
                stacklevel=2,
            )
    return m


def monotone_and(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Bitwise AND of two masks: zeros only ever accumulate."""
    prev = np.asarray(prev, dtype=np.float64)
    new = check_mask(new, prev)
    return prev * new

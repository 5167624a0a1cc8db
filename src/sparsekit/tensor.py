"""Dense weight containers and the reductions the pruning algorithms consume.

Conventions used throughout the package:

* A conv weight is a float64 array of shape ``(K, C, R, S)`` in C order
  (output channels, input channels, kernel rows, kernel cols), so each
  ``(k, c)`` kernel is one contiguous ``R * S`` block.
* A fully connected weight is a float64 array of shape ``(rows, cols)``
  where rows index input neurons and cols index output neurons.
* A prune mask is a float64 array of the same shape as the weight it
  pairs with, holding exactly 0.0 (pruned) and 1.0 (kept).
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Sequence

import numpy as np

from .errors import FormatError, ShapeMismatchError

CONTAINER_MAGIC = b"CAMP"
CONTAINER_VERSION = 1


def as_conv_weight(values) -> np.ndarray:
    """Coerce to a valid (K, C, R, S) conv weight array.

    Rejects non-4-D shapes, zero-length axes, and non-finite entries.
    """
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeMismatchError(f"conv weight must be 4-D (K, C, R, S), got shape {w.shape}")
    return _checked(w)


def as_fc_weight(values) -> np.ndarray:
    """Coerce to a valid (rows, cols) fully connected weight array."""
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeMismatchError(f"fc weight must be 2-D (rows, cols), got shape {w.shape}")
    return _checked(w)


def _checked(w: np.ndarray) -> np.ndarray:
    if any(d < 1 for d in w.shape):
        raise ShapeMismatchError(f"all dims must be >= 1, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight tensor contains NaN or Inf")
    return w


def check_mask(mask: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Validate that ``mask`` is a 0/1 tensor congruent with ``like``."""
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != like.shape:
        raise ShapeMismatchError(f"mask shape {m.shape} != tensor shape {like.shape}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be exactly 0 or 1")
    return m


def kernel_max(w: np.ndarray) -> np.ndarray:
    """Per-kernel maximum weight magnitude, shape (K, C).

    Entry ``(k, c)`` is ``max |w[k, c, r, s]|`` over the kernel's R*S
    weights. Magnitudes, not signed values: pruning decisions are
    magnitude-based everywhere in this package.
    """
    w = as_conv_weight(w)
    return np.max(np.abs(w), axis=(2, 3))


def apply_mask(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise ``w * mask``; returns a new array, inputs unmodified."""
    w = np.asarray(w, dtype=np.float64)
    m = check_mask(mask, w)
    return w * m


def measured_sparsity(tensors: Sequence[np.ndarray]) -> float:
    """Fraction of exactly-zero entries across all listed tensors.

    This is the measured ("true") sparsity: accidental zeros in unpruned
    weights count, so a dense random network reports a tiny nonzero value
    rather than exactly 0 only when actual zeros exist.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("measured_sparsity needs at least one tensor")
    zeros = 0
    total = 0
    for t in tensors:
        a = np.asarray(t)
        zeros += int(np.count_nonzero(a == 0.0))
        total += a.size
    return zeros / total


# ---------------------------------------------------------------------------
# Tensor checkpoint container
#
# Binary, little-endian:
#   magic "CAMP" | version u32 | tensor count u32
#   per tensor: rank u32 | dims u32 x rank | payload f64 x prod(dims)
# Masks are stored as ordinary tensors with 0.0/1.0 payloads.
# ---------------------------------------------------------------------------


def write_container(fp: BinaryIO, tensors: Sequence[np.ndarray]) -> None:
    fp.write(CONTAINER_MAGIC)
    fp.write(struct.pack("<II", CONTAINER_VERSION, len(tensors)))
    for t in tensors:
        a = np.ascontiguousarray(t, dtype=np.float64)
        fp.write(struct.pack("<I", a.ndim))
        fp.write(struct.pack(f"<{a.ndim}I", *a.shape))
        fp.write(a.astype("<f8").tobytes())


def read_container(fp: BinaryIO) -> list[np.ndarray]:
    magic = fp.read(4)
    if magic != CONTAINER_MAGIC:
        raise FormatError(f"bad container magic {magic!r}")
    header = fp.read(8)
    if len(header) != 8:
        raise FormatError("truncated container header")
    version, count = struct.unpack("<II", header)
    if version != CONTAINER_VERSION:
        raise FormatError(f"unsupported container version {version}")
    out = []
    for _ in range(count):
        raw = fp.read(4)
        if len(raw) != 4:
            raise FormatError("truncated tensor record")
        (rank,) = struct.unpack("<I", raw)
        if rank == 0 or rank > 8:
            raise FormatError(f"implausible tensor rank {rank}")
        raw = fp.read(4 * rank)
        if len(raw) != 4 * rank:
            raise FormatError("truncated dims record")
        dims = struct.unpack(f"<{rank}I", raw)
        if any(d == 0 for d in dims):
            raise FormatError(f"zero-length dim in {dims}")
        n = math.prod(dims)
        if 8 * n > _bytes_left(fp):
            raise FormatError(f"truncated tensor payload for dims {dims}")
        payload = fp.read(8 * n)
        out.append(np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims))
    if fp.read(1):
        raise FormatError("trailing bytes after last tensor")
    return out


def _bytes_left(fp: BinaryIO) -> int:
    pos = fp.tell()
    end = fp.seek(0, io.SEEK_END)
    fp.seek(pos)
    return end - pos


def save_tensors(path, tensors: Sequence[np.ndarray]) -> None:
    with open(path, "wb") as fp:
        write_container(fp, tensors)


def load_tensors(path) -> list[np.ndarray]:
    with open(path, "rb") as fp:
        return read_container(fp)

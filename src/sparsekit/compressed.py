"""Fixed-mask weight compression for pruned conv layers.

Two formats:

* kernel-sparse (``CKSP``): stores only the surviving (k, c) kernels of
  a kernel-uniform mask, each as a dense R*S block. Size scales with the
  survival fraction.
* capped-window (``WNSP``): every kernel gets exactly ``max_non_zero``
  (position, value) slots, padded with sentinel position 255, so the
  total size is a function of the dims and the cap alone, independent of
  which weights survive. That constant layout is what lets a hardware
  dataflow be fixed ahead of time.

Both are lossless for the masked tensor. Compression takes the mask
explicitly so accidental zero weights are never confused with pruned
positions. Also provides a multiply-count estimator for reporting.

Both formats limit a layer's dense element count ``K*C*R*S`` to
``MAX_DENSE_ELEMENTS`` = 2**26 (512 MiB as float64). The largest layer in
the paper, a 512x512x3x3 ResNet-50 conv, has 2.36 M elements, so the
limit leaves ample headroom. Compression and parsing check it before
anything is allocated, so a corrupt header raises ``FormatError`` rather
than asking for gigabytes, and every buffer the writers produce parses
back.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .tensor import as_conv_weight, check_mask

CK_MAGIC = b"CKSP"
WINDOW_MAGIC = b"WNSP"
FORMAT_VERSION = 1
SENTINEL = 255
MAX_DENSE_ELEMENTS = 2**26


@dataclass(frozen=True)
class CKSparseLayer:
    dims: tuple[int, int, int, int]
    surviving_kernels: tuple[tuple[int, int], ...]  # (k, c), ascending by (c, k)
    payload: np.ndarray  # flat, R*S values per surviving kernel, list order


@dataclass(frozen=True)
class WindowSparseLayer:
    dims: tuple[int, int, int, int]
    max_non_zero: int
    positions: np.ndarray  # (K*C, max_non_zero) uint8, kernels in (k, c) order
    values: np.ndarray  # (K*C, max_non_zero) float64


def _check_dims(dims) -> None:
    """Raise ``FormatError`` unless ``dims`` is a layer shape both formats accept."""
    if min(dims) < 1:
        raise FormatError(f"invalid dims {dims}")
    elements = math.prod(int(d) for d in dims)
    if elements > MAX_DENSE_ELEMENTS:
        raise FormatError(
            f"dims {dims} hold {elements} elements, "
            f"more than the format limit {MAX_DENSE_ELEMENTS}"
        )


def compress_ck(w: np.ndarray, mask: np.ndarray) -> CKSparseLayer:
    """Pack the surviving kernels of a kernel-uniform mask."""
    w = as_conv_weight(w)
    _check_dims(w.shape)
    m = check_mask(mask, w)
    K, C, R, S = w.shape
    flat = m.reshape(K, C, R * S)
    uniform = np.all(flat == flat[:, :, :1], axis=2)
    if not uniform.all():
        bad = np.argwhere(~uniform)[0]
        raise FormatError(f"mask is not kernel-uniform at kernel (k={bad[0]}, c={bad[1]})")
    kept = flat[:, :, 0] == 1.0
    pairs = tuple(
        (int(k), int(c)) for c in range(C) for k in range(K) if kept[k, c]
    )
    if pairs:
        payload = np.concatenate([w[k, c].ravel() for k, c in pairs])
    else:
        payload = np.empty(0)
    return CKSparseLayer((K, C, R, S), pairs, payload)


def decompress_ck(layer: CKSparseLayer) -> np.ndarray:
    _check_dims(layer.dims)
    K, C, R, S = layer.dims
    n = len(layer.surviving_kernels)
    if layer.payload.shape != (n * R * S,):
        raise FormatError(
            f"payload length {layer.payload.size} != {n} kernels * {R * S}"
        )
    prev = None
    out = np.zeros((K, C, R, S))
    for i, (k, c) in enumerate(layer.surviving_kernels):
        if not (0 <= k < K and 0 <= c < C):
            raise FormatError(f"kernel index (k={k}, c={c}) out of range for {layer.dims}")
        if prev is not None and (c, k) <= prev:
            raise FormatError(f"kernel indices not strictly ascending at (k={k}, c={c})")
        prev = (c, k)
        out[k, c] = layer.payload[i * R * S : (i + 1) * R * S].reshape(R, S)
    return out


def compress_window(w: np.ndarray, mask: np.ndarray, max_non_zero: int) -> WindowSparseLayer:
    """Pack each kernel's survivors into a fixed number of slots."""
    w = as_conv_weight(w)
    _check_dims(w.shape)
    m = check_mask(mask, w)
    K, C, R, S = w.shape
    if R * S > SENTINEL:
        raise FormatError(f"kernel size {R * S} exceeds the format limit {SENTINEL}")
    if max_non_zero < 0:
        raise FormatError(f"max_non_zero must be >= 0, got {max_non_zero}")
    flat_m = m.reshape(K * C, R * S)
    flat_w = w.reshape(K * C, R * S)
    counts = flat_m.sum(axis=1).astype(int)
    if counts.max(initial=0) > max_non_zero:
        raise FormatError(
            f"a kernel has {counts.max()} survivors, more than max_non_zero={max_non_zero}"
        )
    positions = np.full((K * C, max_non_zero), SENTINEL, dtype=np.uint8)
    values = np.zeros((K * C, max_non_zero))
    for i in range(K * C):
        idx = np.flatnonzero(flat_m[i])
        positions[i, : len(idx)] = idx
        values[i, : len(idx)] = flat_w[i, idx]
    return WindowSparseLayer((K, C, R, S), max_non_zero, positions, values)


def decompress_window(layer: WindowSparseLayer) -> np.ndarray:
    _check_dims(layer.dims)
    K, C, R, S = layer.dims
    if R * S > SENTINEL:
        raise FormatError(f"kernel size {R * S} exceeds the format limit {SENTINEL}")
    if layer.positions.shape != (K * C, layer.max_non_zero) or layer.values.shape != (
        K * C,
        layer.max_non_zero,
    ):
        raise FormatError("slot array shapes do not match dims and max_non_zero")
    out = np.zeros((K * C, R * S))
    for i in range(K * C):
        pos = layer.positions[i]
        live = pos != SENTINEL
        if np.any(pos[live] >= R * S):
            raise FormatError(f"kernel {i} has position >= {R * S}")
        idx = pos[live].astype(int)
        if np.any(np.diff(idx) <= 0):
            raise FormatError(f"kernel {i} positions not strictly ascending")
        if live.any() and not live[: int(live.sum())].all():
            raise FormatError(f"kernel {i} has a sentinel before a live slot")
        out[i, idx] = layer.values[i, live]
    return out.reshape(K, C, R, S)


# ---------------------------------------------------------------------------
# On-disk serialization (little-endian, explicit u32 counts, f64 values)
# ---------------------------------------------------------------------------


def ck_to_bytes(layer: CKSparseLayer) -> bytes:
    K, C, R, S = layer.dims
    parts = [
        CK_MAGIC,
        struct.pack("<5I", FORMAT_VERSION, K, C, R, S),
        struct.pack("<I", len(layer.surviving_kernels)),
    ]
    for k, c in layer.surviving_kernels:
        parts.append(struct.pack("<II", k, c))
    parts.append(np.ascontiguousarray(layer.payload, dtype="<f8").tobytes())
    return b"".join(parts)


def ck_from_bytes(buf: bytes) -> CKSparseLayer:
    if buf[:4] != CK_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}")
    body = memoryview(buf)[4:]
    try:
        version, K, C, R, S = struct.unpack_from("<5I", body, 0)
        (count,) = struct.unpack_from("<I", body, 20)
    except struct.error as e:
        raise FormatError(f"truncated header: {e}") from None
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    _check_dims((K, C, R, S))
    if count > K * C:
        raise FormatError(f"{count} surviving kernels exceeds {K * C}")
    need = 24 + 8 * count + 8 * count * R * S
    if len(body) != need:
        raise FormatError(f"buffer length {len(body) + 4} != expected {need + 4}")
    pairs = []
    off = 24
    for _ in range(count):
        k, c = struct.unpack_from("<II", body, off)
        pairs.append((k, c))
        off += 8
    payload = np.frombuffer(body, dtype="<f8", count=count * R * S, offset=off).astype(np.float64)
    layer = CKSparseLayer((K, C, R, S), tuple(pairs), payload)
    decompress_ck(layer)  # validates indices and ordering
    return layer


def window_to_bytes(layer: WindowSparseLayer) -> bytes:
    K, C, R, S = layer.dims
    parts = [WINDOW_MAGIC, struct.pack("<6I", FORMAT_VERSION, K, C, R, S, layer.max_non_zero)]
    pos = layer.positions.ravel()
    val = layer.values.ravel()
    for p, v in zip(pos, val):
        parts.append(struct.pack("<Bd", int(p), float(v)))
    return b"".join(parts)


def window_from_bytes(buf: bytes) -> WindowSparseLayer:
    if buf[:4] != WINDOW_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}")
    body = memoryview(buf)[4:]
    try:
        version, K, C, R, S, cap = struct.unpack_from("<6I", body, 0)
    except struct.error as e:
        raise FormatError(f"truncated header: {e}") from None
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    _check_dims((K, C, R, S))
    slots = K * C * cap
    if len(body) != 24 + 9 * slots:
        raise FormatError(f"buffer length {len(body) + 4} != expected {28 + 9 * slots}")
    positions = np.empty((K * C, cap), dtype=np.uint8) if cap else np.empty((K * C, 0), dtype=np.uint8)
    values = np.zeros((K * C, cap))
    off = 24
    for i in range(K * C):
        for j in range(cap):
            p, v = struct.unpack_from("<Bd", body, off)
            positions[i, j] = p
            values[i, j] = v
            off += 9
    layer = WindowSparseLayer((K, C, R, S), cap, positions, values)
    decompress_window(layer)  # validates positions
    return layer


# ---------------------------------------------------------------------------
# Multiply accounting
# ---------------------------------------------------------------------------


def multiply_count(conv_entries, fc_entries) -> tuple[int, int]:
    """(dense_macs, sparse_macs) for one input sample.

    ``conv_entries`` is an iterable of ``(mask, (h_out, w_out))`` with
    masks shaped (K, C, R, S); ``fc_entries`` an iterable of 2-D masks.
    Dense counts every weight at every output position; sparse counts
    only mask survivors, which equals an instrumented forward pass that
    skips multiplies by pruned weights.
    """
    dense = 0
    sparse = 0
    for mask, (h, w) in conv_entries:
        m = np.asarray(mask)
        dense += m.size * h * w
        sparse += int(np.count_nonzero(m)) * h * w
    for mask in fc_entries:
        m = np.asarray(mask)
        dense += m.size
        sparse += int(np.count_nonzero(m))
    return dense, sparse


def model_mac_entries(model) -> tuple[list, list]:
    """Build multiply_count inputs from a toy model (stride-1 same-pad convs)."""
    hw = (model.image_size, model.image_size)
    conv_entries = [(model.conv1.mask, hw), (model.conv2.mask, hw)]
    fc_entries = [model.fc.mask]
    return conv_entries, fc_entries

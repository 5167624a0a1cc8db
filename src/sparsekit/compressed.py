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

import itertools
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


def _raise_first(*checks) -> None:
    """Raise ``FormatError`` for the lowest kernel that a ``(bad, message)`` check flags.

    ``bad`` is a boolean array over the kernels and ``message(i)`` the text
    for kernel ``i``. At one kernel the first check listed wins.
    """
    flagged = [(int(np.argmax(bad)), n) for n, (bad, _) in enumerate(checks) if bad.any()]
    if flagged:
        i, n = min(flagged)
        raise FormatError(checks[n][1](i))


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
    cs, ks = np.nonzero(flat[:, :, 0].T == 1.0)
    pairs = tuple(zip(ks.tolist(), cs.tolist()))
    return CKSparseLayer((K, C, R, S), pairs, w[ks, cs].ravel())


def _check_ck_indices(dims, ks: np.ndarray, cs: np.ndarray) -> None:
    """Every (k, c) in range and strictly ascending by (c, k)."""
    K, C = dims[:2]
    descending = np.zeros(len(ks), dtype=bool)
    descending[1:] = (cs[1:] < cs[:-1]) | ((cs[1:] == cs[:-1]) & (ks[1:] <= ks[:-1]))
    _raise_first(
        (~((0 <= ks) & (ks < K) & (0 <= cs) & (cs < C)),
         lambda i: f"kernel index (k={ks[i]}, c={cs[i]}) out of range for {dims}"),
        (descending, lambda i: f"kernel indices not strictly ascending at (k={ks[i]}, c={cs[i]})"),
    )


def decompress_ck(layer: CKSparseLayer) -> np.ndarray:
    _check_dims(layer.dims)
    K, C, R, S = layer.dims
    n = len(layer.surviving_kernels)
    if layer.payload.shape != (n * R * S,):
        raise FormatError(
            f"payload length {layer.payload.size} != {n} kernels * {R * S}"
        )
    try:
        ks, cs = np.array(layer.surviving_kernels, dtype=np.int64).reshape(n, 2).T
    except OverflowError:
        raise FormatError(f"kernel index out of range for {layer.dims}") from None
    _check_ck_indices(layer.dims, ks, cs)
    out = np.zeros((K, C, R, S))
    out[ks, cs] = layer.payload.reshape(n, R, S)
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
    live = m.reshape(K * C, R * S) == 1.0
    counts = live.sum(axis=1)
    if counts.max(initial=0) > max_non_zero:
        raise FormatError(
            f"a kernel has {counts.max()} survivors, more than max_non_zero={max_non_zero}"
        )
    # Survivors in row-major order; each kernel fills its slots from slot 0.
    flat = np.flatnonzero(live)
    rows, cols = np.divmod(flat, R * S)
    slots = np.arange(len(flat)) - (np.cumsum(counts) - counts)[rows]
    positions = np.full((K * C, max_non_zero), SENTINEL, dtype=np.uint8)
    values = np.zeros((K * C, max_non_zero))
    positions[rows, slots] = cols
    values[rows, slots] = w.reshape(-1)[flat]
    return WindowSparseLayer((K, C, R, S), max_non_zero, positions, values)


def _window_live_slots(layer: WindowSparseLayer) -> np.ndarray:
    """Validate a window layer's slot arrays; return which slots are live."""
    _check_dims(layer.dims)
    K, C, R, S = layer.dims
    if R * S > SENTINEL:
        raise FormatError(f"kernel size {R * S} exceeds the format limit {SENTINEL}")
    shape = (K * C, layer.max_non_zero)
    if layer.positions.shape != shape or layer.values.shape != shape:
        raise FormatError("slot array shapes do not match dims and max_non_zero")
    pos = layer.positions.astype(np.int64)
    live = pos != SENTINEL
    if layer.max_non_zero == 0:
        return live
    # Largest live position in each slot so far: a live slot at or below the
    # one before it breaks strict ascent among the live positions.
    highest = np.maximum.accumulate(np.where(live, pos, -1), axis=1)
    _raise_first(
        ((live & (pos >= R * S)).any(axis=1), lambda i: f"kernel {i} has position >= {R * S}"),
        ((live[:, 1:] & (pos[:, 1:] <= highest[:, :-1])).any(axis=1),
         lambda i: f"kernel {i} positions not strictly ascending"),
        ((live[:, 1:] & ~live[:, :-1]).any(axis=1),
         lambda i: f"kernel {i} has a sentinel before a live slot"),
    )
    return live


def decompress_window(layer: WindowSparseLayer) -> np.ndarray:
    live = np.flatnonzero(_window_live_slots(layer))
    K, C, R, S = layer.dims
    out = np.zeros((K * C, R * S))
    out[live // layer.max_non_zero, layer.positions.ravel()[live]] = layer.values.ravel()[live]
    return out.reshape(K, C, R, S)


# ---------------------------------------------------------------------------
# On-disk serialization (little-endian, explicit u32 counts, f64 values)
# ---------------------------------------------------------------------------

# One WNSP slot on disk: a position byte, then the value, unpadded.
_SLOT = np.dtype([("p", "u1"), ("v", "<f8")])


def ck_to_bytes(layer: CKSparseLayer) -> bytes:
    K, C, R, S = layer.dims
    n = len(layer.surviving_kernels)
    return b"".join([
        CK_MAGIC,
        struct.pack("<6I", FORMAT_VERSION, K, C, R, S, n),
        struct.pack(f"<{2 * n}I", *itertools.chain.from_iterable(layer.surviving_kernels)),
        np.ascontiguousarray(layer.payload, dtype="<f8").tobytes(),
    ])


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
    kc = np.frombuffer(body, dtype="<u4", count=2 * count, offset=24).reshape(count, 2)
    _check_ck_indices((K, C, R, S), kc[:, 0].astype(np.int64), kc[:, 1].astype(np.int64))
    payload = np.frombuffer(body, dtype="<f8", count=count * R * S, offset=24 + 8 * count)
    return CKSparseLayer((K, C, R, S), tuple(map(tuple, kc.tolist())), payload.astype(np.float64))


def window_to_bytes(layer: WindowSparseLayer) -> bytes:
    K, C, R, S = layer.dims
    slots = np.empty(layer.positions.size, dtype=_SLOT)
    slots["p"] = layer.positions.ravel()
    slots["v"] = layer.values.ravel()
    header = struct.pack("<6I", FORMAT_VERSION, K, C, R, S, layer.max_non_zero)
    return WINDOW_MAGIC + header + slots.tobytes()


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
    if len(body) != 24 + 9 * K * C * cap:
        raise FormatError(f"buffer length {len(body) + 4} != expected {28 + 9 * K * C * cap}")
    slots = np.frombuffer(body, dtype=_SLOT, count=K * C * cap, offset=24).reshape(K * C, cap)
    layer = WindowSparseLayer((K, C, R, S), cap, slots["p"].copy(), slots["v"].astype(np.float64))
    _window_live_slots(layer)
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

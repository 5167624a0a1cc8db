import hashlib
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekit import (
    apply_mask,
    ck_mask,
    compress_ck,
    compress_window,
    decompress_ck,
    decompress_window,
    multiply_count,
    window_mask,
)
from sparsekit.compressed import (
    CK_MAGIC,
    FORMAT_VERSION,
    MAX_DENSE_ELEMENTS,
    WINDOW_MAGIC,
    CKSparseLayer,
    WindowSparseLayer,
    ck_from_bytes,
    ck_to_bytes,
    model_mac_entries,
    window_from_bytes,
    window_to_bytes,
)
from sparsekit.errors import FormatError
from sparsekit.model import ToyModel

from oracles import count_multiplies_oracle


def kernel_uniform_mask(rng, K, C, R, S, keep_prob=0.5):
    kc = (rng.random((K, C)) < keep_prob).astype(float)
    return np.broadcast_to(kc[:, :, None, None], (K, C, R, S)).copy()


# ---------------------------------------------------------------------------
# kernel-sparse format
# ---------------------------------------------------------------------------


def test_ck_all_ones_mask_lists_every_kernel():
    w = np.random.default_rng(0).standard_normal((3, 2, 3, 3))
    layer = compress_ck(w, np.ones_like(w))
    assert len(layer.surviving_kernels) == 6
    assert layer.surviving_kernels == tuple((k, c) for c in range(2) for k in range(3))
    np.testing.assert_array_equal(decompress_ck(layer), w)


def test_ck_all_zeros_mask_is_empty():
    w = np.random.default_rng(1).standard_normal((3, 2, 3, 3))
    layer = compress_ck(w, np.zeros_like(w))
    assert layer.surviving_kernels == ()
    assert layer.payload.size == 0
    np.testing.assert_array_equal(decompress_ck(layer), np.zeros_like(w))


def test_ck_roundtrip_on_pruned_layer():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((8, 6, 3, 3))
    m = ck_mask(w, 0.6)
    masked = apply_mask(w, m)
    np.testing.assert_array_equal(decompress_ck(compress_ck(w, m)), masked)


def test_ck_rejects_non_kernel_uniform_mask():
    w = np.random.default_rng(3).standard_normal((2, 2, 3, 3))
    m = np.ones_like(w)
    m[0, 0, 1, 1] = 0.0
    with pytest.raises(FormatError):
        compress_ck(w, m)


def test_ck_single_survivor_at_origin():
    w = np.random.default_rng(4).standard_normal((2, 2, 3, 3))
    m = np.zeros_like(w)
    m[0, 0] = 1.0
    out = decompress_ck(compress_ck(w, m))
    np.testing.assert_array_equal(out[0, 0], w[0, 0])
    assert np.count_nonzero(out) == np.count_nonzero(w[0, 0])


def test_ck_rejects_out_of_range_and_unsorted_indices():
    payload = np.zeros(9)
    with pytest.raises(FormatError):
        decompress_ck(CKSparseLayer((2, 2, 3, 3), ((5, 0),), payload))
    with pytest.raises(FormatError):
        decompress_ck(
            CKSparseLayer((2, 2, 3, 3), ((0, 1), (0, 0)), np.zeros(18))
        )
    with pytest.raises(FormatError):
        decompress_ck(CKSparseLayer((2, 2, 3, 3), ((0, 0),), np.zeros(5)))
    with pytest.raises(FormatError):
        decompress_ck(CKSparseLayer((2, 2, 3, 3), ((2**70, 0),), payload))


def test_ck_bytes_roundtrip():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 3, 3, 3))
    layer = compress_ck(w, kernel_uniform_mask(rng, 4, 3, 3, 3))
    back = ck_from_bytes(ck_to_bytes(layer))
    assert back.dims == layer.dims
    assert back.surviving_kernels == layer.surviving_kernels
    np.testing.assert_array_equal(back.payload, layer.payload)


# ---------------------------------------------------------------------------
# capped-window format
# ---------------------------------------------------------------------------


def test_window_exact_cap_has_no_sentinels():
    w = np.random.default_rng(6).standard_normal((1, 1, 3, 3))
    m = window_mask(w, 0.0, max_non_zero=4)
    layer = compress_window(w, m, 4)
    assert (layer.positions != 255).all()
    np.testing.assert_array_equal(decompress_window(layer), apply_mask(w, m))


def test_window_empty_kernel_is_all_sentinels():
    w = np.random.default_rng(7).standard_normal((1, 1, 3, 3))
    layer = compress_window(w, np.zeros_like(w), 4)
    assert (layer.positions == 255).all()
    np.testing.assert_array_equal(decompress_window(layer), np.zeros_like(w))


def test_window_roundtrip_capped_layer():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 4, 3, 3))
    m = window_mask(w, 0.5, max_non_zero=3)
    masked = apply_mask(w, m)
    np.testing.assert_array_equal(
        decompress_window(compress_window(w, m, 3)), masked
    )


def test_window_rejects_overfull_kernel():
    w = np.ones((1, 1, 3, 3))
    with pytest.raises(FormatError):
        compress_window(w, np.ones_like(w), 4)


def test_window_fixed_size_regardless_of_survivors():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 4, 3, 3))
    sizes = set()
    for t in (0.0, 0.3, 0.9):
        m = window_mask(w, t, max_non_zero=4)
        sizes.add(len(window_to_bytes(compress_window(w, m, 4))))
    assert len(sizes) == 1


def test_window_bytes_roundtrip():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((3, 2, 3, 3))
    layer = compress_window(w, window_mask(w, 0.4, max_non_zero=5), 5)
    back = window_from_bytes(window_to_bytes(layer))
    assert back.dims == layer.dims and back.max_non_zero == 5
    np.testing.assert_array_equal(back.positions, layer.positions)
    np.testing.assert_array_equal(back.values, layer.values)


def test_window_rejects_oversized_kernel_area():
    w = np.random.default_rng(11).standard_normal((1, 1, 16, 16))
    with pytest.raises(FormatError):
        compress_window(w, np.zeros_like(w), 4)


def test_ck_byte_size_scales_with_survivors():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((6, 4, 3, 3))
    for keep in (0.2, 0.7, 1.0):
        m = kernel_uniform_mask(rng, 6, 4, 3, 3, keep_prob=keep)
        layer = compress_ck(w, m)
        n = len(layer.surviving_kernels)
        # magic + (version,K,C,R,S) + count + one index pair and 9 values
        # per surviving kernel
        assert len(ck_to_bytes(layer)) == 4 + 20 + 4 + 8 * n + 8 * 9 * n


# ---------------------------------------------------------------------------
# fuzzing: malformed buffers must be rejected, never crash
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fuzzed_ck_buffers_never_crash(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    w = rng.standard_normal((3, 2, 3, 3))
    buf = bytearray(ck_to_bytes(compress_ck(w, kernel_uniform_mask(rng, 3, 2, 3, 3))))
    op = data.draw(st.sampled_from(["truncate", "mutate", "extend"]))
    if op == "truncate":
        buf = buf[: data.draw(st.integers(0, max(0, len(buf) - 1)))]
    elif op == "extend":
        buf += bytes(data.draw(st.integers(1, 16)))
    else:
        pos = data.draw(st.integers(0, len(buf) - 1))
        buf[pos] ^= data.draw(st.integers(1, 255))
    try:
        layer = ck_from_bytes(bytes(buf))
        decompress_ck(layer)  # parsed buffers must decompress cleanly
    except FormatError:
        pass


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fuzzed_window_buffers_never_crash(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    w = rng.standard_normal((2, 2, 3, 3))
    m = window_mask(w, 0.5, max_non_zero=4)
    buf = bytearray(window_to_bytes(compress_window(w, m, 4)))
    op = data.draw(st.sampled_from(["truncate", "mutate", "extend"]))
    if op == "truncate":
        buf = buf[: data.draw(st.integers(0, max(0, len(buf) - 1)))]
    elif op == "extend":
        buf += bytes(data.draw(st.integers(1, 16)))
    else:
        pos = data.draw(st.integers(0, len(buf) - 1))
        buf[pos] ^= data.draw(st.integers(1, 255))
    try:
        window_from_bytes(bytes(buf))
    except FormatError:
        pass


def ck_header(K, C, R, S, count=0):
    return CK_MAGIC + struct.pack("<6I", FORMAT_VERSION, K, C, R, S, count)


def window_header(K, C, R, S, cap=0):
    return WINDOW_MAGIC + struct.pack("<6I", FORMAT_VERSION, K, C, R, S, cap)


def assert_rejected_promptly(parse, buf):
    start = time.perf_counter()
    with pytest.raises(FormatError, match="more than the format limit"):
        parse(buf)
    assert time.perf_counter() - start < 1.0


def test_ck_parse_rejects_raised_c_dim():
    # A fuzzed (3, 2, 3, 3) buffer with one high byte of C flipped: count and
    # length stay consistent, but a dense (3, 50331650, 3, 3) tensor is 10 GiB.
    buf = bytearray(ck_to_bytes(compress_ck(np.ones((3, 2, 3, 3)), np.ones((3, 2, 3, 3)))))
    buf[4 + 8 + 3] ^= 0x03
    assert struct.unpack_from("<I", buf, 12)[0] == 50331650
    assert_rejected_promptly(ck_from_bytes, bytes(buf))


def test_ck_parse_rejects_raised_k_dim():
    # As above with K raised: a dense (67108867, 2, 3, 3) tensor is 9 GiB.
    buf = bytearray(ck_to_bytes(compress_ck(np.ones((3, 2, 3, 3)), np.ones((3, 2, 3, 3)))))
    buf[4 + 4 + 3] ^= 0x04
    assert struct.unpack_from("<I", buf, 8)[0] == 67108867
    assert_rejected_promptly(ck_from_bytes, bytes(buf))


def test_window_parse_rejects_oversized_empty_header():
    # With cap=0 the 28-byte header passes the length check whatever K and C
    # are; without the limit its per-kernel loop would run 9 million times.
    assert_rejected_promptly(window_from_bytes, window_header(3000, 3000, 3, 3, cap=0))


def test_dims_limit_rejects_one_element_past_it():
    K = MAX_DENSE_ELEMENTS // 9
    assert K * 9 <= MAX_DENSE_ELEMENTS < (K + 1) * 9
    assert_rejected_promptly(ck_from_bytes, ck_header(K + 1, 1, 3, 3))
    assert_rejected_promptly(window_from_bytes, window_header(K + 1, 1, 3, 3))
    with pytest.raises(FormatError, match="more than the format limit"):
        decompress_ck(CKSparseLayer((K + 1, 1, 3, 3), (), np.empty(0)))
    with pytest.raises(FormatError, match="more than the format limit"):
        decompress_window(
            WindowSparseLayer(
                (K + 1, 1, 3, 3), 0, np.empty((0, 0), np.uint8), np.empty((0, 0))
            )
        )


def test_compress_rejects_dims_over_the_limit():
    # A broadcast view has the oversized shape without its memory.
    w = np.broadcast_to(np.zeros(1), (MAX_DENSE_ELEMENTS + 1, 1, 1, 1))
    with pytest.raises(FormatError, match="more than the format limit"):
        compress_ck(w, w)
    with pytest.raises(FormatError, match="more than the format limit"):
        compress_window(w, w, 0)


def test_ck_parse_accepts_paper_shape_with_no_survivors():
    # The largest conv in the paper (ResNet-50, 512x512x3x3) is inside the limit.
    layer = ck_from_bytes(ck_header(512, 512, 3, 3, count=0))
    assert layer.dims == (512, 512, 3, 3)
    assert layer.surviving_kernels == ()
    out = decompress_ck(layer)
    assert out.shape == (512, 512, 3, 3) and not out.any()


def assert_parses_small_and_fast(parse, buf):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        layer = parse(buf)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64 * 2**20
    return layer


def test_window_parse_of_empty_header_inside_limit_is_bounded():
    # 2730x2730x3x3 is just inside the limit: 7.45 M kernels with no slots.
    # The dense tensor would be 536 MB; parsing must not build it.
    layer = assert_parses_small_and_fast(window_from_bytes, window_header(2730, 2730, 3, 3, cap=0))
    assert layer.dims == (2730, 2730, 3, 3) and layer.max_non_zero == 0
    assert layer.positions.shape == layer.values.shape == (2730 * 2730, 0)


def test_ck_parse_of_paper_shape_without_survivors_is_bounded():
    # The dense 512x512x3x3 tensor would be 18.9 MB.
    layer = assert_parses_small_and_fast(ck_from_bytes, ck_header(512, 512, 3, 3, count=0))
    assert layer.surviving_kernels == () and layer.payload.size == 0


# ---------------------------------------------------------------------------
# pinned on-disk bytes
# ---------------------------------------------------------------------------


def test_golden_bytes_of_a_fixed_layer():
    w = np.random.default_rng(16).standard_normal((16, 16, 3, 3))
    ck = ck_to_bytes(compress_ck(w, ck_mask(w, 0.5)))
    wn = window_to_bytes(compress_window(w, window_mask(w, 0.5, max_non_zero=4), 4))
    assert len(ck) == 10268
    assert hashlib.sha256(ck).hexdigest() == (
        "35abb3538c62f11a0777697ca8f7a1b54ce87cb9979ef51dfe4c859e02ee8996"
    )
    assert len(wn) == 9244
    assert hashlib.sha256(wn).hexdigest() == (
        "b3e840d3240a0194fed95e848861663cf2b54fd77cdfa775787dbabe4703bd7e"
    )


def test_hand_packed_layer_matches_writers_and_parsers():
    w = np.array([1.5, -2.0, 0.25, 4.0, -0.5, 3.0, 8.0, -1.0]).reshape(2, 2, 1, 2)
    ck = np.array([[1, 0], [1, 1]], dtype=float)[:, :, None, None] * np.ones((1, 1, 1, 2))
    # Kernels ascending by (c, k): (0, 0), (1, 0), (1, 1).
    ck_buf = (
        b"CKSP" + struct.pack("<6I", 1, 2, 2, 1, 2, 3)
        + struct.pack("<6I", 0, 0, 1, 0, 1, 1)
        + struct.pack("<6d", 1.5, -2.0, -0.5, 3.0, 8.0, -1.0)
    )
    assert ck_to_bytes(compress_ck(w, ck)) == ck_buf
    assert ck_from_bytes(ck_buf).surviving_kernels == ((0, 0), (1, 0), (1, 1))

    wm = np.array([[[[0, 1]], [[1, 1]]], [[[0, 0]], [[1, 0]]]], dtype=float)
    wn_buf = b"WNSP" + struct.pack("<6I", 1, 2, 2, 1, 2, 2) + b"".join(
        struct.pack("<Bd", p, v)
        for p, v in ((1, -2.0), (255, 0.0), (0, 0.25), (1, 4.0),
                     (255, 0.0), (255, 0.0), (0, 8.0), (255, 0.0))
    )
    layer = compress_window(w, wm, 2)
    assert window_to_bytes(layer) == wn_buf
    back = window_from_bytes(wn_buf)
    np.testing.assert_array_equal(back.positions, layer.positions)
    np.testing.assert_array_equal(decompress_window(back), apply_mask(w, wm))


def test_window_error_names_the_lowest_bad_kernel():
    w = np.random.default_rng(13).standard_normal((3, 2, 3, 3))
    buf = bytearray(window_to_bytes(compress_window(w, window_mask(w, 0.5, max_non_zero=4), 4)))

    def set_position(kernel, slot, position):
        buf[28 + 9 * (4 * kernel + slot)] = position

    set_position(4, 0, 9)  # position past the 3x3 kernel
    set_position(1, 1, buf[28 + 9 * 4])  # repeats slot 0: not strictly ascending
    with pytest.raises(FormatError, match="^kernel 1 positions not strictly ascending$"):
        window_from_bytes(bytes(buf))
    set_position(1, 0, 255)  # kernel 1 now also has a sentinel before a live slot
    set_position(1, 3, 9)
    with pytest.raises(FormatError, match="^kernel 1 has position >= 9$"):
        window_from_bytes(bytes(buf))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_roundtrip_property_random_masks(seed):
    rng = np.random.default_rng(seed)
    K, C = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    w = rng.standard_normal((K, C, 3, 3))
    ck = kernel_uniform_mask(rng, K, C, 3, 3)
    np.testing.assert_array_equal(decompress_ck(compress_ck(w, ck)), apply_mask(w, ck))
    cap = int(rng.integers(0, 10))
    wm = window_mask(w, float(rng.random()), max_non_zero=cap)
    np.testing.assert_array_equal(
        decompress_window(compress_window(w, wm, cap)), apply_mask(w, wm)
    )


# ---------------------------------------------------------------------------
# multiply accounting
# ---------------------------------------------------------------------------


def test_multiply_count_all_ones_equals_dense():
    conv = [(np.ones((4, 2, 3, 3)), (8, 8))]
    fc = [np.ones((16, 4))]
    dense, sparse = multiply_count(conv, fc)
    assert dense == sparse == 4 * 2 * 9 * 64 + 64


def test_multiply_count_half_mask_halves_conv():
    m = np.ones((4, 2, 3, 3))
    m.reshape(-1)[: m.size // 2] = 0.0
    dense, sparse = multiply_count([(m, (8, 8))], [])
    assert sparse * 2 == dense


def test_multiply_count_matches_instrumented_forward():
    rng = np.random.default_rng(12)
    for seed in range(3):
        model = ToyModel(channels=1, image_size=6, n_classes=3,
                         conv1_out=3, conv2_out=4, pool=2, seed=seed)
        for _, layer in model.prunable():
            layer.mask = (rng.random(layer.mask.shape) > 0.4).astype(float)
        model.apply_masks()
        conv_entries, fc_entries = model_mac_entries(model)
        _, sparse = multiply_count(conv_entries, fc_entries)
        assert sparse == count_multiplies_oracle(model)

import io
import struct
import time

import numpy as np
import pytest

from sparsekit import apply_mask, kernel_max, measured_sparsity
from sparsekit.errors import FormatError, ShapeMismatchError
from sparsekit.masking import ck_mask
from sparsekit.tensor import (
    as_conv_weight,
    as_fc_weight,
    read_container,
    save_tensors,
    load_tensors,
    write_container,
)

from oracles import kernel_max_oracle


def test_kernel_max_magnitude_dominates():
    w = np.zeros((1, 1, 3, 3))
    w[0, 0] = np.array([[1.0, -5.0, 2.0], [0.5, 0.25, -0.125], [3.0, 4.0, -4.5]])
    assert kernel_max(w)[0, 0] == 5.0


def test_kernel_max_all_zero_kernel():
    assert kernel_max(np.zeros((2, 2, 3, 3)))[1, 1] == 0.0


def test_kernel_max_matches_exhaustive_scan():
    w = np.random.default_rng(3).standard_normal((2, 2, 3, 3))
    np.testing.assert_array_equal(kernel_max(w), kernel_max_oracle(w))


def test_kernel_max_sign_flip_invariant():
    w = np.random.default_rng(4).standard_normal((3, 2, 3, 3))
    np.testing.assert_array_equal(kernel_max(w), kernel_max(-w))


def test_kernel_max_permutation_equivariant():
    w = np.random.default_rng(5).standard_normal((4, 3, 3, 3))
    perm_k = np.array([2, 0, 3, 1])
    perm_c = np.array([1, 2, 0])
    km = kernel_max(w)
    np.testing.assert_array_equal(
        kernel_max(w[perm_k][:, perm_c]), km[perm_k][:, perm_c]
    )


def test_apply_mask_identity_and_zero():
    w = np.random.default_rng(0).standard_normal((2, 1, 3, 3))
    np.testing.assert_array_equal(apply_mask(w, np.ones_like(w)), w)
    np.testing.assert_array_equal(apply_mask(w, np.zeros_like(w)), np.zeros_like(w))


def test_apply_mask_elementwise():
    w = np.array([[3.0, -2.0]])
    m = np.array([[1.0, 0.0]])
    np.testing.assert_array_equal(apply_mask(w, m), [[3.0, 0.0]])


def test_apply_mask_idempotent_and_pure():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 2, 3, 3))
    m = (rng.random((3, 2, 3, 3)) > 0.4).astype(float)
    w_before = w.copy()
    once = apply_mask(w, m)
    np.testing.assert_array_equal(apply_mask(once, m), once)
    np.testing.assert_array_equal(w, w_before)


def test_apply_mask_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        apply_mask(np.ones((2, 2)), np.ones((2, 3)))


def test_apply_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        apply_mask(np.ones((2, 2)), np.full((2, 2), 0.5))


def test_measured_sparsity_basic():
    t = np.ones(10)
    t[3] = 0.0
    t[7] = 0.0
    assert measured_sparsity([t]) == 0.2


def test_measured_sparsity_fresh_random_near_zero():
    rng = np.random.default_rng(2)
    tensors = [rng.standard_normal((16, 16, 3, 3)), rng.standard_normal((256, 10))]
    assert measured_sparsity(tensors) == 0.0


def test_measured_sparsity_empty_list():
    with pytest.raises(ValueError):
        measured_sparsity([])


def test_measured_sparsity_after_ck_tracks_target():
    w = np.random.default_rng(6).standard_normal((64, 64, 3, 3))
    masked = apply_mask(w, ck_mask(w, 0.2))
    granule = 9 / w.size
    assert abs(measured_sparsity([masked]) - 0.2) <= granule


def test_measured_sparsity_counts_zeros_after_masking():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 4, 3, 3))
    m = (rng.random(w.shape) > 0.5).astype(float)
    zero_frac = int((m == 0.0).sum()) / m.size
    assert measured_sparsity([apply_mask(w, m)]) == zero_frac


def test_validators_reject_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        as_conv_weight(np.ones((3, 3)))
    with pytest.raises(ShapeMismatchError):
        as_fc_weight(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        as_conv_weight(np.full((1, 1, 3, 3), np.nan))


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    tensors = [
        rng.standard_normal((2, 3, 3, 3)),
        rng.standard_normal(7),
        (rng.random((4, 5)) > 0.5).astype(float),
    ]
    path = tmp_path / "state.camp"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert len(back) == 3
    for a, b in zip(tensors, back):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def test_container_rejects_bad_magic():
    with pytest.raises(FormatError):
        read_container(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_container_rejects_truncation():
    buf = io.BytesIO()
    write_container(buf, [np.ones((2, 2))])
    data = buf.getvalue()
    with pytest.raises(FormatError):
        read_container(io.BytesIO(data[:-5]))


def test_container_rejects_trailing_bytes():
    buf = io.BytesIO()
    write_container(buf, [np.ones(3)])
    with pytest.raises(FormatError):
        read_container(io.BytesIO(buf.getvalue() + b"\x00"))


@pytest.mark.parametrize("dims", [(2**30, 2**20, 8), (2**16,) * 4],
                         ids=["oversized", "int64_wrap"])
def test_container_rejects_dims_beyond_the_file_before_reading(tmp_path, dims):
    # (2**16,)*4 has 2**64 elements, which int64 arithmetic wraps to 0
    path = tmp_path / "huge"
    path.write_bytes(b"CAMP" + struct.pack("<III", 1, 1, len(dims))
                     + struct.pack(f"<{len(dims)}I", *dims) + b"\x00" * 64)
    start = time.perf_counter()
    with pytest.raises(FormatError):
        load_tensors(path)
    assert time.perf_counter() - start < 1.0

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekit import (
    ck_mask,
    combined_mask,
    conv_driven_fc_elimination,
    ensure_column_coverage,
    fc_block_mask,
    fc_fine_mask,
    kernel_max,
    measured_sparsity,
    monotone_and,
    prune_count,
    window_mask,
)
from sparsekit.errors import ConfigError, ShapeMismatchError
from sparsekit.masking import CoverageWarning

from oracles import (
    ck_mask_oracle,
    combined_mask_oracle,
    coverage_oracle,
    fc_block_mask_oracle,
    fc_fine_mask_oracle,
    window_mask_oracle,
)


# ---------------------------------------------------------------------------
# prune_count
# ---------------------------------------------------------------------------


def test_prune_count_window_figure_case():
    assert prune_count(9, 5 / 9) == 5


def test_prune_count_cap_dominates():
    assert prune_count(9, 0.2, max_non_zero=2) == 7


def test_prune_count_zero_threshold():
    assert prune_count(123, 0.0) == 0


def test_prune_count_clamped():
    assert prune_count(4, 1.0) == 4
    assert prune_count(4, 1.0, max_non_zero=10) == 4


def test_prune_count_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        prune_count(9, 1.5)


# ---------------------------------------------------------------------------
# window pruning
# ---------------------------------------------------------------------------


def test_window_prunes_five_smallest_of_nine():
    w = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    m = window_mask(w, 5 / 9)
    kept = w[m == 1.0]
    assert sorted(kept) == [6.0, 7.0, 8.0, 9.0]


def test_window_zero_threshold_keeps_all():
    w = np.random.default_rng(0).standard_normal((3, 2, 3, 3))
    np.testing.assert_array_equal(window_mask(w, 0.0), np.ones_like(w))


def test_window_matches_sort_oracle():
    w = np.random.default_rng(1).standard_normal((4, 3, 3, 3))
    np.testing.assert_array_equal(window_mask(w, 0.4), window_mask_oracle(w, 0.4))


def test_window_cap_compliance():
    rng = np.random.default_rng(2)
    for cap in (0, 2, 4, 9):
        w = rng.standard_normal((5, 3, 3, 3))
        m = window_mask(w, 0.1, max_non_zero=cap)
        survivors = m.reshape(-1, 9).sum(axis=1)
        assert survivors.max() <= cap


def test_window_tie_break_prunes_lowest_flat_index_first():
    w = np.full((1, 1, 3, 3), 2.0)
    m = window_mask(w, 4 / 9)
    np.testing.assert_array_equal(m.ravel(), [0, 0, 0, 0, 1, 1, 1, 1, 1])


# ---------------------------------------------------------------------------
# CK pruning
# ---------------------------------------------------------------------------


def test_ck_prunes_two_smallest_kernel_maxima():
    w = np.zeros((4, 1, 3, 3))
    for k, peak in enumerate([0.9, 0.1, 0.5, 0.05]):
        w[k, 0, 1, 1] = peak
    m = ck_mask(w, 0.5)
    per_kernel = m.reshape(4, 9).sum(axis=1)
    np.testing.assert_array_equal(per_kernel, [9, 0, 9, 0])


def test_ck_zero_threshold_keeps_all():
    w = np.random.default_rng(3).standard_normal((4, 4, 3, 3))
    np.testing.assert_array_equal(ck_mask(w, 0.0), np.ones_like(w))


def test_ck_large_layer_tracks_target_within_one_kernel():
    w = np.random.default_rng(4).standard_normal((64, 64, 3, 3))
    for t in (0.2, 0.4, 0.6, 0.8):
        m = ck_mask(w, t)
        sparsity = 1.0 - m.mean()
        assert abs(sparsity - t) <= 9 / w.size


def test_ck_mask_is_kernel_uniform():
    w = np.random.default_rng(5).standard_normal((6, 5, 3, 3))
    m = ck_mask(w, 0.37).reshape(30, 9)
    assert np.all((m.sum(axis=1) == 0) | (m.sum(axis=1) == 9))


def test_ck_matches_sort_oracle():
    rng = np.random.default_rng(6)
    for t in (0.25, 0.5, 0.8):
        w = rng.standard_normal((5, 4, 3, 3))
        np.testing.assert_array_equal(ck_mask(w, t), ck_mask_oracle(w, t))


def test_ck_cap_limits_survivors_per_channel_column():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((8, 3, 3, 3))
    m = ck_mask(w, 0.0, max_non_zero=2)
    surviving_kernels = m.reshape(8, 3, 9).sum(axis=2) / 9
    assert surviving_kernels.sum(axis=0).max() <= 2
    np.testing.assert_array_equal(m, ck_mask_oracle(w, 0.0, max_non_zero=2))


def test_ck_tie_break_lowest_k_first():
    w = np.ones((3, 1, 3, 3))
    m = ck_mask(w, 1 / 3)
    per_kernel = m.reshape(3, 9).sum(axis=1)
    np.testing.assert_array_equal(per_kernel, [0, 9, 9])


# ---------------------------------------------------------------------------
# combined pruning
# ---------------------------------------------------------------------------


def test_combined_window_fraction_one_is_window():
    w = np.random.default_rng(8).standard_normal((4, 3, 3, 3))
    np.testing.assert_array_equal(combined_mask(w, 0.5, 1.0), window_mask(w, 0.5))


def test_combined_window_fraction_zero_is_ck():
    w = np.random.default_rng(9).standard_normal((4, 3, 3, 3))
    np.testing.assert_array_equal(combined_mask(w, 0.5, 0.0), ck_mask(w, 0.5))


def test_combined_reaches_target_and_prunes_smallest_kernels():
    w = np.random.default_rng(10).standard_normal((8, 4, 3, 3))
    t = 0.5
    m = combined_mask(w, t, 0.8)
    assert 1.0 - m.mean() >= t - 1e-12

    wm = window_mask(w, t * 0.8)
    km = kernel_max(w * wm)
    kernel_dead = m.reshape(32, 9).sum(axis=1) == 0
    if kernel_dead.any():
        # every kernel pruned in phase 2 has kernel max <= every survivor's
        assert km.ravel()[kernel_dead].max() <= km.ravel()[~kernel_dead].min()


def test_combined_matches_two_phase_oracle():
    rng = np.random.default_rng(11)
    for t, wf in ((0.5, 0.8), (0.3, 0.5), (0.7, 0.2)):
        w = rng.standard_normal((6, 3, 3, 3))
        np.testing.assert_array_equal(
            combined_mask(w, t, wf), combined_mask_oracle(w, t, wf)
        )


def test_combined_never_empties_a_channel_column():
    # tiny weights everywhere would let phase 2 erase whole columns
    w = np.random.default_rng(12).standard_normal((4, 2, 3, 3)) * 1e-3
    m = combined_mask(w, 0.95, 0.5)
    kernels_alive = m.reshape(4, 2, 9).sum(axis=2) > 0
    assert kernels_alive.any(axis=0).all()


# ---------------------------------------------------------------------------
# FC pruning
# ---------------------------------------------------------------------------


def test_fc_fine_zero_threshold():
    w = np.random.default_rng(13).standard_normal((6, 4))
    np.testing.assert_array_equal(fc_fine_mask(w, 0.0), np.ones_like(w))


def test_fc_fine_two_by_two_example():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(fc_fine_mask(w, 0.5), [[0.0, 0.0], [1.0, 1.0]])


def test_fc_fine_repair_restores_column_argmax():
    # column 0 holds the globally smallest values; repair must keep its largest
    w = np.array([[0.01, 5.0], [0.03, 6.0], [0.02, 7.0]])
    m = fc_fine_mask(w, 0.5)
    np.testing.assert_array_equal(m[:, 0], [0.0, 1.0, 0.0])


def test_fc_fine_matches_oracle():
    rng = np.random.default_rng(14)
    for t in (0.3, 0.6, 0.9):
        w = rng.standard_normal((9, 7))
        np.testing.assert_array_equal(fc_fine_mask(w, t), fc_fine_mask_oracle(w, t))


def test_fc_block_one_is_fine():
    w = np.random.default_rng(15).standard_normal((6, 5))
    np.testing.assert_array_equal(fc_block_mask(w, 0.4, 1), fc_fine_mask(w, 0.4))


def test_fc_block_prunes_smallest_tile():
    w = np.zeros((4, 4))
    for (ti, tj), total in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [10.0, 2.0, 7.0, 5.0]):
        w[2 * ti : 2 * ti + 2, 2 * tj : 2 * tj + 2] = total / 4.0
    m = fc_block_mask(w, 0.25, 2)
    np.testing.assert_array_equal(m[0:2, 2:4], np.zeros((2, 2)))
    assert m.sum() == 12


def test_fc_block_full_threshold_keeps_coverage():
    w = np.random.default_rng(16).standard_normal((8, 6))
    m = fc_block_mask(w, 1.0, 2)
    assert (m.sum(axis=0) >= 1).all()


def test_fc_block_ragged_edges_match_oracle():
    rng = np.random.default_rng(17)
    w = rng.standard_normal((5, 7))
    for block in (2, 3, 4):
        np.testing.assert_array_equal(
            fc_block_mask(w, 0.5, block), fc_block_mask_oracle(w, 0.5, block)
        )


def test_fc_block_rejects_bad_block():
    w = np.ones((4, 4))
    with pytest.raises(ConfigError):
        fc_block_mask(w, 0.5, 0)
    with pytest.raises(ConfigError):
        fc_block_mask(w, 0.5, 5)


# ---------------------------------------------------------------------------
# conv-driven FC elimination
# ---------------------------------------------------------------------------


def test_elimination_no_dead_channels():
    conv_mask = np.ones((4, 2, 3, 3))
    fc = np.ones((8, 3))
    np.testing.assert_array_equal(
        conv_driven_fc_elimination(conv_mask, fc, 2), np.ones((8, 3))
    )


def test_elimination_zeroes_rows_of_dead_channel():
    conv_mask = np.ones((4, 2, 3, 3))
    conv_mask[2] = 0.0
    fc = np.ones((4, 3))
    m = conv_driven_fc_elimination(conv_mask, fc, 1)
    np.testing.assert_array_equal(m[2], [0.0, 0.0, 0.0])
    assert m.sum() == 9


def test_elimination_blocks_of_rows():
    conv_mask = np.ones((3, 1, 1, 1))
    conv_mask[0] = 0.0
    fc = np.ones((12, 2))
    m = conv_driven_fc_elimination(conv_mask, fc, 4)
    np.testing.assert_array_equal(m[:4], np.zeros((4, 2)))
    np.testing.assert_array_equal(m[4:], np.ones((8, 2)))


def test_elimination_all_channels_dead_then_coverage_flagged():
    conv_mask = np.zeros((4, 2, 3, 3))
    fc = np.zeros((4, 3))
    m = conv_driven_fc_elimination(conv_mask, fc, 1)
    np.testing.assert_array_equal(m, np.zeros((4, 3)))
    with pytest.warns(CoverageWarning):
        repaired = ensure_column_coverage(m, fc)
    np.testing.assert_array_equal(repaired[0], [1.0, 1.0, 1.0])


def test_elimination_row_count_mismatch():
    with pytest.raises(ShapeMismatchError):
        conv_driven_fc_elimination(np.ones((4, 2, 3, 3)), np.ones((9, 3)), 2)


# ---------------------------------------------------------------------------
# column coverage
# ---------------------------------------------------------------------------


def test_coverage_identity_when_covered():
    rng = np.random.default_rng(18)
    w = rng.standard_normal((5, 4))
    m = np.ones((5, 4))
    m[0, 0] = 0.0
    np.testing.assert_array_equal(ensure_column_coverage(m, w), m)


def test_coverage_restores_one_argmax_per_column():
    rng = np.random.default_rng(19)
    w = rng.standard_normal((6, 3))
    m = ensure_column_coverage(np.zeros((6, 3)), w)
    assert m.sum() == 3
    for j in range(3):
        assert m[np.abs(w[:, j]).argmax(), j] == 1.0


def test_coverage_all_zero_column_restores_lowest_row():
    w = np.zeros((4, 2))
    w[:, 1] = [1.0, 2.0, 3.0, 4.0]
    with pytest.warns(CoverageWarning):
        m = ensure_column_coverage(np.zeros((4, 2)), w)
    assert m[0, 0] == 1.0 and m[1:, 0].sum() == 0


def test_coverage_matches_oracle():
    rng = np.random.default_rng(20)
    w = rng.standard_normal((7, 5))
    m = (rng.random((7, 5)) > 0.8).astype(float)
    np.testing.assert_array_equal(ensure_column_coverage(m, w), coverage_oracle(m, w))


# ---------------------------------------------------------------------------
# monotone AND
# ---------------------------------------------------------------------------


def test_monotone_and_examples():
    ones = np.ones(3)
    zeros = np.zeros(3)
    nxt = np.array([0.0, 1.0, 1.0])
    np.testing.assert_array_equal(monotone_and(ones, nxt), nxt)
    np.testing.assert_array_equal(monotone_and(zeros, nxt), zeros)
    np.testing.assert_array_equal(
        monotone_and(np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])),
        [0.0, 0.0, 1.0],
    )


def test_monotone_and_order_insensitive():
    rng = np.random.default_rng(21)
    masks = [(rng.random(20) > 0.3).astype(float) for _ in range(4)]
    a = masks[0]
    for m in masks[1:]:
        a = monotone_and(a, m)
    b = masks[3]
    for m in (masks[1], masks[0], masks[2]):
        b = monotone_and(b, m)
    np.testing.assert_array_equal(a, b)


def test_monotone_and_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        monotone_and(np.ones((2, 2)), np.ones((4,)))


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------


def _random_conv(rng):
    K, C = rng.integers(1, 5, size=2)
    return rng.standard_normal((K, C, 3, 3))


def test_all_generators_match_oracles_on_random_tensors():
    rng = np.random.default_rng(22)
    for _ in range(40):
        t = float(rng.uniform(0, 1))
        w = _random_conv(rng)
        np.testing.assert_array_equal(window_mask(w, t), window_mask_oracle(w, t))
        np.testing.assert_array_equal(ck_mask(w, t), ck_mask_oracle(w, t))
        wf = float(rng.uniform(0, 1))
        np.testing.assert_array_equal(
            combined_mask(w, t, wf), combined_mask_oracle(w, t, wf)
        )
        fc = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
        np.testing.assert_array_equal(fc_fine_mask(fc, t), fc_fine_mask_oracle(fc, t))
        block = int(rng.integers(1, 5))
        np.testing.assert_array_equal(
            fc_block_mask(fc, t, block), fc_block_mask_oracle(fc, t, block)
        )


def test_sign_invariance_of_all_generators():
    rng = np.random.default_rng(23)
    w = rng.standard_normal((4, 3, 3, 3))
    fc = rng.standard_normal((6, 5))
    np.testing.assert_array_equal(window_mask(w, 0.4), window_mask(-w, 0.4))
    np.testing.assert_array_equal(ck_mask(w, 0.4), ck_mask(-w, 0.4))
    np.testing.assert_array_equal(combined_mask(w, 0.4, 0.8), combined_mask(-w, 0.4, 0.8))
    np.testing.assert_array_equal(fc_fine_mask(fc, 0.4), fc_fine_mask(-fc, 0.4))
    np.testing.assert_array_equal(fc_block_mask(fc, 0.4, 2), fc_block_mask(-fc, 0.4, 2))


def test_magnitude_order_respected_without_cap_or_repair():
    rng = np.random.default_rng(24)
    w = rng.standard_normal((5, 4, 3, 3))
    m = window_mask(w, 0.6)
    for kernel_w, kernel_m in zip(np.abs(w).reshape(-1, 9), m.reshape(-1, 9)):
        pruned = kernel_w[kernel_m == 0.0]
        kept = kernel_w[kernel_m == 1.0]
        if len(pruned) and len(kept):
            assert pruned.max() <= kept.min()

    km = kernel_max(w)
    cm = ck_mask(w, 0.6).reshape(-1, 9)
    dead = cm.sum(axis=1) == 0
    if dead.any() and (~dead).any():
        assert km.ravel()[dead].max() <= km.ravel()[~dead].min()


def test_threshold_compliance_within_granule():
    rng = np.random.default_rng(25)
    w = rng.standard_normal((8, 8, 3, 3))
    fc = rng.standard_normal((40, 30))
    for t in (0.2, 0.5, 0.7):
        assert abs((1 - window_mask(w, t).mean()) - t) <= 1 / 9 + 1e-12
        assert abs((1 - ck_mask(w, t).mean()) - t) <= 9 / w.size + 1e-12
        zero_frac = 1 - fc_fine_mask(fc, t).mean()
        assert abs(zero_frac - t) <= (1 + 30) / fc.size + 1e-12  # + coverage repairs


@pytest.mark.filterwarnings("ignore::sparsekit.masking.CoverageWarning")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_all_generators_match_oracles_under_ties_and_caps(data):
    # Integer weights in {-2..2} with many exact zeros put ties at the
    # selection boundary of every generator; caps and ragged FC tiles
    # exercise the per-column and edge-tile paths.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    zero_share = data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="zero_share")

    def tied(shape):
        w = rng.integers(-2, 3, size=shape).astype(float)
        w[rng.random(shape) < zero_share] = 0.0
        return w

    K, C = data.draw(st.integers(1, 16), label="K"), data.draw(st.integers(1, 16), label="C")
    R, S = data.draw(st.sampled_from([(3, 3), (1, 1), (2, 3)]), label="R, S")
    w = tied((K, C, R, S))
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    t = data.draw(fraction, label="threshold")
    wf = data.draw(fraction, label="window_fraction")
    cap = data.draw(st.none() | st.integers(0, max(K, R * S)), label="max_non_zero")
    np.testing.assert_array_equal(window_mask(w, t, cap), window_mask_oracle(w, t, cap))
    np.testing.assert_array_equal(ck_mask(w, t, cap), ck_mask_oracle(w, t, cap))
    np.testing.assert_array_equal(
        combined_mask(w, t, wf, cap), combined_mask_oracle(w, t, wf, cap)
    )

    fc = tied((data.draw(st.integers(1, 24), label="rows"),
               data.draw(st.integers(1, 24), label="cols")))
    block = data.draw(st.integers(1, 4), label="block")
    np.testing.assert_array_equal(fc_fine_mask(fc, t), fc_fine_mask_oracle(fc, t))
    np.testing.assert_array_equal(fc_block_mask(fc, t, block), fc_block_mask_oracle(fc, t, block))

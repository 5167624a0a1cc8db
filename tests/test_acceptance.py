"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sparsekit
from sparsekit import (
    AttackSpec,
    Granularity,
    PruningSchedule,
    SyntheticSpec,
    TrainingConfig,
    apply_mask,
    build_model,
    ck_mask,
    combined_mask,
    compress_ck,
    compress_window,
    decompress_ck,
    decompress_window,
    fc_block_mask,
    fc_fine_mask,
    fgsm_perturb,
    forward,
    make_synthetic_dataset,
    measured_sparsity,
    multiply_count,
    robustness_sweep,
    train,
    window_mask,
)
from sparsekit.compressed import ck_from_bytes, ck_to_bytes, model_mac_entries, window_from_bytes, window_to_bytes
from sparsekit.errors import FormatError
from sparsekit.model import ToyModel, backward, cross_entropy
from sparsekit.schedule import threshold_at
from sparsekit.trainer import read_metrics_csv

from oracles import (
    ck_mask_oracle,
    combined_mask_oracle,
    count_multiplies_oracle,
    fc_block_mask_oracle,
    fc_fine_mask_oracle,
    finite_difference,
    window_mask_oracle,
)


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}", flush=True)


DATASET = SyntheticSpec(n_train=256, n_val=128, image_size=8, channels=1, n_classes=4, seed=101)


def toy_config(s_f, e_i, l_p, granularity=Granularity.CK, epochs=15, seed=9):
    return TrainingConfig(
        epochs=epochs,
        batch_size=32,
        lr0=0.05,
        lr_drop_epochs=[10, 13],
        seed=seed,
        schedule=PruningSchedule(s_f=s_f, e_i=e_i, l_p=l_p, granularity=granularity),
        dataset=DATASET,
    )


def test_criterion_1_schedule_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        s = PruningSchedule(
            s_f=float(rng.uniform(0, 1)),
            e_i=int(rng.integers(0, 60)),
            l_p=int(rng.integers(1, 50)),
            r=float(rng.uniform(1, 6)),
            granularity=Granularity.CK,
        )
        assert threshold_at(s, s.e_i) == 0.0
        assert threshold_at(s, s.e_i + s.l_p) == s.s_f
        grid = [threshold_at(s, e) for e in range(0, s.e_i + s.l_p + 3)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"1000 schedules exact at both era endpoints, monotone ({elapsed:.2f}s)")


@pytest.mark.filterwarnings("ignore::sparsekit.masking.CoverageWarning")
def test_criterion_2_mask_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    for i in range(500):
        K, C = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = rng.standard_normal((K, C, 3, 3))
        if i % 2:
            w = np.round(w, 1)  # quantized values force ties through the tie-break
        t = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)], p=[0.05, 0.05, 0.9]))
        cap = int(rng.integers(0, 10)) if rng.random() < 0.3 else None
        wf = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)], p=[0.1, 0.1, 0.8]))

        np.testing.assert_array_equal(window_mask(w, t, cap), window_mask_oracle(w, t, cap))
        np.testing.assert_array_equal(ck_mask(w, t, cap), ck_mask_oracle(w, t, cap))
        np.testing.assert_array_equal(
            combined_mask(w, t, wf, cap), combined_mask_oracle(w, t, wf, cap)
        )

        rows, cols = int(rng.integers(1, 15)), int(rng.integers(1, 14))
        fc = rng.standard_normal((rows, cols))
        if i % 2:
            fc = np.round(fc, 1)
        np.testing.assert_array_equal(fc_fine_mask(fc, t), fc_fine_mask_oracle(fc, t))
        block = int(rng.integers(1, 5))
        np.testing.assert_array_equal(
            fc_block_mask(fc, t, block), fc_block_mask_oracle(fc, t, block)
        )
        checked += 5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} masks bit-identical to sort oracles incl. ties ({elapsed:.1f}s)")


def test_criterion_3_ck_tracks_target_within_one_kernel():
    w = np.random.default_rng(3).standard_normal((64, 64, 3, 3))
    granule = 9 / w.size
    achieved = []
    for t in (0.2, 0.4, 0.6, 0.8):
        sparsity = measured_sparsity([apply_mask(w, ck_mask(w, t))])
        assert abs(sparsity - t) <= granule, (t, sparsity)
        achieved.append(round(sparsity, 4))
    report(3, f"64x64x3x3 CK sparsity {achieved} within {granule:.2e} of targets")


def test_criterion_4_zero_forever_and_frozen_masks():
    start = time.perf_counter()
    cfg = toy_config(s_f=0.6, e_i=3, l_p=5, epochs=12)
    ever_pruned = {}
    frozen = {}
    epochs_seen = []

    def per_epoch(model, row):
        epochs_seen.append(row.epoch)
        for name, layer in model.prunable():
            if name in ever_pruned:
                revived = ever_pruned[name] & (layer.weight != 0.0)
                assert not revived.any(), f"pruned position revived in {name} at epoch {row.epoch}"
            ever_pruned[name] = ever_pruned.get(
                name, np.zeros(layer.mask.shape, dtype=bool)
            ) | (layer.mask == 0.0)
            if row.epoch >= cfg.schedule.e_i + cfg.schedule.l_p:
                if name in frozen:
                    assert layer.mask.tobytes() == frozen[name], f"mask changed after era in {name}"
                else:
                    frozen[name] = layer.mask.tobytes()

    train(build_model(cfg), cfg, on_epoch_end=per_epoch)
    assert len(epochs_seen) == 12 and frozen
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"12-epoch run: no pruned weight revived, masks frozen after era ({elapsed:.1f}s)")


def test_criterion_5_gradient_correctness():
    start = time.perf_counter()
    model = ToyModel(channels=2, image_size=8, n_classes=4,
                     conv1_out=12, conv2_out=12, pool=2, seed=5)
    rng = np.random.default_rng(55)
    for _, layer in model.prunable():
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    x = 0.5 * rng.standard_normal((4, 2, 8, 8))
    y = np.array([0, 1, 2, 3])
    _, grads = backward(model, x, y)

    def loss():
        return cross_entropy(forward(model, x), y)

    worst = 0.0
    for name, layer in model.prunable():
        gw, gb = grads[name]
        assert layer.weight.size >= 100
        picks = rng.choice(layer.weight.size, size=100, replace=False)
        for i in picks:
            idx = np.unravel_index(i, layer.weight.shape)
            fd = finite_difference(loss, layer.weight, idx, h=1e-5)
            rel = abs(fd - gw[idx]) / max(abs(fd), abs(gw[idx]), 1e-8)
            assert rel < 1e-4, f"{name} weight {idx}: fd={fd} analytic={gw[idx]}"
            worst = max(worst, rel)
        for j in range(layer.bias.size):
            fd = finite_difference(loss, layer.bias, (j,), h=1e-5)
            rel = abs(fd - gb[j]) / max(abs(fd), abs(gb[j]), 1e-8)
            assert rel < 1e-4, f"{name} bias {j}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"100 positions/layer within 1e-4 of central differences "
              f"(worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_6_sparsity_accuracy_trade():
    start = time.perf_counter()
    # eight classes make the blobs crowd the 8x8 image enough that the
    # era placement is visible in the final accuracy
    dataset = SyntheticSpec(n_train=256, n_val=128, image_size=8,
                            channels=1, n_classes=8, seed=101)

    def cfg(s_f, e_i, l_p):
        return TrainingConfig(
            epochs=15, batch_size=32, lr0=0.05, lr_drop_epochs=[10, 13], seed=9,
            schedule=PruningSchedule(s_f=s_f, e_i=e_i, l_p=l_p, granularity=Granularity.CK),
            dataset=dataset,
        )

    dense_cfg = cfg(0.0, 0, 1)
    _, dense_rows = train(build_model(dense_cfg), dense_cfg)
    dense_top1 = dense_rows[-1].top1
    assert dense_top1 >= 0.90, f"dense baseline only reached {dense_top1}"

    delayed_cfg = cfg(0.6, 5, 5)  # era starts after 1/3 of epochs
    _, delayed_rows = train(build_model(delayed_cfg), delayed_cfg)
    delayed_top1 = delayed_rows[-1].top1

    early_cfg = cfg(0.6, 0, 5)
    _, early_rows = train(build_model(early_cfg), early_cfg)
    early_top1 = early_rows[-1].top1

    print(
        f"  dense={dense_top1:.4f}  ck60 delayed-era={delayed_top1:.4f} "
        f"(sparsity {delayed_rows[-1].sparsity:.3f})  ck60 era-at-0={early_top1:.4f} "
        f"(sparsity {early_rows[-1].sparsity:.3f})",
        flush=True,
    )
    assert delayed_top1 >= dense_top1 - 0.05, (
        f"delayed-era accuracy {delayed_top1} more than 5 points below dense {dense_top1}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        6,
        f"dense {dense_top1:.3f}, sparse-delayed {delayed_top1:.3f} within 5 points; "
        f"era-at-0 {early_top1:.3f} reported ({elapsed:.1f}s)",
    )


def test_criterion_7_compression_roundtrips_and_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        K, C = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = rng.standard_normal((K, C, 3, 3))
        kc = (rng.random((K, C)) < rng.uniform(0.2, 0.9)).astype(float)
        ck = np.broadcast_to(kc[:, :, None, None], w.shape).copy()
        masked = apply_mask(w, ck)
        np.testing.assert_array_equal(decompress_ck(compress_ck(w, ck)), masked)
        layer = ck_from_bytes(ck_to_bytes(compress_ck(w, ck)))
        np.testing.assert_array_equal(decompress_ck(layer), masked)

        cap = int(rng.integers(0, 10))
        wm = window_mask(w, float(rng.random()), max_non_zero=cap)
        masked_w = apply_mask(w, wm)
        packed = compress_window(w, wm, cap)
        np.testing.assert_array_equal(decompress_window(packed), masked_w)
        np.testing.assert_array_equal(
            decompress_window(window_from_bytes(window_to_bytes(packed))), masked_w
        )

    rejected = 0
    for i in range(200):
        w = rng.standard_normal((2, 2, 3, 3))
        kc = (rng.random((2, 2)) < 0.5).astype(float)
        buf = bytearray(
            ck_to_bytes(compress_ck(w, np.broadcast_to(kc[:, :, None, None], w.shape).copy()))
            if i % 2
            else window_to_bytes(compress_window(w, window_mask(w, 0.5, max_non_zero=4), 4))
        )
        mode = rng.integers(0, 3)
        if mode == 0:
            buf = buf[: rng.integers(0, len(buf))]
        elif mode == 1:
            buf += bytes(int(rng.integers(1, 9)))
        else:
            buf[int(rng.integers(0, len(buf)))] ^= int(rng.integers(1, 256))
        try:
            (ck_from_bytes if i % 2 else window_from_bytes)(bytes(buf))
        except FormatError:
            rejected += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"1000 pairs roundtrip bit-exactly; {rejected}/200 mutations rejected, "
              f"rest parsed cleanly, no crashes ({elapsed:.1f}s)")


def test_criterion_8_fgsm_sanity():
    start = time.perf_counter()
    cfg = toy_config(s_f=0.6, e_i=3, l_p=5, epochs=12)
    model, rows = train(build_model(cfg), cfg)
    _, val = make_synthetic_dataset(DATASET)

    adv0 = fgsm_perturb(model, val.x, val.y, 0.0)
    assert adv0.tobytes() == val.x.tobytes()

    for eps in (0.05, 0.2, 0.3):
        adv = fgsm_perturb(model, val.x, val.y, eps, clamp_range=(-5.0, 5.0))
        assert np.abs(adv - val.x).max() <= eps + 1e-15

    sweep = dict(robustness_sweep(model, val, AttackSpec()))
    assert sweep[0.0] == rows[-1].top1
    assert sweep[0.3] < sweep[0.0], f"no decay: {sweep}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"eps=0 identity, max-norm bounded, top1 {sweep[0.0]:.3f} -> "
              f"{sweep[0.3]:.3f} at eps=0.3 ({elapsed:.1f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "name": "determinism-probe",
        "training": {
            "epochs": 8,
            "batch_size": 32,
            "lr0": 0.05,
            "lr_drop_epochs": [6],
            "seed": 13,
            "schedule": {"s_f": 0.6, "e_i": 2, "l_p": 4, "granularity": "combined"},
            "dataset": {
                "n_train": 192, "n_val": 96, "image_size": 8,
                "channels": 1, "n_classes": 4, "seed": 17,
            },
        },
        "outputs": "unused",
        "emit_compressed": True,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    # The child sees a minimal environment, so determinism cannot depend on
    # the caller's. Only the import path of the package under test is passed
    # on, so an uninstalled source checkout runs the same code as this process.
    package_root = str(Path(sparsekit.__file__).resolve().parents[1])
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        env = {
            "SPARSEKIT_OUTPUT_DIR": str(outdir),
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": package_root,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "sparsekit.cli", "run", str(cfg_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(outdir)
    a, b = outs
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "final_checkpoint").read_bytes() == (b / "final_checkpoint").read_bytes()
    assert (a / "final_checkpoint.json").read_bytes() == (b / "final_checkpoint.json").read_bytes()
    rows = read_metrics_csv(a / "metrics.csv")
    assert len(rows) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, f"two CLI invocations byte-identical in metrics and checkpoint ({elapsed:.1f}s)")


def test_criterion_10_multiply_accounting():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for trial in range(20):
        model = ToyModel(channels=1, image_size=6, n_classes=3,
                         conv1_out=int(rng.integers(2, 5)),
                         conv2_out=int(rng.integers(2, 5)),
                         pool=2, seed=trial)
        kind = trial % 3
        t = float(rng.uniform(0.1, 0.9))
        if kind == 0:
            model.conv1.mask = window_mask(model.conv1.weight, t)
            model.conv2.mask = ck_mask(model.conv2.weight, t)
        elif kind == 1:
            model.conv1.mask = ck_mask(model.conv1.weight, t)
            model.conv2.mask = ck_mask(model.conv2.weight, t)
        else:
            model.conv1.mask = combined_mask(model.conv1.weight, t, 0.8)
            model.conv2.mask = ck_mask(model.conv2.weight, t)
        model.fc.mask = fc_fine_mask(model.fc.weight, t)
        model.apply_masks()
        conv_entries, fc_entries = model_mac_entries(model)
        dense, sparse = multiply_count(conv_entries, fc_entries)
        assert sparse == count_multiplies_oracle(model), f"trial {trial}"
        assert sparse <= dense
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, f"sparse MAC count equals instrumented multiply count on 20 models ({elapsed:.1f}s)")

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsekit.trainer
from sparsekit import (
    Granularity,
    PruningSchedule,
    SyntheticSpec,
    TrainingConfig,
    build_model,
    make_synthetic_dataset,
    train,
)
from sparsekit.cli import _emit_compressed_layers
from sparsekit.compressed import ck_from_bytes, decompress_ck, decompress_window, window_from_bytes
from sparsekit.errors import ConfigError, TrainingDivergedError
from sparsekit.masking import CoverageWarning
from sparsekit.schedule import threshold_at
from sparsekit.trainer import (
    config_from_dict,
    config_to_dict,
    evaluate,
    load_checkpoint,
    network_sparsity,
    read_metrics_csv,
    regenerate_masks,
    save_checkpoint,
    write_metrics_csv,
)

SPEC = SyntheticSpec(n_train=192, n_val=96, image_size=8, channels=1, n_classes=4, seed=11)


def config(s_f=0.6, e_i=2, l_p=4, granularity=Granularity.CK, epochs=8, seed=5, **kw):
    return TrainingConfig(
        epochs=epochs,
        batch_size=32,
        lr0=0.05,
        lr_drop_epochs=[6],
        seed=seed,
        schedule=PruningSchedule(s_f=s_f, e_i=e_i, l_p=l_p, granularity=granularity, **kw),
        dataset=SPEC,
    )


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def test_dataset_deterministic_byte_for_byte():
    a_train, a_val = make_synthetic_dataset(SPEC)
    b_train, b_val = make_synthetic_dataset(SPEC)
    assert a_train.x.tobytes() == b_train.x.tobytes()
    assert a_train.y.tobytes() == b_train.y.tobytes()
    assert a_val.x.tobytes() == b_val.x.tobytes()
    assert a_val.y.tobytes() == b_val.y.tobytes()


def test_dataset_class_balanced_and_in_range():
    train_split, val_split = make_synthetic_dataset(SPEC)
    for split in (train_split, val_split):
        counts = np.bincount(split.y, minlength=SPEC.n_classes)
        assert counts.max() - counts.min() <= 1
        assert split.x.min() >= 0.0 and split.x.max() <= 1.0


def test_single_class_dataset_is_trivially_classified():
    spec = SyntheticSpec(n_train=16, n_val=16, image_size=8, channels=1, n_classes=1, seed=0)
    cfg = TrainingConfig(epochs=1, batch_size=8, lr0=0.05, lr_drop_epochs=[], seed=1,
                         schedule=PruningSchedule(s_f=0.0, e_i=0, l_p=1, granularity="ck"),
                         dataset=spec)
    model = build_model(cfg)
    _, val = make_synthetic_dataset(spec)
    top1, _ = evaluate(model, val)
    assert top1 == 1.0


def test_scrambled_labels_sink_accuracy_to_chance():
    rng = np.random.default_rng(42)
    train_split, val_split = make_synthetic_dataset(SPEC)
    scrambled = train_split._replace(y=rng.permutation(train_split.y))
    cfg = config(s_f=0.0, epochs=4)
    model = build_model(cfg)
    n = len(scrambled.y)
    for _ in range(cfg.epochs):
        for start in range(0, n, cfg.batch_size):
            xb = scrambled.x[start : start + cfg.batch_size]
            yb = scrambled.y[start : start + cfg.batch_size]
            from sparsekit import backward, sgd_step

            sgd_step(model, backward(model, xb, yb)[1], cfg.lr0)
    top1, _ = evaluate(model, val_split)
    assert top1 <= 1 / SPEC.n_classes + 0.2


# ---------------------------------------------------------------------------
# training protocol
# ---------------------------------------------------------------------------


def test_disabled_pruning_trajectory_independent_of_granularity():
    runs = []
    for g in (Granularity.CK, Granularity.WINDOW, Granularity.FC_BLOCK):
        model, rows = train(build_model(config(s_f=0.0, granularity=g, epochs=4)),
                            config(s_f=0.0, granularity=g, epochs=4))
        runs.append((rows, {n: l.weight.copy() for n, l in model.prunable()}))
    base_rows, base_weights = runs[0]
    for rows, weights in runs[1:]:
        assert rows == base_rows
        for name in base_weights:
            np.testing.assert_array_equal(weights[name], base_weights[name])


def test_dense_run_reaches_high_accuracy():
    cfg = config(s_f=0.0, epochs=8)
    _, rows = train(build_model(cfg), cfg)
    assert rows[-1].top1 >= 0.9


def test_zero_forever_and_frozen_masks():
    cfg = config(s_f=0.6, e_i=2, l_p=4, epochs=10)
    pruned_seen = {}
    frozen = {}
    violations = []

    def check(model, row):
        for name, layer in model.prunable():
            zero_now = layer.weight == 0.0
            if name in pruned_seen and np.any(pruned_seen[name] & ~zero_now):
                violations.append((row.epoch, name))
            pruned_seen[name] = pruned_seen.get(name, np.zeros_like(zero_now)) | (
                layer.mask == 0.0
            )
            if row.epoch >= cfg.schedule.e_i + cfg.schedule.l_p:
                if name in frozen:
                    assert layer.mask.tobytes() == frozen[name]
                else:
                    frozen[name] = layer.mask.tobytes()

    model, rows = train(build_model(cfg), cfg, on_epoch_end=check)
    assert not violations
    assert frozen  # the frozen phase was actually observed


def test_sparsity_trajectory_nondecreasing_and_reaches_target_zone():
    cfg = config(s_f=0.6, e_i=2, l_p=4, epochs=10)
    model, rows = train(build_model(cfg), cfg)
    sparsities = [r.sparsity for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(sparsities, sparsities[1:]))
    total = sum(l.weight.size for _, l in model.prunable())
    # floors lose at most one granule per layer; coverage can restore a
    # few weights; conv-driven elimination can add rows beyond the target
    slack_down = (9 + 1 + 1 + cfg.dataset.n_classes) / total
    assert rows[-1].sparsity >= cfg.schedule.s_f - slack_down - 0.02
    assert rows[-1].sparsity <= min(1.0, cfg.schedule.s_f + 0.25)


def test_masks_track_epoch_threshold_during_era():
    cfg = config(s_f=0.6, e_i=2, l_p=4, epochs=7, granularity=Granularity.WINDOW)
    seen = {}

    def check(model, row):
        seen[row.epoch] = row.sparsity

    train(build_model(cfg), cfg, on_epoch_end=check)
    for epoch in range(2, 6):
        t = threshold_at(cfg.schedule, epoch)
        # granule floors across the three layers stay well under 5 points
        assert seen[epoch] >= t - 0.05


def test_training_is_deterministic():
    cfg = config()
    m1, rows1 = train(build_model(cfg), cfg)
    m2, rows2 = train(build_model(cfg), cfg)
    assert rows1 == rows2
    for (n1, l1), (_, l2) in zip(m1.prunable(), m2.prunable()):
        assert l1.weight.tobytes() == l2.weight.tobytes()
        assert l1.mask.tobytes() == l2.mask.tobytes()
        assert l1.vel_w.tobytes() == l2.vel_w.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_diagnostic():
    cfg = config(s_f=0.0, epochs=2)
    cfg = TrainingConfig(**{**config_to_dict_raw(cfg), "lr0": 1e18})
    with pytest.raises(TrainingDivergedError):
        train(build_model(cfg), cfg)


def test_nan_training_data_aborts(monkeypatch):
    # ReLU does not zero a NaN pixel, so the very first batch gives a NaN loss
    def with_a_nan_pixel(spec):
        train_split, val_split = make_synthetic_dataset(spec)
        train_split.x[:, 0, 3, 3] = np.nan
        return train_split, val_split

    monkeypatch.setattr(sparsekit.trainer, "make_synthetic_dataset", with_a_nan_pixel)
    cfg = config(s_f=0.0, epochs=2)
    with pytest.raises(TrainingDivergedError, match="epoch 0, batch 0$"):
        train(build_model(cfg), cfg)


def config_to_dict_raw(cfg):
    d = config_to_dict(cfg)
    d["schedule"] = cfg.schedule
    d["dataset"] = cfg.dataset
    return d


def test_era_past_end_warns_and_undershoots():
    cfg = config(s_f=0.8, e_i=2, l_p=20, epochs=4)
    with pytest.warns(UserWarning, match="extends past"):
        _, rows = train(build_model(cfg), cfg)
    assert rows[-1].sparsity < 0.8


def test_fc_granularities_leave_convs_dense():
    cfg = config(s_f=0.5, e_i=1, l_p=2, epochs=4, granularity=Granularity.FC_BLOCK)
    model, _ = train(build_model(cfg), cfg)
    np.testing.assert_array_equal(model.conv1.mask, np.ones_like(model.conv1.mask))
    np.testing.assert_array_equal(model.conv2.mask, np.ones_like(model.conv2.mask))
    assert (model.fc.mask == 0.0).any()
    assert (model.fc.mask.sum(axis=0) >= 1).all()


def test_regenerate_masks_is_monotone():
    cfg = config()
    model = build_model(cfg)
    regenerate_masks(model, cfg.schedule, 0.5)
    first = {n: l.mask.copy() for n, l in model.prunable()}
    regenerate_masks(model, cfg.schedule, 0.2)  # lower threshold cannot revive bits
    for name, layer in model.prunable():
        assert np.all(layer.mask <= first[name])


# ---------------------------------------------------------------------------
# metrics csv and checkpoints
# ---------------------------------------------------------------------------


def test_metrics_csv_roundtrip(tmp_path):
    cfg = config(epochs=3, e_i=1, l_p=1)
    _, rows = train(build_model(cfg), cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,top1,loss,sparsity,lr,phase"
    assert read_metrics_csv(path) == rows


def test_checkpoint_roundtrip(tmp_path):
    cfg = config(epochs=3, e_i=1, l_p=1)
    model, _ = train(build_model(cfg), cfg)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, cfg, epoch=3)
    loaded, loaded_cfg, sidecar = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert sidecar["epoch"] == 3
    for (n1, l1), (_, l2) in zip(model.prunable(), loaded.prunable()):
        np.testing.assert_array_equal(l1.weight, l2.weight)
        np.testing.assert_array_equal(l1.mask, l2.mask)
        np.testing.assert_array_equal(l1.vel_w, l2.vel_w)
        np.testing.assert_array_equal(l1.bias, l2.bias)
    assert network_sparsity(loaded) == network_sparsity(model)


def test_config_dict_roundtrip():
    cfg = config(s_f=0.7, granularity=Granularity.COMBINED, max_non_zero=4)
    assert config_from_dict(config_to_dict(cfg)) == cfg


valid_configs = st.builds(
    TrainingConfig,
    epochs=st.integers(1, 10_000),
    batch_size=st.integers(1, 4096),
    lr0=st.floats(1e-9, 1e3),
    lr_drop_epochs=st.lists(st.integers(0, 10_000), max_size=4),
    seed=st.integers(0, 2**63),
    schedule=st.builds(
        PruningSchedule,
        s_f=st.floats(0.0, 1.0),
        e_i=st.integers(0, 10_000),
        l_p=st.integers(1, 10_000),
        granularity=st.sampled_from(Granularity),
        r=st.floats(1.0, 16.0),
        max_non_zero=st.none() | st.integers(0, 255),
        window_fraction=st.floats(0.0, 1.0),
        fc_block=st.integers(1, 4),
    ),
    dataset=st.builds(
        SyntheticSpec,
        n_train=st.integers(1, 10**6),
        n_val=st.integers(1, 10**6),
        image_size=st.integers(2, 1024),
        channels=st.integers(1, 64),
        n_classes=st.integers(1, 1000),
        seed=st.integers(0, 2**63),
    ),
    lr_drop_factor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    momentum=st.floats(0.0, 1.0, exclude_max=True),
    weight_decay=st.floats(0.0, 1.0),
    conv1_out=st.integers(1, 512),
    conv2_out=st.integers(1, 512),
    pool=st.integers(1, 16),
)


@given(valid_configs)
def test_random_config_survives_json_roundtrip(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_config_rejects_unknown_and_missing_fields():
    cfg_dict = config_to_dict(config())
    cfg_dict["typo_field"] = 1
    with pytest.raises(ConfigError, match="typo_field"):
        config_from_dict(cfg_dict)
    del cfg_dict["typo_field"]
    del cfg_dict["epochs"]
    with pytest.raises(ConfigError, match="epochs"):
        config_from_dict(cfg_dict)


# ---------------------------------------------------------------------------
# protocol invariants on random tiny configs
# ---------------------------------------------------------------------------

# conv2 channel 0 dies at threshold 0.704 and elimination zeroes the FC rows
# that held column 0's only kept bits; the fine mask's survivors in that
# column are zero weights the previous mask had pruned
EMPTIED_COLUMN = {
    "epochs": 7, "batch_size": 24, "lr0": 0.05, "lr_drop_epochs": [], "seed": 28,
    "conv1_out": 4, "conv2_out": 3, "pool": 2,
    "schedule": {"s_f": 1.0, "e_i": 2, "l_p": 3, "granularity": "window"},
    "dataset": {"n_train": 32, "n_val": 16, "image_size": 4, "channels": 1,
                "n_classes": 3, "seed": 1},
}


def check_protocol_invariants(cfg, outdir):
    """Train ``cfg``, checking the invariants training keeps after every epoch and at the end."""
    masks = {}  # each layer's mask at the previous check
    phases = []

    def check(model, row=None):
        frozen = row is not None and row.phase == "frozen" and phases[-1:] == ["frozen"]
        for name, layer in model.prunable():
            mask = layer.mask
            assert ((mask == 0.0) | (mask == 1.0)).all(), f"{name} mask is not binary"
            if name in masks:
                assert (mask <= masks[name]).all(), f"{name} mask revived a bit"
                assert not frozen or (mask == masks[name]).all(), f"{name} moved after the era"
            for attr in ("weight", "vel_w"):
                assert not getattr(layer, attr)[mask == 0.0].any(), f"{name}.{attr} under a 0"
            masks[name] = mask.copy()
        if row is not None:
            phases.append(row.phase)
        assert (model.fc.mask.sum(axis=0) > 0).all(), "an FC column lost its last kept bit"
        written = _emit_compressed_layers(model, cfg, outdir)
        assert sorted(p.name for p in outdir.iterdir()) == sorted(written)
        layers = dict(model.prunable())
        for name in written:
            data = (outdir / name).read_bytes()
            if name.endswith(".cksp"):
                dense = decompress_ck(ck_from_bytes(data))
            else:
                dense = decompress_window(window_from_bytes(data))
            layer = layers[name.split(".")[0]]
            np.testing.assert_array_equal(dense, layer.weight * layer.mask, err_msg=name)

    model, _ = train(build_model(cfg), cfg, on_epoch_end=check)
    check(model)


def test_window_run_keeps_every_fc_column_covered(tmp_path):
    check_protocol_invariants(config_from_dict(EMPTIED_COLUMN), tmp_path)


def test_coverage_restores_the_lowest_kept_row_of_an_all_zero_column():
    cfg = config(granularity=Granularity.FC_FINE)
    model = build_model(cfg)
    model.fc.weight[:, 0] = 0.0
    model.fc.mask[:, 0] = 0.0
    model.fc.mask[[3, 5], 0] = 1.0
    with pytest.warns(CoverageWarning):  # the fine mask keeps row 0, which the fold drops
        regenerate_masks(model, cfg.schedule, 0.9)
    np.testing.assert_array_equal(np.flatnonzero(model.fc.mask[:, 0]), [3])


@st.composite
def tiny_configs(draw):
    image_size = draw(st.integers(4, 8))
    e_i, l_p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    schedule = PruningSchedule(
        s_f=draw(st.floats(0.0, 1.0)), e_i=e_i, l_p=l_p,
        granularity=draw(st.sampled_from(Granularity)),
        max_non_zero=draw(st.none() | st.integers(0, 9)),
        window_fraction=draw(st.floats(0.0, 1.0)),
        fc_block=draw(st.integers(1, 4)),
    )
    dataset = SyntheticSpec(
        n_train=draw(st.integers(8, 32)), n_val=8, image_size=image_size,
        channels=draw(st.integers(1, 2)), n_classes=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 1000)),
    )
    return TrainingConfig(
        epochs=e_i + l_p + draw(st.integers(0, 2)), batch_size=draw(st.integers(8, 24)),
        lr0=0.05, lr_drop_epochs=[], seed=draw(st.integers(0, 1000)),
        schedule=schedule, dataset=dataset,
        conv1_out=draw(st.integers(1, 5)), conv2_out=draw(st.integers(1, 5)),
        pool=draw(st.sampled_from([p for p in range(1, image_size + 1) if image_size % p == 0])),
    )


@settings(max_examples=100, deadline=None)
@given(tiny_configs())
def test_random_tiny_runs_keep_the_protocol_invariants(cfg):
    with tempfile.TemporaryDirectory() as outdir:
        check_protocol_invariants(cfg, Path(outdir))

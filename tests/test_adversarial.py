from collections import Counter

import numpy as np
import pytest

import sparsekit.adversarial
import sparsekit.model
import sparsekit.trainer
from sparsekit import (
    AttackSpec,
    Granularity,
    PruningSchedule,
    SyntheticSpec,
    TrainingConfig,
    build_model,
    fgsm_perturb,
    forward,
    input_gradient,
    make_synthetic_dataset,
    robustness_sweep,
    train,
)
from sparsekit.adversarial import read_robustness_csv, write_robustness_csv
from sparsekit.errors import ConfigError
from sparsekit.model import cross_entropy
from sparsekit.trainer import EVAL_BATCH_SIZE

from oracles import finite_difference

SPEC = SyntheticSpec(n_train=192, n_val=96, image_size=8, channels=1, n_classes=4, seed=21)


@pytest.fixture(scope="module")
def trained():
    cfg = TrainingConfig(
        epochs=6, batch_size=32, lr0=0.05, lr_drop_epochs=[5], seed=3,
        schedule=PruningSchedule(s_f=0.5, e_i=1, l_p=3, granularity=Granularity.CK),
        dataset=SPEC,
    )
    model, rows = train(build_model(cfg), cfg)
    _, val = make_synthetic_dataset(SPEC)
    return model, val, rows


def test_attack_spec_validation():
    AttackSpec(epsilons=(0.0, 0.1), clamp_range=(0.0, 1.0))
    with pytest.raises(ConfigError):
        AttackSpec(epsilons=())
    with pytest.raises(ConfigError):
        AttackSpec(epsilons=(0.1, 0.05))
    with pytest.raises(ConfigError):
        AttackSpec(epsilons=(-0.1, 0.0))
    with pytest.raises(ConfigError):
        AttackSpec(clamp_range=(1.0, 0.0))


def test_epsilon_zero_is_identity(trained):
    model, val, _ = trained
    x = val.x[:32]
    adv = fgsm_perturb(model, x, val.y[:32], 0.0)
    assert adv.tobytes() == x.tobytes()


def test_perturbation_bounded_and_saturated(trained):
    model, val, _ = trained
    x = val.x[:32]
    eps = 0.07
    # wide clamp so the bound is observed pre-saturation
    adv = fgsm_perturb(model, x, val.y[:32], eps, clamp_range=(-10.0, 10.0))
    delta = adv - x
    assert np.abs(delta).max() <= eps + 1e-15
    dx = input_gradient(model, x, val.y[:32])
    moved = np.abs(delta[dx != 0.0])
    if moved.size:
        np.testing.assert_allclose(moved, eps, atol=1e-15)


def test_outputs_stay_in_clamp_range(trained):
    model, val, _ = trained
    adv = fgsm_perturb(model, val.x[:64], val.y[:64], 0.3, clamp_range=(0.0, 1.0))
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_input_gradient_matches_finite_differences(trained):
    model, val, _ = trained
    x = val.x[:2].copy()
    y = val.y[:2]
    dx = input_gradient(model, x, y)
    rng = np.random.default_rng(0)
    flat = x.reshape(-1)
    for i in rng.choice(flat.size, size=10, replace=False):
        idx = np.unravel_index(i, x.shape)
        fd = finite_difference(lambda: cross_entropy(forward(model, x), y), x, idx, h=1e-6)
        rel = abs(fd - dx[idx]) / max(abs(fd), abs(dx[idx]), 1e-8)
        assert rel < 1e-4


def test_uniform_output_model_scores_chance_at_every_epsilon():
    model = build_model(
        TrainingConfig(
            epochs=1, batch_size=32, lr0=0.05, lr_drop_epochs=[], seed=0,
            schedule=PruningSchedule(s_f=0.0, e_i=0, l_p=1, granularity="ck"),
            dataset=SPEC,
        )
    )
    for _, layer in model.prunable():
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    _, val = make_synthetic_dataset(SPEC)
    sweep = robustness_sweep(model, val, AttackSpec())
    share_of_class_zero = float(np.mean(val.y == 0))
    for _, top1 in sweep:
        assert top1 == share_of_class_zero


def test_sweep_epsilon_zero_equals_clean_accuracy(trained):
    model, val, rows = trained
    sweep = robustness_sweep(model, val, AttackSpec())
    assert sweep[0][0] == 0.0
    assert sweep[0][1] == rows[-1].top1


def test_sweep_accuracy_decays_at_large_epsilon(trained):
    model, val, _ = trained
    sweep = dict(robustness_sweep(model, val, AttackSpec()))
    assert sweep[0.3] < sweep[0.0]


def test_sweep_deterministic(trained):
    model, val, _ = trained
    spec = AttackSpec(epsilons=(0.0, 0.1, 0.3))
    assert robustness_sweep(model, val, spec) == robustness_sweep(model, val, spec)


def test_robustness_csv_roundtrip(tmp_path, trained):
    model, val, _ = trained
    sweep = robustness_sweep(model, val, AttackSpec(epsilons=(0.0, 0.15)))
    path = tmp_path / "robustness.csv"
    write_robustness_csv(path, sweep)
    assert path.read_text().splitlines()[0] == "epsilon,top1"
    assert read_robustness_csv(path) == sweep


def test_sweep_equals_per_epsilon_attack_with_one_gradient_per_batch(trained, monkeypatch):
    model, _, _ = trained
    # a full batch and a ragged one
    _, val = make_synthetic_dataset(SyntheticSpec(
        n_train=1, n_val=EVAL_BATCH_SIZE + 44, image_size=8, channels=1, n_classes=4, seed=5))
    # the clamp cuts into the data's [0, 1] range, so it moves the scores, and 1.0 saturates it
    spec = AttackSpec(epsilons=(0.0, 0.05, 0.2, 1.0), clamp_range=(0.3, 0.7))
    expected = []
    for eps in spec.epsilons:
        correct = 0
        for start in range(0, len(val.y), EVAL_BATCH_SIZE):
            xb, yb = val.x[start:start + EVAL_BATCH_SIZE], val.y[start:start + EVAL_BATCH_SIZE]
            adv = fgsm_perturb(model, xb, yb, eps, spec.clamp_range)
            correct += int((forward(model, adv).argmax(axis=1) == yb).sum())
        expected.append((eps, correct / len(val.y)))

    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = (sparsekit.model.forward, sparsekit.model.input_gradient)
    for module in (sparsekit.model, sparsekit.adversarial, sparsekit.trainer):
        for fn in originals:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    assert robustness_sweep(model, val, spec) == expected
    assert calls == {"input_gradient": 2, "forward": 2 * (1 + len(spec.epsilons))}

import json

import numpy as np
import pytest

from sparsekit.cli import main
from sparsekit.tensor import load_tensors, save_tensors
from sparsekit.trainer import (build_model, config_from_dict, load_checkpoint,
                               read_metrics_csv, save_checkpoint)


def base_config(outdir, s_f=0.6, epochs=8, attack=False, emit=False):
    cfg = {
        "name": f"toy-{'ck' + str(int(s_f * 100)) if s_f else 'dense'}",
        "training": {
            "epochs": epochs,
            "batch_size": 32,
            "lr0": 0.05,
            "lr_drop_epochs": [6],
            "seed": 7,
            "schedule": {
                "s_f": s_f,
                "e_i": 2,
                "l_p": 4,
                "granularity": "ck",
            },
            "dataset": {
                "n_train": 192,
                "n_val": 96,
                "image_size": 8,
                "channels": 1,
                "n_classes": 4,
                "seed": 11,
            },
        },
        "outputs": str(outdir),
    }
    if attack:
        cfg["attack"] = {"epsilons": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]}
    if emit:
        cfg["emit_compressed"] = True
    return cfg


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_dense_run_emits_metrics_only(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = base_config(outdir, s_f=0.0, epochs=3)
    code = main(["run", str(write_config(tmp_path, cfg))])
    assert code == 0
    assert (outdir / "metrics.csv").exists()
    assert (outdir / "final_checkpoint").exists()
    assert (outdir / "final_checkpoint.json").exists()
    assert (outdir / "summary.json").exists()
    assert not (outdir / "robustness.csv").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["final_sparsity"] == 0.0
    assert summary["dense_macs"] == summary["sparse_macs"]


def test_sparse_run_full_pipeline(tmp_path):
    outdir = tmp_path / "out"
    cfg = base_config(outdir, s_f=0.6, attack=True, emit=True)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0

    summary = json.loads((outdir / "summary.json").read_text())
    assert abs(summary["final_sparsity"] - 0.6) < 0.1
    assert summary["sparse_macs"] < summary["dense_macs"]
    assert sorted(summary["compressed_files"]) == ["conv1.cksp", "conv2.cksp"]
    assert (outdir / "conv1.cksp").exists() and (outdir / "conv2.cksp").exists()

    sweep = (outdir / "robustness.csv").read_text().splitlines()
    assert sweep[0] == "epsilon,top1"
    eps = [float(line.split(",")[0]) for line in sweep[1:]]
    assert eps == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    rows = read_metrics_csv(outdir / "metrics.csv")
    assert [r.phase for r in rows[:2]] == ["dense", "dense"]
    assert rows[-1].phase == "frozen"


def test_rerun_in_another_format_leaves_only_the_listed_layer_files(tmp_path):
    outdir = tmp_path / "out"
    cfg = base_config(outdir, epochs=7, emit=True)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert sorted(p.name for p in outdir.glob("conv*")) == ["conv1.cksp", "conv2.cksp"]
    cfg["training"]["schedule"].update(granularity="window", max_non_zero=4)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    listed = json.loads((outdir / "summary.json").read_text())["compressed_files"]
    assert sorted(listed) == ["conv1.wnsp", "conv2.cksp"]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        listed + ["final_checkpoint", "final_checkpoint.json", "metrics.csv", "summary.json"])


def test_identical_invocations_are_byte_identical(tmp_path, monkeypatch):
    cfg = base_config(tmp_path / "a", epochs=7)
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0
    monkeypatch.setenv("SPARSEKIT_OUTPUT_DIR", str(tmp_path / "b"))
    assert main(["run", str(path)]) == 0
    monkeypatch.delenv("SPARSEKIT_OUTPUT_DIR")

    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "final_checkpoint").read_bytes() == (b / "final_checkpoint").read_bytes()
    assert (a / "final_checkpoint.json").read_bytes() == (b / "final_checkpoint.json").read_bytes()


def test_malformed_json_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n "name": "x",\n broken\n}')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_unknown_field_exits_2_named(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", s_f=0.0, epochs=1)
    cfg["training"]["schedule"]["granularityy"] = "ck"
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "granularityy" in capsys.readouterr().err


def test_missing_field_exits_2_named(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", s_f=0.0, epochs=1)
    del cfg["training"]["dataset"]["n_classes"]
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "n_classes" in capsys.readouterr().err


def test_invalid_schedule_value_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", s_f=1.7, epochs=1)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "s_f" in capsys.readouterr().err


@pytest.mark.parametrize("edits, field", [
    ({"training.epochs": "3"}, "epochs"),
    ({"training.epochs": 2.5}, "epochs"),
    ({"training.epochs": True}, "epochs"),
    ({"training.lr0": True}, "lr0"),
    ({"training.lr0": float("inf")}, "lr0"),
    ({"training.schedule.r": float("nan")}, "r"),
    ({"training.weight_decay": 10**400}, "weight_decay"),
    ({"training.schedule.s_f": "0.5"}, "s_f"),
    ({"training.schedule.max_non_zero": "3"}, "max_non_zero"),
    ({"training.dataset.n_train": "32"}, "n_train"),
    ({"training.lr_drop_epochs": None}, "lr_drop_epochs"),
    ({"training.schedule.granularity": "foo"}, "granularity"),
    ({"training.dataset.image_size": 4.5}, "image_size"),
    ({"attack.epsilons": "abc"}, "epsilons"),
    ({"training.pool": 4, "training.dataset.image_size": 6}, "pool"),
    ({"training.pool": 0}, "pool"),
    ({"training.conv1_out": 0}, "conv1_out"),
    ({"training.seed": -1}, "seed"),
    ({"training.dataset.seed": -1}, "seed"),
    ({"emit_compressed": "no"}, "emit_compressed"),
    ({"training.schedule.s_i": 0.1}, "s_i"),
], ids=lambda v: "-".join(f"{k}={v[k]!r:.12}" for k in v) if isinstance(v, dict) else None)
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, edits, field):
    outdir = tmp_path / "out"
    cfg = base_config(outdir, s_f=0.0, epochs=1, attack=True)
    for path, value in edits.items():
        *parents, key = path.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        section[key] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert len(err.splitlines()) == 1
    assert not outdir.exists()


def test_integer_literal_past_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for this.
    path = tmp_path / "exp.json"
    path.write_text('{"name": "x", "epochs": 1' + "0" * 5000 + "}")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_output_dir_under_a_file_exits_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("SPARSEKIT_OUTPUT_DIR", str(blocker / "out"))
    cfg = base_config(tmp_path / "unused", s_f=0.0, epochs=1)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot create output directory ") and len(err.splitlines()) == 1


def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    outdir = tmp_path / "out"
    (outdir / "metrics.csv").mkdir(parents=True)
    cfg = base_config(outdir, s_f=0.0, epochs=1)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write outputs to ") and len(err.splitlines()) == 1
    assert "metrics.csv" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", s_f=0.0, epochs=2)
    cfg["training"]["lr0"] = 1e18
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert "aborted" in capsys.readouterr().err


def test_compare_single_run(tmp_path, capsys):
    s = tmp_path / "summary.json"
    s.write_text(json.dumps({"name": "base", "final_top1": 0.9, "final_sparsity": 0.0}))
    assert main(["compare", str(s)]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "+0.0000" in out


def test_compare_reports_deltas_in_given_order(tmp_path, capsys):
    paths = []
    for name, top1, sp in (("base", 0.90, 0.0), ("ck60", 0.88, 0.6), ("win60", 0.91, 0.62)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"name": name, "final_top1": top1, "final_sparsity": sp}))
        paths.append(str(p))
    assert main(["compare", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("base") and lines[2].startswith("ck60")
    assert "-0.0200" in lines[2]
    assert "+0.0100" in lines[3]


def test_compare_missing_field_names_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"name": "x"}))
    assert main(["compare", str(p)]) == 2
    assert "broken.json" in capsys.readouterr().err


def test_inspect_prints_per_layer_profile(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = base_config(outdir, s_f=0.6, epochs=8)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    capsys.readouterr()
    assert main(["inspect", str(outdir / "final_checkpoint")]) == 0
    out = capsys.readouterr().out
    for token in ("conv1", "conv2", "fc", "network sparsity"):
        assert token in out


def test_inspect_missing_checkpoint_exits_2(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope")]) == 2


def _truncate(ckpt, sidecar):
    ckpt.write_bytes(ckpt.read_bytes()[:-5])


def _bad_magic(ckpt, sidecar):
    ckpt.write_bytes(b"NOPE" + ckpt.read_bytes()[4:])


def _reordered_tensors(ckpt, sidecar):
    meta = json.loads(sidecar.read_text())
    meta["tensor_order"].reverse()
    sidecar.write_text(json.dumps(meta))


def _no_config(ckpt, sidecar):
    meta = json.loads(sidecar.read_text())
    del meta["config"]
    sidecar.write_text(json.dumps(meta))


def _sidecar_holding(value):
    def corrupt(ckpt, sidecar):
        sidecar.write_text(json.dumps(value))
    return corrupt


def _set_first_entry(tensor, value, named=None):
    """Corrupter that overwrites one tensor's first entry; returns the tensor
    the diagnostic must name."""
    def corrupt(ckpt, sidecar):
        order = json.loads(sidecar.read_text())["tensor_order"]
        arrays = load_tensors(ckpt)
        arrays[order.index(tensor)].flat[0] = value
        save_tensors(ckpt, arrays)
        return named or tensor
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_truncate, _bad_magic, _reordered_tensors, _no_config,
     _set_first_entry("conv1.weight", np.nan),
     _set_first_entry("fc.mask", 0.5),
     _set_first_entry("conv2.mask", 0.0, named="conv2.weight"),
     _set_first_entry("fc.vel_w", np.inf),
     _sidecar_holding([]), _sidecar_holding("x"), _sidecar_holding(3), _sidecar_holding(None)],
    ids=["truncated", "bad_magic", "tensor_order_mismatch", "no_config",
         "nan_weight", "fractional_mask", "weight_under_zero_mask", "inf_velocity",
         "sidecar_list", "sidecar_string", "sidecar_number", "sidecar_null"])
def test_inspect_corrupt_checkpoint_exits_2(tmp_path, capsys, corrupt):
    config = config_from_dict(base_config(tmp_path / "out")["training"])
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, build_model(config), config, epoch=0)
    named = corrupt(ckpt, tmp_path / "ckpt.json")
    assert main(["inspect", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read checkpoint {ckpt}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert named is None or named in err


def test_inspect_reads_sidecar_in_old_layout(tmp_path, capsys):
    """Sidecars once also held ``schedule.s_i`` (always 0) and the RNG state."""
    config = config_from_dict(base_config(tmp_path / "out")["training"])
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, build_model(config), config, epoch=8)
    sidecar = tmp_path / "ckpt.json"
    meta = json.loads(sidecar.read_text())
    meta["config"]["schedule"]["s_i"] = 0
    meta["rng_state"] = np.random.default_rng(7).bit_generator.state
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    assert load_checkpoint(ckpt)[1] == config
    assert main(["inspect", str(ckpt)]) == 0
    assert "(epoch 8)" in capsys.readouterr().out

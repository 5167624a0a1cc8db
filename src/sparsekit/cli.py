"""Experiment runner: train -> compress -> attack from one JSON config.

Commands:

* ``run <config.json>``: execute the experiment, writing ``metrics.csv``,
  ``final_checkpoint`` (+ ``.json`` sidecar), ``summary.json``, and
  optionally ``robustness.csv`` and compressed layer files into the
  output directory. Exit 0 on success, 2 on a malformed config or an
  output directory that cannot be created or written, 3 if training
  produces a non-finite loss.
* ``compare <summary.json>...``: aligned table of runs with accuracy
  deltas against the first (baseline) entry.
* ``inspect <checkpoint>``: per-layer sparsity profile of a checkpoint.
  Exit 2 if the checkpoint or its sidecar is missing or corrupt.

``SPARSEKIT_OUTPUT_DIR`` overrides the config's output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversarial import AttackSpec, robustness_sweep, write_robustness_csv
from .compressed import (
    ck_to_bytes,
    compress_ck,
    compress_window,
    model_mac_entries,
    multiply_count,
    window_to_bytes,
)
from .errors import ConfigError, FormatError, TrainingDivergedError
from .trainer import (
    TrainingConfig,
    build_model,
    config_from_dict,
    load_checkpoint,
    make_synthetic_dataset,
    network_sparsity,
    save_checkpoint,
    take_fields,
    train,
    write_metrics_csv,
)

OUTPUT_DIR_ENV = "SPARSEKIT_OUTPUT_DIR"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    training: TrainingConfig
    outputs: str
    attack: AttackSpec | None = None
    emit_compressed: bool = False

    def __post_init__(self):
        if not self.name:
            raise ConfigError("experiment name must be nonempty")


def load_experiment_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except ValueError as e:  # e.g. an integer literal past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    fields = take_fields(raw, ExperimentConfig, "experiment")
    fields["training"] = config_from_dict(fields["training"])
    if fields.get("attack") is not None:
        fields["attack"] = AttackSpec(**take_fields(fields["attack"], AttackSpec, "attack"))
    return ExperimentConfig(**fields)


def _emit_compressed_layers(model, config: TrainingConfig, outdir: Path) -> list[str]:
    """Write each conv layer as CKSP, or as WNSP where CK cannot hold it.

    Removes the layer's file in the other format, which an earlier run
    into the same directory may have left.
    """
    written = []
    for name, layer in (("conv1", model.conv1), ("conv2", model.conv2)):
        try:
            packed = compress_ck(layer.weight, layer.mask)
            path, stale = outdir / f"{name}.cksp", outdir / f"{name}.wnsp"
            path.write_bytes(ck_to_bytes(packed))
        except FormatError:
            cap = config.schedule.max_non_zero
            if cap is None:
                K, C, R, S = layer.mask.shape
                cap = int(layer.mask.reshape(K * C, R * S).sum(axis=1).max())
            path, stale = outdir / f"{name}.wnsp", outdir / f"{name}.cksp"
            path.write_bytes(window_to_bytes(compress_window(layer.weight, layer.mask, cap)))
        stale.unlink(missing_ok=True)
        written.append(path.name)
    return written


def run_experiment(config_path) -> int:
    try:
        exp = load_experiment_config(config_path)
        model = build_model(exp.training)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    outdir = Path(os.environ.get(OUTPUT_DIR_ENV) or exp.outputs)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"cannot create output directory {outdir}: {e}", file=sys.stderr)
        return 2

    try:
        model, rows = train(model, exp.training)
    except TrainingDivergedError as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 3

    try:
        write_metrics_csv(outdir / "metrics.csv", rows)
        save_checkpoint(outdir / "final_checkpoint", model, exp.training, epoch=exp.training.epochs)

        if exp.attack is not None:
            _, val = make_synthetic_dataset(exp.training.dataset)
            sweep = robustness_sweep(model, val, exp.attack)
            write_robustness_csv(outdir / "robustness.csv", sweep)

        compressed_files = []
        if exp.emit_compressed:
            compressed_files = _emit_compressed_layers(model, exp.training, outdir)

        conv_entries, fc_entries = model_mac_entries(model)
        dense_macs, sparse_macs = multiply_count(conv_entries, fc_entries)
        summary = {
            "name": exp.name,
            "final_top1": rows[-1].top1,
            "final_sparsity": rows[-1].sparsity,
            "dense_macs": dense_macs,
            "sparse_macs": sparse_macs,
            "epochs": exp.training.epochs,
            "compressed_files": compressed_files,
        }
        with open(outdir / "summary.json", "w") as f:
            json.dump(summary, f, sort_keys=True, indent=1)
            f.write("\n")
    except OSError as e:
        print(f"cannot write outputs to {outdir}: {e}", file=sys.stderr)
        return 2
    print(f"{exp.name}: top1={rows[-1].top1:.4f} sparsity={rows[-1].sparsity:.4f} -> {outdir}")
    return 0


def compare_runs(paths) -> int:
    entries = []
    for p in paths:
        try:
            with open(p) as f:
                s = json.load(f)
            entries.append((s["name"], float(s["final_sparsity"]), float(s["final_top1"])))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            print(f"cannot use summary {p}: {e!r}", file=sys.stderr)
            return 2
    base_top1 = entries[0][2]
    name_w = max(len("name"), max(len(n) for n, _, _ in entries))
    print(f"{'name':<{name_w}}  {'sparsity':>8}  {'top1':>6}  {'delta':>7}")
    for name, sparsity, top1 in entries:
        print(f"{name:<{name_w}}  {sparsity:>8.4f}  {top1:>6.4f}  {top1 - base_top1:>+7.4f}")
    return 0


def inspect_checkpoint(path) -> int:
    try:
        model, _, sidecar = load_checkpoint(path)
    except (OSError, ConfigError, FormatError, json.JSONDecodeError, KeyError) as e:
        print(f"cannot read checkpoint {path}: {e}", file=sys.stderr)
        return 2
    print(f"{'layer':<6}  {'shape':<16}  {'weights':>8}  {'zeros':>6}  {'sparsity':>8}")
    for name, layer in model.prunable():
        zeros = int(np.count_nonzero(layer.weight == 0.0))
        print(
            f"{name:<6}  {str(layer.weight.shape):<16}  {layer.weight.size:>8}  "
            f"{zeros:>6}  {zeros / layer.weight.size:>8.4f}"
        )
    print(f"network sparsity: {network_sparsity(model):.4f} (epoch {sidecar.get('epoch')})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsekit", description="Structured sparse-training experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_cmp = sub.add_parser("compare", help="tabulate runs against the first as baseline")
    p_cmp.add_argument("summaries", nargs="+", help="summary.json files")
    p_ins = sub.add_parser("inspect", help="print a checkpoint's per-layer sparsity")
    p_ins.add_argument("checkpoint", help="checkpoint path (sidecar .json expected next to it)")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run_experiment(args.config)
    if args.command == "compare":
        return compare_runs(args.summaries)
    return inspect_checkpoint(args.checkpoint)


if __name__ == "__main__":
    sys.exit(main())

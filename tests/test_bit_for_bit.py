"""Bit-for-bit gate: pinned sha256 digests of training outputs and of the
mask generators and codecs.

The training part runs the README toy config in process through
``sparsekit.cli.main`` at every granularity, plus window, CK and combined
with a ``max_non_zero`` cap, and hashes every file a run writes. Those
bytes depend on numpy's and the BLAS build's rounding, so the digest file
records the numpy version and BLAS build it was computed on. The second
part hashes every mask generator's output and the ``CKSP``/``WNSP`` bytes
at ResNet-50 sizes (a 256x256x3x3 conv and the 2048x1000 FC); it uses no
BLAS. A third test runs the README config in two child processes, at one
and at two OpenBLAS threads, and compares their output bytes.

A change that alters output bytes on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_bit_for_bit.py

and says why in its change notes.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from sparsekit import cli
from sparsekit.compressed import compress_ck, compress_window, ck_to_bytes, window_to_bytes
from sparsekit.masking import (
    ck_mask,
    combined_mask,
    conv_driven_fc_elimination,
    fc_block_mask,
    fc_fine_mask,
    monotone_and,
    window_mask,
)

DIGESTS = Path(__file__).with_name("bit_for_bit_digests.json")

# (granularity, max_non_zero) for each training run
RUNS = [("window", None), ("ck", None), ("combined", None), ("fc_fine", None),
        ("fc_block", None), ("window", 4), ("ck", 3), ("combined", 4)]
RUN_FILES = ["metrics.csv", "final_checkpoint", "final_checkpoint.json",
             "robustness.csv", "summary.json", "conv1.cksp", "conv1.wnsp",
             "conv2.cksp", "conv2.wnsp"]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # the layout differs across numpy versions
        blas_build = "unknown"
    return {"numpy": np.__version__, "blas_build": blas_build}


def readme_config(granularity: str, cap, outdir: Path) -> dict:
    schedule = {"s_f": 0.6, "e_i": 3, "l_p": 6, "granularity": granularity}
    if cap is not None:
        schedule["max_non_zero"] = cap
    return {
        "name": f"toy-{granularity}-{cap}",
        "training": {
            "epochs": 14, "batch_size": 32, "lr0": 0.05,
            "lr_drop_epochs": [9, 12], "seed": 3, "schedule": schedule,
            "dataset": {"n_train": 256, "n_val": 128, "image_size": 8,
                        "channels": 1, "n_classes": 4, "seed": 11},
        },
        "attack": {"epsilons": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]},
        "outputs": str(outdir),
        "emit_compressed": True,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def training_digests(workdir: Path) -> dict:
    out = {}
    for granularity, cap in RUNS:
        label = f"{granularity}-cap{cap}"
        outdir = workdir / label
        config = workdir / f"{label}.json"
        config.write_text(json.dumps(readme_config(granularity, cap, outdir)))
        assert cli.main(["run", str(config)]) == 0, label
        out.update({f"{label}/{name}": sha256((outdir / name).read_bytes())
                    for name in RUN_FILES if (outdir / name).exists()})
    return out


def generator_digests() -> dict:
    rng = np.random.default_rng(20200109)
    w = rng.standard_normal((256, 256, 3, 3))
    fc = rng.standard_normal((2048, 1000))
    masks = {
        "window_mask": window_mask(w, 0.6),
        "window_mask_cap3": window_mask(w, 0.4, 3),
        "ck_mask": ck_mask(w, 0.6),
        "ck_mask_cap96": ck_mask(w, 0.6, 96),
        "combined_mask_cap4": combined_mask(w, 0.6, 0.8, 4),
        "fc_fine_mask": fc_fine_mask(fc, 0.9),
        "fc_block_mask": fc_block_mask(fc, 0.9, 2),
    }
    masks["monotone_and"] = monotone_and(masks["ck_mask"], masks["ck_mask_cap96"])
    masks["conv_driven_fc_elimination"] = conv_driven_fc_elimination(
        ck_mask(w, 0.995), fc, 8)
    out = {name: sha256(m.tobytes()) for name, m in masks.items()}
    out["cksp"] = sha256(ck_to_bytes(compress_ck(w, masks["ck_mask"])))
    for name, cap in (("window_mask_cap3", 3), ("combined_mask_cap4", 4)):
        out[f"wnsp_{name}"] = sha256(window_to_bytes(compress_window(w, masks[name], cap)))
    return out


def _compare(kind: str, got: dict) -> None:
    pinned = json.loads(DIGESTS.read_text())
    diff = sorted(k for k in {**pinned[kind], **got} if pinned[kind].get(k) != got.get(k))
    if diff:
        raise AssertionError(
            f"{kind} digests differ from the pinned ones for {diff}; pinned on "
            f"{pinned['environment']}, running on {environment()}. If the change means "
            f"to alter these bytes, rewrite them with "
            f"`PYTHONPATH=src python tests/test_bit_for_bit.py`.")


def test_training_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    _compare("training", training_digests(tmp_path))


def test_generator_and_codec_bytes_match_pinned_digests():
    _compare("generators", generator_digests())


def test_blas_thread_count_does_not_change_output_bytes(tmp_path):
    config = tmp_path / "ck.json"
    config.write_text(json.dumps(readme_config("ck", None, tmp_path / "unused")))
    package_root = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        env = {"SPARSEKIT_OUTPUT_DIR": str(outdir), "PATH": "/usr/bin:/bin",
               "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "sparsekit.cli", "run", str(config)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(outdir)
    one, two = outs
    for name in ("metrics.csv", "final_checkpoint", "robustness.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


if __name__ == "__main__":
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {"environment": environment(), "training": training_digests(Path(tmp)),
                  "generators": generator_digests()}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)

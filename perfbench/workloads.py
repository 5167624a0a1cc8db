"""The three benchmark workloads and the checks on their outputs.

Each workload derives every program seed from the benchmark seed, builds
its inputs in ``setup`` (repeatable, timed for ``setup_s``), and runs one
closed-loop iteration at a time in ``iterate``: one operation after the
other, each timed through a :class:`Clock`. Output checks run between the
timed calls, never inside them. Every iteration of a run repeats the same
inputs, so its counts and output digests must repeat exactly.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

GRANULARITIES = ("window", "ck", "combined", "fc_fine", "fc_block")
CONV_GRANULARITIES = ("window", "ck", "combined")

# The probe's time on the reference host (2-core Intel Xeon VM, Python
# 3.11, numpy 2.4 with OpenBLAS, one thread) in its fast phase.
PROBE_REF_S = 0.0070
_PROBE_DATA = np.random.default_rng(0).standard_normal((16384, 9))


def probe_s() -> float:
    """Seconds taken by a fixed slice of numpy sorting and interpreter looping.

    The shared host this benchmark was tuned on switches between two
    speeds in phases of 5 to 30 s (a fixed loop takes 23 ms or 33 ms, CPU
    time equal to wall time), often for a whole run. Timing this probe
    next to every call measures the phase the call ran in.
    """
    t0 = perf_counter()
    np.argsort(_PROBE_DATA, axis=1)
    total = 0
    for i in range(160_000):
        total += i
    return perf_counter() - t0


class Clock:
    """Times calls into the program, tracing them when given a tracer.

    The tracer is installed before the clock starts and removed after it
    stops, so only the program's own work falls inside the timed interval.
    The host-speed probe runs just before and just after each call.
    """

    def __init__(self, tracer=None, op_id=None):
        self.tracer = tracer
        self.op_id = op_id
        self.calls: list[tuple[str, float, float]] = []  # (stage, seconds, probe seconds)

    def __call__(self, stage: str, fn, *args, **kwargs):
        probe_before = probe_s()
        if self.tracer is not None:
            self.tracer.install(self.op_id)
            fn = self.tracer.wrapper_for(fn)
        try:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.calls.append((stage, elapsed, (probe_before + probe_s()) / 2))
        return result


@dataclass
class Iteration:
    calls: list[tuple[str, float, float]]
    ops: int
    failed: int
    problems: list[str]
    figures: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return sum(s for _, s, _ in self.calls)


def normalized(seconds: float, probe: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * PROBE_REF_S / probe


def per_s(work: float, seconds: float) -> float:
    """Work per second; 0 when a failing program left the stage untimed."""
    return work / seconds if seconds > 0 else 0.0


def stage_seconds(its: list[Iteration], normalize: bool = True) -> Counter:
    """Seconds per stage of a typical iteration.

    Every iteration makes the same calls in the same order, so call ``i``
    is timed once per iteration; its median over the iterations is summed
    into its stage. Normalized, each call's time is first scaled by
    ``PROBE_REF_S / probe``: its wall time at the reference host speed. A
    slower program still reads slower, since the probe does not run
    program code.
    """
    out = Counter()
    for calls in zip(*(it.calls for it in its)):
        out[calls[0][0]] += statistics.median(
            normalized(s, p) if normalize else s for _, s, p in calls)
    return out


def program_seeds(seed: int, workload: str, n: int) -> list[int]:
    """``n`` program seeds derived from the benchmark seed and the workload name."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    state = np.random.SeedSequence([seed, tag]).generate_state(n)
    return [int(s) for s in state]


def canonical(a: np.ndarray) -> bytes:
    """Bytes of ``a`` with -0.0 written as +0.0 (a pruned slot is stored as absent)."""
    return (np.asarray(a, dtype=np.float64) + 0.0).tobytes()


def _sparsity(a: np.ndarray) -> float:
    return float((a == 0.0).sum()) / a.size


def trained_sparsity_problems(model, sched) -> list[str]:
    """Each pruned layer's final sparsity must be within one granule of its target.

    The target is ``s_f``, raised where a ``max_non_zero`` cap forces more
    pruning. The granule is the generator's unit of removal: one weight
    per kernel (window), one kernel (CK, combined), one weight or one tile
    (FC). FC sparsity may also fall short by the column-coverage repairs
    (at most one bit per column) and exceed by the rows that dead conv
    channels eliminate.
    """
    s_f, g, cap = sched.s_f, sched.granularity.value, sched.max_non_zero
    problems = []

    def check(name, weight, target, granule, below=0.0, above=0.0):
        s = _sparsity(weight)
        if not target - granule - below <= s <= target + granule + above:
            problems.append(f"{name} sparsity {s:.6f} not within one granule "
                            f"({granule:.6f}) of target {target:.6f}")

    def ck_target(K, C):
        forced = C * max(K - cap, 0) if cap is not None else 0
        return max(math.floor(K * C * s_f), forced) / (K * C)

    if g in CONV_GRANULARITIES:
        K, C, R, S = model.conv1.weight.shape
        if g == "window":
            forced = R * S - cap if cap is not None else 0
            target = min(max(math.floor(R * S * s_f), forced), R * S) / (R * S)
            check("conv1", model.conv1.weight, target, 1 / (R * S))
        elif g == "ck":
            check("conv1", model.conv1.weight, ck_target(K, C), 1 / (K * C))
        else:
            check("conv1", model.conv1.weight, s_f, 1 / (K * C))
        K2, C2 = model.conv2.weight.shape[:2]
        check("conv2", model.conv2.weight, ck_target(K2, C2), 1 / (K2 * C2))

    fc = model.fc.weight
    rows, cols = fc.shape
    granule = (sched.fc_block**2 if g == "fc_block" else 1) / fc.size
    dead = int((model.conv2.mask.reshape(model.conv2.mask.shape[0], -1) == 0.0).all(axis=1).sum())
    check("fc", fc, s_f, granule, below=cols / fc.size,
          above=dead * model.neurons_per_channel * cols / fc.size)
    return problems


def _run_cli(cli_module, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli_module.main(argv)
    return rc, out.getvalue()


class ToySweep:
    """One in-process ``sparsekit run`` + ``sparsekit inspect`` per granularity.

    The README toy config: 8x8 one-channel blobs, 8/8 conv channels,
    batch 32, a 7-epsilon attack and compressed layer output. An operation
    is one experiment (run, then inspect on the checkpoint it wrote).
    """

    name = "toy_sweep"
    SIZES = {
        "full": dict(n_train=256, n_val=128, image_size=8, n_classes=4, conv=8, batch=32,
                     epochs=14, e_i=3, l_p=6, lr_drops=[9, 12],
                     epsilons=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]),
        "tiny": dict(n_train=32, n_val=16, image_size=4, n_classes=2, conv=4, batch=16,
                     epochs=4, e_i=1, l_p=2, lr_drops=[3], epsilons=[0.0, 0.1]),
    }
    S_F = 0.6
    WINDOW_CAP = 4

    def __init__(self, sk, seed: int, size: str, workdir: Path):
        self.sk = sk
        self.p = self.SIZES[size]
        self.workdir = workdir
        self.train_seed, self.data_seed = program_seeds(seed, self.name, 2)
        self.configs = {}

    def _config(self, g: str) -> dict:
        p = self.p
        schedule = {"s_f": self.S_F, "e_i": p["e_i"], "l_p": p["l_p"], "granularity": g}
        if g == "window":
            schedule["max_non_zero"] = self.WINDOW_CAP
        return {
            "name": f"toy-{g}",
            "training": {
                "epochs": p["epochs"], "batch_size": p["batch"], "lr0": 0.05,
                "lr_drop_epochs": p["lr_drops"], "seed": self.train_seed,
                "conv1_out": p["conv"], "conv2_out": p["conv"], "schedule": schedule,
                "dataset": {"n_train": p["n_train"], "n_val": p["n_val"],
                            "image_size": p["image_size"], "channels": 1,
                            "n_classes": p["n_classes"], "seed": self.data_seed},
            },
            "attack": {"epsilons": p["epsilons"]},
            "outputs": str(self.workdir / g),
            "emit_compressed": True,
        }

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for g in GRANULARITIES:
            path = self.workdir / f"{g}.json"
            path.write_text(json.dumps(self._config(g), indent=1))
            self.configs[g] = path

    def iterate(self, clock: Clock) -> Iteration:
        cli = self.sk.cli
        problems, failed, top1 = [], 0, []
        digest = hashlib.sha256()
        for g in GRANULARITIES:
            outdir = self.workdir / g
            shutil.rmtree(outdir, ignore_errors=True)
            try:
                rc, _ = clock("run", _run_cli, cli, ["run", str(self.configs[g])])
                rc_inspect, inspect_text = clock(
                    "inspect", _run_cli, cli, ["inspect", str(outdir / "final_checkpoint")])
                found, top = self._check(g, outdir, rc, rc_inspect, inspect_text, digest)
            except Exception as e:  # an operation that raises counts as failed
                found, top = [f"raised {e!r}"], None
            if found:
                failed += 1
                problems += [f"{g}: {msg}" for msg in found]
            if top is not None:
                top1.append(top)
        return Iteration(clock.calls, len(GRANULARITIES), failed, problems,
                         {"val_top1": statistics.fmean(top1) if top1 else 0.0},
                         digest.hexdigest())

    def _check(self, g, outdir, rc, rc_inspect, inspect_text, digest):
        sk = self.sk
        if rc != 0:
            return [f"run exited {rc}"], None
        problems = []
        if rc_inspect != 0 or "network sparsity" not in inspect_text:
            problems.append(f"inspect exited {rc_inspect} without a sparsity profile")
        promised = ["metrics.csv", "final_checkpoint", "final_checkpoint.json", "summary.json",
                    "robustness.csv"]
        missing = [f for f in promised if not (outdir / f).is_file()]
        if missing:
            return problems + [f"missing outputs {missing}"], None
        summary = json.loads((outdir / "summary.json").read_text())
        packed = summary["compressed_files"]
        if sorted(Path(f).stem for f in packed) != ["conv1", "conv2"]:
            problems.append(f"compressed files {packed} are not one per conv layer")
        missing = [f for f in packed if not (outdir / f).is_file()]
        if missing:
            return problems + [f"missing compressed outputs {missing}"], None
        for name in sorted(promised + packed):
            digest.update(name.encode() + (outdir / name).read_bytes())

        with open(outdir / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != self.p["epochs"] or not all(
                math.isfinite(float(r[k])) for r in rows for k in ("top1", "loss", "sparsity")):
            problems.append("metrics.csv rows are missing or not finite")

        model, config, _ = sk.trainer.load_checkpoint(outdir / "final_checkpoint")
        problems += trained_sparsity_problems(model, config.schedule)
        layers = dict(model.prunable())
        for name in packed:
            data = (outdir / name).read_bytes()
            if name.endswith(".cksp"):
                dense = sk.compressed.decompress_ck(sk.compressed.ck_from_bytes(data))
            else:
                dense = sk.compressed.decompress_window(sk.compressed.window_from_bytes(data))
            layer = layers[Path(name).stem]
            if dense.tobytes() != canonical(layer.weight * layer.mask):
                problems.append(f"{name} does not decompress to the checkpoint's weight * mask")
        return problems, float(summary["final_top1"])

    def metrics(self, its: list[Iteration], normalize: bool = True) -> dict:
        return {
            "experiments_per_s": per_s(len(GRANULARITIES),
                                       sum(stage_seconds(its, normalize).values())),
            "val_top1": its[0].figures["val_top1"],
        }


class WideTrain:
    """``train()`` then ``robustness_sweep`` on 3-channel 16x16 blobs, 32/32 conv channels.

    Combined granularity with dense, pruning and frozen epochs. An
    operation is one training run plus its attack sweep.
    """

    name = "wide_train"
    SIZES = {
        "full": dict(n_train=128, n_val=64, image_size=16, n_classes=10, conv=32, batch=32,
                     epochs=5, e_i=1, l_p=2, lr_drops=[4],
                     epsilons=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
        "tiny": dict(n_train=32, n_val=16, image_size=4, n_classes=2, conv=4, batch=16,
                     epochs=4, e_i=1, l_p=2, lr_drops=[3], epsilons=(0.0, 0.1)),
    }
    S_F = 0.6

    def __init__(self, sk, seed: int, size: str, workdir: Path):
        self.sk = sk
        self.p = self.SIZES[size]
        self.train_seed, self.data_seed = program_seeds(seed, self.name, 2)

    def setup(self) -> None:
        sk, p = self.sk, self.p
        sched = sk.schedule.PruningSchedule(s_f=self.S_F, e_i=p["e_i"], l_p=p["l_p"],
                                            granularity="combined")
        spec = sk.trainer.SyntheticSpec(n_train=p["n_train"], n_val=p["n_val"],
                                        image_size=p["image_size"], channels=3,
                                        n_classes=p["n_classes"], seed=self.data_seed)
        self.config = sk.trainer.TrainingConfig(
            epochs=p["epochs"], batch_size=p["batch"], lr0=0.05, lr_drop_epochs=p["lr_drops"],
            seed=self.train_seed, schedule=sched, dataset=spec,
            conv1_out=p["conv"], conv2_out=p["conv"])
        self.attack = sk.adversarial.AttackSpec(epsilons=p["epsilons"])
        _, self.val = sk.trainer.make_synthetic_dataset(spec)
        self.model = sk.trainer.build_model(self.config)

    def iterate(self, clock: Clock) -> Iteration:
        sk = self.sk
        model = copy.deepcopy(self.model)
        try:
            model, rows = clock("train", sk.trainer.train, model, self.config)
            sweep = clock("attack", sk.adversarial.robustness_sweep, model, self.val, self.attack)
            problems = self._check(model, rows, sweep)
        except Exception as e:  # an operation that raises counts as failed
            return Iteration(clock.calls, 1, 1, [f"raised {e!r}"])
        digest = hashlib.sha256(repr((rows, sweep)).encode())
        for _, layer in model.prunable():
            digest.update(layer.weight.tobytes() + layer.mask.tobytes())
        return Iteration(clock.calls, 1, int(bool(problems)), problems,
                         {"val_top1": rows[-1].top1}, digest.hexdigest())

    def _check(self, model, rows, sweep) -> list[str]:
        problems = []
        values = [v for r in rows for v in (r.top1, r.loss, r.sparsity, r.lr)]
        if len(rows) != self.p["epochs"] or not all(math.isfinite(v) for v in values):
            problems.append("metric rows are missing or not finite")
        if [r.phase for r in rows] != [self.sk.schedule.phase_at(self.config.schedule, e).value
                                       for e in range(self.p["epochs"])]:
            problems.append("epoch phases do not follow the schedule")
        if [e for e, _ in sweep] != list(self.attack.epsilons) or not all(
                0.0 <= a <= 1.0 for _, a in sweep):
            problems.append(f"robustness sweep rows are malformed: {sweep}")
        return problems + trained_sparsity_problems(model, self.config.schedule)

    def metrics(self, its: list[Iteration], normalize: bool = True) -> dict:
        p = self.p
        stage_s = stage_seconds(its, normalize)
        return {
            "experiments_per_s": per_s(1, sum(stage_s.values())),
            "val_top1": its[0].figures.get("val_top1", 0.0),
            "train_samples_per_s": per_s(p["n_train"] * p["epochs"], stage_s["train"]),
            "attack_samples_per_s": per_s(p["n_val"] * len(p["epsilons"]), stage_s["attack"]),
        }


class PaperPack:
    """Mask generation, packing and unpacking at ResNet-50 layer sizes; no training.

    A 256x256x3x3 conv (stage 3) and the 2048x1000 FC. An operation runs
    every generator and one monotone fold, packs the CK, window and
    combined masks, and unpacks them again.
    """

    name = "paper_pack"
    SIZES = {
        "full": dict(conv=(256, 256, 3, 3), fc=(2048, 1000), ck_cap=96),
        "tiny": dict(conv=(8, 8, 3, 3), fc=(32, 16), ck_cap=3),
    }
    S_CONV = 0.6
    S_FC = 0.9
    WINDOW_CAP = 4
    WINDOW_FRACTION = 0.8
    FC_BLOCK = 2

    def __init__(self, sk, seed: int, size: str, workdir: Path):
        self.sk = sk
        self.p = self.SIZES[size]
        (self.weight_seed,) = program_seeds(seed, self.name, 1)

    def setup(self) -> None:
        rng = np.random.default_rng(self.weight_seed)
        self.w = rng.standard_normal(self.p["conv"])
        self.fc = rng.standard_normal(self.p["fc"])

    def iterate(self, clock: Clock) -> Iteration:
        try:
            problems, digest = self._operation(clock)
        except Exception as e:  # an operation that raises counts as failed
            return Iteration(clock.calls, 1, 1, [f"raised {e!r}"])
        return Iteration(clock.calls, 1, int(bool(problems)), problems,
                         {}, digest)

    def _operation(self, clock: Clock):
        masking, compressed = self.sk.masking, self.sk.compressed
        w, fc, s, cap = self.w, self.fc, self.S_CONV, self.WINDOW_CAP
        masks = {
            "window": clock("mask", masking.window_mask, w, s, cap),
            "ck": clock("mask", masking.ck_mask, w, s),
            "ck_cap": clock("mask", masking.ck_mask, w, s, self.p["ck_cap"]),
            "combined": clock("mask", masking.combined_mask, w, s, self.WINDOW_FRACTION, cap),
            "fc_fine": clock("mask", masking.fc_fine_mask, fc, self.S_FC),
            "fc_block": clock("mask", masking.fc_block_mask, fc, self.S_FC, self.FC_BLOCK),
        }
        folded = clock("mask", masking.monotone_and, masks["ck"], masks["ck_cap"])

        packs = {"ck": clock("pack", compressed.compress_ck, w, masks["ck"])}
        for key in ("window", "combined"):
            packs[key] = clock("pack", compressed.compress_window, w, masks[key], cap)
        blobs = {key: clock("pack", compressed.ck_to_bytes if key == "ck"
                            else compressed.window_to_bytes, layer)
                 for key, layer in packs.items()}

        parsed = {"ck": clock("unpack", compressed.ck_from_bytes, blobs["ck"])}
        dense = {"ck": clock("unpack", compressed.decompress_ck, parsed["ck"])}
        for key in ("window", "combined"):
            parsed[key] = clock("unpack", compressed.window_from_bytes, blobs[key])
            dense[key] = clock("unpack", compressed.decompress_window, parsed[key])

        problems = self._check_masks(masks, folded)
        for key, layer in packs.items():
            if not _same_layer(layer, parsed[key]):
                problems.append(f"{key}: parsed layer differs from the packed one")
            if dense[key].tobytes() != canonical(w * masks[key]):
                problems.append(f"{key}: unpacked weights differ from weight * mask")
        digest = hashlib.sha256()
        for key in sorted(blobs):
            digest.update(blobs[key])
        for key in sorted(masks):
            digest.update(masks[key].tobytes())
        return problems, digest.hexdigest()

    def _check_masks(self, masks: dict, folded: np.ndarray) -> list[str]:
        """Binary masks at each generator's documented sparsity target."""
        w, fc, s = self.w, self.fc, self.S_CONV
        K, C, R, S = w.shape
        RS = R * S
        problems = []
        for name, m in {**masks, "fold": folded}.items():
            if m.shape != (fc.shape if name.startswith("fc") else w.shape):
                return [f"{name} mask has shape {m.shape}"]
            if not ((m == 0.0) | (m == 1.0)).all():
                problems.append(f"{name} mask is not binary")

        def expect(name, ok, detail):
            if not ok:
                problems.append(f"{name} mask misses its target: {detail}")

        kernel_zeros = RS - masks["window"].reshape(K * C, RS).sum(axis=1)
        p_window = min(max(math.floor(RS * s), RS - self.WINDOW_CAP), RS)
        expect("window", (kernel_zeros == p_window).all(), f"want {p_window} zeros per kernel")

        for name, forced in (("ck", 0), ("ck_cap", C * max(K - self.p["ck_cap"], 0))):
            km = masks[name].reshape(K, C, RS)
            kept = km[:, :, 0] == 1.0
            want = max(math.floor(K * C * s), forced)
            expect(name, (km == km[:, :, :1]).all(), "not kernel-uniform")
            pruned = int((~kept).sum())
            expect(name, pruned == want, f"{pruned} kernels pruned, want {want}")
            if forced:
                expect(name, kept.sum(axis=0).max() <= self.p["ck_cap"], "a column exceeds the cap")

        m = masks["combined"].reshape(K, C, RS)
        target = s * w.size
        zeros = w.size - m.sum()
        p_win = min(max(math.floor(RS * s * self.WINDOW_FRACTION), RS - self.WINDOW_CAP), RS)
        expect("combined", target - 1e-9 <= zeros < target + RS,
               f"{zeros} zeros, want [{target}, {target + RS})")
        expect("combined", ((RS - m.sum(axis=2)) >= p_win).all(), "a kernel skipped window pruning")
        expect("combined", (m.max(axis=2).sum(axis=0) >= 1).all(), "a column lost every kernel")

        rows, cols = fc.shape
        b = self.FC_BLOCK
        tiles = -(-rows // b) * -(-cols // b)
        for name, top in (("fc_fine", math.floor(fc.size * self.S_FC)),
                          ("fc_block", math.floor(tiles * self.S_FC) * b * b)):
            zeros = fc.size - masks[name].sum()
            expect(name, top - cols <= zeros <= top, f"{zeros} zeros, want [{top - cols}, {top}]")
            expect(name, (masks[name].sum(axis=0) >= 1).all(), "a column has no survivor")

        expect("fold", folded.tobytes() == (masks["ck"] * masks["ck_cap"]).tobytes(),
               "not the AND of its inputs")
        return problems

    def metrics(self, its: list[Iteration], normalize: bool = True) -> dict:
        w_size, fc_size = self.w.size, self.fc.size
        scored = 5 * w_size + 2 * fc_size  # four conv generators and the fold; two FC generators
        dense_mb = 3 * self.w.nbytes / 1e6
        stage_s = stage_seconds(its, normalize)
        return {
            "experiments_per_s": per_s(1, sum(stage_s.values())),
            "mask_mweights_per_s": per_s(scored / 1e6, stage_s["mask"]),
            "pack_mb_per_s": per_s(dense_mb, stage_s["pack"]),
            "unpack_mb_per_s": per_s(dense_mb, stage_s["unpack"]),
        }


def _same_layer(a, b) -> bool:
    if type(a) is not type(b) or a.dims != b.dims:
        return False
    if hasattr(a, "surviving_kernels"):
        return (a.surviving_kernels == b.surviving_kernels
                and a.payload.tobytes() == b.payload.tobytes())
    return (a.max_non_zero == b.max_non_zero and a.positions.tobytes() == b.positions.tobytes()
            and a.values.tobytes() == b.values.tobytes())


WORKLOADS = {w.name: w for w in (ToySweep, WideTrain, PaperPack)}

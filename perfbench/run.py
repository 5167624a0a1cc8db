"""sparsekit benchmark: three closed-loop workloads, output checks, a traced per-layer run.

Run from the root of a sparsekit checkout:

    python3 perfbench/run.py --workload toy_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` runs one unmeasured warm-up iteration, then pairs
of one untraced and one traced iteration, and reports the per-layer
metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The line
before it is the full record (environment, every workload metric,
output digest). See ``perfbench/README.md``.
"""

from time import perf_counter

_STARTED = perf_counter()

import os  # noqa: E402

# One thread in one process: pin BLAS before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("SPARSEKIT_OUTPUT_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

HOLDOUT_SEED = 2  # seed kept for checking a claim on data not used while writing it
SETUP_REPEATS = 9
IMPORT_PROBES = 9  # host-speed probes right after the import; their median scales it

# Reported on every workload; bounded in BENCHMARK.json.
END_TO_END = ("setup_s", "peak_rss_mb", "experiments_per_s")

# Every workload-level metric, with its unit; each workload reports those that apply.
WORKLOAD_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_ratio": "ratio",
    "experiments_per_s": "1/s",
    "val_top1": "fraction",
    "train_samples_per_s": "samples/s",
    "attack_samples_per_s": "samples/s",
    "mask_mweights_per_s": "Mweights/s",
    "pack_mb_per_s": "MB/s",
    "unpack_mb_per_s": "MB/s",
}

# Per-layer name -> workload metric reported, untraced, among the per-layer metrics
# (0 on workloads where it does not apply).
LAYER_COPIES = {
    "trainer.val_top1": "val_top1",
    "trainer.train_samples_per_s": "train_samples_per_s",
    "adversarial.attack_samples_per_s": "attack_samples_per_s",
    "masking.mask_mweights_per_s": "mask_mweights_per_s",
    "compressed.pack_mb_per_s": "pack_mb_per_s",
    "compressed.unpack_mb_per_s": "unpack_mb_per_s",
}


def import_sparsekit():
    """Import the package from this checkout's ``src``, or refuse to run."""
    if not (SRC / "sparsekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'sparsekit'} not found; run from a sparsekit checkout")
    sys.path.insert(0, str(SRC))
    import sparsekit
    import sparsekit.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(sparsekit.__file__).resolve().parent != (SRC / "sparsekit").resolve():
        sys.exit(f"perfbench: imported sparsekit from {sparsekit.__file__}, not {SRC}")
    return sparsekit


def sparsekit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "sparsekit" or name.startswith("sparsekit.")]


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    cpu = "unknown"
    threads = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
        with open("/proc/self/status") as f:
            threads = next((int(line.split()[1]) for line in f if line.startswith("Threads:")),
                           None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads_pinned": BLAS_THREADS,
        "process_threads": threads,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds to run; 0 runs one iteration (one pair when tracing)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sk = import_sparsekit()
    import_s = perf_counter() - _STARTED

    from tracing import Tracer, per_layer_spec, summarize
    from workloads import WORKLOADS, Clock, normalized, probe_s, stage_seconds

    import_probe = statistics.median(probe_s() for _ in range(IMPORT_PROBES))

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](sk, args.seed, args.size, workdir)
        setup = Clock()
        for _ in range(SETUP_REPEATS):
            setup("setup", workload.setup)

        tracer = Tracer(sparsekit_modules()) if args.trace else None
        # A traced run compares traced with untraced iterations, so none of
        # them may be the first, colder one: it is checked but not measured.
        warmup = [workload.iterate(Clock())] if args.trace else []
        runs = []  # (op_id, traced, Iteration)
        timed = 0.0
        while True:
            op_id = len(runs)
            # Pairs alternate their order (untraced first, then traced first).
            traced = bool(args.trace) and op_id % 2 != (op_id // 2) % 2
            it = workload.iterate(Clock(tracer if traced else None, op_id))
            runs.append((op_id, traced, it))
            timed += it.wall_s
            if timed >= args.seconds and (not args.trace or len(runs) % 2 == 0):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    its = warmup + [it for _, _, it in runs]
    problems = [p for it in its for p in it.problems]
    digests = {it.digest for it in its}
    if len(digests) > 1:
        problems.append(f"outputs differ between identical iterations: {len(digests)} digests")
    untraced = [it for _, traced, it in runs if not traced]
    if args.trace:
        traced_runs = [(op_id, it.wall_s) for op_id, traced, it in runs if traced]
        def seconds(it):
            return sum(stage_seconds([it]).values())

        pair_s = [(seconds(a), seconds(b)) if traced_a else (seconds(b), seconds(a))
                  for (_, traced_a, a), (_, _, b) in zip(runs[::2], runs[1::2])]
        layers, trace_problems = summarize(tracer, traced_runs, pair_s)
        problems += trace_problems
    attempted = sum(it.ops for it in its)
    failed = sum(it.failed for it in its)
    if failed == 0 and problems:  # a run-level check failed: counts or digests differ
        failed = 1

    figures = {
        "setup_s": normalized(import_s, import_probe)
        + statistics.median(normalized(s, p) for _, s, p in setup.calls),
        "peak_rss_mb": peak_rss_mb(),
        "ops_failed_ratio": failed / attempted,
        **workload.metrics(untraced),
    }
    raw = {"setup_s": import_s + statistics.median(s for _, s, _ in setup.calls),
           **workload.metrics(untraced, normalize=False)}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "environment": environment(args.seed),
        "import_s": [import_s, import_probe],
        "setup_calls": setup.calls,
        "iterations": [{"traced": traced, "calls": it.calls} for _, traced, it in runs],
        "metrics": {k: {"value": v, "unit": WORKLOAD_METRICS[k], "raw": raw.get(k, v)}
                    for k, v in figures.items()},
        "digest": digests.pop() if len(digests) == 1 else None,
        "problems": problems,
    }

    if args.trace:
        for name, source in LAYER_COPIES.items():
            layers[name] = figures.get(source, 0.0)
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {**{k: u for k, (u, _) in per_layer_spec().items()},
                 **{k: WORKLOAD_METRICS[s] for k, s in LAYER_COPIES.items()}}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record["per_layer"] = metrics
    else:
        metrics = {k: {"value": figures[k], "unit": WORKLOAD_METRICS[k]} for k in END_TO_END}

    for name, value in figures.items():
        print(f"{args.workload} {name} = {value:.6g} {WORKLOAD_METRICS[name]}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

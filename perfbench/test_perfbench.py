"""Self-tests of the benchmark: tiny-size smoke runs, exact repeats, refusal outside a checkout.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("toy_sweep", "wide_train", "paper_pack")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Workload-level metrics each workload must print (with its unit) in its record.
EXPECTED_RECORD = {
    "toy_sweep": {"setup_s", "peak_rss_mb", "ops_failed_ratio", "experiments_per_s", "val_top1"},
    "wide_train": {"setup_s", "peak_rss_mb", "ops_failed_ratio", "experiments_per_s", "val_top1",
                   "train_samples_per_s", "attack_samples_per_s"},
    "paper_pack": {"setup_s", "peak_rss_mb", "ops_failed_ratio", "experiments_per_s",
                   "mask_mweights_per_s", "pack_mb_per_s", "unpack_mb_per_s"},
}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, seed: int, trace: int, attempt: int = 0):
    """(final result, record) of one tiny run; ``attempt`` forces a fresh run."""
    proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_per_layer_list_matches_the_tracer():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spec = {name: unit for name, (unit, _) in tracing.per_layer_spec().items()}
    assert set(spec) <= set(declared)
    assert all(declared[n] == u for n, u in spec.items())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    result, record = tiny_run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(record["metrics"]) == EXPECTED_RECORD[workload]
    assert record["metrics"]["ops_failed_ratio"]["value"] == 0
    env = record["environment"]
    assert env["seed"] == 1 and env["blas_threads_pinned"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_and_bytes(workload):
    first, first_record = tiny_run(workload, 1, 1)
    again, again_record = tiny_run(workload, 1, 1, attempt=1)
    other_record = tiny_run(workload, 2, 0)[1]
    assert first_record["digest"] == again_record["digest"]
    assert other_record["digest"] != first_record["digest"]
    exact = tracing.exact_metric_names()
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: again["metrics"][n]["value"] for n in exact}


def test_traced_counts_see_every_layer():
    totals = {}
    for workload in WORKLOADS:
        for name, m in tiny_run(workload, 1, 1)[0]["metrics"].items():
            totals[name] = totals.get(name, 0) + m["value"]
    calls = [n for n in tracing.per_layer_spec() if n.endswith(".calls")]
    assert [n for n in calls if totals[n] == 0] == []
    assert totals["compressed.ck_fallbacks"] > 0 and totals["masking.bits_zeroed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "toy_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Every demo script runs to completion as a child process."""

import subprocess
import sys
from pathlib import Path

import pytest

import sparsekit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # Same minimal environment as the CLI determinism criterion: only the
    # import path of the package under test is passed on.
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(sparsekit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr

"""The benchmark's tracer wraps sparsekit functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_sparsekit_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{fn}" for layer, fns in tracing.TRACED.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"sparsekit.{layer}"), fn, None))]
    assert missing == []

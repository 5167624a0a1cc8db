"""Span tracing of sparsekit's layers, installed from outside the package.

The tracer replaces each listed public function with a timing wrapper at
every place a sparsekit module looks it up (``sparsekit.trainer.forward``
and ``sparsekit.adversarial.forward`` are both ``model.forward``), so a
caller inside the package reaches the wrapper just as the benchmark does.
Nothing under ``src/`` changes; the wrappers are removed after each timed
call.

Spans are kept in memory as ``(name, start, end, parent, op_id)`` and
written out once, at the end of the run. A span's self time is its
duration minus the time its direct child spans cover (calls nest, since
the benchmark runs one thread).
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# layer (sparsekit module) -> public functions timed in that layer
TRACED = {
    "cli": ("run_experiment", "inspect_checkpoint"),
    "trainer": ("train", "regenerate_masks", "evaluate", "make_synthetic_dataset",
                "save_checkpoint", "load_checkpoint"),
    "model": ("forward", "backward", "sgd_step"),
    "masking": ("window_mask", "ck_mask", "combined_mask", "fc_fine_mask", "fc_block_mask",
                "ensure_column_coverage", "conv_driven_fc_elimination", "monotone_and"),
    "compressed": ("compress_ck", "compress_window", "ck_to_bytes", "window_to_bytes",
                   "ck_from_bytes", "window_from_bytes", "decompress_ck", "decompress_window"),
    "adversarial": ("robustness_sweep", "fgsm_perturb"),
    "tensor": ("save_tensors", "load_tensors", "measured_sparsity"),
    "schedule": ("threshold_at", "phase_at"),
}

# Functions that call other traced functions; only these report ``.self_s``.
WITH_CHILDREN = (
    "cli.run_experiment", "cli.inspect_checkpoint", "trainer.train", "trainer.regenerate_masks",
    "trainer.evaluate", "trainer.save_checkpoint", "trainer.load_checkpoint",
    "masking.combined_mask", "masking.fc_fine_mask", "masking.fc_block_mask",
    "compressed.ck_from_bytes", "compressed.window_from_bytes",
    "adversarial.robustness_sweep", "adversarial.fgsm_perturb",
)

COUNT_ONLY = ("schedule.threshold_at", "schedule.phase_at")

# name -> (unit, better) of every counter the hooks below record per iteration
COUNTERS = {
    "trainer.steps": ("count", "lower"),
    "model.dense_macs_per_sample": ("count", "lower"),
    "model.sparse_macs_per_sample": ("count", "lower"),
    "masking.bits_zeroed": ("count", "higher"),
    "masking.coverage_repairs": ("count", "lower"),
    "masking.fc_rows_eliminated": ("count", "higher"),
    "compressed.cksp_bytes": ("B", "lower"),
    "compressed.wnsp_bytes": ("B", "lower"),
    "compressed.ck_fallbacks": ("count", "lower"),
    "tensor.checkpoint_bytes": ("B", "lower"),
}

# name -> (unit, better) of the per-layer figures derived from spans and hooks
DERIVED = {
    "trainer.dense_epoch_s": ("s", "lower"),
    "trainer.pruning_epoch_s": ("s", "lower"),
    "trainer.frozen_epoch_s": ("s", "lower"),
    "model.forward.gmac_per_s": ("GMAC/s", "higher"),
    "masking.regen_useful_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    spec = {}
    for name in traced_names():
        spec[f"{name}.calls"] = ("count", "lower")
        if name in COUNT_ONLY:
            continue
        spec[f"{name}.busy_s"] = ("s", "lower")
        if name in WITH_CHILDREN:
            spec[f"{name}.self_s"] = ("s", "lower")
    spec.update(COUNTERS)
    spec.update(DERIVED)
    return spec


def exact_metric_names() -> list[str]:
    """Per-layer metrics that must repeat exactly for a given seed."""
    return [n for n in per_layer_spec() if n.endswith(".calls")] + list(COUNTERS) + [
        "masking.regen_useful_ratio"]


def _ones(a) -> int:
    return int((a == 1.0).sum())


class Tracer:
    """Records spans and per-iteration counts while installed."""

    def __init__(self, sparsekit_modules):
        self.modules = list(sparsekit_modules)
        self._by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(Counter)
        self.epochs: dict = defaultdict(list)  # op_id -> [(phase, seconds)]
        self._epoch_start = None  # [start time of the running epoch] while train() runs
        self.forward_macs: Counter = Counter()  # op_id -> dense MACs executed by forward
        self.regen: dict = defaultdict(list)  # op_id -> [zeroed any new bit?]
        self.op_id = None
        self._installed: list = []
        self._hooks = self._build_hooks()
        self._wrappers = self._build_wrappers()

    # -- installation -----------------------------------------------------

    def _build_wrappers(self) -> dict:
        """id(original function) -> wrapper."""
        wrappers = {}
        for layer, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(self._by_layer[layer], fn_name)
                wrappers[id(original)] = self._wrap(f"{layer}.{fn_name}", original)
        return wrappers

    def install(self, op_id) -> None:
        """Point every sparsekit lookup of a traced function at its wrapper."""
        self.op_id = op_id
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def wrapper_for(self, fn):
        """The wrapper of a traced function (for calls the benchmark makes itself), else ``fn``."""
        return self._wrappers.get(id(fn), fn)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            state = hook.before(args, kwargs) if hook else None
            if isinstance(state, _Call):
                args, kwargs = state.args, state.kwargs
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                spans[idx] = (name, t0, perf_counter(), parent, self.op_id)
                stack.pop()
                if hook:
                    hook.error(state, e)
                raise
            spans[idx] = (name, t0, perf_counter(), parent, self.op_id)
            stack.pop()
            if hook:
                hook.after(state, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def _c(self) -> Counter:
        return self.counts[self.op_id]

    def _build_hooks(self) -> dict:
        """Counters recorded at the traced boundaries, keyed by span name."""
        def add(name, value):
            self._c[name] += value

        return {
            "model.forward": _Hook(before=self._before_forward, after=self._after_forward),
            "model.sgd_step": _Hook(after=lambda s, a, k, r: add("trainer.steps", 1)),
            "masking.monotone_and": _Hook(after=self._after_monotone_and),
            "masking.ensure_column_coverage": _Hook(before=self._before_coverage),
            "masking.conv_driven_fc_elimination": _Hook(after=self._after_elimination),
            "trainer.regenerate_masks": _Hook(before=self._before_regen, after=self._after_regen),
            "trainer.train": _Hook(before=self._before_train, after=self._after_train,
                                   error=self._train_error),
            "compressed.ck_to_bytes": _Hook(
                after=lambda s, a, k, r: add("compressed.cksp_bytes", len(r))),
            "compressed.window_to_bytes": _Hook(
                after=lambda s, a, k, r: add("compressed.wnsp_bytes", len(r))),
            "compressed.compress_ck": _Hook(error=self._ck_error),
            "tensor.save_tensors": _Hook(
                after=lambda s, a, k, r: add("tensor.checkpoint_bytes", os.path.getsize(a[0]))),
        }

    def _macs_per_sample(self, model) -> tuple[int, int]:
        """(dense, sparse) multiply-accumulates per sample, as the program counts them."""
        compressed = self._by_layer["compressed"]
        return compressed.multiply_count(*compressed.model_mac_entries(model))

    def _before_forward(self, args, kwargs):
        if self._epoch_start is not None and self._epoch_start[0] is None:
            self._epoch_start[0] = perf_counter()

    def _after_forward(self, state, args, kwargs, result):
        model, batch = args[0], args[1]
        self.forward_macs[self.op_id] += self._macs_per_sample(model)[0] * len(batch)

    def _after_monotone_and(self, state, args, kwargs, result):
        self._c["masking.bits_zeroed"] += _ones(args[0]) - _ones(result)

    def _before_coverage(self, args, kwargs):
        self._c["masking.coverage_repairs"] += int((args[0].sum(axis=0) == 0.0).sum())

    def _after_elimination(self, state, args, kwargs, result):
        self._c["masking.fc_rows_eliminated"] += int((result == 0.0).all(axis=1).sum())

    def _before_regen(self, args, kwargs):
        model = args[0]
        return {"ones": sum(_ones(layer.mask) for _, layer in model.prunable())}

    def _after_regen(self, state, args, kwargs, result):
        model = args[0]
        ones = sum(_ones(layer.mask) for _, layer in model.prunable())
        self.regen[self.op_id].append(ones < state["ones"])

    def _before_train(self, args, kwargs):
        """Chain an epoch-end timestamp recorder onto the caller's hook.

        An epoch runs from its first ``forward`` call to its ``on_epoch_end``,
        so the dataset generation before the first epoch and the end-of-era
        mask regeneration after the last pruning epoch fall in none.
        """
        kwargs = dict(kwargs)
        user_hook = args[2] if len(args) > 2 else kwargs.pop("on_epoch_end", None)
        args = args[:2]
        op_id = self.op_id
        start = self._epoch_start = [None]

        def on_epoch_end(model, row):
            self.epochs[op_id].append((row.phase, perf_counter() - start[0]))
            start[0] = None
            if user_hook is not None:
                user_hook(model, row)

        kwargs["on_epoch_end"] = on_epoch_end
        return _Call(args, kwargs)

    def _train_error(self, state, error):
        self._epoch_start = None

    def _after_train(self, state, args, kwargs, result):
        self._epoch_start = None
        dense, sparse = self._macs_per_sample(result[0])
        self._c["model.dense_macs_per_sample"] += dense
        self._c["model.sparse_macs_per_sample"] += sparse

    def _ck_error(self, state, error):
        if isinstance(error, self._by_layer["errors"].FormatError):
            self._c["compressed.ck_fallbacks"] += 1

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, op_id in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op_id}) + "\n")

    def iteration_figures(self, op_id, wall_s: float) -> dict:
        """Calls, busy and self time per traced function for one iteration."""
        mine = [(idx, span) for idx, span in enumerate(self.spans) if span[4] == op_id]
        figures = Counter()
        child_time = Counter()
        top_level = 0.0
        for _, (name, t0, t1, parent, _) in mine:
            figures[f"{name}.calls"] += 1
            figures[f"{name}.busy_s"] += t1 - t0
            if parent < 0:
                top_level += t1 - t0
            else:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, _, _) in mine:
            figures[f"{name}.self_s"] += (t1 - t0) - child_time[idx]
        figures.update(self.counts[op_id])
        figures["trace.unattributed_s"] = max(wall_s - top_level, 0.0)
        return figures


class _Call:
    """Arguments a ``before`` hook substitutes for the caller's."""

    __slots__ = ("args", "kwargs")

    def __init__(self, args, kwargs):
        self.args, self.kwargs = args, kwargs


class _Hook:
    __slots__ = ("before", "after", "error")

    def __init__(self, before=None, after=None, error=None):
        self.before = before or (lambda args, kwargs: None)
        self.after = after or (lambda state, args, kwargs, result: None)
        self.error = error or (lambda state, error: None)


def summarize(tracer: Tracer, iterations: list[tuple[int, float]],
              pairs: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced iterations, and any problems found.

    Counts (``.calls`` and the counters) are per iteration and must be the
    same in every traced iteration; times are medians over the traced
    iterations. ``iterations`` holds ``(op_id, timed wall seconds)``.
    ``pairs`` holds the normalized seconds of each adjacent (traced,
    untraced) pair of iterations; the median of their ratios gives the
    overhead.
    """
    spec = per_layer_spec()
    exact = set(exact_metric_names())
    per_iter = [tracer.iteration_figures(op_id, wall) for op_id, wall in iterations]
    problems = []
    out = {}
    for name in spec:
        if name in DERIVED:
            continue
        values = [f.get(name, 0) for f in per_iter]
        if name in exact:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between identical iterations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)

    for phase in ("dense", "pruning", "frozen"):
        durations = [d for op_id, _ in iterations for p, d in tracer.epochs[op_id] if p == phase]
        out[f"trainer.{phase}_epoch_s"] = statistics.median(durations) if durations else 0.0

    gmacs = [tracer.forward_macs[op_id] / 1e9 / f["model.forward.busy_s"]
             for (op_id, _), f in zip(iterations, per_iter) if f.get("model.forward.busy_s")]
    out["model.forward.gmac_per_s"] = statistics.median(gmacs) if gmacs else 0.0

    regen_flags = [tracer.regen[op_id] for op_id, _ in iterations]
    ratios = {sum(flags) / len(flags) if flags else 0.0 for flags in regen_flags}
    if len(ratios) > 1:
        problems.append(f"masking.regen_useful_ratio differs between iterations: {sorted(ratios)}")
    out["masking.regen_useful_ratio"] = ratios.pop()

    out["trace.overhead_ratio"] = statistics.median(t / u for t, u in pairs) - 1.0
    out["trace.unattributed_s"] = statistics.median(f["trace.unattributed_s"] for f in per_iter)
    return out, problems

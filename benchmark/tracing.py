"""Outside-in tracing of hadl: spans recorded around module-level functions.

Hooks replace a module attribute such as `hadl.optim.adam_step` with a
wrapper that records a span (name, start, end, parent, job id) and restore
it afterwards. They wrap the name the caller looks up: `hadl.optim` imports
`head_apply` from `hadl.model`, so the trainer's calls go through
`hadl.optim.head_apply`, and `forward`'s through `hadl.model.head_apply`.
A hook whose target no longer exists is reported as missing and skipped,
so a refactor of hadl thins the trace instead of breaking the benchmark.
Spans stay in memory until the traced command ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

JOB_SPAN = "cli.run_single"


@dataclass(frozen=True)
class Hook:
    target: str  # dotted module path plus attribute, e.g. "hadl.data.windows"
    span: str  # "<layer>.<name>"; the layer is the part before the first dot
    count: Callable | None = None  # (args, result) -> {counter: number}


class SpanRecorder:
    """Nested spans of one process; a JOB_SPAN opens a new job id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._jobs = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name == JOB_SPAN:
            self._jobs += 1
            job = self._jobs
        else:
            job = self.spans[parent]["job"] if parent is not None else 0
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "job": job, "counts": {}})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = self.clock()
        self._stack.pop()
        return span


def _wrap(fn, hook: Hook, recorder: SpanRecorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if hook.count is not None:
            try:
                span["counts"] = hook.count(args, result)
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                span["counts"] = {}  # a changed signature loses the counter, not the run
        return result

    return traced


@contextlib.contextmanager
def hooked(hooks, recorder: SpanRecorder):
    """Install `hooks` for the duration of the block; yields the missing targets."""
    installed = []
    missing = []
    try:
        for hook in hooks:
            module_name, _, attr = hook.target.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(hook.target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(hook.target)
                continue
            setattr(module, attr, _wrap(original, hook, recorder))
            installed.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _nbytes_windows(args, result):
    return {"bytes": result.inputs.nbytes + result.targets.nbytes + result.origins.nbytes}


def _dct_work(args, result):
    shape = args[0].shape
    rows = args[0].size // shape[-1]
    return {"rows": rows, "flops": 2 * rows * shape[-1] ** 2}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _series_bytes(args, result):
    return {"bytes": result.series.values.nbytes}


def _epochs(args, result):
    trace = result[1]
    return {"epochs": len(trace.val_mse), "useful_epochs": trace.best_epoch + 1}


HOOKS = (
    Hook("hadl.cli.main", "cli.main"),
    Hook("hadl.cli.run_single", JOB_SPAN),
    Hook("hadl.cli.prepare_windows", "cli.prepare_windows"),
    Hook("hadl.data.load_csv", "data.load_csv", _series_bytes),
    Hook("hadl.data.split", "data.split"),
    Hook("hadl.data.fit_transform", "data.fit_transform"),
    Hook("hadl.data.inject_noise", "data.inject_noise"),
    Hook("hadl.data.windows", "data.windows", _nbytes_windows),
    Hook("hadl.model.haar_batch", "transforms.haar"),
    Hook("hadl.model.dct2_scaled", "transforms.dct2", _dct_work),
    Hook("hadl.model.transform_inputs", "model.transform_inputs"),
    Hook("hadl.optim.transform_inputs", "model.transform_inputs"),
    Hook("hadl.model.head_apply", "model.head_apply"),
    Hook("hadl.optim.head_apply", "model.head_apply"),
    Hook("hadl.cli.forward", "model.forward"),
    Hook("hadl.cli.train", "optim.train", _epochs),
    Hook("hadl.optim._gradients_from_rows", "optim.gradients"),
    Hook("hadl.optim.adam_step", "optim.adam_step"),
    Hook("hadl.optim.dense_equivalent_grad_norm", "optim.grad_norm"),
    Hook("hadl.cli.save_checkpoint", "metrics.write", _file_bytes),
    Hook("hadl.cli.write_trace_csv", "metrics.write", _file_bytes),
    Hook("hadl.cli.write_trace_json", "metrics.write", _file_bytes),
    Hook("hadl.metrics.write_eval_csv", "metrics.write", _file_bytes),
    Hook("hadl.metrics.write_robustness_csv", "metrics.write", _file_bytes),
    Hook("hadl.metrics.write_json_bundle", "metrics.write", _file_bytes),
)

LAYERS = ("cli", "data", "transforms", "model", "optim", "metrics")

# (name, unit) of the figures a traced run adds to `layer_metrics`.
TRACE_METRICS = (
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.gap_s", "s"),
    ("trace.hooks_missing", "count"),
)

# Which pass a head_apply call serves, told by the span that called it.
HEAD_CALLERS = {"optim.gradients": "step", "optim.train": "val", "optim.grad_norm": "grad_norm"}

# (name, unit) of every per-layer metric `layer_metrics` returns, in print order.
PER_LAYER = (
    ("data.load_csv.s", "s"),
    ("data.split_scale.s", "s"),
    ("data.inject_noise.s", "s"),
    ("data.windows.s", "s"),
    ("data.windows.bytes", "bytes"),
    ("data.windows.copy_ratio", "ratio"),
    ("transforms.haar.s", "s"),
    ("transforms.dct2.s", "s"),
    ("transforms.dct2.rows", "count"),
    ("transforms.dct2.flops", "flop"),
    ("model.transform_inputs.self_s", "s"),
    ("model.head_apply.calls", "count"),
    ("model.head_apply.step.s", "s"),
    ("model.head_apply.grad_norm.s", "s"),
    ("model.forward.s", "s"),
    ("optim.gradients.self_s", "s"),
    ("optim.gradients.calls", "count"),
    ("optim.adam_step.s", "s"),
    ("optim.adam_step.calls", "count"),
    ("optim.train.self_s", "s"),
    ("optim.val.s", "s"),
    ("optim.grad_norm.s", "s"),
    ("optim.epochs", "count"),
    ("optim.useful_epoch_ratio", "ratio"),
    ("metrics.write.s", "s"),
    ("metrics.write.bytes", "bytes"),
    ("cli.jobs", "count"),
    ("cli.prepare_windows.self_s", "s"),
    ("cli.run_single.self_s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Fold one traced command's spans into the PER_LAYER figures.

    `layer.<layer>.self_s` sums the self time of every span of that layer;
    together they cover the root spans exactly, so the traced wall time is
    their sum plus the untraced gap (start-up, imports, exit).
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by: dict[str, float] = {}
    counts: dict[str, float] = {}
    head_by: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        name = span["name"]
        duration = span["end"] - span["start"]
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0.0) + own
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "model.head_apply" and span["parent"] is not None:
            caller = HEAD_CALLERS.get(spans[span["parent"]]["name"])
            if caller is not None:
                head_by[caller] = head_by.get(caller, 0.0) + duration

    series_bytes = counts.get("data.load_csv.bytes", 0)
    epochs = counts.get("optim.train.epochs", 0)
    out = {
        "data.load_csv.s": total.get("data.load_csv", 0.0),
        "data.split_scale.s": total.get("data.split", 0.0) + total.get("data.fit_transform", 0.0),
        "data.inject_noise.s": total.get("data.inject_noise", 0.0),
        "data.windows.s": total.get("data.windows", 0.0),
        "data.windows.bytes": counts.get("data.windows.bytes", 0),
        "data.windows.copy_ratio": (counts.get("data.windows.bytes", 0) / series_bytes
                                    if series_bytes else 0.0),
        "transforms.haar.s": total.get("transforms.haar", 0.0),
        "transforms.dct2.s": total.get("transforms.dct2", 0.0),
        "transforms.dct2.rows": counts.get("transforms.dct2.rows", 0),
        "transforms.dct2.flops": counts.get("transforms.dct2.flops", 0),
        "model.transform_inputs.self_s": self_by.get("model.transform_inputs", 0.0),
        "model.head_apply.calls": calls.get("model.head_apply", 0),
        "model.head_apply.step.s": head_by.get("step", 0.0),
        "model.head_apply.grad_norm.s": head_by.get("grad_norm", 0.0),
        "model.forward.s": total.get("model.forward", 0.0),
        "optim.gradients.self_s": self_by.get("optim.gradients", 0.0),
        "optim.gradients.calls": calls.get("optim.gradients", 0),
        "optim.adam_step.s": total.get("optim.adam_step", 0.0),
        "optim.adam_step.calls": calls.get("optim.adam_step", 0),
        "optim.train.self_s": self_by.get("optim.train", 0.0),
        "optim.val.s": head_by.get("val", 0.0),
        "optim.grad_norm.s": total.get("optim.grad_norm", 0.0),
        "optim.epochs": epochs,
        "optim.useful_epoch_ratio": (counts.get("optim.train.useful_epochs", 0) / epochs
                                     if epochs else 0.0),
        "metrics.write.s": total.get("metrics.write", 0.0),
        "metrics.write.bytes": counts.get("metrics.write.bytes", 0),
        "cli.jobs": calls.get(JOB_SPAN, 0),
        "cli.prepare_windows.self_s": self_by.get("cli.prepare_windows", 0.0),
        "cli.run_single.self_s": self_by.get(JOB_SPAN, 0.0),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            own for span, own in zip(spans, selfs) if span["name"].split(".", 1)[0] == layer
        )
    return out

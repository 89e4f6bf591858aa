"""Tests of the benchmark's own parts: spans, hooks, reference, generator.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import gendata
import hadl
import hadl.cli
import reference
import tracing
from tracing import HOOKS, LAYERS, Hook, SpanRecorder, hooked, layer_metrics, self_times


def span(name, start, end, parent=None, job=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": job, "counts": {}}


def test_self_time_on_hand_built_tree():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("optim.train", 1.0, 4.0, parent=0),
        span("model.head_apply", 2.0, 3.0, parent=1),
        span("metrics.write", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0), span("data.windows", 1.0, 4.0, parent=0),
             span("data.windows", 3.0, 6.0, parent=0), span("data.split", 8.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_self_times_add_up_to_root_and_head_calls_split_by_caller():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("optim.train", 1.0, 8.0, parent=0),
        span("optim.gradients", 2.0, 4.0, parent=1),
        span("model.head_apply", 2.5, 3.0, parent=2),
        span("model.head_apply", 5.0, 5.25, parent=1),
        span("optim.grad_norm", 6.0, 7.0, parent=1),
        span("model.head_apply", 6.0, 6.5, parent=5),
    ]
    fig = layer_metrics(spans)
    assert sum(fig[f"layer.{layer}.self_s"] for layer in LAYERS) == pytest.approx(10.0)
    assert fig["model.head_apply.step.s"] == pytest.approx(0.5)
    assert fig["optim.val.s"] == pytest.approx(0.25)
    assert fig["model.head_apply.grad_norm.s"] == pytest.approx(0.5)
    assert fig["optim.gradients.self_s"] == pytest.approx(1.5)
    assert fig["optim.train.self_s"] == pytest.approx(7.0 - 2.0 - 0.25 - 1.0)
    assert set(fig) == {name for name, _ in tracing.PER_LAYER}


def test_recorder_gives_each_job_its_own_id():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    root = recorder.open("cli.main")
    for _ in range(2):
        job = recorder.open(tracing.JOB_SPAN)
        recorder.close(recorder.open("data.windows"))
        recorder.close(job)
    recorder.close(root)
    assert [(s["name"], s["job"]) for s in recorder.spans] == [
        ("cli.main", 0), ("cli.run_single", 1), ("data.windows", 1),
        ("cli.run_single", 2), ("data.windows", 2)]


def _attributes():
    values = {}
    for hook in HOOKS:
        module_name, _, attr = hook.target.rpartition(".")
        values[hook.target] = getattr(importlib.import_module(module_name), attr)
    return values


def test_traced_run_restores_attributes_and_reports_missing_hooks(tmp_path):
    before = _attributes()
    hooks = HOOKS + (Hook("hadl.optim.no_such_function", "optim.none"),
                     Hook("hadl.no_such_module.f", "optim.none"))
    recorder = SpanRecorder()
    with hooked(hooks, recorder) as missing:
        assert hadl.optim.adam_step is not before["hadl.optim.adam_step"]
        code = hadl.cli.main([
            "train", "--dataset", "sine_mix", "--synth-length", "240", "--lookback", "16",
            "--horizons", "4", "--rank", "2", "--max-epochs", "2", "--patience", "2",
            "--outdir", str(tmp_path),
        ])
    assert code == 0
    assert missing == ["hadl.optim.no_such_function", "hadl.no_such_module.f"]
    after = _attributes()
    assert all(after[name] is before[name] for name in before)
    names = {s["name"] for s in recorder.spans}
    assert {"cli.main", "optim.adam_step", "transforms.dct2", "data.windows"} <= names
    fig = layer_metrics(recorder.spans)
    assert fig["optim.epochs"] == 2 and fig["cli.jobs"] == 1
    assert fig["metrics.write.bytes"] > 0


def test_hooks_are_restored_when_the_command_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with hooked(HOOKS, SpanRecorder()):
            raise RuntimeError("boom")
    after = _attributes()
    assert all(after[name] is before[name] for name in before)


def test_reference_predictor_matches_hadl_forward():
    model = hadl.init_model(16, 4, 3, seed=1)
    model.bias = np.random.default_rng(2).standard_normal(4)
    X = np.random.default_rng(3).standard_normal((5, 2, 16))
    expected = hadl.forward(model, X)
    got = reference.predict(X, model.P, model.Q, model.bias, 16)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_reference_test_mse_matches_hadl_pipeline():
    values = gendata.series(4, 300, 3)
    lookback, horizon = 16, 4
    model = hadl.init_model(lookback, horizon, 3, seed=5)
    dataset = hadl.data.Dataset("x", hadl.data.SeriesTensor(values.T, ("a", "b", "c")),
                                "synthetic", (0, 0))
    segments = hadl.split(dataset, "ratio", lookback=lookback)
    _, _, _, test = hadl.fit_transform(*segments)
    w = hadl.windows(test, lookback, horizon)
    expected = hadl.mse(hadl.forward(model, w.inputs), w.targets)
    got = reference.test_mse(values, "ratio", lookback, model.P, model.Q, model.bias)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nrr_and_mav():
    ratios, mav = reference.nrr_mav([0.0, 0.5, 1.0], [2.0, 3.0, 1.0])
    assert ratios == [1.5, 0.5] and mav == 0.5


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = gendata.series(7, 400, 3), gendata.series(7, 400, 3), gendata.series(8, 400, 3)
    assert a.shape == (400, 3) and np.array_equal(a, b) and not np.array_equal(a, c)
    path = tmp_path / "x.csv"
    gendata.write_csv(path, a)
    first = path.read_bytes()
    gendata.write_csv(path, b)
    assert path.read_bytes() == first
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:], a)


def test_benchmark_json_lists_every_traced_figure():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == list(tracing.TRACE_METRICS + tracing.PER_LAYER)

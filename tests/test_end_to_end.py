"""Differential end-to-end properties over the variant grid.

Each draw of the first writes a small CSV, runs `hadl train` through
`hadl.cli.main` for one or two epochs, and recomputes what the run wrote from
the checkpoint alone: the test MSE and MAE from the CSV with explicit
products of the oracle Haar and DCT matrices, the `eval.csv` row from
`eval.json`, and the `export-weights` table from those matrices. The
second checks the test errors of every command's jobs against the returned
model's forecasts. The channel count falls on both sides of
`steps_from_stats`, so both step sources run. A draw whose model cannot
exist must fail with one error line and write nothing.
"""

import contextlib
import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hadl.cli
from hadl.cli import ExperimentConfig, load_dataset, main, prepare_windows, run_single
from hadl.model import HEAD_DENSE, HEAD_LOW_RANK, forward, load_checkpoint
from hadl.optim import steps_from_stats
from oracles import dct2_bruteforce, forecast_mse, haar_forward

TIMESTEPS = 120  # ratio split: 84 train, 12 validation and 24 test steps


def write_series(path: Path, channels: int, seed: int) -> None:
    """Daily cycles with random phases plus white noise, one column per channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(TIMESTEPS)[:, None]
    values = np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi, channels))
    values = values + 0.5 * rng.standard_normal((TIMESTEPS, channels))
    header = "date," + ",".join(f"ch{c}" for c in range(channels))
    np.savetxt(path, np.column_stack([t, values]), delimiter=",", header=header, comments="",
               fmt="%.17g")


def linear_stage(stage, length: int) -> np.ndarray:
    """The matrix of a linear map of length-`length` vectors: its images of
    the unit vectors, as rows."""
    return np.array([stage(row) for row in np.eye(length)])


def head_map(model) -> np.ndarray:
    return model.P @ model.Q if model.head == HEAD_LOW_RANK else model.W


def oracle_stages(model) -> tuple[np.ndarray, np.ndarray]:
    """The L x d_in matrix of the model's Haar and DCT stages, from the
    oracles, and its bias (zeros without one)."""
    L = model.lookback
    T = np.eye(L)
    if model.use_haar:
        T = T @ linear_stage(lambda x: haar_forward(x).approx, L)
    if model.use_dct:
        T = (2.0 / L) * T @ linear_stage(dct2_bruteforce, T.shape[1])
    return T, model.bias if model.bias is not None else np.zeros(model.horizon)


def oracle_test_errors(path: Path, model) -> tuple[float, float]:
    """Test MSE and MAE of `model` on the CSV at `path`: ratio split, z-scored
    with the training steps' statistics, every window of the test steps with
    its `lookback` steps of context."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:].T
    train_end, test_start = int(0.7 * TIMESTEPS), int(0.7 * TIMESTEPS) + int(0.1 * TIMESTEPS)
    train = values[:, :train_end]
    test = (values[:, test_start - model.lookback:] - train.mean(axis=1)[:, None]) \
        / train.std(axis=1)[:, None]
    L, H = model.lookback, model.horizon
    T, bias = oracle_stages(model)
    weight = head_map(model)
    errors = np.array([test[:, b:b + L] @ T @ weight + bias - test[:, b + L:b + L + H]
                       for b in range(test.shape[1] - L - H + 1)])
    return float(np.mean(errors ** 2)), float(np.mean(np.abs(errors)))


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def no_nan(text: str):
    def reject(constant):
        raise AssertionError(f"JSON holds {constant}")
    return json.loads(text, parse_constant=reject)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * abs(want)


@settings(max_examples=100, deadline=None)
@given(lookback=st.integers(4, 16), horizon=st.integers(1, 8), rank=st.integers(1, 20),
       head=st.sampled_from([HEAD_LOW_RANK, HEAD_DENSE]), use_haar=st.booleans(),
       use_dct=st.booleans(), with_bias=st.booleans(), eta=st.floats(0.0, 2.0),
       wide=st.booleans(), narrow_channels=st.integers(1, 3), epochs=st.integers(1, 2),
       seed=st.integers(0, 2**16))
@example(lookback=7, horizon=1, rank=20, head=HEAD_LOW_RANK, use_haar=False, use_dct=True,
         with_bias=True, eta=0.0, wide=False, narrow_channels=1, epochs=2, seed=0)
@example(lookback=12, horizon=5, rank=9, head=HEAD_LOW_RANK, use_haar=True, use_dct=True,
         with_bias=True, eta=0.7, wide=True, narrow_channels=1, epochs=2, seed=1)
@example(lookback=8, horizon=3, rank=1, head=HEAD_DENSE, use_haar=True, use_dct=False,
         with_bias=False, eta=0.0, wide=True, narrow_channels=1, epochs=1, seed=2)
@example(lookback=9, horizon=2, rank=2, head=HEAD_LOW_RANK, use_haar=True, use_dct=True,
         with_bias=True, eta=0.0, wide=False, narrow_channels=2, epochs=1, seed=3)
def test_train_matches_an_independent_recomputation(tmp_path_factory, lookback, horizon, rank,
                                                    head, use_haar, use_dct, with_bias, eta,
                                                    wide, narrow_channels, epochs, seed):
    tmp = tmp_path_factory.mktemp("e2e")
    possible = not (use_haar and lookback % 2)
    d_in = lookback // 2 if use_haar else lookback
    channels = narrow_channels
    if possible and wide:  # the fewest channels that take the statistics steps
        channels = next(c for c in range(1, 1000)
                        if steps_from_stats(c, d_in, horizon, rank, head))
    assert not possible or steps_from_stats(channels, d_in, horizon, rank, head) == wide
    data, outdir = tmp / "tiny.csv", tmp / "runs"
    write_series(data, channels, seed)
    code, out, err = run([
        "train", "--dataset", "tiny", "--data-path", data, "--lookback", lookback,
        "--horizons", horizon, *(["--rank", rank] if head == HEAD_LOW_RANK else []),
        "--head", head, "--use-haar", use_haar,
        "--use-dct", use_dct, "--with-bias", with_bias, "--noise-eta", repr(eta),
        "--max-epochs", epochs, "--patience", 1, "--learning-rate", 0.01, "--seed", seed,
        "--outdir", outdir])

    if not possible:
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: lookback "), err
        assert not outdir.exists()
        return
    assert (code, err) == (0, ""), err
    [run_dir] = (outdir / "tiny").glob(f"*/{horizon}")
    model = load_checkpoint(run_dir / f"checkpoint_seed{seed}.npz")
    mse, mae = oracle_test_errors(data, model)

    bundle = no_nan((run_dir / "eval.json").read_text())
    no_nan((run_dir / f"trace_seed{seed}.json").read_text())
    [report] = bundle["reports"]
    assert close(report["mse"], mse) and close(report["mae"], mae), (report, mse, mae)
    with open(run_dir / "eval.csv", newline="") as handle:
        [header, row] = list(csv.reader(line for line in handle if not line.startswith("#")))
    shown = {key: "" if value is None else repr(value) if isinstance(value, float)
             else str(value) for key, value in report.items()}
    assert dict(zip(header, row)) == {key: shown[key] for key in header}
    assert bundle["mse_mean"] == report["mse"]

    code, _, err = run(["export-weights", run_dir / f"checkpoint_seed{seed}.npz", tmp / "w.csv"])
    assert code == 0, err
    exported = np.loadtxt(tmp / "w.csv", delimiter=",", ndmin=2)
    T, bias = oracle_stages(model)
    want = T @ head_map(model)
    assert exported.shape == (lookback + 1, horizon)
    assert np.abs(exported[:-1] - want).max() <= 1e-9 * np.abs(want).max()
    assert np.array_equal(exported[-1], bias)


@settings(max_examples=60, deadline=None)
@given(lookback=st.integers(2, 8).map(lambda half: 2 * half), horizon=st.integers(1, 8),
       rank=st.integers(1, 6), head=st.sampled_from([HEAD_LOW_RANK, HEAD_DENSE]),
       use_haar=st.booleans(), use_dct=st.booleans(), with_bias=st.booleans(),
       wide=st.booleans(), narrow_channels=st.integers(1, 3), train_outputs=st.booleans(),
       test_windows=st.integers(1, 17), seed=st.integers(0, 2**16))
@example(lookback=16, horizon=8, rank=3, head=HEAD_LOW_RANK, use_haar=True, use_dct=True,
         with_bias=True, wide=True, narrow_channels=1, train_outputs=False, test_windows=1,
         seed=0)
@example(lookback=4, horizon=1, rank=1, head=HEAD_DENSE, use_haar=False, use_dct=True,
         with_bias=False, wide=False, narrow_channels=2, train_outputs=True, test_windows=1,
         seed=1)
def test_job_test_errors_equal_the_forecasts(lookback, horizon, rank, head, use_haar, use_dct,
                                             with_bias, wide, narrow_channels, train_outputs,
                                             test_windows, seed):
    # run_single's report holds what each command writes: train its mse and
    # mae, robustness and ablate (train_outputs off) the mse alone. The test
    # segment is cut to `test_windows` windows, down to one.
    d_in = lookback // 2 if use_haar else lookback
    channels = narrow_channels
    if wide:
        channels = next(c for c in range(1, 1000)
                        if steps_from_stats(c, d_in, horizon, rank, head))
    assert steps_from_stats(channels, d_in, horizon, rank, head) == wide
    job = ExperimentConfig(dataset="sine_mix", synth_length=TIMESTEPS, synth_channels=channels,
                           lookback=lookback, horizons=(horizon,), rank=rank, head=head,
                           use_haar=use_haar, use_dct=use_dct, with_bias=with_bias,
                           max_epochs=2, patience=2, learning_rate=0.01, seed=seed)
    tests = []

    def cut_test_segment(job, horizon, data):
        w_train, w_val, w_test = prepare_windows(job, horizon, data)
        span = lookback + horizon + test_windows - 1
        tests.append(replace(w_test, values=w_test.values[:, :span]))
        return w_train, w_val, tests[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hadl.cli, "prepare_windows", cut_test_segment)
        best, _, report = run_single(job, horizon, load_dataset(job), train_outputs)
    [w_test] = tests
    assert len(w_test) == test_windows
    assert report.mse == pytest.approx(forecast_mse(best, w_test), rel=1e-12, abs=0.0)
    if train_outputs:
        errors = forward(best, np.array(w_test.inputs)) - w_test.targets
        assert report.mae == pytest.approx(float(np.mean(np.abs(errors))), rel=1e-12, abs=0.0)
    else:
        assert report.mae is None

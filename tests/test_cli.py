import concurrent.futures
import csv
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hadl.cli
import hadl.data
import hadl.model
import hadl.optim
from hadl.cli import (
    ABLATIONS,
    COMMAND_KEYS,
    ExperimentConfig,
    cmd_ablate,
    cmd_robustness,
    cmd_train,
    grid_cells,
    load_dataset,
    main,
    mix_seed,
    prepare_windows,
    read_config_file,
    run_single,
)
from hadl.data import load_csv, split, synth, windows
from hadl.errors import CorruptCheckpointError, InvalidConfigError, ParseError
from hadl.model import (HEAD_LOW_RANK, effective_weight, forward, init_model,
                        load_checkpoint, save_checkpoint)
from hadl.optim import dense_equivalent_grad_norm, steps_from_stats, train, window_stats
from oracles import models_equal


def table_rows(path) -> list[list[str]]:
    """CSV rows of an output table, header first, fingerprint line skipped."""
    with open(path, newline="") as handle:
        return [r for r in csv.reader(line for line in handle if not line.startswith("#"))]


def synth_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        dataset="sine_mix",
        lookback=64,
        horizons=(16,),
        rank=4,
        max_epochs=12,
        patience=12,
        learning_rate=0.01,
        seed=1,
        outdir=str(tmp_path / "runs"),
        synth_length=480,
        synth_channels=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_file_parsing_and_types(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        body = ("dataset = sine_mix\n"
                "lookback = 64\n"
                "horizons = 16, 32\n"
                "use_haar = false\n"
                "eta_list = 0.0, 0.3\n"
                "learning_rate = 0.01\n")
        # a byte-order mark was read as part of the first key
        for head in ("# comment\n", "\ufeff"):
            cfg_file.write_text(head + body, encoding="utf-8")
            values = read_config_file(cfg_file)
            assert values["dataset"] == "sine_mix"
            assert values["lookback"] == (64,)  # a comma list of one
            assert values["horizons"] == (16, 32)
            assert values["use_haar"] is False
            assert values["eta_list"] == (0.0, 0.3)
            assert values["learning_rate"] == 0.01
        # every key at its default: each annotation type the parser reads
        default = ExperimentConfig()
        lines = []
        for f in fields(ExperimentConfig):
            value = getattr(default, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{f.name} = {value}\n")
        assert len(lines) == 23
        cfg_file.write_text("".join(lines), encoding="utf-8")
        assert ExperimentConfig(**read_config_file(cfg_file)) == default

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(InvalidConfigError, match="line 1: unknown config key 'no_such_key'"):
            read_config_file(cfg_file)
        # windows are always stride 1; a CSV's path and split convention
        # are the data_path and convention keys
        for key, value in (("stride", "2"), ("registry", "x")):
            cfg_file.write_text(f"{key} = {value}\n")
            assert main(["params", "--config", str(cfg_file)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {cfg_file}: line 1: unknown config key {key!r}"]

    def test_comments_start_at_a_line_or_after_whitespace(self, tmp_path):
        # `runs#2` was cut to `runs`; a '#' after a space still opens a comment
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("  # indented\nlookback = 512  # paper\noutdir = runs#2\n")
        assert read_config_file(cfg_file) == {"lookback": (512,), "outdir": "runs#2"}
        outdir = tmp_path / "runs#2"
        cfg_file.write_text("dataset = sine_mix\nlookback = 16\nhorizons = 8\nrank = 2\n"
                            f"max_epochs = 1\npatience = 1\noutdir = {outdir}  # comment\n")
        assert main(["train", "--config", str(cfg_file)]) == 0
        assert (outdir / "sine_mix" / "L16-haar-dct-lowrank_r2-bias" / "8" / "eval.csv").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "runs#2"]

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the last value was kept: this trained L=512
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lookback = 96\n# note\nlookback = 512\n")
        message = f"{cfg_file}: line 3: 'lookback' is listed twice, first on line 1"
        with pytest.raises(ParseError) as caught:
            read_config_file(cfg_file)
        assert str(caught.value) == message
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        cfg_file.write_text("# note\nlookback 512\n")  # a line without '='
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == f"error: {cfg_file}: line 2: expected `key = value`\n"

    def test_first_bad_line_decides(self, tmp_path, capsys):
        # the repeated key on line 3 was reported, ahead of line 1's unknown key
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\nlookback = 96\nlookback = 512\n")
        message = f"{cfg_file}: line 1: unknown config key 'no_such_key'"
        with pytest.raises(InvalidConfigError) as caught:
            read_config_file(cfg_file)
        assert str(caught.value) == message
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lookback = 64\nseed = 3\n")
        rc = main(
            ["params", "--config", str(cfg_file), "--lookback", "8",
             "--horizons", "4", "--rank", "2"]
        )
        assert rc == 0

    def test_fingerprint_tracks_config(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ExperimentConfig(seed=1).fingerprint()
        # where an experiment is written is not part of it
        assert a.fingerprint() == ExperimentConfig(seed=1, outdir="elsewhere").fingerprint()

    def test_mix_seed_stable(self):
        assert mix_seed(1, "init", 64) == mix_seed(1, "init", 64)
        assert mix_seed(1, "init", 64) != mix_seed(2, "init", 64)
        assert mix_seed(1, "noise", 0.3) != mix_seed(1, "noise", 0.7)


class TestTrainCommand:
    def test_synthetic_run_produces_outputs(self, tmp_path):
        config = synth_config(tmp_path)
        reports = cmd_train(config)
        assert len(reports) == 1
        assert reports[0].mse < 0.05
        run_dir = tmp_path / "runs" / "sine_mix" / "L64-haar-dct-lowrank_r4-bias" / "16"
        for name in ("checkpoint_seed1.npz", "trace_seed1.csv", "trace_seed1.json",
                     "eval.csv", "eval.json"):
            assert (run_dir / name).exists()
        # the JSON keys are part of the output contract
        trace = json.loads((run_dir / "trace_seed1.json").read_text())
        assert list(trace) == ["best_epoch", "config_fingerprint", "final_grad_norm",
                               "stopped_early", "train_loss", "val_mse"]
        bundle = json.loads((run_dir / "eval.json").read_text())
        assert list(bundle) == ["config", "config_fingerprint", "dataset", "horizon",
                                "mse_mean", "mse_std", "reports", "variant"]
        assert list(bundle["reports"][0]) == ["dataset", "head", "horizon", "mae", "mse",
                                              "noise_eta", "rank", "seed", "use_dct",
                                              "use_haar", "with_bias"]
        trace_head = (run_dir / "trace_seed1.csv").read_text().splitlines()[0]
        assert trace_head == f"# config_fingerprint={config.fingerprint()}"

    def test_sine_mix_with_pure_defaults(self, tmp_path):
        import time

        config = ExperimentConfig(
            dataset="sine_mix", lookback=64, horizons=(16,), rank=4,
            outdir=str(tmp_path / "runs"), seed=0,
        )
        start = time.monotonic()
        reports = cmd_train(config)
        assert time.monotonic() - start < 10.0
        assert reports[0].mse < 0.05

    def test_univariate_series_uses_same_code_path(self, tmp_path):
        config = synth_config(tmp_path, synth_channels=1, max_epochs=6, patience=6)
        reports = cmd_train(config)
        assert len(reports) == 1
        assert np.isfinite(reports[0].mse)

    def test_rerun_is_byte_identical(self, tmp_path):
        for channels in (3, 24):  # steps from rows, from statistics
            config = synth_config(tmp_path, outdir=str(tmp_path / str(channels)),
                                  synth_channels=channels)
            cmd_train(config)
            run_dir = Path(config.outdir) / "sine_mix" / "L64-haar-dct-lowrank_r4-bias" / "16"
            csv_files = sorted(run_dir.glob("*.csv")) + sorted(run_dir.glob("*.json"))
            before = {p.name: p.read_bytes() for p in csv_files}
            cmd_train(config)
            after = {p.name: p.read_bytes() for p in csv_files}
            assert before == after

    def test_two_outdirs_write_the_same_bytes(self, tmp_path, capsys):
        # the fingerprint hashed the outdir, so every CSV header differed
        written = []
        for outdir in (tmp_path / "a", tmp_path / "b" / "c"):
            assert main(["train", "--dataset", "sine_mix", "--lookback", "16", "--horizons",
                         "4,8", "--rank", "2", "--seed", "1,2", "--max-epochs", "2",
                         "--patience", "2", "--outdir", str(outdir)]) == 0
            written.append({str(p.relative_to(outdir)): p
                            for p in sorted(outdir.rglob("*")) if p.is_file()})
        a, b = written
        assert sorted(a) == sorted(b) and len(a) == 2 * (2 * 3 + 2)
        for name in a:
            if name.endswith(".json"):
                a_json, b_json = json.loads(a[name].read_text()), json.loads(b[name].read_text())
                if "config" in a_json:  # eval.json
                    assert (a_json["config"].pop("outdir"), b_json["config"].pop("outdir")) == (
                        str(tmp_path / "a"), str(tmp_path / "b" / "c"))
                assert a_json == b_json
            else:
                assert a[name].read_bytes() == b[name].read_bytes(), name

    def test_multi_seed_writes_one_row_each(self, tmp_path):
        config = synth_config(tmp_path, seed=(1, 2))
        reports = cmd_train(config)
        assert [r.seed for r in reports] == [1, 2]
        run_dir = tmp_path / "runs" / "sine_mix" / "L64-haar-dct-lowrank_r4-bias" / "16"
        rows = (run_dir / "eval.csv").read_text().splitlines()
        assert len(rows) == 2 + 2  # fingerprint + header + 2 seeds

    def test_missing_dataset_clean_error(self, tmp_path, capsys):
        rc = main(
            ["train", "--dataset", "ETTh1", "--data-path", str(tmp_path / "absent.csv"),
             "--outdir", str(tmp_path / "runs")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_dataset_is_an_invalid_config(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InvalidConfigError) as caught:
            load_dataset(ExperimentConfig(dataset="ETTh1", data_path=str(path)))
        assert str(caught.value) == f"dataset file not found: {path} (set data_path)"

    def test_config_file_supplies_path_and_convention(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        rows = ["date,a,b"] + [f"t{i},{np.sin(i / 3.0)},{np.cos(i / 5.0)}" for i in range(200)]
        csv_path.write_text("\n".join(rows) + "\n")
        cfg_file, runs = tmp_path / "mini.cfg", tmp_path / "runs"
        argv = ["train", "--config", str(cfg_file), "--lookback", "16", "--horizons", "4",
                "--rank", "2", "--max-epochs", "3", "--patience", "3", "--outdir", str(runs)]
        cfg_file.write_text(f"dataset = mini\ndata_path = {csv_path}\nconvention = ratio\n")
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("job dataset=mini ")
        assert (runs / "mini" / "L16-haar-dct-lowrank_r2-bias" / "4" / "eval.csv").is_file()
        cfg_file.write_text(cfg_file.read_text().replace("ratio", "etth"))
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: series has 200 steps, convention 'etth' needs 14400\n")

    def test_diverged_run_exits_nonzero(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            rc = main(
                ["train", "--dataset", "sine_mix", "--lookback", "64", "--horizons", "16",
                 "--rank", "4", "--max-epochs", "3", "--patience", "3",
                 "--learning-rate", "1e300", "--outdir", str(tmp_path / "runs")]
            )
        assert rc == 1
        assert "error: training diverged" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_diverged_run_prints_only_the_error(self, tmp_path):
        # a fresh interpreter shows every warning numpy would print to a user
        proc = subprocess.run(
            [sys.executable, "-m", "hadl.cli", "train", "--dataset", "sine_mix",
             "--lookback", "64", "--horizons", "16", "--rank", "4", "--max-epochs", "3",
             "--patience", "3", "--learning-rate", "1e300", "--outdir", str(tmp_path / "runs")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged at epoch 0"), \
            proc.stderr

    @pytest.mark.parametrize("command", ["train", "robustness"])
    @pytest.mark.parametrize("horizons", ["", "16,0", "-4"])
    def test_bad_horizons_rejected(self, tmp_path, capsys, command, horizons):
        rc = main([command, "--dataset", "sine_mix", "--lookback", "64",
                   f"--horizons={horizons}", "--outdir", str(tmp_path / "runs")])
        assert rc == 1
        assert "error: horizons must list at least one horizon >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_convention_flag_applies_at_load(self, tmp_path, capsys):
        # 600 rows: enough for a 70/10/20 split, far short of etth's 14400
        csv_path = tmp_path / "ETTh1.csv"
        rows = ["date," + ",".join(f"c{c}" for c in range(7))]
        rows += [f"t{i}," + ",".join(f"{np.sin(i / (3.0 + c)):.6f}" for c in range(7))
                 for i in range(600)]
        csv_path.write_text("\n".join(rows) + "\n")
        argv = ["train", "--dataset", "ETTh1", "--data-path", str(csv_path),
                "--lookback", "32", "--horizons", "8", "--rank", "2",
                "--max-epochs", "2", "--patience", "2", "--outdir", str(tmp_path / "runs")]
        assert main(argv + ["--convention", "ratio"]) == 0
        assert (tmp_path / "runs" / "ETTh1" / "L32-haar-dct-lowrank_r2-bias" / "8"
                / "eval.csv").exists()
        assert main(argv) == 1
        assert "convention 'etth' needs 14400" in capsys.readouterr().err

    def test_parallel_workers_match_serial(self, tmp_path):
        for channels in (3, 24):  # steps from rows, from statistics
            root = tmp_path / str(channels)
            serial = synth_config(tmp_path, outdir=str(root / "serial"), seed=(1, 2),
                                  synth_channels=channels)
            parallel = synth_config(tmp_path, outdir=str(root / "parallel"), seed=(1, 2),
                                    synth_channels=channels)
            cmd_train(serial)
            cmd_train(parallel, workers=2)
            serial_files = sorted((root / "serial").rglob("*.csv"))
            parallel_files = sorted((root / "parallel").rglob("*.csv"))
            assert [p.name for p in serial_files] == [p.name for p in parallel_files]
            for a, b in zip(serial_files, parallel_files):
                assert a.read_bytes() == b.read_bytes()
            # trace_seed*.json, final_grad_norm included, computed in the workers
            serial_json = sorted((root / "serial").rglob("trace_seed*.json"))
            parallel_json = sorted((root / "parallel").rglob("trace_seed*.json"))
            assert len(serial_json) == 2
            for a, b in zip(serial_json, parallel_json):
                assert a.read_bytes() == b.read_bytes()

    def test_trace_grad_norm_is_the_returned_models(self, tmp_path):
        # 3 channels step from rows, and `run_single` takes the norm from
        # `window_stats`; 40 step from statistics, and it takes the norm from
        # the statistics `train` summed on its last epoch, which a re-run of
        # `train` returns again. Each is compared exactly with its own
        # source, and the summed statistics with `window_stats` to rounding.
        for channels in (3, 40):
            root = tmp_path / str(channels)
            config = synth_config(root, horizons=(8, 16), seed=(1, 2), max_epochs=3,
                                  patience=3, synth_channels=channels)
            cmd_train(config)
            for horizon in config.horizons:
                from_stats = steps_from_stats(channels, 32, horizon, 4, HEAD_LOW_RANK)
                assert from_stats == (channels == 40)
                run_dir = root / "runs" / "sine_mix" / "L64-haar-dct-lowrank_r4-bias" / f"{horizon}"
                for seed in config.seed:
                    job = replace(config, seed=seed)
                    best = load_checkpoint(run_dir / f"checkpoint_seed{seed}.npz")
                    w_train, w_val, _ = prepare_windows(job, horizon, load_dataset(job))
                    written = json.loads((run_dir / f"trace_seed{seed}.json").read_text())
                    norm = dense_equivalent_grad_norm(best, window_stats(best, w_train))
                    if from_stats:
                        model = init_model(job.lookback, horizon, job.rank,
                                           seed=mix_seed(seed, "init", job.lookback, horizon))
                        again, _, summed = train(model, w_train, w_val, job)
                        assert models_equal(again, best)
                        written_norm = written["final_grad_norm"]
                        assert written_norm == dense_equivalent_grad_norm(best, summed)
                        assert written_norm == pytest.approx(norm, rel=1e-12, abs=0)
                    else:
                        assert written["final_grad_norm"] == norm


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap `module.name`; the returned list grows by one per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_grad_norms(monkeypatch) -> list:
    return count_calls(monkeypatch, hadl.optim, "dense_equivalent_grad_norm")


class TestGradNormOnlyWhereWritten:
    def test_train_computes_one_per_horizon_and_seed(self, tmp_path, monkeypatch):
        calls = count_grad_norms(monkeypatch)
        cmd_train(synth_config(tmp_path, horizons=(8, 16), seed=(1, 2, 3), max_epochs=2,
                               patience=2))
        assert len(calls) == 2 * 3

    def test_robustness_computes_none(self, tmp_path, monkeypatch):
        calls = count_grad_norms(monkeypatch)
        cmd_robustness(synth_config(tmp_path, eta_list=(0.0, 0.7), robust_max_epochs=2,
                                    robust_patience=2))
        assert calls == []

    def test_ablate_computes_none(self, tmp_path, monkeypatch):
        calls = count_grad_norms(monkeypatch)
        cmd_ablate(synth_config(tmp_path, horizons=(8,), rank=2, max_epochs=2, patience=2), "head")
        assert calls == []


def dct_builds_per_job(monkeypatch) -> list:
    """Calls of `hadl.model.dct2_scaled` (one per `dct_matrix` build) in each
    serial `run_single`, the memo of built matrices emptied first; the list
    grows by one count per job, in job order."""
    hadl.model._dct_of_shape.cache_clear()
    builds, per_job = count_calls(monkeypatch, hadl.model, "dct2_scaled"), []
    run_single = hadl.cli.run_single

    def counted(*args):
        before = len(builds)
        result = run_single(*args)
        per_job.append(len(builds) - before)
        return result

    monkeypatch.setattr(hadl.cli, "run_single", counted)
    return per_job


class TestFullSetPasses:
    """Validation and test MSEs come from the windows' statistics, so only
    `train` forecasts, once per job, for the test MAE it writes. A process
    builds the DCT matrix F once per shape, and each job builds each set of
    full-set statistics once; `window_stats` is counted on hadl.optim, where
    `train` and `run_single` both look it up."""

    @pytest.mark.parametrize("channels", [40, 3])
    def test_one_evaluate_per_job(self, tmp_path, monkeypatch, channels, capsys):
        assert steps_from_stats(channels, 32, 8, 4, HEAD_LOW_RANK) == (channels == 40)
        evaluations = count_calls(monkeypatch, hadl.cli, "evaluate")
        # any pass `train` made would call it on hadl.optim
        evaluations_in_train = count_calls(monkeypatch, hadl.optim, "evaluate")
        stats = count_calls(monkeypatch, hadl.optim, "window_stats")
        dct_builds = dct_builds_per_job(monkeypatch)
        cmd_train(synth_config(tmp_path, horizons=(8, 16), seed=(1, 2), max_epochs=3,
                               patience=3, synth_channels=channels))
        assert len(evaluations) == 4 and evaluations_in_train == []
        # validation, the test MSE and, on the rows path, the grad norm: the
        # statistics path sums the training windows' statistics as it steps
        assert len(stats) == 4 * (2 if channels == 40 else 3)
        assert dct_builds == [1, 0, 0, 0]  # one shape
        jobs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("job ")]
        assert len(jobs) == 4 and all(" test_mae=" in line for line in jobs)

    def test_haar_off_job_builds_its_dct_once(self, tmp_path, monkeypatch):
        # the Haar-off DCT went through a second DCT function, which built F uncounted
        dct_builds = dct_builds_per_job(monkeypatch)
        cmd_train(synth_config(tmp_path, horizons=(8,), use_haar=False, max_epochs=2,
                               patience=2))
        assert dct_builds == [1]

    @pytest.mark.parametrize("channels", [40, 3])
    def test_robustness_and_ablate_forecast_nothing(self, tmp_path, monkeypatch, channels,
                                                    capsys):
        def forecast(*args):
            raise AssertionError("robustness or ablate forecast the test set")

        for module in (hadl.cli, hadl.optim):
            monkeypatch.setattr(module, "evaluate", forecast)
        stats = count_calls(monkeypatch, hadl.optim, "window_stats")
        dct_builds = dct_builds_per_job(monkeypatch)
        config = synth_config(tmp_path, horizons=(8,), eta_list=(0.0, 0.7), robust_max_epochs=2,
                              robust_patience=2, rank=2, max_epochs=2, patience=2,
                              synth_channels=channels)
        [report] = cmd_robustness(config)
        cmd_ablate(config, "head")
        cmd_ablate(config, "dct")
        assert all(np.isfinite(report.mse_per_eta))
        assert len(stats) == 6 * 2  # validation and the test MSE
        # two etas, low_rank and dense, then with_dct and without_dct: one shape
        assert dct_builds == [1, 0, 0, 0, 0, 0]
        jobs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("job ")]
        assert len(jobs) == 6 and not any("test_mae" in line for line in jobs)


class TestOneStandardizedSeries:
    """A command standardizes its series once, in place, on the train
    segment of its convention; every job's segments are views of it."""

    def test_jobs_take_views_of_one_read_only_series(self, tmp_path, monkeypatch):
        loaded, prepared = [], []
        real_load, real_prepare = hadl.cli.load_dataset, hadl.cli.prepare_windows

        def load(config):
            loaded.append(real_load(config))
            return loaded[-1]

        def prepare(job, horizon, data):
            prepared.append((job, real_prepare(job, horizon, data)))
            return prepared[-1][1]

        monkeypatch.setattr(hadl.cli, "load_dataset", load)
        monkeypatch.setattr(hadl.cli, "prepare_windows", prepare)
        config = synth_config(tmp_path, eta_list=(0.0, 0.7), robust_max_epochs=1,
                              robust_patience=1, rank=2, max_epochs=1, patience=1)
        cmd_robustness(config)
        cmd_ablate(replace(config, lookback=(32, 48)), "lookback")
        assert len(loaded) == 2 and [job.lookback for job, _ in prepared] == [64, 64, 32, 48]
        for (dataset, _), jobs in zip(loaded, (prepared[:2], prepared[2:])):
            series = dataset.series.values
            assert not series.flags.writeable
            for job, batches in jobs:
                noisy = job.noise_eta > 0.0  # its noise went into a new train segment
                assert [np.shares_memory(b.values, series) for b in batches] == [
                    not noisy, True, True]

    def test_noise_stays_in_the_train_segment(self, tmp_path, monkeypatch):
        # a robustness cell with eta > 0 differs from the clean cell in its
        # train segment only, and its model starts from the same draw
        prepared, started = [], []
        real_prepare, real_train = hadl.cli.prepare_windows, hadl.cli.train
        monkeypatch.setattr(hadl.cli, "prepare_windows",
                            lambda *a: prepared.append(real_prepare(*a)) or prepared[-1])
        monkeypatch.setattr(hadl.cli, "train",  # (model, job) of each cell
                            lambda *a: started.append((a[0], a[-1])) or real_train(*a))
        config = synth_config(tmp_path, eta_list=(0.0, 0.7), robust_max_epochs=1,
                              robust_patience=1, rank=2)
        cmd_robustness(config)
        dataset, convention = load_dataset(config)
        segments = [seg.values for seg in split(dataset, convention, lookback=config.lookback)]
        assert [job.noise_eta for _, job in started] == [0.0, 0.7]
        for (w_train, w_val, w_test), (_, job) in zip(prepared, started):
            assert (w_train.values.tobytes() == segments[0].tobytes()) == (job.noise_eta == 0.0)
            assert w_val.values.tobytes() == segments[1].tobytes()
            assert w_test.values.tobytes() == segments[2].tobytes()
        (clean, _), (noisy, _) = started
        for name, value in vars(clean).items():
            other = getattr(noisy, name)
            assert (value.tobytes() == other.tobytes() if isinstance(value, np.ndarray)
                    else value == other), name

    def test_each_cell_draws_its_own_noise(self, tmp_path):
        # cell (seed, eta) trains on the clean train segment plus eta times
        # the standard normals of mix_seed(seed, "noise", eta), in
        # `inject_noise`'s order; with eta left out of that seed, every eta
        # of a sweep drew the same noise
        config = synth_config(tmp_path, seed=3)
        data = load_dataset(config)
        clean = split(*data, lookback=config.lookback)[0].values
        draws = []
        for eta in (0.7, 2.3):
            w_train, _, _ = prepare_windows(replace(config, noise_eta=eta), 16, data)
            want = np.random.default_rng(mix_seed(3, "noise", eta)).standard_normal(clean.shape)
            want *= eta
            want += clean
            assert w_train.values.tobytes() == want.tobytes()
            draws.append((w_train.values - clean) / eta)
        assert np.max(np.abs(draws[0] - draws[1])) > 1.0

    def test_standardizing_and_windowing_allocate_at_most_one_series(self):
        # the copies each job made were about one series per job
        config = ExperimentConfig(dataset="random_walk", synth_length=6000, synth_channels=4)
        cells = [(replace(config, lookback=lookback), horizon)
                 for lookback in (32, 64) for horizon in (8, 16)]
        dataset = synth("random_walk", length=6000, channels=4, seed=0)
        tracemalloc.start()
        try:
            data = (hadl.data.standardize(dataset, "ratio"), "ratio")
            batches = [prepare_windows(job, horizon, data) for job, horizon in cells]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batches) == 4 and peak <= dataset.series.values.nbytes

    def test_etth_split_of_a_synthetic_series_writes_the_copies_bytes(self, tmp_path,
                                                                      monkeypatch, capsys):
        # the scaler fits etth's 8640 train steps, not the ratio split's 10500
        # that synth reports in split_bounds; a random walk tells them apart
        argv = ["train", "--dataset", "random_walk", "--synth-length", "15000", "--convention",
                "etth", "--synth-channels", "2", "--lookback", "48", "--horizons", "24",
                "--rank", "4", "--max-epochs", "1", "--patience", "1",
                "--outdir", str(tmp_path / "runs")]

        def outputs():
            assert main(argv) == 0
            files = {str(p.relative_to(tmp_path)): p.read_bytes()
                     for p in sorted((tmp_path / "runs").rglob("*")) if p.is_file()}
            shutil.rmtree(tmp_path / "runs")
            return capsys.readouterr().out, files

        views = outputs()

        def copying(job, horizon, data):  # each job split and standardized its own copies
            _, *segments = hadl.data.fit_transform(*split(*data, lookback=job.lookback))
            return tuple(windows(segment, job.lookback, horizon) for segment in segments)

        monkeypatch.setattr(hadl.data, "standardize", lambda dataset, convention: dataset)
        monkeypatch.setattr(hadl.cli, "prepare_windows", copying)
        assert len(views[1]) == 5 and outputs() == views


class TestRobustnessCommand:
    def test_degenerate_sweep(self, tmp_path, capsys):
        config = synth_config(
            tmp_path, dataset="low_rank_target", eta_list=(0.0,),
            robust_max_epochs=5, robust_patience=5,
        )
        [report] = cmd_robustness(config)
        assert report.mav is None
        out = capsys.readouterr().out
        assert "MAV undefined" in out
        rob_csv = (
            tmp_path / "runs" / "low_rank_target" / "L64-haar-dct-lowrank_r4-bias" / "16"
            / "robustness.csv"
        )
        assert "undefined" in rob_csv.read_text()

    def test_noise_sweep_on_realizable_task(self, tmp_path):
        config = synth_config(
            tmp_path, dataset="low_rank_target", eta_list=(0.0, 0.3, 0.7),
            robust_max_epochs=10, robust_patience=10,
        )
        [report] = cmd_robustness(config)
        assert len(report.nrr_per_eta) == 2
        assert report.mav is not None
        assert all(r > 0 for r in report.nrr_per_eta)
        run_dir = tmp_path / "runs" / "low_rank_target" / "L64-haar-dct-lowrank_r4-bias" / "16"
        bundle = json.loads((run_dir / "robustness.json").read_text())
        assert list(bundle) == ["config", "config_fingerprint", "dataset", "horizon", "reports",
                                "variant"]
        assert list(bundle["reports"][0]) == ["eta_list", "mav", "mse_per_eta", "nrr_per_eta",
                                              "seed"]

    def test_parallel_workers_match_serial(self, tmp_path):
        kwargs = dict(dataset="low_rank_target", eta_list=(0.0, 0.3, 0.7),
                      robust_max_epochs=4, robust_patience=4)
        cmd_robustness(synth_config(tmp_path, outdir=str(tmp_path / "serial"), **kwargs))
        cmd_robustness(synth_config(tmp_path, outdir=str(tmp_path / "parallel"), **kwargs),
                       workers=2)
        run_dir = Path("low_rank_target") / "L64-haar-dct-lowrank_r4-bias" / "16"
        serial, parallel = tmp_path / "serial" / run_dir, tmp_path / "parallel" / run_dir
        a, b = ((d / "robustness.csv").read_bytes() for d in (serial, parallel))
        assert a == b
        a, b = (json.loads((d / "robustness.json").read_text()) for d in (serial, parallel))
        for bundle in (a, b):
            del bundle["config"]["outdir"]  # the embedded config differs only there
        assert a == b

    def test_every_horizon_is_swept(self, tmp_path, capsys):
        # trained and wrote H=4 only, and exited 0
        argv = ["robustness", "--dataset", "sine_mix", "--lookback", "16", "--rank", "2",
                "--eta-list", "0,0.7", "--robust-max-epochs", "1", "--robust-patience", "1"]
        assert main([*argv, "--horizons", "4,8", "--outdir", str(tmp_path / "both")]) == 0
        out = capsys.readouterr().out.splitlines()
        jobs = [line.split()[4:7:2] for line in out if line.startswith("job ")]
        assert jobs == [["H=4", "eta=0.0"], ["H=4", "eta=0.7"], ["H=8", "eta=0.0"],
                        ["H=8", "eta=0.7"]]
        mavs = [line.split()[2:5] for line in out if line.startswith("robustness: ")]
        assert [h for h, _, _ in mavs] == ["H=4", "H=8"]
        assert all(s == "seed=0" and m[:4] == "MAV=" for _, s, m in mavs)
        # each horizon's files are those of a sweep at that horizon alone
        assert main([*argv, "--horizons", "8", "--outdir", str(tmp_path / "one")]) == 0
        run_dir = Path("sine_mix") / "L16-haar-dct-lowrank_r2-bias"
        assert (tmp_path / "both" / run_dir / "4" / "robustness.csv").is_file()
        both, one = tmp_path / "both" / run_dir / "8", tmp_path / "one" / run_dir / "8"
        assert table_rows(both / "robustness.csv") == table_rows(one / "robustness.csv")
        a, b = (json.loads((d / "robustness.json").read_text()) for d in (both, one))
        for bundle in (a, b):
            del bundle["config"], bundle["config_fingerprint"]  # the horizons differ
        assert a == b and a["horizon"] == 8

    def test_repeated_eta_fails_before_any_job(self, tmp_path, capsys):
        # exited 0 with two rows, the first eta -0.0
        rc = main(["robustness", "--dataset", "sine_mix", "--lookback", "16", "--horizons", "4",
                   "--rank", "2", "--eta-list=-0,0.7,0.7", "--robust-max-epochs", "1",
                   "--robust-patience", "1", "--outdir", str(tmp_path / "runs")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines() == ["error: eta_list: 0.7 is listed twice"]
        assert not (tmp_path / "runs").exists()

    def test_zero_eta_required(self, tmp_path):
        config = synth_config(tmp_path, eta_list=(0.3, 0.7))
        with pytest.raises(InvalidConfigError, match="eta_list must contain 0.0"):
            cmd_robustness(config)


def outputs(root: Path) -> dict[str, object]:
    """Every output file under `root` by relative path: its bytes, or for a
    file that embeds the config, its values without the config and its
    fingerprint."""
    found = {}
    for path in sorted(root.rglob("*")):
        if path.suffix == ".json":
            found[str(path.relative_to(root))] = {
                key: value for key, value in json.loads(path.read_text()).items()
                if key not in ("config", "config_fingerprint")}
        elif path.suffix == ".csv":
            found[str(path.relative_to(root))] = table_rows(path)
        elif path.is_file():
            found[str(path.relative_to(root))] = path.read_bytes()
    return found


TINY = ["--dataset", "sine_mix", "--lookback", "16", "--horizons", "4", "--max-epochs", "1",
        "--patience", "1"]


class TestGrid:
    """A command runs every cell of the product of its lists, in GRID_ORDER,
    and each cell as it would run alone."""

    def test_seeds_of_an_ablation_are_its_single_seed_runs(self, tmp_path, capsys):
        argv = ["ablate", "dct", *TINY, "--rank", "2"]
        assert main([*argv, "--seed", "0,1,2", "--outdir", str(tmp_path / "all")]) == 0
        header, *rows = table_rows(tmp_path / "all" / "sine_mix" / "ablate_dct.csv")
        assert [(row[1], row[header.index("seed")]) for row in rows] == [
            (value, seed) for value in ("with_dct", "without_dct") for seed in "012"]
        for seed in "012":
            assert main([*argv, "--seed", seed, "--outdir", str(tmp_path / seed)]) == 0
            _, *alone = table_rows(tmp_path / seed / "sine_mix" / "ablate_dct.csv")
            assert alone == [row for row in rows if row[header.index("seed")] == seed]
        assert len({row[header.index("mse")] for row in rows}) == 6
        capsys.readouterr()

    def test_ranks_and_lookbacks_of_train_are_their_single_runs(self, tmp_path, capsys):
        argv = ["train", *TINY[:2], "--horizons", "4", *TINY[6:]]
        assert main([*argv, "--rank", "2,3", "--lookback", "16,24",
                     "--outdir", str(tmp_path / "all")]) == 0
        jobs = [line.split()[2:4] for line in capsys.readouterr().out.splitlines()]
        assert jobs == [[f"variant=L{lookback}-haar-dct-lowrank_r{rank}-bias", f"L={lookback}"]
                        for lookback in (16, 24) for rank in (2, 3)]
        together, alone = outputs(tmp_path / "all"), {}
        for rank in "23":
            for lookback in ("16", "24"):
                outdir = tmp_path / f"{rank}-{lookback}"
                assert main([*argv, "--rank", rank, "--lookback", lookback,
                             "--outdir", str(outdir)]) == 0
                alone.update(outputs(outdir))
        assert len(together) == 4 * 5 and together == alone
        capsys.readouterr()

    def test_a_pool_writes_an_ablation_table_byte_for_byte(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(hadl.cli.os, "sched_getaffinity", lambda pid: set(range(2)),
                            raising=False)
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["ablate", "head", *TINY, "--rank", "2", "--seed", "0,1",
                         "--workers", workers, "--outdir", str(out)]) == 0
            tables.append((out / "sine_mix" / "ablate_head.csv").read_bytes())
        assert tables[0] == tables[1]
        capsys.readouterr()

    def test_a_dense_head_trains_once_whatever_the_ranks(self, tmp_path, capsys):
        assert main(["ablate", "head", *TINY, "--rank", "2,4", "--outdir", str(tmp_path)]) == 0
        jobs = [line.split()[2] for line in capsys.readouterr().out.splitlines()
                if line.startswith("job ")]
        assert jobs == ["variant=L16-haar-dct-lowrank_r2-bias",
                        "variant=L16-haar-dct-lowrank_r4-bias", "variant=L16-haar-dct-dense-bias"]
        header, *rows = table_rows(tmp_path / "sine_mix" / "ablate_head.csv")
        assert [(row[1], row[header.index("rank")]) for row in rows] == [
            ("low_rank", "2"), ("low_rank", "4"), ("dense", "")]

    def test_robustness_reports_each_seed(self, tmp_path, capsys):
        argv = ["robustness", *TINY[:6], "--rank", "2", "--eta-list", "0,0.7",
                "--robust-max-epochs", "1", "--robust-patience", "1"]
        run_dir = Path("sine_mix") / "L16-haar-dct-lowrank_r2-bias" / "4"
        assert main([*argv, "--seed", "3,4", "--outdir", str(tmp_path / "both")]) == 0
        both = json.loads((tmp_path / "both" / run_dir / "robustness.json").read_text())
        assert [report["seed"] for report in both["reports"]] == [3, 4]
        rows = table_rows(tmp_path / "both" / run_dir / "robustness.csv")
        assert rows[0] == ["seed", "eta", "mse", "nrr", "mav"]
        for i, seed in enumerate("34"):
            assert main([*argv, "--seed", seed, "--outdir", str(tmp_path / seed)]) == 0
            alone = json.loads((tmp_path / seed / run_dir / "robustness.json").read_text())
            assert alone["reports"] == [both["reports"][i]]
            assert table_rows(tmp_path / seed / run_dir / "robustness.csv")[1:] == [
                row for row in rows[1:] if row[0] == seed]
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[3] for line in out if line.startswith("robustness: ")] == [
            "seed=3", "seed=4", "seed=3", "seed=4"]

    def test_robustness_refuses_a_noise_eta_before_loading(self, tmp_path, monkeypatch):
        # trained the eta_list etas and wrote noise_eta 0.5 into robustness.json's config
        monkeypatch.setattr(hadl.cli, "load_dataset", must_not_run)
        config = synth_config(tmp_path, noise_eta=0.5, eta_list=(0.0, 0.7))
        with pytest.raises(InvalidConfigError, match="noise_eta: robustness sweeps eta_list"):
            cmd_robustness(config)
        assert not (tmp_path / "runs").exists()

    def test_one_value_is_kept_as_itself(self):
        # so that a cell, and a config given one value, hash alike
        one = ExperimentConfig(seed=(3,), rank=(4,), lookback=(32,))
        assert (one.seed, one.rank, one.lookback) == (3, 4, 32)
        assert one == ExperimentConfig(seed=3, rank=4, lookback=32)
        assert one.fingerprint() == ExperimentConfig(seed=3, rank=4, lookback=32).fingerprint()
        cells = grid_cells(ExperimentConfig(seed=(1, 2), horizons=(8, 16)))
        assert [(job.seed, horizon) for job, horizon in cells] == [(1, 8), (2, 8), (1, 16),
                                                                   (2, 16)]


class TestAblateCommand:
    def test_rank_axis_param_column(self, tmp_path):
        config = synth_config(
            tmp_path, lookback=512, horizons=(96,), rank=(15, 35, 55, 75),
            with_bias=True,
        )
        out_path = cmd_ablate(config, "rank", params_only=True)
        with open(out_path, newline="") as handle:
            rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
        header, body = rows[0], rows[1:]
        params_col = [int(r[header.index("params")]) for r in body]
        display_col = [r[header.index("params_display")] for r in body]
        assert params_col == [5376, 12416, 19456, 26496]
        assert display_col == ["5.38K", "12.42K", "19.46K", "26.5K"]

    def test_head_axis_no_bias_params(self, tmp_path):
        config = synth_config(
            tmp_path, lookback=512, horizons=(192,), with_bias=False, rank=40,
        )
        out_path = cmd_ablate(config, "head", params_only=True)
        with open(out_path, newline="") as handle:
            rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
        header, body = rows[0], rows[1:]
        assert [int(r[header.index("params")]) for r in body] == [17920, 49152]

    def test_lookback_axis_trains_one_row_per_length(self, tmp_path):
        config = synth_config(
            tmp_path, lookback=(32, 48), horizons=(8,), rank=2,
            max_epochs=3, patience=3,
        )
        out_path = cmd_ablate(config, "lookback")
        with open(out_path, newline="") as handle:
            rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
        header, body = rows[0], rows[1:]
        assert [r[header.index("value")] for r in body] == ["32", "48"]
        assert all(r[header.index("mse")] != "" for r in body)

    @pytest.mark.parametrize("axis", ["head", "dct"])
    def test_axis_trains_the_swapped_variant(self, tmp_path, axis):
        config = synth_config(tmp_path, horizons=(8,), rank=2, max_epochs=2, patience=2)
        header, *body = table_rows(cmd_ablate(config, axis))
        data = load_dataset(config)
        expected = [repr(run_single(job, horizon, data)[2].mse)
                    for job, horizon in grid_cells(config, ABLATIONS[axis])]
        assert [r[header.index("mse")] for r in body] == expected
        assert expected[0] != expected[1]

    def test_haar_axis_grid(self, tmp_path):
        config = synth_config(tmp_path, horizons=(8,), rank=2, max_epochs=2, patience=2)
        out_path = cmd_ablate(config, "haar")
        text = Path(out_path).read_text()
        assert "with_haar" in text and "without_haar" in text

    def test_params_only_counts_at_rank(self, tmp_path):
        # `--rank 2` was dropped: each row counted rank 40's 484 parameters
        out = tmp_path / "runs"
        assert main(["ablate", "dct", "--dataset", "sine_mix", "--lookback", "16", "--horizons",
                     "4", "--rank", "2", "--params-only", "--outdir", str(out)]) == 0
        header, *body = table_rows(out / "sine_mix" / "ablate_dct.csv")
        # Haar halves L=16 to 8: P is 8x2, Q 2x4, and the bias 4
        assert [r[header.index("params")] for r in body] == ["28", "28"]

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="unknown ablation axis 'bogus'"):
            cmd_ablate(synth_config(tmp_path), "bogus", params_only=True)


class TestExportWeights:
    """The export is the whole forecaster: the L x H map of the Haar, DCT and
    head stages, then the bias row, so that [x, 1] @ table is forward(x)."""

    @staticmethod
    def export(tmp_path, model) -> np.ndarray:
        ckpt, out = tmp_path / "m.npz", tmp_path / "w.csv"
        save_checkpoint(model, ckpt)
        assert main(["export-weights", str(ckpt), str(out)]) == 0
        return np.loadtxt(out, delimiter=",", ndmin=2)

    def test_zero_weight_export(self, tmp_path):
        model = init_model(8, 3, 2, seed=0)
        model.P[:] = 0.0
        model.bias[:] = [0.5, -1.0, 2.0]
        table = self.export(tmp_path, model)
        assert table.shape == (9, 3)
        assert_allclose(table[:8], np.zeros((8, 3)), atol=0)
        assert np.array_equal(table[8], model.bias)

    def test_round_trip_matches_effective_weight(self, tmp_path):
        # with both transforms off, the map is the head's own
        model = init_model(16, 5, 3, seed=4, use_haar=False, use_dct=False)
        model.bias[:] = np.random.default_rng(1).normal(size=5)
        table = self.export(tmp_path, model)
        assert_allclose(table[:16], effective_weight(model), rtol=1e-12)
        assert np.array_equal(table[16], model.bias)

    def test_dense_checkpoint_round_trips_w(self, tmp_path):
        model = init_model(8, 3, 2, seed=0, head="dense", use_haar=False, use_dct=False,
                           with_bias=False)
        table = self.export(tmp_path, model)
        assert np.array_equal(table, np.vstack([model.W, np.zeros(3)]))

    @pytest.mark.parametrize("variant", [{}, {"head": "dense"}, {"use_haar": False},
                                         {"use_dct": False}, {"with_bias": False}])
    def test_table_applied_to_a_window_is_its_forecast(self, tmp_path, variant):
        rng = np.random.default_rng(2)
        model = init_model(16, 5, 3, seed=4, **variant)
        if model.bias is not None:
            model.bias[:] = rng.normal(size=5)
        table = self.export(tmp_path, model)
        assert table.shape == (17, 5)
        x = rng.normal(size=(7, 3, 16))
        want = forward(model, x)
        got = np.concatenate([x, np.ones((7, 3, 1))], axis=-1) @ table
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    # each loaded: "false" and "no" as True, 64.9 as 64, true as seed 1, and "PQ"
    # as the names P and Q, without the bias the archive holds
    BAD_META = {"use_dct_text": ("use_dct", "false"), "use_haar_text": ("use_haar", "no"),
                "lookback_float": ("lookback", 64.9), "seed_bool": ("seed", True),
                "arrays_text": ("arrays", "PQ")}

    @pytest.mark.parametrize("case", ["q_columns", "meta_horizon", "nan_in_p", "missing_array",
                                      "float32_p", "head_names", "not_npz", "npy", "truncated",
                                      *BAD_META])
    def test_corrupt_checkpoint_rejected(self, tmp_path, capsys, case):
        model = init_model(64, 16, 4, seed=0)
        meta = {"lookback": 64, "horizon": 16, "use_haar": True, "use_dct": True,
                "head": "low_rank", "seed": 0, "arrays": ["P", "Q", "bias"]}
        arrays = {"P": model.P.copy(), "Q": model.Q.copy(), "bias": model.bias.copy()}
        if case == "q_columns":  # was exported as a 32x5 matrix
            arrays["Q"] = arrays["Q"][:, :5]
        elif case == "meta_horizon":  # was accepted over horizon-16 arrays
            meta["horizon"] = 99
        elif case == "nan_in_p":  # was exported
            arrays["P"][3, 1] = np.nan
        elif case == "missing_array":  # was a raw KeyError
            del arrays["bias"]
        elif case == "float32_p":
            arrays["P"] = arrays["P"].astype(np.float32)
        elif case == "head_names":  # low-rank arrays under a dense head
            meta["head"] = "dense"
        elif case in self.BAD_META:
            meta.update([self.BAD_META[case]])
        ckpt = tmp_path / "m.npz"
        if case == "not_npz":  # was a ValueError traceback about pickled data
            ckpt.write_text("lookback,horizon\n64,16\n")
        elif case == "npy":
            with open(ckpt, "wb") as handle:
                np.save(handle, arrays["P"])
        else:
            np.savez(ckpt, meta=json.dumps(meta), **arrays)
        if case == "truncated":  # was a zipfile.BadZipFile traceback
            ckpt.write_bytes(ckpt.read_bytes()[:200])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(ckpt)
        rc = main(["export-weights", str(ckpt), str(tmp_path / "w.csv")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "w.csv").exists()


def test_params_command_output(capsys):
    rc = main(["params", "--lookback", "512", "--horizons", "720", "--rank", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "49520 parameters" in out
    assert "49.52K" in out


@pytest.mark.parametrize("flags, key", [
    (["--patience", "0"], "patience"),
    (["--noise-eta=-1"], "noise_eta"),  # trained on clean data and exited 0
    (["--batch-size", "0"], "batch_size"),
    (["--l1-lambda", "-1"], "l1_lambda"),
    (["--learning-rate=-0.01"], "learning_rate"),  # trained uphill and exited 0
    (["--lookback", "abc"], "lookback"),
    (["--horizons", "8,x"], "horizons"),
    (["--l1-lambda", "nan"], "l1_lambda"),  # trained without L1 and wrote NaN into eval.json
    # each trained twice, overwrote the checkpoint and wrote the repeat into eval.csv
    (["--horizons", "8,16,8"], "horizons"),
    (["--seed", "1,1"], "seed"),
    # ablate wrote each repeated row twice and an empty list as an empty table
    (["--rank", "4,4"], "rank"),
    (["--lookback", "48,48"], "lookback"),
    (["--rank="], "rank"),
    (["--lookback="], "lookback"),
    # each was a numpy ValueError traceback
    (["--seed=-1"], "seed"),
    (["--seed", "1,-2"], "seed"),
    (["--synth-channels", "0"], "synth_channels"),
    (["--synth-length=-1"], "synth_length"),
    # each trained an epoch, then failed as a diverged run
    (["--noise-eta", "inf"], "noise_eta"),
    (["--learning-rate", "inf"], "learning_rate"),
    (["--l1-lambda", "inf"], "l1_lambda"),
    (["--eta-list", "0,inf"], "eta_list"),  # robustness trained eta=0 first
    # robustness trained eta -0.0 once but kept both in robustness.json's config
    (["--eta-list=-0,0"], "eta_list"),
    # names that select nothing: a split convention, a head kind
    (["--convention", "bogus"], "convention"),
    (["--head", "bogus"], "head"),
])
def test_bad_config_value_is_one_error_line(tmp_path, capsys, flags, key):
    # a key that only some commands read is checked under the first of them:
    # any other refuses the flag itself, in a line that starts with it,
    # before parsing the value
    command = next(form for form, keys in COMMAND_KEYS.items() if key in keys).split()
    shape = [] if key == "lookback" else ["--lookback", "32"]
    line = assert_one_error_line(tmp_path, capsys, key, [*command, "--dataset", "sine_mix",
                                                         *shape, "--horizons", "8", *flags])
    assert not line.startswith("error: --"), line


def assert_one_error_line(tmp_path, capsys, key, argv):
    """`argv` exits 1 with one `error:` line naming `key`, trains no job and
    creates no outdir; the line is returned."""
    rc = main([*argv, "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert rc == 1
    assert out == ""  # no job trained
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (tmp_path / "runs").exists()
    return err[0]


def budget(command: str, epochs: int) -> list[str]:
    """The epoch-budget flags that `command` reads, at `epochs` epochs with
    patience `epochs`."""
    prefix = "--robust-" if command == "robustness" else "--"
    return [f"{prefix}max-epochs", str(epochs), f"{prefix}patience", str(epochs)]


ROBUST = ["robustness", "--eta-list", "0,0.7", *budget("robustness", 1)]


# each trained one eta list or one dense model and exited 0, so the
# settings it dropped read as run
@pytest.mark.parametrize("command, key", [
    ([*ROBUST, "--noise-eta", "0.5"], "noise_eta"),
    (["ablate", "dct", "--params-only", "--seed", "1,2"], "seed"),
    # trained one dense model per rank and wrote rows of equal MSE and params
    (["ablate", "rank", "--head", "dense", "--rank", "4,8", *budget("ablate", 1)], "head"),
    (["ablate", "rank", "--params-only", "--head", "dense", "--rank", "4,8"], "head"),
])
def test_setting_a_command_drops_is_one_error_line(tmp_path, capsys, command, key):
    assert_one_error_line(tmp_path, capsys, key, [*command, "--dataset", "sine_mix", "--lookback",
                                                  "16", "--horizons", "4"])


# each exited 0 having trained without the flag's value, or failed on a
# value the command never reads: a key that only other commands read, a
# training, data or output key where nothing trains, the DCT stage where
# nothing counts it, the key the ablation axis sets in every cell, or a
# rank for a dense head
@pytest.mark.parametrize("argv, message", [
    (["train", "--eta-list", "0,0.5"], "--eta-list: hadl train does not read eta_list; it is read"
                                       " by hadl robustness"),
    ([*ROBUST, "--noise-eta", "0.5"], "--noise-eta: hadl robustness does not read noise_eta; it"
                                      " is read by hadl train, hadl ablate"
                                      " haar|head|dct|rank|lookback"),
    (["ablate", "dct", "--eta-list", "0,0.5"], "--eta-list: hadl ablate dct does not read"
                                               " eta_list; it is read by hadl robustness"),
    (["ablate", "haar", "--use-haar", "false"], "--use-haar: hadl ablate haar does not read"
                                                " use_haar; it is read by hadl train, hadl"
                                                " robustness, hadl ablate head|dct|rank|lookback,"
                                                " hadl ablate head|dct|rank|lookback"
                                                " --params-only, hadl params"),
    (["ablate", "rank", "--params-only", "--seed", "3"],
     "--seed: hadl ablate rank --params-only does not read seed; it is read by hadl train, hadl"
     " robustness, hadl ablate haar|head|dct|rank|lookback"),
    (["params", "--eta-list", "0,0.5"], "--eta-list: hadl params does not read eta_list; it is"
                                        " read by hadl robustness"),
    # params trains nothing: a seed list would read as one count per seed
    (["params", "--seed", "1,2"], "--seed: hadl params does not read seed; it is read by hadl"
                                  " train, hadl robustness, hadl ablate haar|head|dct|rank|lookback"),
    # trained at the robustness budget, 50 epochs with patience 10, and wrote
    # max_epochs 3 into robustness.json's config
    (["robustness", "--eta-list", "0,0.5", "--max-epochs", "3", "--patience", "3"],
     "--max-epochs: hadl robustness does not read max_epochs; it is read by hadl train, hadl"
     " ablate haar|head|dct|rank|lookback"),
    # each failed on a budget rule of a pair that the command never reads
    (["train", "--robust-max-epochs", "7"], "--robust-max-epochs: hadl train does not read"
                                            " robust_max_epochs; it is read by hadl robustness"),
    (["params", "--max-epochs", "9"], "--max-epochs: hadl params does not read max_epochs; it is"
                                      " read by hadl train, hadl ablate"
                                      " haar|head|dct|rank|lookback"),
    (["ablate", "dct", "--params-only", "--learning-rate", "5"],
     "--learning-rate: hadl ablate dct --params-only does not read learning_rate; it is read by"
     " hadl train, hadl robustness, hadl ablate haar|head|dct|rank|lookback"),
    (["train", "--head", "dense"], "--rank: a dense head has no rank, so hadl train would"
                                   " drop it"),
    (["ablate", "haar", "--head", "dense"], "--rank: a dense head has no rank, so hadl"
                                            " ablate haar would drop it"),
    # each exited 0 and printed or wrote what it did without the flag
    (["params", "--use-dct", "false"], "--use-dct: hadl params does not read use_dct; it is read"
                                       " by hadl train, hadl robustness, hadl ablate"
                                       " haar|head|rank|lookback"),
    (["params", "--outdir", "nowhere"], "--outdir: hadl params does not read outdir; it is read"
                                        " by hadl train, hadl robustness, hadl ablate"
                                        " haar|head|dct|rank|lookback, hadl ablate"
                                        " haar|head|dct|rank|lookback --params-only"),
    (["params", "--dataset", "foo"], "--dataset: hadl params does not read dataset; it is read"
                                     " by hadl train, hadl robustness, hadl ablate"
                                     " haar|head|dct|rank|lookback, hadl ablate"
                                     " haar|head|dct|rank|lookback --params-only"),
    (["ablate", "haar", "--params-only", "--use-dct", "false"],
     "--use-dct: hadl ablate haar --params-only does not read use_dct; it is read by hadl train,"
     " hadl robustness, hadl ablate haar|head|rank|lookback"),
], ids=["train", "robustness_noise", "ablate_eta_list", "ablate_axis",
        "ablate_params_only", "params", "params_seeds", "robustness_budget", "train_robust_budget",
        "params_budget", "params_only_training_key", "train_dense_rank", "ablate_dense_rank",
        "params_dct", "params_outdir", "params_dataset", "params_only_dct"])
def test_a_flag_the_command_drops_fails_before_loading(tmp_path, capsys, monkeypatch, argv,
                                                       message):
    monkeypatch.chdir(tmp_path)  # the default outdir, runs/, would land here
    monkeypatch.setattr(hadl.cli, "load_dataset", must_not_run)
    rc = main([*argv, "--lookback", "16", "--horizons", "4", "--rank", "2"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


DEFAULTS = {f.name: _flag_text(f.default) for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("form, key", [
    (form, key) for form, keys in COMMAND_KEYS.items() for key in DEFAULTS if key not in keys])
def test_a_flag_outside_the_forms_keys_fails_in_one_line(tmp_path, capsys, monkeypatch, form,
                                                         key):
    # at its default value, so that only the rule can fail it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hadl.cli, "load_dataset", must_not_run)
    flag = "--" + key.replace("_", "-")
    rc = main([*form.split(), f"{flag}={DEFAULTS[key]}"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag}: hadl {form} does not read {key}; it is read by hadl ")
    assert list(tmp_path.iterdir()) == []


# per command form, a valid config-file line that the form does not read and
# that would change an output byte if it were applied; those marked failed at
# the parent, the rest wrote another fingerprint or trained another seed
UNREAD_LINES = {
    "train": "robust_max_epochs = 7",  # failed: robust_patience (10) > 7
    "robustness": "noise_eta = 0.5",
    "ablate haar": "use_haar = false",
    "ablate head": "head = dense",
    "ablate dct": "use_dct = false",
    "ablate rank": "eta_list = 0,0.5",
    "ablate lookback": "robust_max_epochs = 7",  # failed
    "ablate haar --params-only": "learning_rate = 0.5",
    "ablate head --params-only": "use_dct = false",
    "ablate dct --params-only": "max_epochs = 3",  # failed: patience (20) > 3
    "ablate rank --params-only": "seed = 3",
    "ablate lookback --params-only": "batch_size = 7",
    "params": "robust_max_epochs = 7",  # failed
}
# the flags of the unread-line runs, each passed where the form reads it
SMALL_RUN = {"dataset": "sine_mix", "synth_length": "240", "lookback": "16", "horizons": "4",
             "rank": "2", "max_epochs": "1", "patience": "1", "eta_list": "0,0.5",
             "robust_max_epochs": "1", "robust_patience": "1"}


@pytest.mark.parametrize("form", COMMAND_KEYS)
def test_a_config_line_the_form_does_not_read_changes_no_byte(tmp_path, capsys, monkeypatch,
                                                               form):
    line = UNREAD_LINES[form]
    assert line.split(" = ")[0] not in COMMAND_KEYS[form]
    (tmp_path / "unread.cfg").write_text(line + "\n")
    argv = [*form.split(), *(f"--{key.replace('_', '-')}={value}"
                             for key, value in SMALL_RUN.items() if key in COMMAND_KEYS[form])]
    outputs = []
    for config in ([], ["--config", str(tmp_path / "unread.cfg")]):
        workdir = tmp_path / str(len(outputs))  # the default outdir, runs/, lands here
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = main([*argv, *config])
        out, err = capsys.readouterr()
        assert rc == 0, err
        outputs.append((out, {path.relative_to(workdir): path.read_bytes()
                              for path in sorted(workdir.rglob("*")) if path.is_file()}))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] or form == "params"


def cell_count(workdir: Path, out: str) -> int:
    """The cells a command ran: its job lines, else its ablation table's
    rows, else (`params`) its printed lines."""
    jobs = [line for line in out.splitlines() if line.startswith("job ")]
    tables = list(workdir.rglob("ablate_*.csv"))
    return len(jobs) or (len(table_rows(tables[0])) - 1 if tables else len(out.splitlines()))


@pytest.mark.parametrize("form, key", [
    (form, key) for form, keys in COMMAND_KEYS.items() for key in hadl.cli.SWEPT if key in keys])
def test_every_form_runs_each_value_of_a_swept_key(tmp_path, capsys, monkeypatch, form, key):
    # a comma list runs one cell per value; only a dense cell runs once for all ranks
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in SMALL_RUN.items()
             if name in COMMAND_KEYS[form] and name != key]
    counts = []
    for values in ({"seed": "3", "rank": "2", "lookback": "8"}[key],
                   {"seed": "3,4", "rank": "2,3", "lookback": "8,16"}[key]):
        workdir = tmp_path / values
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # the default outdir, runs/, lands here
        assert main([*form.split(), *flags, f"--{key}={values}"]) == 0
        counts.append(cell_count(workdir, capsys.readouterr().out))
    assert counts[1] == (3 if form.startswith("ablate head") and key == "rank" else 2 * counts[0])


def test_a_config_file_may_set_what_a_command_drops(tmp_path, capsys):
    # one file may serve several commands, so only flags are held to the rule
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("eta_list = 0,0.5\nuse_haar = false\nrobust_patience = 5\n")
    rc = main(["ablate", "haar", "--config", str(cfg), "--dataset", "sine_mix", "--lookback",
               "16", "--horizons", "4", "--rank", "2", "--max-epochs", "1", "--patience", "1",
               "--outdir", str(tmp_path / "runs")])
    assert rc == 0, capsys.readouterr().err
    rows = table_rows(tmp_path / "runs" / "sine_mix" / "ablate_haar.csv")
    assert [row[1] for row in rows[1:]] == ["with_haar", "without_haar"]


def test_params_only_head_axis_reads_the_rank(tmp_path, capsys):
    # the low-rank cell's count reads --rank, so the dense-head rule spares this axis
    rc = main(["ablate", "head", "--params-only", "--horizons", "96,720", "--rank", "40",
               "--with-bias", "false", "--outdir", str(tmp_path / "runs")])
    assert rc == 0, capsys.readouterr().err
    header, *body = table_rows(tmp_path / "runs" / "sine_mix" / "ablate_head.csv")
    assert [row[header.index("params")] for row in body] == ["14080", "39040", "24576", "184320"]


@pytest.mark.parametrize("command, flag, values", [
    ("robustness", "--eta-list", ("-0,0.7", "0,0.7")),
    ("train", "--noise-eta", ("-0", "0")),
])
def test_negative_zero_eta_is_the_zero_eta(tmp_path, capsys, command, flag, values):
    # -0 printed eta=-0.0 and wrote -0.0 into each JSON config, so one
    # experiment wrote other bytes
    runs, outputs = tmp_path / "runs", []
    for value in values:
        rc = main([command, "--dataset", "sine_mix", "--lookback", "16", "--horizons", "4",
                   "--rank", "2", f"{flag}={value}", *budget(command, 1), "--outdir", str(runs)])
        files = {str(p.relative_to(runs)): p.read_bytes()
                 for p in sorted(runs.rglob("*")) if p.is_file()}
        outputs.append((rc, capsys.readouterr(), files))
        shutil.rmtree(runs)
    assert outputs[0] == outputs[1]
    rc, (out, err), files = outputs[0]
    assert rc == 0 and err == "" and "eta=0.0" in out
    assert any(name.endswith(("robustness.json", "eval.json")) for name in files)


@pytest.mark.parametrize("command", ["train", "robustness"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_fail_before_any_job(tmp_path, capsys, command, workers):
    # each ran serially and exited 0
    rc = main([command, "--workers", workers, "--dataset", "sine_mix", "--lookback", "32",
               "--horizons", "8", "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [f"error: workers must be >= 1, got {workers}"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["train", "robustness"])
@pytest.mark.parametrize("workers", ["abc", "1.5"])
def test_workers_that_do_not_parse_fail_in_one_line(tmp_path, capsys, command, workers):
    # argparse's type=int printed its usage block and exited 2
    rc = main([command, "--workers", workers, "--dataset", "sine_mix", "--lookback", "32",
               "--horizons", "8", "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: workers: invalid literal for int() with base 10: {workers!r}"]
    assert not (tmp_path / "runs").exists()


class RecordingPool:
    """A ProcessPoolExecutor stand-in that records its size and runs each job
    at submit, in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_workers_above_the_cpu_count_fail_before_loading(tmp_path, capsys, monkeypatch, command):
    # each loaded the dataset and handed 5000 to the pool, which forks every
    # worker at its first job
    monkeypatch.setattr(hadl.cli, "load_dataset", must_not_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", must_not_run)
    # the count is of the CPUs in the affinity mask, not of the machine
    monkeypatch.setattr(hadl.cli.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(hadl.cli.os, "cpu_count", lambda: 64)
    rc = main([command, "--workers", "5000", "--dataset", "sine_mix", "--lookback", "32",
               "--horizons", "8", "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: workers must be <= 4, the CPU count, got 5000"]


@pytest.mark.parametrize("command, cells", [
    ("train", ["--horizons", "8,12"]),
    ("robustness", ["--horizons", "8", "--eta-list", "0,0.5"]),
])
def test_pool_has_at_most_one_worker_per_cell(tmp_path, capsys, monkeypatch, command, cells):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(hadl.cli.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    rc = main([command, "--workers", "64", "--dataset", "sine_mix", "--lookback", "32",
               *cells, *budget(command, 1), "--outdir", str(tmp_path / "runs")])
    assert rc == 0, capsys.readouterr().err
    assert RecordingPool.sizes == [2]


@pytest.mark.parametrize("command, noise", [
    ("train", ["--noise-eta", "1e308"]),
    ("robustness", ["--eta-list", "0,1e308", "--robust-max-epochs", "1",
                    "--robust-patience", "1"]),
])
def test_overflowing_noise_is_one_error_line(tmp_path, command, noise):
    # an overflow RuntimeWarning from inject_noise, then "training diverged"
    proc = subprocess.run(
        [sys.executable, "-m", "hadl.cli", command, "--dataset", "sine_mix", "--lookback", "32",
         "--horizons", "8", *noise, "--outdir", str(tmp_path / "runs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: noise intensity eta=1e+308 overflows float64"]


def test_negative_eta_fails_before_any_job(tmp_path, capsys):
    # trained all three jobs, then failed without naming -1
    rc = main(["robustness", "--dataset", "sine_mix", "--lookback", "32", "--horizons", "8",
               "--eta-list=-1,0,0.5", "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: eta_list: noise intensity must be >= 0, got -1.0"]
    assert not (tmp_path / "runs").exists()


# a dataset on which a valid cell trains, in one epoch, at L=32 and H=96
TRAINABLE = ["--synth-length", "2000", "--max-epochs", "1", "--patience", "1"]


IMPOSSIBLE = [  # (argv, the config key the error names)
    (["params", "--rank", "-3"], "rank"),  # printed "-1440 parameters"
    (["params", "--lookback", "33"], "lookback"),
    (["ablate", "rank", "--rank", "0", "--params-only"], "rank"),
    # each trained its valid cell and printed its job line first
    (["ablate", "lookback", "--lookback", "32,33", *TRAINABLE], "lookback"),
    (["ablate", "rank", "--rank", "2,0", "--lookback", "32", *TRAINABLE], "rank"),
    # the two commands that train nothing checked no training key: each exited
    # 0; now each refuses the flag, which names the key
    (["params", "--patience", "0"], "--patience:"),
    (["params", "--learning-rate", "-1"], "--learning-rate:"),
    (["ablate", "rank", "--params-only", "--patience", "0"], "--patience:"),
    # loaded the dataset, then failed naming patience
    (["robustness", "--robust-patience", "0"], "robust_patience"),
]


@pytest.mark.parametrize("argv, key", IMPOSSIBLE,
                         ids=[f"argv{i}" for i in range(len(IMPOSSIBLE))])
def test_impossible_model_is_one_error_line(tmp_path, capsys, monkeypatch, argv, key):
    monkeypatch.chdir(tmp_path)  # the default outdir, runs/, would land here
    rc = main(argv + ["--horizons", "96"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {key} "), err
    assert not (tmp_path / "runs").exists()


def must_not_run(*args, **kwargs):
    raise AssertionError("reached before the model shape was checked")


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_model_shape_checked_before_loading(tmp_path, capsys, monkeypatch, command):
    # each loaded the dataset first: an electricity-sized CSV takes 1.7 s
    monkeypatch.setattr(hadl.cli, "load_dataset", must_not_run)
    rc = main([command, "--dataset", "sine_mix", "--lookback", "33", "--horizons", "8",
               "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: lookback "), err


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_model_shape_checked_before_the_pool(tmp_path, capsys, monkeypatch, command):
    # each started its worker processes, whose first job then failed
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", must_not_run)
    rc = main([command, "--workers", "2", "--dataset", "sine_mix", "--lookback", "33",
               "--horizons", "8", "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: lookback "), err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, message", [
    # each trained its first cell and printed its job line, then failed
    (["train", "--synth-length", "600", "--lookback", "48", "--horizons", "8,70", "--rank", "4"],
     "sine_mix/val: 108 steps cannot fit lookback 48 + horizon 70"),
    (["ablate", "lookback", "--synth-length", "300", "--lookback", "16,240",
      "--horizons", "8", "--rank", "4"],
     "sine_mix/train: 210 steps cannot fit lookback 240 + horizon 8"),
], ids=["train_horizon", "ablate_lookback"])
def test_a_cell_without_windows_fails_before_any_job(tmp_path, capsys, argv, message):
    rc = main([*argv, "--dataset", "sine_mix", "--max-epochs", "3", "--patience", "3",
               "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert not any(line.startswith("job ") for line in out.splitlines())
    assert err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["train", "--horizons", "8,16", "--rank", "4"],
                                     ["robustness", "--horizons", "8", "--eta-list", "0,0.7"],
                                     ["ablate", "dct", "--horizons", "8"]])
@pytest.mark.parametrize("outdir", ["afile/sub", "afile"])
def test_unwritable_outdir_fails_before_any_job(tmp_path, capsys, command, outdir):
    # printed every job line, then `[Errno 20] Not a directory: 'afile/sub'`
    # (root ignores mode bits, so a file in the path stands for them)
    (tmp_path / "afile").touch()
    rc = main([*command, "--dataset", "sine_mix", "--lookback", "48", *budget(command[0], 2),
               "--outdir", str(tmp_path / outdir)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.splitlines() == [f"error: outdir {str(tmp_path / outdir)!r}: {tmp_path / 'afile'}"
                                " is not a writable directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def exit_at_horizon_12(job, horizon, data, train_outputs=False):
    """run_single, except that the job at H=12 ends its process at once, as
    the kernel's out-of-memory killer would."""
    if horizon == 12:
        os._exit(9)
    return run_single(job, horizon, data, train_outputs)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker sees the patched run_single")
def test_dead_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a BrokenProcessPool traceback
    monkeypatch.setattr(hadl.cli, "run_single", exit_at_horizon_12)
    monkeypatch.setattr(hadl.cli.os, "sched_getaffinity", lambda pid: set(range(2)),
                        raising=False)
    rc = main(["train", "--workers", "2", "--dataset", "sine_mix", "--lookback", "32",
               "--horizons", "8,12", "--max-epochs", "1", "--patience", "1",
               "--outdir", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: a worker process died before its jobs finished"), err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag, value", [("--synth-length", "10000000000"),
                                         ("--synth-channels", "3000000")])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, flag, value):
    # numpy's _ArrayMemoryError traceback; raised here by a stand-in, since a
    # real allocation of that size can page in and get the process killed
    message = "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(hadl.data, "synth", out_of_memory)
    rc = main(["train", "--dataset", "random_walk", flag, value, "--lookback", "48",
               "--horizons", "24", "--max-epochs", "1", "--patience", "1",
               "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [f"error: out of memory: {message}"]
    assert not (tmp_path / "runs").exists()


NOT_UTF8 = b"date,a\n0,1\xe9\n1,2\n"  # was a UnicodeDecodeError traceback


@pytest.mark.parametrize("text, flag, message", [
    # five numpy RuntimeWarnings from fitting the scaler on no steps came first
    (b"date,a\n0,1\n", "--data-path", "error: one/train: 0 steps, nothing to fit the scaler on"),
    # loadtxt warns on a file without rows
    (b"date,a\n", "--data-path", "no data rows"),
    (NOT_UTF8, "--data-path", "one.csv: not UTF-8 text"),
    (NOT_UTF8, "--config", "one.csv: not UTF-8 text"),
    # channel b varies only after the 7-step train segment of the ratio split
    (b"date,a,b\n" + b"".join(b"%d,%d,%d\n" % (t, t, max(t - 5, 1)) for t in range(10)),
     "--data-path", "error: channel 1 is constant on the training segment"),
], ids=["one_row", "header_only", "not_utf8", "not_utf8_config", "constant_on_train"])
def test_unusable_csv_is_one_error_line(tmp_path, text, flag, message):
    csv_path = tmp_path / "one.csv"
    csv_path.write_bytes(text)
    # a fresh interpreter shows every warning numpy would print to a user
    proc = subprocess.run(
        [sys.executable, "-m", "hadl.cli", "train", "--dataset", "one", flag,
         str(csv_path), "--lookback", "4", "--horizons", "2", "--outdir", str(tmp_path / "runs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], proc.stderr
    assert not (tmp_path / "runs").exists()


def cache_run(tmp_path, capsys):
    """`hadl train` on a 3-channel CSV: exit code, stdout, stderr and every
    output file's bytes; the outputs are removed after reading."""
    csv_path = tmp_path / "wave.csv"
    if not csv_path.exists():
        rows = [f"t{i}," + ",".join(repr(float(np.sin(i / (3.0 + c)))) for c in range(3))
                for i in range(400)]
        csv_path.write_text("\n".join(["date,a,b,c", *rows]) + "\n")
    runs = tmp_path / "runs"
    rc = main(["train", "--dataset", "wave", "--data-path", str(csv_path), "--lookback", "32",
               "--horizons", "8", "--rank", "2", "--max-epochs", "2", "--patience", "2",
               "--outdir", str(runs)])
    out, err = capsys.readouterr()
    files = {str(p.relative_to(runs)): p.read_bytes() for p in sorted(runs.rglob("*"))
             if p.is_file()}
    shutil.rmtree(runs)
    return rc, out, err, files


def test_train_twice_misses_then_hits_the_ingest_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "__hadlcache__" / "wave.csv.npz"
    first = cache_run(tmp_path, capsys)
    assert first[0] == 0 and first[2] == "" and len(first[3]) == 5
    assert cache.is_file()
    # the command standardized its own array; the cache keeps the file's values
    raw = np.array([[np.sin(i / (3.0 + c)) for i in range(400)] for c in range(3)])
    assert np.array_equal(load_csv(tmp_path / "wave.csv", "ratio").series.values, raw)
    # a hit never opens the CSV as text
    monkeypatch.setattr(hadl.data, "open_text", must_not_run)
    assert cache_run(tmp_path, capsys) == first


def test_unwritable_ingest_cache_changes_nothing(tmp_path, capsys, monkeypatch):
    def denied(*args):
        raise PermissionError(13, "Permission denied")

    # tests may run as root, whom a read-only directory would not stop
    with monkeypatch.context() as patch:
        patch.setattr(hadl.data.os, "replace", denied)
        unwritable = cache_run(tmp_path, capsys)
    assert unwritable[0] == 0 and unwritable[2] == ""
    assert list((tmp_path / "__hadlcache__").iterdir()) == []
    assert cache_run(tmp_path, capsys) == unwritable


@pytest.mark.parametrize("command", ["train", "robustness", "ablate", "params"])
def test_config_commands_take_every_key(command):
    argv = [command, "dct"] if command == "ablate" else [command]
    argv += ["--config", "run.cfg"]
    for key in hadl.cli._KEY_TYPES:
        argv += ["--" + key.replace("_", "-"), f"{key}-value"]
    args = hadl.cli.build_parser().parse_args(argv)
    assert args.config == "run.cfg"
    assert all(getattr(args, key) == f"{key}-value" for key in hadl.cli._KEY_TYPES)
    if command != "params":
        assert hadl.cli.build_parser().parse_args([*argv[:-2], "--workers", "2"]).workers == 2


@pytest.mark.parametrize("argv", [
    ["params", "--workers", "2"],
    ["export-weights", "a.npz", "b.csv", "--rank", "4"],
    ["export-weights", "a.npz", "b.csv", "--config", "run.cfg"],
    ["export-weights", "a.npz", "b.csv", "--seed", "1,2"],
])
def test_a_flag_the_command_lacks_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hadl.cli", "params", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--lookback" in proc.stdout
    assert "--eta-list" in proc.stdout

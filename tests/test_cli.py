import concurrent.futures
import csv
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hadl.cli
import hadl.optim
from hadl.cli import (
    ExperimentConfig,
    _ablate_grid,
    cmd_ablate,
    cmd_export_weights,
    cmd_robustness,
    cmd_train,
    load_dataset,
    main,
    mix_seed,
    prepare_windows,
    read_config_file,
    run_single,
)
from hadl.errors import CorruptCheckpointError, HadlError, MissingZeroEtaError, UnknownAxisError
from hadl.model import (HEAD_LOW_RANK, effective_weight, init_model, load_checkpoint,
                        save_checkpoint)
from hadl.optim import dense_equivalent_grad_norm, steps_from_stats


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
            assert values["lookback"] == 64
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
        assert len(lines) == 28
        cfg_file.write_text("".join(lines), encoding="utf-8")
        assert ExperimentConfig(**read_config_file(cfg_file)) == default

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(HadlError):
            read_config_file(cfg_file)
        cfg_file.write_text("stride = 2\n")  # windows are always stride 1
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert "unknown config key 'stride'" in capsys.readouterr().err

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
        run_dir = tmp_path / "runs" / "sine_mix" / "haar-dct-lowrank_r4-bias" / "16"
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
            run_dir = Path(config.outdir) / "sine_mix" / "haar-dct-lowrank_r4-bias" / "16"
            csv_files = sorted(run_dir.glob("*.csv")) + sorted(run_dir.glob("*.json"))
            before = {p.name: p.read_bytes() for p in csv_files}
            cmd_train(config)
            after = {p.name: p.read_bytes() for p in csv_files}
            assert before == after

    def test_multi_seed_writes_one_row_each(self, tmp_path):
        config = synth_config(tmp_path, seeds=(1, 2))
        reports = cmd_train(config)
        assert [r.seed for r in reports] == [1, 2]
        run_dir = tmp_path / "runs" / "sine_mix" / "haar-dct-lowrank_r4-bias" / "16"
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

    def test_registry_supplies_path_and_convention(self, tmp_path):
        csv_path = tmp_path / "mini.csv"
        rows = ["date,a,b"] + [f"t{i},{np.sin(i / 3.0)},{np.cos(i / 5.0)}" for i in range(200)]
        csv_path.write_text("\n".join(rows) + "\n")
        registry = tmp_path / "datasets.txt"
        registry.write_text(f"mini = {csv_path}, ratio, 2\n")
        config = synth_config(
            tmp_path, dataset="mini", registry=str(registry), lookback=16,
            horizons=(4,), rank=2, max_epochs=3, patience=3,
        )
        reports = cmd_train(config)
        assert reports[0].dataset == "mini"

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
        assert (tmp_path / "runs" / "ETTh1" / "haar-dct-lowrank_r2-bias" / "8" / "eval.csv").exists()
        assert main(argv) == 1
        assert "convention 'etth' needs 14400" in capsys.readouterr().err

    def test_parallel_workers_match_serial(self, tmp_path):
        for channels in (3, 24):  # steps from rows, from statistics
            root = tmp_path / str(channels)
            serial = synth_config(tmp_path, outdir=str(root / "serial"), seeds=(1, 2),
                                  synth_channels=channels)
            parallel = synth_config(tmp_path, outdir=str(root / "parallel"), seeds=(1, 2),
                                    synth_channels=channels)
            cmd_train(serial)
            cmd_train(parallel, workers=2)
            serial_files = sorted((root / "serial").rglob("*.csv"))
            parallel_files = sorted((root / "parallel").rglob("*.csv"))
            assert [p.name for p in serial_files] == [p.name for p in parallel_files]
            for a, b in zip(serial_files, parallel_files):
                # traces and eval rows identical; only the outdir in the embedded
                # config fingerprint may differ
                a_lines = [l for l in a.read_text().splitlines() if not l.startswith("#")]
                b_lines = [l for l in b.read_text().splitlines() if not l.startswith("#")]
                assert a_lines == b_lines
            # trace_seed*.json, final_grad_norm included, computed in the workers
            serial_json = sorted((root / "serial").rglob("trace_seed*.json"))
            parallel_json = sorted((root / "parallel").rglob("trace_seed*.json"))
            assert len(serial_json) == 2
            for a, b in zip(serial_json, parallel_json):
                a_trace, b_trace = json.loads(a.read_text()), json.loads(b.read_text())
                del a_trace["config_fingerprint"], b_trace["config_fingerprint"]
                assert a_trace == b_trace

    def test_trace_grad_norm_is_the_returned_models(self, tmp_path):
        # 3 channels step from rows and take the norm from `window_stats`, as
        # this check does; 40 step from statistics and take it from the
        # training tables' totals, which agree to rounding
        for channels in (3, 40):
            root = tmp_path / str(channels)
            config = synth_config(root, horizons=(8, 16), seeds=(1, 2), max_epochs=3,
                                  patience=3, synth_channels=channels)
            cmd_train(config)
            data = load_dataset(config)
            for horizon in config.horizons:
                from_stats = steps_from_stats(channels, 32, horizon, 4, HEAD_LOW_RANK)
                assert from_stats == (channels == 40)
                run_dir = root / "runs" / "sine_mix" / "haar-dct-lowrank_r4-bias" / str(horizon)
                for seed in config.seeds:
                    best = load_checkpoint(run_dir / f"checkpoint_seed{seed}.npz")
                    w_train, _, _ = prepare_windows(replace(config, seed=seed), horizon, data)
                    written = json.loads((run_dir / f"trace_seed{seed}.json").read_text())
                    want = dense_equivalent_grad_norm(best, w_train)
                    if from_stats:
                        assert written["final_grad_norm"] == pytest.approx(want, rel=1e-12,
                                                                           abs=0.0)
                    else:
                        assert written["final_grad_norm"] == want


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
        cmd_train(synth_config(tmp_path, horizons=(8, 16), seeds=(1, 2, 3), max_epochs=2,
                               patience=2))
        assert len(calls) == 2 * 3

    def test_robustness_computes_none(self, tmp_path, monkeypatch):
        calls = count_grad_norms(monkeypatch)
        cmd_robustness(synth_config(tmp_path, eta_list=(0.0, 0.7), robust_max_epochs=2,
                                    robust_patience=2))
        assert calls == []

    def test_ablate_computes_none(self, tmp_path, monkeypatch):
        calls = count_grad_norms(monkeypatch)
        cmd_ablate(synth_config(tmp_path, horizons=(8,), ablate_rank=2, max_epochs=2,
                                patience=2), "head")
        assert calls == []


class TestFullSetPasses:
    """Validation MSEs come from the validation windows' statistics, so a job
    gathers windows for the test pass alone."""

    @pytest.mark.parametrize("channels, stats_per_job", [
        (40, 1),  # validation; the grad norm sums the training tables
        (3, 2),  # validation and the grad norm
    ])
    def test_one_evaluate_per_job(self, tmp_path, monkeypatch, channels, stats_per_job):
        assert steps_from_stats(channels, 32, 8, 4, HEAD_LOW_RANK) == (channels == 40)
        evaluations = count_calls(monkeypatch, hadl.cli, "evaluate")
        # any pass `train` made would call it on hadl.optim
        evaluations_in_train = count_calls(monkeypatch, hadl.optim, "evaluate")
        stats = count_calls(monkeypatch, hadl.optim, "window_stats")
        cmd_train(synth_config(tmp_path, horizons=(8, 16), seeds=(1, 2), max_epochs=3,
                               patience=3, synth_channels=channels))
        assert len(evaluations) == 4 and evaluations_in_train == []
        assert len(stats) == 4 * stats_per_job


class TestRobustnessCommand:
    def test_degenerate_sweep(self, tmp_path, capsys):
        config = synth_config(
            tmp_path, dataset="low_rank_target", eta_list=(0.0,),
            robust_max_epochs=5, robust_patience=5,
        )
        report = cmd_robustness(config)
        assert report.mav is None
        out = capsys.readouterr().out
        assert "MAV undefined" in out
        rob_csv = (
            tmp_path / "runs" / "low_rank_target" / "haar-dct-lowrank_r4-bias" / "16"
            / "robustness.csv"
        )
        assert "undefined" in rob_csv.read_text()

    def test_noise_sweep_on_realizable_task(self, tmp_path):
        config = synth_config(
            tmp_path, dataset="low_rank_target", eta_list=(0.0, 0.3, 0.7),
            robust_max_epochs=10, robust_patience=10,
        )
        report = cmd_robustness(config)
        assert len(report.nrr_per_eta) == 2
        assert report.mav is not None
        assert all(r > 0 for r in report.nrr_per_eta)
        run_dir = tmp_path / "runs" / "low_rank_target" / "haar-dct-lowrank_r4-bias" / "16"
        bundle = json.loads((run_dir / "robustness.json").read_text())
        assert list(bundle) == ["config", "config_fingerprint", "dataset", "eta_list",
                                "horizon", "mav", "mse_per_eta", "nrr_per_eta", "variant"]

    def test_parallel_workers_match_serial(self, tmp_path):
        kwargs = dict(dataset="low_rank_target", eta_list=(0.0, 0.3, 0.7),
                      robust_max_epochs=4, robust_patience=4)
        cmd_robustness(synth_config(tmp_path, outdir=str(tmp_path / "serial"), **kwargs))
        cmd_robustness(synth_config(tmp_path, outdir=str(tmp_path / "parallel"), **kwargs),
                       workers=2)
        run_dir = Path("low_rank_target") / "haar-dct-lowrank_r4-bias" / "16"
        serial, parallel = tmp_path / "serial" / run_dir, tmp_path / "parallel" / run_dir
        assert table_rows(serial / "robustness.csv") == table_rows(parallel / "robustness.csv")
        a, b = (json.loads((d / "robustness.json").read_text()) for d in (serial, parallel))
        for bundle in (a, b):
            # the embedded config differs in outdir, and so does its fingerprint
            del bundle["config"], bundle["config_fingerprint"]
        assert a == b

    def test_zero_eta_required(self, tmp_path):
        config = synth_config(tmp_path, eta_list=(0.3, 0.7))
        with pytest.raises(MissingZeroEtaError):
            cmd_robustness(config)


class TestAblateCommand:
    def test_rank_axis_param_column(self, tmp_path):
        config = synth_config(
            tmp_path, lookback=512, horizons=(96,), rank_list=(15, 35, 55, 75),
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
            tmp_path, lookback=512, horizons=(192,), with_bias=False, ablate_rank=40,
        )
        out_path = cmd_ablate(config, "head", params_only=True)
        with open(out_path, newline="") as handle:
            rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
        header, body = rows[0], rows[1:]
        assert [int(r[header.index("params")]) for r in body] == [17920, 49152]

    def test_lookback_axis_trains_one_row_per_length(self, tmp_path):
        config = synth_config(
            tmp_path, lookback_list=(32, 48), horizons=(8,), ablate_rank=2,
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
        config = synth_config(tmp_path, horizons=(8,), ablate_rank=2, max_epochs=2, patience=2)
        header, *body = table_rows(cmd_ablate(config, axis))
        data = load_dataset(config)
        expected = [repr(run_single(job, 8, data)[2].mse) for _, job in _ablate_grid(config, axis)]
        assert [r[header.index("mse")] for r in body] == expected
        assert expected[0] != expected[1]

    def test_haar_axis_grid(self, tmp_path):
        config = synth_config(tmp_path, horizons=(8,), ablate_rank=2, max_epochs=2, patience=2)
        out_path = cmd_ablate(config, "haar")
        text = open(out_path).read()
        assert "with_haar" in text and "without_haar" in text

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(UnknownAxisError):
            cmd_ablate(synth_config(tmp_path), "bogus", params_only=True)


class TestExportWeights:
    def test_zero_weight_export(self, tmp_path):
        model = init_model(8, 3, 2, seed=0)
        model.P[:] = 0.0
        ckpt = tmp_path / "m.npz"
        save_checkpoint(model, ckpt)
        out = tmp_path / "w.csv"
        cmd_export_weights(str(ckpt), str(out))
        matrix = np.loadtxt(out, delimiter=",")
        assert matrix.shape == (4, 3)
        assert_allclose(matrix, np.zeros((4, 3)), atol=0)

    def test_round_trip_matches_effective_weight(self, tmp_path):
        model = init_model(16, 5, 3, seed=4)
        ckpt = tmp_path / "m.npz"
        save_checkpoint(model, ckpt)
        out = tmp_path / "w.csv"
        cmd_export_weights(str(ckpt), str(out))
        matrix = np.loadtxt(out, delimiter=",")
        assert_allclose(matrix, effective_weight(model), atol=1e-12)

    def test_dense_checkpoint_round_trips_w(self, tmp_path):
        model = init_model(8, 3, 2, seed=0, head="dense")
        ckpt = tmp_path / "m.npz"
        save_checkpoint(model, ckpt)
        rc = main(["export-weights", str(ckpt), str(tmp_path / "w.csv")])
        assert rc == 0
        assert np.array_equal(np.loadtxt(tmp_path / "w.csv", delimiter=","), model.W)

    @pytest.mark.parametrize("case", ["q_columns", "meta_horizon", "nan_in_p", "missing_array",
                                      "float32_p", "head_names", "not_npz", "npy", "truncated"])
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
    (["--seeds", "1,1"], "seeds"),
    # ablate wrote each repeated row twice and an empty list as an empty table
    (["--rank-list", "4,4"], "rank_list"),
    (["--lookback-list", "48,48"], "lookback_list"),
    (["--rank-list="], "rank_list"),
    (["--lookback-list="], "lookback_list"),
    # each was a numpy ValueError traceback
    (["--seed=-1"], "seed"),
    (["--seeds", "1,-2"], "seeds"),
    (["--synth-channels", "0"], "synth_channels"),
    (["--synth-length=-1"], "synth_length"),
    # each trained an epoch, then failed as a diverged run
    (["--noise-eta", "inf"], "noise_eta"),
    (["--learning-rate", "inf"], "learning_rate"),
    (["--l1-lambda", "inf"], "l1_lambda"),
    (["--eta-list", "0,inf"], "eta_list"),  # train exited 0; robustness trained eta=0 first
])
def test_bad_config_value_is_one_error_line(tmp_path, capsys, flags, key):
    rc = main(["train", "--dataset", "sine_mix", "--lookback", "32", "--horizons", "8",
               *flags, "--outdir", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert rc == 1
    assert out == ""  # no job trained
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (tmp_path / "runs").exists()


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
    monkeypatch.setattr(hadl.cli.os, "cpu_count", lambda: 4)
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
    monkeypatch.setattr(hadl.cli.os, "cpu_count", lambda: 64)
    rc = main([command, "--workers", "64", "--dataset", "sine_mix", "--lookback", "32",
               *cells, "--max-epochs", "1", "--patience", "1", "--robust-max-epochs", "1",
               "--robust-patience", "1", "--outdir", str(tmp_path / "runs")])
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
    (["ablate", "rank", "--rank-list", "0", "--params-only"], "rank"),
    # each trained its valid cell and printed its job line first
    (["ablate", "lookback", "--lookback-list", "32,33", *TRAINABLE], "lookback"),
    (["ablate", "rank", "--rank-list", "2,0", "--lookback", "32", *TRAINABLE], "rank"),
    # the two commands that train nothing checked no training key: each exited 0
    (["params", "--patience", "0"], "patience"),
    (["params", "--learning-rate", "-1"], "learning_rate"),
    (["ablate", "rank", "--params-only", "--patience", "0"], "patience"),
    # loaded the dataset, then failed naming patience
    (["robustness", "--robust-patience", "0"], "robust_patience"),
]


@pytest.mark.parametrize("argv, key", IMPOSSIBLE,
                         ids=[f"argv{i}" for i in range(len(IMPOSSIBLE))])
def test_impossible_model_is_one_error_line(tmp_path, capsys, argv, key):
    rc = main(argv + ["--horizons", "96", "--outdir", str(tmp_path / "runs")])
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


NOT_UTF8 = b"date,a\n0,1\xe9\n1,2\n"  # was a UnicodeDecodeError traceback


@pytest.mark.parametrize("text, flag, message", [
    # five numpy RuntimeWarnings from fitting the scaler on no steps came first
    (b"date,a\n0,1\n", "--data-path", "error: one/train: 0 steps, nothing to fit the scaler on"),
    # loadtxt warns on a file without rows
    (b"date,a\n", "--data-path", "no data rows"),
    (NOT_UTF8, "--data-path", "one.csv: not UTF-8 text"),
    (NOT_UTF8, "--config", "one.csv: not UTF-8 text"),
    (NOT_UTF8, "--registry", "one.csv: not UTF-8 text"),
], ids=["one_row", "header_only", "not_utf8", "not_utf8_config", "not_utf8_registry"])
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


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hadl.cli", "params", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--lookback" in proc.stdout
    assert "--eta-list" in proc.stdout

"""Acceptance gate: one test per release criterion, at its stated tolerance.

Criteria 6 and 7 need the ETTh1 benchmark CSV (not distributed with the
package); point HADL_ETTH1 at the file or place it under data/ETTh1.csv.
When it is absent those two are reported as skipped and the rest must pass
on their own.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hadl.cli import ExperimentConfig, cmd_ablate, cmd_robustness, cmd_train
from hadl.data import fit_transform, split, synth, windows
from hadl.metrics import mav
from hadl.model import (HEAD_DENSE, HEAD_LOW_RANK, init_model, kilo_display,
                        param_count)
from hadl.optim import TrainConfig, train
from hadl.transforms import dct2_scaled
from oracles import (dct2_bruteforce, dct2_orthonormal, floor_kilo_display, gradcheck,
                     haar_forward, haar_inverse, improvement, signal_energy)

REPO_ROOT = Path(__file__).resolve().parents[1]


def etth1_path():
    candidates = [os.environ.get("HADL_ETTH1", ""), str(REPO_ROOT / "data" / "ETTh1.csv")]
    for candidate in candidates:
        if candidate and os.path.exists(candidate):
            return candidate
    return None


def test_criterion_1_transform_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    vectors_checked = 0
    for n in range(1, 65):
        for _ in range(2):
            x = rng.normal(size=n)
            oracle = dct2_bruteforce(x) / n  # 2/lookback with lookback = 2n, as on Haar rows
            ours = dct2_scaled(x, 2 * n)
            rel = np.abs(ours - oracle) / np.maximum(np.abs(oracle), 1e-12)
            assert np.max(rel) < 1e-9
            vectors_checked += 1
    assert vectors_checked >= 100

    for n in (2, 8, 64, 512):
        for _ in range(5):
            x = rng.normal(size=n)
            pair = haar_forward(x)
            assert np.max(np.abs(haar_inverse(pair) - x)) < 1e-12
            haar_energy = signal_energy(pair.approx) + signal_energy(pair.detail)
            assert abs(haar_energy / signal_energy(x) - 1.0) < 1e-9
            ratio = signal_energy(dct2_orthonormal(x)) / signal_energy(x)
            assert abs(ratio - 1.0) < 1e-9

    assert time.monotonic() - start < 5.0


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        d_in = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 6))
        rows = int(rng.integers(2, 5))
        model = init_model(2 * d_in, horizon, r, seed=i)
        X = rng.normal(size=(rows, 1, 2 * d_in))
        Y = rng.normal(size=(rows, 1, horizon))
        report = gradcheck(model, X, Y, l1_lambda=0.0, step=1e-6)
        worst = max(worst, report.max_rel_error)
    assert worst < 1e-5
    assert time.monotonic() - start < 10.0


def test_criterion_3_parameter_count_goldens():
    # rank-50 main-protocol cells (floor-at-one-decimal display)
    for horizon, total, shown in [
        (96, 17696, "17.6K"),
        (192, 22592, "22.5K"),
        (336, 29936, "29.9K"),
        (720, 49520, "49.5K"),
    ]:
        pc = param_count(512, horizon, 50, with_bias=True, use_haar=True)
        assert pc.total == total
        assert floor_kilo_display(pc.total) == shown

    # rank-40 haar ablation cells, with and without the compression stage
    for horizon, with_haar, shown_w, without_haar, shown_wo in [
        (96, 14176, "14.18K", 24416, "24.42K"),
        (192, 18112, "18.11K", 28352, "28.35K"),
        (336, 24016, "24.02K", 34256, "34.26K"),
        (720, 39760, "39.76K", 50000, "50.0K"),
    ]:
        pc_w = param_count(512, horizon, 40, True, use_haar=True)
        pc_wo = param_count(512, horizon, 40, True, use_haar=False)
        assert (pc_w.total, pc_wo.total) == (with_haar, without_haar)
        assert kilo_display(pc_w.total) == shown_w
        assert kilo_display(pc_wo.total) == shown_wo

    # rank-40 bias-free head comparison cells
    for horizon, low_rank, shown_lr, dense, shown_d in [
        (96, 14080, "14.08K", 24576, "24.58K"),
        (192, 17920, "17.92K", 49152, "49.15K"),
        (336, 23680, "23.68K", 86016, "86.02K"),
        (720, 39040, "39.04K", 184320, "184.32K"),
    ]:
        pc_lr = param_count(512, horizon, 40, False, True, HEAD_LOW_RANK)
        pc_d = param_count(512, horizon, 40, False, True, HEAD_DENSE)
        assert (pc_lr.total, pc_d.total) == (low_rank, dense)
        assert kilo_display(pc_lr.total) == shown_lr
        assert kilo_display(pc_d.total) == shown_d


def test_criterion_4_metric_goldens():
    etm2_best = {96: 0.164, 192: 0.221, 336: 0.274, 720: 0.360}
    etm2_ours = {96: 0.163, 192: 0.218, 336: 0.271, 720: 0.359}
    etm2_imp = {96: 0.001, 192: 0.003, 336: 0.003, 720: 0.001}
    for horizon in (96, 192, 336, 720):
        assert round(improvement(etm2_best[horizon], etm2_ours[horizon]), 3) == pytest.approx(
            etm2_imp[horizon]
        )

    traffic_best = {96: 0.367, 192: 0.390, 336: 0.397, 720: 0.433}
    traffic_ours = {96: 0.412, 192: 0.433, 336: 0.445, 720: 0.481}
    traffic_imp = {96: -0.045, 192: -0.043, 336: -0.048, 720: -0.048}
    for horizon in (96, 192, 336, 720):
        assert round(
            improvement(traffic_best[horizon], traffic_ours[horizon]), 3
        ) == pytest.approx(traffic_imp[horizon])

    assert mav([1.002, 1.007, 1.028, 1.044]) == pytest.approx(0.020, abs=0.0005)


def test_criterion_5_realizable_task_convergence():
    start = time.monotonic()
    ds = synth("low_rank_target", length=480, channels=3, seed=0)
    train_seg, val_seg, _ = split(ds, "ratio", lookback=64)
    _, train_seg, val_seg = fit_transform(train_seg, val_seg)
    w_train = windows(train_seg, 64, 16)
    w_val = windows(val_seg, 64, 16)
    config = TrainConfig(
        learning_rate=0.01, l1_lambda=0.0, max_epochs=200, patience=200,
        batch_size=64, seed=1,
    )
    model = init_model(64, 16, 2, seed=5)
    _, trace, _ = train(model, w_train, w_val, config)
    assert min(trace.val_mse) < 1e-4
    assert len(trace.val_mse) <= 200
    assert time.monotonic() - start < 30.0


def test_criterion_6_benchmark_reproduction(tmp_path):
    path = etth1_path()
    if path is None:
        pytest.skip("ETTh1.csv not available; place it under data/ or set HADL_ETTH1")
    start = time.monotonic()
    config = ExperimentConfig(
        dataset="ETTh1", data_path=path, lookback=512, horizons=(96,), rank=50,
        outdir=str(tmp_path / "runs"), seed=0,
    )
    reports = cmd_train(config)
    elapsed = time.monotonic() - start
    assert 0.34 <= reports[0].mse <= 0.40, f"test MSE {reports[0].mse:.4f} outside [0.34, 0.40]"
    assert elapsed < 300.0, f"run took {elapsed:.0f}s, budget 300s"


def test_criterion_7_robustness_trend(tmp_path):
    path = etth1_path()
    if path is None:
        pytest.skip("soft skip: ETTh1.csv not available for the robustness trend check")
    config = ExperimentConfig(
        dataset="ETTh1", data_path=path, lookback=512, horizons=(192,), rank=50,
        eta_list=(0.0, 0.3, 0.7, 1.3, 1.7, 2.3), robust_max_epochs=50,
        robust_patience=10, outdir=str(tmp_path / "runs"), seed=0,
    )
    [report] = cmd_robustness(config)
    nrr_at_03 = report.nrr_per_eta[0]
    assert 0.99 <= nrr_at_03 <= 1.01, f"NRR(0.3) = {nrr_at_03:.4f} outside [0.99, 1.01]"
    assert report.mav <= 0.03, f"MAV {report.mav:.4f} > 0.03"


def test_criterion_8_determinism(tmp_path):
    config = ExperimentConfig(
        dataset="sine_mix", lookback=64, horizons=(16,), rank=4,
        max_epochs=8, patience=8, learning_rate=0.01, seed=7,
        outdir=str(tmp_path / "runs"), synth_length=480, synth_channels=3,
        eta_list=(0.0, 0.3), robust_max_epochs=4, robust_patience=4, rank_list=(2, 4),
    )
    commands = (cmd_train, cmd_robustness, lambda c: cmd_ablate(c, "rank"))
    for command in commands:
        command(config)
    out_root = Path(config.outdir)
    files = sorted(p for p in out_root.rglob("*") if p.suffix in (".csv", ".json"))
    assert (out_root / "sine_mix" / "ablate_rank.csv") in files
    before = {str(p): p.read_bytes() for p in files}
    for command in commands:
        command(config)
    after = {str(p): p.read_bytes() for p in files}
    assert before == after

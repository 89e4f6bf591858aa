import numpy as np
import pytest
from numpy.testing import assert_allclose

from hadl.errors import EmptyInputError, ShapeMismatchError, ZeroBaselineError
from hadl.metrics import (
    EVAL_CSV_COLUMNS,
    EvalReport,
    mav,
    mse,
    nrr,
    robustness_report,
    write_eval_csv,
    write_robustness_csv,
)
from oracles import improvement, mae

# Published benchmark MSE columns used as desk-scale goldens below. Rows are
# the seven reference models, columns the four horizons; "ours" rows are the
# regularized variant of this architecture.
ETTM2_BASELINES = {
    96: [0.164, 0.188, 0.165, 0.169, 0.204, 0.173, 0.179],
    192: [0.223, 0.250, 0.221, 0.232, 0.333, 0.225, 0.254],
    336: [0.277, 0.326, 0.274, 0.307, 0.342, 0.277, 0.314],
    720: [0.381, 0.391, 0.360, 0.385, 0.570, 0.362, 0.389],
}
ETTM2_OURS = {96: 0.163, 192: 0.218, 336: 0.271, 720: 0.359}
ETTM2_IMPROVEMENT = {96: 0.001, 192: 0.003, 336: 0.003, 720: 0.001}

TRAFFIC_BASELINES = {
    96: [0.489, 0.433, 0.367, 0.392, 0.418, 0.427, 0.398],
    192: [0.498, 0.462, 0.390, 0.406, 0.430, 0.441, 0.414],
    336: [0.506, 0.443, 0.397, 0.415, 0.440, 0.454, 0.428],
    720: [0.541, 0.489, 0.433, 0.464, 0.479, 0.487, 0.471],
}
TRAFFIC_OURS = {96: 0.412, 192: 0.433, 336: 0.445, 720: 0.481}
TRAFFIC_IMPROVEMENT = {96: -0.045, 192: -0.043, 336: -0.048, 720: -0.048}


class TestMseMae:
    def test_exact_fit(self):
        x = np.arange(6.0).reshape(2, 3)
        assert mse(x, x.copy()) == 0.0
        assert mae(x, x.copy()) == 0.0

    def test_unit_residuals(self):
        pred = np.array([1.0, -1.0])
        target = np.zeros(2)
        assert mse(pred, target) == pytest.approx(1.0)
        assert mae(pred, target) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        pred = np.array([3.0, -1.0, 0.0, 2.0])
        target = np.zeros(4)
        assert mse(pred, target) == pytest.approx(3.5)
        assert mae(pred, target) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mae(np.zeros(0), np.zeros(0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred, target = rng.normal(size=30), rng.normal(size=30)
        perm = rng.permutation(30)
        assert mse(pred, target) == pytest.approx(mse(pred[perm], target[perm]), rel=1e-12)
        assert mae(pred, target) == pytest.approx(mae(pred[perm], target[perm]), rel=1e-12)

    def test_residual_scaling(self):
        rng = np.random.default_rng(1)
        pred, target = rng.normal(size=20), rng.normal(size=20)
        alpha = 2.5
        scaled_pred = target + alpha * (pred - target)
        assert mse(scaled_pred, target) == pytest.approx(alpha**2 * mse(pred, target), rel=1e-12)
        assert mae(scaled_pred, target) == pytest.approx(alpha * mae(pred, target), rel=1e-12)


class TestImprovement:
    def test_positive_when_ours_wins(self):
        assert improvement(0.164, 0.163) == pytest.approx(0.001, abs=1e-12)

    def test_negative_when_baseline_wins(self):
        assert improvement(0.367, 0.412) == pytest.approx(-0.045, abs=1e-12)

    def test_zero_on_tie(self):
        assert improvement(0.5, 0.5) == 0.0

    @pytest.mark.parametrize("horizon", [96, 192, 336, 720])
    def test_published_rows_reproduced(self, horizon):
        best = min(ETTM2_BASELINES[horizon])
        assert round(improvement(best, ETTM2_OURS[horizon]), 3) == pytest.approx(
            ETTM2_IMPROVEMENT[horizon]
        )
        best = min(TRAFFIC_BASELINES[horizon])
        assert round(improvement(best, TRAFFIC_OURS[horizon]), 3) == pytest.approx(
            TRAFFIC_IMPROVEMENT[horizon]
        )


class TestNrr:
    def test_equal_mse_gives_one(self):
        assert nrr(0.35, 0.35) == pytest.approx(1.0)

    def test_published_ratio(self):
        assert nrr(0.428, 0.427) == pytest.approx(1.0023, abs=5e-5)
        assert round(nrr(0.428, 0.427), 3) == pytest.approx(1.002)

    def test_larger_ratio(self):
        assert nrr(0.525, 0.427) == pytest.approx(1.2295, abs=5e-5)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            nrr(0.4, 0.0)


class TestMav:
    def test_all_ones(self):
        assert mav([1.0, 1.0, 1.0]) == 0.0

    def test_published_cell(self):
        assert mav([1.002, 1.007, 1.028, 1.044]) == pytest.approx(0.02025, abs=1e-12)
        assert mav([1.002, 1.007, 1.028, 1.044]) == pytest.approx(0.020, abs=0.0005)

    def test_symmetry(self):
        assert mav([0.9, 1.1]) == pytest.approx(0.1)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mav([])

    @pytest.mark.parametrize(
        "mses,printed",
        [
            # per-eta MSE columns for this model family at the benchmark
            # noise grid {0, 0.3, 0.7, 1.3, 1.7}; printed 3-decimal MAVs
            ([0.397, 0.397, 0.398, 0.404, 0.411], 0.013),
            ([0.396, 0.396, 0.398, 0.406, 0.413], 0.018),
        ],
    )
    def test_mav_recomputed_from_mse_columns(self, mses, printed):
        ratios = [nrr(m, mses[0]) for m in mses[1:]]
        assert mav(ratios) == pytest.approx(printed, abs=0.002)


class TestRobustnessReport:
    def test_derivation(self):
        report = robustness_report([0.0, 0.3, 0.7], [0.40, 0.42, 0.46])
        assert report.nrr_per_eta == pytest.approx((1.05, 1.15))
        assert report.mav == pytest.approx(0.1)

    def test_requires_zero_first(self):
        with pytest.raises(ZeroBaselineError):
            robustness_report([0.3, 0.7], [0.4, 0.5])

    def test_degenerate_sweep_has_no_mav(self):
        report = robustness_report([0.0], [0.4])
        assert report.nrr_per_eta == ()
        assert report.mav is None

    def test_csv_marks_undefined_mav(self, tmp_path):
        report = robustness_report([0.0], [0.4])
        path = tmp_path / "rob.csv"
        write_robustness_csv(report, path, fingerprint="abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint=abc"
        assert lines[1] == "eta,mse,nrr,mav"
        assert lines[2].endswith("undefined")

    def test_csv_full_sweep(self, tmp_path):
        report = robustness_report([0.0, 0.3], [0.5, 0.55])
        path = tmp_path / "rob.csv"
        write_robustness_csv(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        eta_row = lines[1].split(",")
        assert float(eta_row[0]) == 0.0 and eta_row[2] == ""
        noisy_row = lines[2].split(",")
        assert float(noisy_row[2]) == pytest.approx(1.1)
        assert float(noisy_row[3]) == pytest.approx(report.mav)


def test_eval_csv_round_trip(tmp_path):
    report = EvalReport(
        dataset="toy", horizon=16, use_haar=True, use_dct=True, head="low_rank",
        with_bias=True, rank=2, seed=3, noise_eta=0.0, mse=0.125, mae=0.25,
    )
    path = tmp_path / "eval.csv"
    write_eval_csv([report], path, fingerprint="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_fingerprint=deadbeef"
    assert lines[1] == ("dataset,horizon,use_haar,use_dct,head,with_bias,rank,seed,"
                        "noise_eta,mse,mae")
    cells = lines[2].split(",")
    assert cells[0] == "toy"
    assert float(cells[EVAL_CSV_COLUMNS.index("mse")]) == 0.125

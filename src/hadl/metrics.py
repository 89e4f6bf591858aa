"""Error metrics, derived comparison statistics, and report serialization.

Conventions: `nrr` is the ratio of noisy-trained test MSE to noise-free test
MSE; `mav` is the mean absolute deviation of NRR values from 1, computed over
whatever noisy intensities a run actually used, so MAVs are only comparable
across identical eta lists (the list is recorded in the report).
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import EmptyInputError, ShapeMismatchError, ZeroBaselineError


def mse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise EmptyInputError("mse of empty arrays")
    diff = pred - target
    return float(np.mean(diff * diff))


def nrr(mse_eta: float, mse_zero: float) -> float:
    """Noise-resilience ratio: MSE trained at eta over MSE trained clean."""
    if mse_zero <= 0.0:
        raise ZeroBaselineError(f"noise-free MSE must be positive, got {mse_zero}")
    return float(mse_eta) / float(mse_zero)


def mav(nrr_list) -> float:
    """Mean absolute deviation of NRR values from 1 (lower = more robust)."""
    values = np.asarray(list(nrr_list), dtype=np.float64)
    if values.size == 0:
        raise EmptyInputError("mav of an empty NRR list")
    return float(np.mean(np.abs(values - 1.0)))


@dataclass(frozen=True)
class EvalReport:
    """Test-set errors for one (dataset, horizon, variant, eta, seed) cell."""

    dataset: str
    horizon: int
    use_haar: bool
    use_dct: bool
    head: str
    with_bias: bool
    rank: int | None
    seed: int
    noise_eta: float
    mse: float
    mae: float


@dataclass(frozen=True)
class RobustnessReport:
    """One robustness sweep: clean + noisy MSEs and the derived statistics.

    nrr_per_eta has one entry per eta > 0 (in eta_list order); mav is None
    when the sweep contains no noisy setting.
    """

    eta_list: tuple[float, ...]
    mse_per_eta: tuple[float, ...]
    nrr_per_eta: tuple[float, ...]
    mav: float | None


def robustness_report(eta_list, mse_per_eta) -> RobustnessReport:
    """Derive NRR/MAV from per-eta clean-test MSEs; eta_list[0] must be 0."""
    etas = tuple(float(e) for e in eta_list)
    mses = tuple(float(m) for m in mse_per_eta)
    if len(etas) != len(mses):
        raise ShapeMismatchError("eta_list and mse_per_eta lengths differ")
    if not etas or etas[0] != 0.0:
        raise ZeroBaselineError("eta_list must start with the noise-free setting 0.0")
    ratios = tuple(nrr(m, mses[0]) for e, m in zip(etas, mses) if e > 0.0)
    return RobustnessReport(
        eta_list=etas,
        mse_per_eta=mses,
        nrr_per_eta=ratios,
        mav=mav(ratios) if ratios else None,
    )


# The eval.csv columns are EvalReport's fields in declaration order; their
# names and order are part of the output contract. csv.writer writes a float
# as its repr and None as an empty cell, so rows round-trip exactly and
# re-runs are byte-identical.
EVAL_CSV_COLUMNS = [f.name for f in fields(EvalReport)]


def write_table(path, header: list[str], rows, fingerprint: str) -> None:
    """A CSV of raw-valued rows under a `# config_fingerprint=` line
    (omitted when the fingerprint is empty) and the header."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if fingerprint:
            handle.write(f"# config_fingerprint={fingerprint}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_eval_csv(reports: list[EvalReport], path, fingerprint: str = "") -> None:
    write_table(path, EVAL_CSV_COLUMNS, map(astuple, reports), fingerprint)


ROBUSTNESS_CSV_COLUMNS = ["eta", "mse", "nrr", "mav"]


def write_robustness_csv(report: RobustnessReport, path, fingerprint: str = "") -> None:
    """One row per eta; nrr empty on the clean row, mav only on the last row.

    A sweep without noisy settings marks mav as 'undefined'.
    """
    noisy = iter(report.nrr_per_eta)
    rows = [[eta, m, next(noisy) if eta > 0.0 else "", ""]
            for eta, m in zip(report.eta_list, report.mse_per_eta)]
    if rows:
        rows[-1][-1] = "undefined" if report.mav is None else report.mav
    write_table(path, ROBUSTNESS_CSV_COLUMNS, rows, fingerprint)


def write_json_bundle(payload: dict, path) -> None:
    """Deterministic JSON (sorted keys, fixed separators, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

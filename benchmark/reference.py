"""Independent reference for the figures hadl writes, built without hadl.

The test MSE is recomputed from a saved checkpoint's arrays and the
generated series: own split and z-score, own windows, own Haar step, own
cosine-matrix DCT-II scaled by 2/L, then (A @ P) @ Q + bias. NRR and MAV
are recomputed from the per-eta MSEs of a robustness table.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ETTH_STEPS = (8640, 2880, 2880)


def split_edges(split: str, rows: int) -> tuple[int, int, int]:
    """(train_end, val_end, test_end) row indices of the named split."""
    if split == "etth":
        train, val, test = ETTH_STEPS
    elif split == "ratio":
        train, val = int(0.7 * rows), int(0.1 * rows)
        test = rows - train - val
    else:
        raise ValueError(f"unknown split {split!r}")
    return train, train + val, train + val + test


def haar(x: np.ndarray) -> np.ndarray:
    """Approximation half of a one-level Haar step along the last axis."""
    return (x[..., 0::2] + x[..., 1::2]) / math.sqrt(2.0)


def dct_features(n: int, lookback: int) -> np.ndarray:
    """(n, n) matrix D with (x @ D)[k] = (2/lookback) sum_m x[m] cos(pi (m + 1/2) k / n)."""
    m = np.arange(n, dtype=np.float64)[:, None]
    k = np.arange(n, dtype=np.float64)[None, :]
    return (2.0 / lookback) * np.cos(math.pi * (m + 0.5) * k / n)


def predict(X: np.ndarray, P: np.ndarray, Q: np.ndarray, bias: np.ndarray,
            lookback: int) -> np.ndarray:
    """Forecast (..., H) from raw windows (..., lookback)."""
    A = haar(X) @ dct_features(lookback // 2, lookback)
    return (A @ P) @ Q + bias


def test_mse(values: np.ndarray, split: str, lookback: int, P: np.ndarray,
             Q: np.ndarray, bias: np.ndarray) -> float:
    """Test MSE of a low-rank checkpoint on a (rows, channels) series.

    The test segment keeps `lookback` rows of left context; statistics come
    from the training rows only. Channels are scored one at a time to keep
    memory small.
    """
    horizon = Q.shape[1]
    train_end, val_end, test_end = split_edges(split, values.shape[0])
    mean = values[:train_end].mean(axis=0)
    std = values[:train_end].std(axis=0)
    segment = (values[val_end - lookback:test_end] - mean) / std
    total, count = 0.0, 0
    for channel in range(values.shape[1]):
        w = sliding_window_view(segment[:, channel], lookback + horizon)
        err = predict(w[:, :lookback], P, Q, bias, lookback) - w[:, lookback:]
        total += float(np.sum(err * err))
        count += err.size
    return total / count


def nrr_mav(etas: list[float], mses: list[float]) -> tuple[list[float], float]:
    """NRR of every noisy eta against the eta = 0 MSE, and their MAV."""
    clean = mses[etas.index(0.0)]
    ratios = [m / clean for e, m in zip(etas, mses) if e > 0.0]
    return ratios, sum(abs(r - 1.0) for r in ratios) / len(ratios)

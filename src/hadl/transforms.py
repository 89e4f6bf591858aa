"""Deterministic signal transforms: single-level Haar DWT and DCT-II.

All functions are pure, operate on float64 numpy arrays and apply along the
last axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError

SQRT2 = math.sqrt(2.0)


def haar_batch(X) -> np.ndarray:
    """Haar approximation coefficients along the last axis; details dropped.

    Accepts any array shaped (..., L) with L even and returns (..., L/2).
    Rows are transformed independently.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[-1]
    if n < 2:
        raise ShapeMismatchError(f"need at least 2 samples, got {n}")
    if n % 2 != 0:
        raise ShapeMismatchError(f"length must be even, got {n}")
    return (X[..., 0::2] + X[..., 1::2]) / SQRT2


def haar_pairs(x) -> np.ndarray:
    """Haar approximation of every adjacent pair along the last axis.

    s[..., j] = (x[..., j] + x[..., j+1]) / sqrt(2), shape (..., N-1). The
    Haar approximation of the length-L window starting at t is s[..., t :
    t+L-1 : 2], bit-identical to `haar_batch` on that window, so one pass
    over a series serves every window cut from it.
    """
    x = np.asarray(x, dtype=np.float64)
    return (x[..., :-1] + x[..., 1:]) / SQRT2


def haar_halves(x) -> tuple[np.ndarray, np.ndarray]:
    """`haar_pairs(x)` split by parity, built straight from x: halves[p] =
    haar_pairs(x)[..., p::2] bit for bit. The Haar approximation of the
    length-L window starting at t is then the contiguous slice halves[t %
    2][..., t//2 : t//2 + L/2]. Each half is divided in place, so the two
    together never hold more than one `haar_pairs` series."""
    x = np.asarray(x, dtype=np.float64)
    halves = []
    for p in (0, 1):
        half = x[..., p:-1:2] + x[..., p + 1 :: 2]
        half /= SQRT2
        halves.append(half)
    return halves[0], halves[1]


def dct2_scaled(A, lookback: int) -> np.ndarray:
    """DCT-II scaled by 2/lookback, applied along the last axis:

    coeffs[k] = 2/lookback * sum_m A[m] * cos(pi * (m + 1/2) * k / N),

    a direct matrix product, exact enough at the lengths used here and
    bit-stable run to run. N must be lookback/2 (Haar rows, where the
    factor is 1/N) or lookback (raw windows, the Haar stage off), so the
    constant is the same in every ablation variant.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[-1]
    if n < 1 or lookback not in (n, 2 * n):
        raise ShapeMismatchError(
            f"last axis has length {n}, expected lookback/2 or lookback (lookback {lookback})"
        )
    # M[k, m] = cos(pi * (m + 1/2) * k / n); y = M @ x
    k = np.arange(n, dtype=np.float64)[:, None]
    m = np.arange(n, dtype=np.float64)[None, :]
    return (2.0 / lookback) * (A @ np.cos(np.pi * (m + 0.5) * k / n).T)

"""Deterministic signal transforms: single-level Haar DWT and DCT-II.

All functions are pure, operate on float64 numpy arrays and apply along the
last axis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OddLengthError, ShapeMismatchError, TooShortError

SQRT2 = math.sqrt(2.0)


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_even_length(n: int) -> None:
    if n < 2:
        raise TooShortError(f"need at least 2 samples, got {n}")
    if n % 2 != 0:
        raise OddLengthError(f"length must be even, got {n}")


def haar_batch(X) -> np.ndarray:
    """Haar approximation coefficients along the last axis; details dropped.

    Accepts any array shaped (..., L) with L even and returns (..., L/2).
    Rows are transformed independently.
    """
    X = _as_f64(X)
    _check_even_length(X.shape[-1])
    return (X[..., 0::2] + X[..., 1::2]) / SQRT2


def haar_pairs(x) -> np.ndarray:
    """Haar approximation of every adjacent pair along the last axis.

    s[..., j] = (x[..., j] + x[..., j+1]) / sqrt(2), shape (..., N-1). The
    Haar approximation of the length-L window starting at t is s[..., t :
    t+L-1 : 2], bit-identical to `haar_batch` on that window, so one pass
    over a series serves every window cut from it.
    """
    x = _as_f64(x)
    return (x[..., :-1] + x[..., 1:]) / SQRT2


@lru_cache(maxsize=16)
def _dct2_matrix(n: int) -> np.ndarray:
    # M[k, m] = cos(pi * (m + 1/2) * k / n); y = M @ x
    k = np.arange(n, dtype=np.float64)[:, None]
    m = np.arange(n, dtype=np.float64)[None, :]
    mat = np.cos(np.pi * (m + 0.5) * k / n)
    mat.setflags(write=False)
    return mat


def dct2_raw(x) -> np.ndarray:
    """Unnormalized DCT-II along the last axis.

    coeffs[k] = sum_m x[m] * cos(pi * (m + 1/2) * k / N), k = 0..N-1.
    Computed as a direct matrix product; exact enough at the lengths used
    here (N <= 512) and bit-stable run to run.
    """
    x = _as_f64(x)
    n = x.shape[-1]
    if n < 1:
        raise ShapeMismatchError("empty input")
    return x @ _dct2_matrix(n).T


def dct2_scaled(A_T, lookback: int) -> np.ndarray:
    """DCT-II scaled by 2/lookback, applied along the last axis.

    The input is expected to be the Haar approximation half, so its length
    must equal lookback/2; the 2/lookback factor then equals 1/N.
    """
    A_T = _as_f64(A_T)
    n = A_T.shape[-1]
    if 2 * n != lookback:
        raise ShapeMismatchError(
            f"last axis has length {n}, expected lookback/2 = {lookback // 2}"
        )
    return (2.0 / lookback) * dct2_raw(A_T)

"""Test oracles: slow or independent reference implementations that the
suite checks the hadl pipeline against, and a finite-difference gradient
check. Nothing in the package calls them.

The Haar inverse and the orthonormal DCT verify the energy properties that
justify the pipeline; the double-loop DCT is independent of the matrix
product `hadl.transforms.dct2_scaled` uses; `gradients` and `gradcheck` check
the trainer's closed-form gradients against central differences of `loss`;
`forecast_mse` is the MSE of materialized forecasts, which the package takes
from window statistics instead; `reference_step`, `textbook_adam` and
`reference_train` are the training step, the ADAM update and the loop with
every array freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hadl.errors import EmptyInputError, HadlError, ShapeMismatchError
from hadl.model import (HEAD_LOW_RANK, HadlModel, dct_matrix, fold_dct, forward, haar_rows,
                        model_params, replace_params, window_rows)
from hadl.optim import (BETA1, BETA2, EPSILON, _gradients_from_rows, adam_step, init_adam,
                        l1_penalty)
from hadl.transforms import SQRT2, dct2_scaled


class InvalidStepError(HadlError):
    """Finite-difference step must be a positive number."""


# -- transforms ---------------------------------------------------------------

@dataclass(frozen=True)
class HaarPair:
    """Approximation and detail halves of a one-level Haar decomposition.

    Both halves have length N/2 for an even-length input of length N and keep
    the units of the input. `haar_inverse` reconstructs the input exactly.
    """

    approx: np.ndarray
    detail: np.ndarray


def haar_forward(x) -> HaarPair:
    """One-level Haar decomposition of an even-length vector.

    approx[k] = (x[2k] + x[2k+1]) / sqrt(2)
    detail[k] = (-x[2k] + x[2k+1]) / sqrt(2)
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d vector, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ShapeMismatchError(f"need at least 2 samples, got {n}")
    if n % 2 != 0:
        raise ShapeMismatchError(f"length must be even, got {n}")
    even, odd = x[0::2], x[1::2]
    return HaarPair(approx=(even + odd) / SQRT2, detail=(odd - even) / SQRT2)


def haar_inverse(pair: HaarPair) -> np.ndarray:
    """Invert `haar_forward`: exact reconstruction of the original vector."""
    approx = np.asarray(pair.approx, dtype=np.float64)
    detail = np.asarray(pair.detail, dtype=np.float64)
    if approx.shape != detail.shape or approx.ndim != 1:
        raise ShapeMismatchError(
            f"approx/detail shapes differ: {approx.shape} vs {detail.shape}"
        )
    out = np.empty(2 * approx.shape[0], dtype=np.float64)
    out[0::2] = (approx - detail) / SQRT2
    out[1::2] = (approx + detail) / SQRT2
    return out


def dct2_orthonormal(x) -> np.ndarray:
    """Orthonormal DCT-II; preserves Euclidean energy exactly.

    y[k] = s_k * sqrt(2/N) * sum_m x[m] cos(pi (m+1/2) k / N),
    s_0 = 1/sqrt(2), s_k = 1 otherwise: the energy conservation that
    justifies predicting straight from the spectrum.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    # the raw DCT-II is dct2_scaled(x, n) * n/2; times sqrt(2/n) that is sqrt(n/2)
    y = dct2_scaled(x, n) * math.sqrt(n / 2.0)
    y[..., 0] /= SQRT2
    return y


def dct2_bruteforce(x) -> np.ndarray:
    """Literal double-loop DCT-II, independent of the matrix-product path."""
    x = [float(v) for v in np.asarray(x).ravel()]
    n = len(x)
    out = np.empty(n, dtype=np.float64)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += x[m] * math.cos(math.pi * (m + 0.5) * k / n)
        out[k] = acc
    return out


def signal_energy(x) -> float:
    """Sum of squared entries, the quantity both energy checks compare."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x * x))


# -- model --------------------------------------------------------------------

def models_equal(a: HadlModel, b: HadlModel) -> bool:
    """Bit-exact equality of flags, shapes and parameters."""
    flags = lambda m: (m.lookback, m.horizon, m.use_haar, m.use_dct, m.head, m.seed)
    if flags(a) != flags(b):
        return False
    for pa, pb in ((a.P, b.P), (a.Q, b.Q), (a.W, b.W), (a.bias, b.bias)):
        if (pa is None) != (pb is None):
            return False
        if pa is not None and not np.array_equal(pa, pb, equal_nan=True):
            return False
    return True


# -- metrics ------------------------------------------------------------------

def mae(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise EmptyInputError("mae of empty arrays")
    return float(np.mean(np.abs(pred - target)))


def floor_kilo_display(total: int) -> str:
    """A parameter count in thousands truncated to one decimal, the
    convention of the paper's summary table: 17696 -> '17.6K'."""
    return f"{total // 100 / 10:.1f}K"


def improvement(mse_best_baseline: float, mse_ours: float) -> float:
    """Signed MSE gap; positive means ours beats the best baseline."""
    return float(mse_best_baseline) - float(mse_ours)


# -- optim --------------------------------------------------------------------

def forecast_mse(model: HadlModel, batch) -> float:
    """MSE (no L1 term) of `forward` on every window of a WindowBatch,
    copied whole."""
    diff = forward(model, np.array(batch.inputs)) - batch.targets
    return float(np.vdot(diff, diff)) / diff.size


def loss(pred, target, model: HadlModel, l1_lambda: float) -> float:
    """Mean squared error plus l1_lambda times the weight L1 norm."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    value = float(np.mean(diff * diff))
    if l1_lambda > 0.0:
        value += l1_lambda * l1_penalty(model_params(model))
    return value


def gradients(model: HadlModel, X_batch, Y_batch, l1_lambda: float) -> dict[str, np.ndarray]:
    """The trainer's analytic gradients of `loss` for a raw (batch, channels,
    L) batch, keyed like `model_params`. Channels share the head, so every
    (window, channel) pair contributes one row."""
    X_batch = np.asarray(X_batch, dtype=np.float64)
    Y_batch = np.asarray(Y_batch, dtype=np.float64)
    if X_batch.shape[:-1] != Y_batch.shape[:-1]:
        raise ShapeMismatchError(
            f"batch/channel dims differ: {X_batch.shape} vs {Y_batch.shape}"
        )
    if Y_batch.shape[-1] != model.horizon:
        raise ShapeMismatchError(
            f"target length {Y_batch.shape[-1]} != horizon {model.horizon}"
        )
    S = haar_rows(model, X_batch)
    grads, _, _ = _gradients_from_rows(model, (S, Y_batch, np.empty_like(Y_batch)), l1_lambda)
    return grads


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    mean_rel_error: float
    n_params: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradcheck(
    model: HadlModel,
    X,
    Y,
    l1_lambda: float = 0.0,
    step: float = 1e-6,
    tolerance: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Perturbs every parameter entry by +-step and differences the full loss.
    Intended for small instances (<= ~1e4 parameters). Relative error uses
    max(|analytic|, |numeric|, 1e-8) as the denominator.
    """
    if step <= 0.0:
        raise InvalidStepError(f"step must be positive, got {step}")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)

    analytic = gradients(model, X, Y, l1_lambda)
    params = {k: v.copy() for k, v in model_params(model).items()}
    perturbed = replace_params(model, params)  # holds the arrays perturbed in place below

    errors = []
    for name, base in params.items():
        flat = base.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss(forward(perturbed, X), Y, perturbed, l1_lambda)
            flat[i] = original - step
            down = loss(forward(perturbed, X), Y, perturbed, l1_lambda)
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            errors.append(abs(a - numeric) / denom)
    errors = np.asarray(errors)
    return GradCheckReport(
        max_rel_error=float(errors.max()),
        mean_rel_error=float(errors.mean()),
        n_params=int(errors.size),
        tolerance=tolerance,
    )


def reference_step(model, S, Y, l1_lambda):
    """The training step's arithmetic with every array freshly allocated:
    the loss is the residual's dot product over its size, and 2 / size
    scales the parameter-shaped products, not the residual."""
    folded, F = fold_dct(model), dct_matrix(model)
    if model.head == HEAD_LOW_RANK:
        Z = S @ folded.P
        pred = Z @ model.Q
    else:
        pred = S @ folded.W
    if model.bias is not None:
        pred = pred + model.bias
    diff = pred - Y
    total = float(np.vdot(diff, diff)) / Y.size
    scale = 2.0 / Y.size
    to_dct = (lambda g: g) if F is None else (lambda g: F.T @ g)
    grads = {}
    if model.head == HEAD_LOW_RANK:
        grads["P"] = to_dct((S.T @ (diff @ model.Q.T)) * scale)
        grads["Q"] = (Z.T @ diff) * scale
    else:
        grads["W"] = to_dct((S.T @ diff) * scale)
    if model.bias is not None:
        grads["bias"] = diff.sum(axis=0) * scale
    if l1_lambda > 0.0:
        for name, value in model_params(model).items():
            if name != "bias":
                grads[name] = grads[name] + l1_lambda * np.sign(value)
        total += l1_lambda * l1_penalty(model_params(model))
    return grads, total


def textbook_adam(params, grads, moments, step, config):
    """Kingma & Ba's bias-corrected ADAM update on fresh arrays: (new params,
    new moments) for moments = (m, v) and the update's 1-based `step`."""
    m, v = moments
    new_m, new_v, new_params = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        new_v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
        m_hat = new_m[name] / (1.0 - BETA1**step)
        v_hat = new_v[name] / (1.0 - BETA2**step)
        new_params[name] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return new_params, (new_m, new_v)


def reference_train(model, train_windows, val_windows, config):
    """`train` with fresh fancy-indexed batches and step arrays at every step:
    (best model, train_loss, val_mse)."""
    n_train = len(train_windows)
    S_train = window_rows(model, train_windows)
    Y_train = train_windows.targets
    params = {k: v.copy() for k, v in model_params(model).items()}
    state = init_adam(params)
    rng = np.random.default_rng(config.seed)
    train_loss, val_mse = [], []
    best_params, best_val, waited = params, float("inf"), 0
    for _ in range(config.max_epochs):
        order = rng.permutation(n_train)
        loss_sum, row_count = 0.0, 0
        for start in range(0, n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            S = S_train[idx].reshape(-1, model.d_in)
            Y = Y_train[idx].reshape(-1, model.horizon)
            grads, batch_loss = reference_step(replace_params(model, params), S, Y,
                                               config.l1_lambda)
            params, state = adam_step(state, params, grads, config)
            loss_sum += batch_loss * S.shape[0]
            row_count += S.shape[0]
        train_loss.append(loss_sum / row_count)
        val_mse.append(forecast_mse(replace_params(model, params), val_windows))
        if val_mse[-1] < best_val:
            best_params, best_val, waited = params, val_mse[-1], 0
        else:
            waited += 1
            if waited >= config.patience:
                break
    return replace_params(model, best_params), train_loss, val_mse

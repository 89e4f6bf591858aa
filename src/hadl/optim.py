"""Loss, analytic gradients, ADAM, early stopping and gradient verification.

The head is linear in its parameters, so the closed-form gradients below are
exact; `gradcheck` verifies them against central finite differences. Training
is plain mini-batch ADAM with epoch-level early stopping that restores the
best-validation snapshot. Shuffling is seeded and every reduction has a fixed
order, so two runs with identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, EmptyDataError, InvalidStepError, ShapeMismatchError
from .metrics import write_json_bundle, write_table
from .model import (
    HEAD_LOW_RANK,
    HadlModel,
    dct_matrix,
    fold_dct,
    forward,
    haar_rows,
    head_apply,
    model_params,
    replace_params,
    transform_inputs,  # noqa: F401  (hadl.optim.transform_inputs: a benchmark tracing target)
    window_rows,
)

# Windows per block of the full-set passes (validation, final grad norm, test
# evaluation): bounds their memory and fixes their summation order.
EVAL_BLOCK = 64


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters and run bookkeeping.

    Learning rate, batch size and l1_lambda defaults are conventional choices
    for a linear head at these scales and are recorded in every report so
    results stay reproducible.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l1_lambda: float = 1e-4
    max_epochs: int = 100
    patience: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie strictly in (0, 1)")
        if self.l1_lambda < 0.0:
            raise ValueError("l1_lambda must be >= 0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        # patience <= max_epochs, except for the degenerate no-training config
        if self.max_epochs > 0 and self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainTrace:
    """Per-epoch history plus the early-stopping outcome.

    best_epoch indexes the epoch with the lowest validation MSE (-1 when no
    epoch ran). final_grad_norm is the Frobenius norm of the full-train-set
    residual gradient with respect to the dense-equivalent weight matrix,
    evaluated at the returned parameters.
    """

    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    final_grad_norm: float = float("nan")


def l1_penalty(params: dict[str, np.ndarray]) -> float:
    """Sum of absolute weight entries; the bias is never penalized."""
    total = 0.0
    for name, value in params.items():
        if name != "bias":
            total += float(np.sum(np.abs(value)))
    return total


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


def _dct_basis(F: np.ndarray | None, grad: np.ndarray) -> np.ndarray:
    """A gradient w.r.t. the folded first factor F @ P (or F @ W) taken back
    to the DCT-basis parameter: dL/dP = F.T @ dL/d(F @ P)."""
    return grad if F is None else F.T @ grad


def _gradients_from_rows(
    model: HadlModel,
    S: np.ndarray,
    Y: np.ndarray,
    l1_lambda: float,
    F: np.ndarray | None,
) -> tuple[dict[str, np.ndarray], float]:
    """Gradients and loss for Haar rows S (..., d_in) (see `haar_rows`),
    with F = dct_matrix(model) passed in so a training loop builds it once.

    The prediction repeats `head_apply`'s arithmetic on the folded head, as
    `forward` does, so a target produced by `forward` gives an exactly zero
    residual term here; it keeps S @ P for the Q gradient.
    """
    folded = fold_dct(model, F)
    if model.head == HEAD_LOW_RANK:
        Z = S @ folded.P
        pred = Z @ model.Q
    else:
        pred = S @ folded.W
    # (rows, H) arrays are the largest a step makes: reuse pred's memory
    if model.bias is not None:
        pred += model.bias
    diff = np.subtract(pred, Y, out=pred)
    data_loss = float(np.mean(diff * diff))
    G = np.multiply(diff, 2.0 / Y.size, out=diff).reshape(-1, model.horizon)
    S2 = S.reshape(-1, model.d_in)

    grads: dict[str, np.ndarray] = {}
    if model.head == HEAD_LOW_RANK:
        grads["P"] = _dct_basis(F, S2.T @ (G @ model.Q.T))
        grads["Q"] = Z.reshape(-1, Z.shape[-1]).T @ G
    else:
        grads["W"] = _dct_basis(F, S2.T @ G)
    if model.bias is not None:
        grads["bias"] = G.sum(axis=0)

    total = data_loss
    if l1_lambda > 0.0:
        for name, value in model_params(model).items():
            if name != "bias":
                # subgradient with sign(0) = 0
                grads[name] = grads[name] + l1_lambda * np.sign(value)
        total += l1_lambda * l1_penalty(model_params(model))
    return grads, total


def gradients(model: HadlModel, X_batch, Y_batch, l1_lambda: float) -> dict[str, np.ndarray]:
    """Analytic gradients of `loss` for a raw (batch, channels, L) batch.

    Returns arrays keyed like `model_params`. Channels share the head, so
    every (window, channel) pair contributes one row.
    """
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
    grads, _ = _gradients_from_rows(model, S, Y_batch, l1_lambda, dct_matrix(model))
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    zeros = lambda d: {k: np.zeros_like(v) for k, v in d.items()}
    return AdamState(step=0, m=zeros(params), v=zeros(params))


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected ADAM update. Pure: returns new params and state."""
    t = state.step + 1
    b1, b2 = config.beta1, config.beta2
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params[name] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


def _block_residuals(model: HadlModel, batch):
    """(Haar rows, forecast minus target) of each block of EVAL_BLOCK windows
    in origin order, shaped (rows, d_in) and (rows, H)."""
    folded = fold_dct(model, dct_matrix(model))
    S = window_rows(model, batch)
    Y = batch.targets
    for start in range(0, len(batch), EVAL_BLOCK):
        rows = S[start : start + EVAL_BLOCK].reshape(-1, model.d_in)
        target = Y[start : start + EVAL_BLOCK].reshape(-1, model.horizon)
        yield rows, head_apply(folded, rows) - target


def evaluate(model: HadlModel, batch) -> tuple[float, float]:
    """MSE and MAE (no L1 term) of the forecasts for every window of a
    WindowBatch, summed block by block without a full-set array."""
    squared = absolute = 0.0
    for _, diff in _block_residuals(model, batch):
        squared += float(np.sum(diff * diff))
        absolute += float(np.sum(np.abs(diff)))
    count = len(batch) * batch.values.shape[0] * model.horizon
    return squared / count, absolute / count


def dense_equivalent_grad_norm(model: HadlModel, batch) -> float:
    """Frobenius norm of the residual gradient w.r.t. W = P@Q (or W itself)
    over every window of a WindowBatch.

    Computed without the L1 term; at a true minimum of the data term this
    vanishes even though the factored gradients only vanish individually.
    """
    total = np.zeros((model.d_in, model.horizon))
    for rows, diff in _block_residuals(model, batch):
        total += rows.T @ diff
    count = len(batch) * batch.values.shape[0] * model.horizon
    return float(np.linalg.norm((2.0 / count) * _dct_basis(dct_matrix(model), total)))


def train(
    model: HadlModel,
    train_windows,
    val_windows,
    config: TrainConfig,
) -> tuple[HadlModel, TrainTrace]:
    """Mini-batch ADAM with seeded shuffling and best-snapshot early stopping.

    Each mini-batch gathers its windows' Haar rows from one view of the
    training segment (`window_rows`), so no window set is ever copied whole.
    Validation MSE (without the L1 term) is evaluated after every epoch;
    training stops after `patience` epochs without strict improvement and
    the parameters of the best epoch are returned. A non-finite train loss
    or validation MSE raises DivergedError at once, since the initial
    weights would otherwise be returned as the result.
    """
    n_train = len(train_windows)
    if n_train == 0 or len(val_windows) == 0:
        raise EmptyDataError("training and validation window sets must be non-empty")

    d_in, H = model.d_in, model.horizon
    S_train = window_rows(model, train_windows)
    Y_train = train_windows.targets
    F = dct_matrix(model)

    params = {k: v.copy() for k, v in model_params(model).items()}
    state = init_adam(params)
    rng = np.random.default_rng(config.seed)
    trace = TrainTrace()

    best_params = {k: v.copy() for k, v in params.items()}
    best_val = float("inf")
    epochs_without_improvement = 0

    for epoch in range(config.max_epochs):
        # overflow and invalid values of a diverging run become the
        # DivergedError below instead of warnings
        with np.errstate(over="ignore", invalid="ignore"):
            order = rng.permutation(n_train)
            loss_sum = 0.0
            row_count = 0
            for start in range(0, n_train, config.batch_size):
                idx = order[start : start + config.batch_size]
                S_b = S_train[idx].reshape(-1, d_in)
                Y_b = Y_train[idx].reshape(-1, H)
                working = replace_params(model, params)
                grads, batch_loss = _gradients_from_rows(working, S_b, Y_b, config.l1_lambda, F)
                params, state = adam_step(state, params, grads, config)
                loss_sum += batch_loss * S_b.shape[0]
                row_count += S_b.shape[0]
            trace.train_loss.append(loss_sum / row_count)
            val_mse, _ = evaluate(replace_params(model, params), val_windows)
        trace.val_mse.append(val_mse)
        if not (math.isfinite(trace.train_loss[-1]) and math.isfinite(val_mse)):
            raise DivergedError(
                f"training diverged at epoch {epoch}: train loss {trace.train_loss[-1]!r},"
                f" val MSE {val_mse!r}"
            )

        if val_mse < best_val:
            best_val = val_mse
            best_params = {k: v.copy() for k, v in params.items()}
            trace.best_epoch = epoch
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                trace.stopped_early = True
                break

    best_model = replace_params(model, best_params)
    trace.final_grad_norm = dense_equivalent_grad_norm(best_model, train_windows)
    return best_model, trace


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

    errors = []
    for name, base in params.items():
        flat = base.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss(forward_with(model, params, X), Y, replace_params(model, params), l1_lambda)
            flat[i] = original - step
            down = loss(forward_with(model, params, X), Y, replace_params(model, params), l1_lambda)
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


def forward_with(model: HadlModel, params: dict[str, np.ndarray], X) -> np.ndarray:
    """Forward pass with substituted parameters (helper for gradcheck)."""
    return forward(replace_params(model, params), X)


def write_trace_csv(trace: TrainTrace, path, fingerprint: str = "") -> None:
    """Columns: epoch, train_loss, val_mse. One row per completed epoch."""
    rows = [[epoch, repr(tl), repr(vm)]
            for epoch, (tl, vm) in enumerate(zip(trace.train_loss, trace.val_mse))]
    write_table(path, ["epoch", "train_loss", "val_mse"], rows, fingerprint)


def write_trace_json(trace: TrainTrace, path, fingerprint: str = "") -> None:
    payload = {
        "train_loss": trace.train_loss,
        "val_mse": trace.val_mse,
        "best_epoch": trace.best_epoch,
        "stopped_early": trace.stopped_early,
        "final_grad_norm": trace.final_grad_norm,
    }
    if fingerprint:
        payload["config_fingerprint"] = fingerprint
    write_json_bundle(payload, path)

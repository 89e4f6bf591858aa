"""Analytic gradients, ADAM, early stopping, evaluation and the grad norm.

The head is linear in its parameters, so the closed-form gradients below are
exact. Training is plain mini-batch ADAM with epoch-level early stopping that
restores the best-validation snapshot. Shuffling is seeded and every
reduction has a fixed order, so two runs with identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import DivergedError, InvalidConfigError, SegmentTooShortError
from .metrics import write_json_bundle, write_table
from .model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    HadlModel,
    check_windows,
    dct_matrix,
    effective_weight,
    fold_dct,
    haar_series,
    head_apply,  # noqa: F401  (hadl.optim.head_apply: a benchmark tracing target)
    head_into,
    model_params,
    replace_params,
    transform_inputs,  # noqa: F401  (hadl.optim.transform_inputs: a benchmark tracing target)
    window_rows,
)
from .transforms import haar_halves

# Rows per block of the test MAE pass (`evaluate`): it takes max(1, EVAL_ROWS
# // channels) whole windows at a time, so its Haar-row, target and forecast
# arrays hold at most max(EVAL_ROWS, channels) rows whatever the channel
# count, and its summation order is fixed. Swept at L = 512 and r = 50 with
# one BLAS thread: ms per window / tracemalloc peak (MB) of one pass, by
# EVAL_ROWS, against the former fixed block of 64 windows:
#
#     channels  H     64 windows  256         512         1024        2048        4096
#     7         96    0.013/2.1   0.015/1.3   0.015/2.4   0.016/4.4   0.017/8.5   0.017/16.6
#     7         720   0.044/6.6   0.037/3.9   0.045/7.5   0.044/14.6  0.051/28.9  0.069/57.6
#     321       96    0.99/84     0.45/3.8    0.55/3.8    0.53/6.3    0.56/10.2   0.63/17.8
#     321       720   3.89/291    2.18/8.1    2.18/8.1    2.09/17.1   2.28/30.5   3.36/57.4
#     862       720   11.1/491    5.28/21.0   5.26/21.0   6.06/21.0   6.04/33.0   7.03/57.1
#
# Times are flat from 256 to 1024 rows, within the 10% that identical blocks
# vary by (256 and 512 rows both take one window at 321 channels), and rise
# beyond. End to end (benchmark/run.py, seed 11), wide_train peaked at 135 MB
# RSS with 64-window blocks, 62 MB from 256 to 2048 rows and 85 MB at 8192;
# etth1_train stayed at 90.6 MB up to 2048 rows and rose to 160 MB at 8192.
# The sweep gathered every block. From EVAL_ROWS // 2 + 1 channels up a
# block is one window, which is read in place instead (`_window_views`): at
# wide_train's test shape (245 windows of 321 channels, H = 96) a pass took
# 94 ms against 145 ms gathered, with one BLAS thread.
EVAL_ROWS = 512

# ADAM's moment decay rates and denominator guard: Kingma & Ba's (ICLR 2015)
# defaults, which the training protocol fixes.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters and run bookkeeping.

    Learning rate, batch size and l1_lambda defaults are conventional choices
    for a linear head at these scales; the CLI's ExperimentConfig extends
    this class, so each eval.json config records them.
    """

    learning_rate: float = 1e-3
    l1_lambda: float = 1e-4
    max_epochs: int = 100
    patience: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        # every float key must be finite, ExperimentConfig's too: inf passes the checks below
        for f in fields(self):
            value = getattr(self, f.name)
            bad = [v for v in (value if isinstance(value, tuple) else (value,))
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise InvalidConfigError(f"{f.name} must be finite, got {bad[0]}")
        if self.learning_rate <= 0.0:
            raise InvalidConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l1_lambda < 0.0:
            raise InvalidConfigError(f"l1_lambda must be >= 0, got {self.l1_lambda}")
        check_budget(self.max_epochs, self.patience)
        if self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:  # here, not as a numpy ValueError: default_rng takes no negative seed
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


def check_budget(max_epochs: int, patience: int, prefix: str = "") -> None:
    """The epoch budget's rules, naming the keys `prefix` + max_epochs and
    `prefix` + patience: max_epochs >= 0, patience >= 1, and patience <=
    max_epochs, except for the degenerate no-training config."""
    if max_epochs < 0:
        raise InvalidConfigError(f"{prefix}max_epochs must be >= 0, got {max_epochs}")
    if patience < 1:
        raise InvalidConfigError(f"{prefix}patience must be >= 1, got {patience}")
    if max_epochs > 0 and patience > max_epochs:
        raise InvalidConfigError(
            f"{prefix}patience ({patience}) must not exceed {prefix}max_epochs ({max_epochs})"
        )


@dataclass
class TrainTrace:
    """Per-epoch history plus the early-stopping outcome.

    val_mse is each epoch's validation MSE, from the validation windows'
    statistics (see `train`). best_epoch indexes the epoch with the lowest
    one (-1 when no epoch ran). final_grad_norm is NaN as `train` returns
    it: only a caller that reports it fills it in, with
    `dense_equivalent_grad_norm` of the returned model and the training
    windows' statistics.
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


def _dct_basis(model: HadlModel, grad: np.ndarray) -> np.ndarray:
    """A gradient w.r.t. the folded first factor F @ P (or F @ W) taken back
    to the DCT-basis parameter, with F = dct_matrix(model): dL/dP = F.T @
    dL/d(F @ P)."""
    F = dct_matrix(model)
    return grad if F is None else F.T @ grad


def _add_l1(model: HadlModel, grads: dict[str, np.ndarray], data_loss: float,
            l1_lambda: float) -> float:
    """Add the L1 subgradient (sign(0) = 0) to the weight gradients in place;
    return the data loss plus the L1 term."""
    if l1_lambda > 0.0:
        params = model_params(model)
        for name, value in params.items():
            if name != "bias":
                grads[name] += l1_lambda * np.sign(value)
        data_loss += l1_lambda * l1_penalty(params)
    return data_loss


def _gradients_from_rows(model: HadlModel, block: tuple[np.ndarray, np.ndarray, np.ndarray],
                         l1_lambda: float) -> tuple[dict[str, np.ndarray], float, int]:
    """Gradients, loss and row count for a block (S, Y, pred) of Haar rows
    S (..., d_in) (see `haar_rows`), targets Y and a caller-owned array pred
    shaped like Y.

    The forecast comes from `head_into` on the folded head, as in `forward`,
    so a target produced by `forward` gives an exactly zero residual term
    here. pred receives the forecast, then the residual E; Y is only read.
    The loss is one dot product of E, and the 2 / Y.size of the output
    gradient scales the d_in x r, r x H (or d_in x H) and H-sized results,
    not E: after the residual, the rows are only read, by that dot product,
    the products and the bias's column sum.
    """
    S, Y, pred = block
    Z = head_into(fold_dct(model), S, pred)
    E = np.subtract(pred, Y, out=pred).reshape(-1, model.horizon)
    data_loss = float(np.vdot(E, E)) / Y.size
    scale = 2.0 / Y.size
    S2 = S.reshape(-1, model.d_in)

    grads: dict[str, np.ndarray] = {}
    if model.head == HEAD_LOW_RANK:
        grads["P"] = _dct_basis(model, np.multiply(S2.T @ (E @ model.Q.T), scale))
        grads["Q"] = np.multiply(Z.reshape(-1, Z.shape[-1]).T @ E, scale)
    else:
        grads["W"] = _dct_basis(model, np.multiply(S2.T @ E, scale))
    if model.bias is not None:
        grads["bias"] = np.multiply(E.sum(axis=0), scale)

    return grads, _add_l1(model, grads, data_loss, l1_lambda), len(E)


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
    """One bias-corrected ADAM update: returns fresh parameter arrays and
    `state`, whose step and moments it advances in place. Every value takes
    the textbook operations in the textbook order, m = BETA1 m + (1 - BETA1)
    g, v = BETA2 v + ((1 - BETA2) g) g and p - (lr (m / (1 - BETA1^t))) /
    (sqrt(v / (1 - BETA2^t)) + EPSILON), so the result is bit for bit that
    of fresh arrays at every step; only the temporaries go. `params` and
    `grads` are only read."""
    state.step += 1
    new_params: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        update = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += update
        scratch = np.multiply(g, 1.0 - BETA2)
        scratch *= g
        v *= BETA2
        v += scratch
        denominator = np.sqrt(np.divide(v, 1.0 - BETA2**state.step, out=scratch), out=scratch)
        denominator += EPSILON
        np.divide(m, 1.0 - BETA1**state.step, out=update)
        update *= config.learning_rate
        update /= denominator
        new_params[name] = np.subtract(p, update, out=update)
    return new_params, state


def _gather_blocks(model: HadlModel, batch, order, size: int):
    """The windows of `order`, `size` at a time: (rows, d_in) Haar rows,
    (rows, H) targets and a (rows, H) scratch array for the forecast, copied
    from the views of a WindowBatch into arrays allocated once per call
    (fancy indexing would allocate every block afresh, and `np.take` copies
    the whole strided Haar view first), window by window. The caller may
    overwrite the targets and the scratch; the next block refills them."""
    S, Y = window_rows(model, batch), batch.targets
    n, channels = len(order), S.shape[1]
    S_buf = np.empty((min(size, n),) + S.shape[1:])
    Y_buf = np.empty((min(size, n),) + Y.shape[1:])
    out = np.empty((min(size, n) * channels, model.horizon))
    for start in range(0, n, size):
        idx = order[start : start + size]
        for j, w in enumerate(idx):
            S_buf[j] = S[w]
            Y_buf[j] = Y[w]
        rows = len(idx) * channels
        yield S_buf[: len(idx)].reshape(rows, -1), Y_buf[: len(idx)].reshape(rows, -1), out[:rows]


def _window_views(model: HadlModel, batch):
    """Every window of a WindowBatch in origin order, each a block of its own
    read in place: views of its (channels, d_in) Haar rows and (channels, H)
    targets, and a (channels, H) scratch array for the forecast. The rows
    are a slice of the values' `haar_halves`, built instead of the
    interleaved `haar_series`: window w reads halves[w % 2][:, w//2 : w//2 +
    d_in], bit-equal to its `window_rows` (with the Haar stage off, the one
    "half" is the values themselves, at step 1). The caller may overwrite only the scratch: the targets
    are views of the series itself."""
    check_windows(model, batch)
    x, d, L, H = batch.values, model.d_in, model.lookback, model.horizon
    halves, step = (haar_halves(x), 2) if model.use_haar else ((x,), 1)
    out = np.empty((x.shape[0], H))
    for w in range(len(batch)):
        start = w // step
        yield halves[w % step][:, start : start + d], x[:, w + L : w + L + H], out


def evaluate(model: HadlModel, batch) -> float:
    """MAE of the model's forecasts, its head folded (see `fold_dct`), for
    every window of a WindowBatch, summed block by block in origin order
    (see EVAL_ROWS) with no full-set array. A block of one window reads its
    rows and targets in place (`_window_views`); larger blocks are gathered
    (`_gather_blocks`). The MSE needs no pass: `window_mse`."""
    folded = fold_dct(model)
    absolute = 0.0
    size = max(1, EVAL_ROWS // batch.values.shape[0])
    blocks = (_window_views(folded, batch) if size == 1
              else _gather_blocks(folded, batch, range(len(batch)), size))
    for rows, target, out in blocks:
        head_into(folded, rows, out)
        diff = np.subtract(out, target, out=out)
        absolute += float(np.sum(np.abs(diff, out=diff)))
    return absolute / (len(batch) * batch.values.shape[0] * folded.horizon)


def _window_sums(p: np.ndarray, n: int, step: int) -> np.ndarray:
    """sum(p[a : a + n]) for a = 0, step, 2*step, ..., len(p) - n. The first
    window is summed whole and each later one from the values that enter and
    leave it, so the rounding stays that of one n-term sum, not of a prefix
    sum over the whole series."""
    moves = np.cumsum(p[n:] - p[: len(p) - n])
    return p[:n].sum() + np.concatenate(([0.0], moves))[::step]


class BatchStats(NamedTuple):
    """What the loss, gradients and MSE of a head depend on, for the Haar
    rows S (rows x d_in) and targets Y (rows x H) of a set of windows:
    G = S.T @ S, C = S.T @ Y, S.T @ 1, Y.T @ 1, ||Y||^2 and the row count."""

    gram: np.ndarray
    cross: np.ndarray
    row_sum: np.ndarray
    target_sum: np.ndarray
    target_energy: float
    rows: int


def _channel_sums(s: np.ndarray, x: np.ndarray, lookback: int, last: int):
    """Per-time channel sums of s up to `last`, and of the targets x[:, L:]
    and their squares."""
    targets = x[:, lookback:]
    return (s[:, :last].sum(axis=0), targets.sum(axis=0),
            np.einsum("ct,ct->t", targets, targets))


# Channels per block of the FFTs of `window_stats`: each block's spectra
# hold a few series-length arrays for this many channels. wide_train's peak
# RSS is set while the validation statistics are computed beside the
# training `LagTables`: 63.2 MB with blocks of 16 and 72.8 MB with every
# channel in one block, against 63.8 MB for the lag-by-lag products before.
# The shift products take every channel at once, one GEMM per shift and
# product on channels x (d_in - 1) operands: at wide_train's train shape
# (321 channels, 583 windows) they took 6.2 to 7.1 ms per call against 13.5
# to 23.2 ms in blocks of 16 (min of 5, two runs, one BLAS thread), and
# raised hadl's own peak RSS by about 1.5 MB, numpy's contiguous copies of
# their strided operands. At 16 channels or fewer there is one block, so
# the two orders give the same bits.
STATS_BLOCK = 16


def _fft_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n: numpy's FFT takes such a length in
    radix-2, -3, -4 and -5 passes, at a size that the next power of two can
    nearly double (ETTh1's 8640-step train split: 8640 against 16384)."""
    best = 1 << (n - 1).bit_length()
    power3 = 1
    while power3 < best:
        odd = power3
        while odd < best:  # odd = 3^b * 5^c, times the fewest twos that reach n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 5
        power3 *= 3
    return best


def window_stats(model: HadlModel, batch) -> BatchStats:
    """`BatchStats` of the Haar rows S (see `window_rows`) and targets Y of
    every (window, channel) row of a WindowBatch, without gathering a window.

    Shifting every window by one feature step adds the `step` samples per
    channel that enter the last window and drops those that leave the
    first, so G and C have low displacement rank (Kailath, Kung & Morf,
    1979): with A and B those entering and leaving samples, G[i+1, j+1] =
    G[i, j] + (A.T @ A - B.T @ B)[i, j] and C[i+1, h+step] = C[i, h] +
    (A.T @ A_x - B.T @ B_x)[i, h], where A_x and B_x are the targets that
    enter and leave. So G's first row, C's first row and C's first `step`
    columns determine every other entry. Each of those is a channel-summed
    cross-correlation of a length-n head segment against a whole series,
    computed by FFT at a 5-smooth length no shorter than the series
    (`_fft_length`), so no circular wrap reaches a lag it reads, over
    blocks of STATS_BLOCK channels; the updates are GEMMs over every
    channel at once. That costs O(channels * timesteps *
    log(timesteps)) for the correlations and O(channels * step * d_in *
    (d_in + H)) for the updates, where blocked row products cost O(rows *
    d_in * (d_in + H)). With one BLAS thread, the faster of two runs took,
    at ETTh1's train shape (7 channels, L = 512), 6.8 ms at H = 96 and 5.3
    ms at H = 720, where lag-by-lag products took 60 and 106 ms; at
    wide_train's (321 channels, H = 96), 31 ms against 227 ms, and 27.5 ms
    (median of 7) with the shift products over every channel. It agrees
    with the lag-by-lag sums to 2e-15 relative: each recurrence carries the
    rounding of at most d_in additions along a diagonal.
    """
    s, step, last = haar_series(model, batch)
    x = batch.values
    d, L, H, n = model.d_in, model.lookback, model.horizon, len(batch)
    size = _fft_length(max(last, x.shape[1] - L))  # no shorter than either series
    cols = min(step, H)
    # channel-summed spectra of the correlations: G's first row, C's first
    # row, then C's first `cols` columns
    spectra = np.zeros((2 + cols, size // 2 + 1), dtype=complex)
    for c in range(0, x.shape[0], STATS_BLOCK):
        sb, xb = s[c : c + STATS_BLOCK, :last], x[c : c + STATS_BLOCK]
        series = np.fft.rfft(sb, size)
        head = np.fft.rfft(sb[:, :n], size).conj()
        spectra[0] += (head * series).sum(axis=0)
        spectra[1] += (head * np.fft.rfft(xb[:, L:], size)).sum(axis=0)
        for h in range(cols):
            spectra[2 + h] += (np.fft.rfft(xb[:, L + h : L + h + n], size).conj()
                               * series).sum(axis=0)
    gram_moves = np.zeros((d - 1, d - 1))
    cross_moves = np.zeros((d - 1, max(H - step, 0)))
    for k in range(step):
        # features 0..d-2 and targets 0..H-step-1 of the samples that enter
        # (n + k) and leave (k) a window at each shift, over every channel
        enter = s[:, n + k : n + k + step * (d - 1) : step]
        leave = s[:, k : k + step * (d - 1) : step]
        gram_moves += enter.T @ enter - leave.T @ leave
        cross_moves += (enter.T @ x[:, n + L + k : n + L + H - step + k]
                        - leave.T @ x[:, L + k : L + H - step + k])
    lags = np.fft.irfft(spectra, size)
    features = slice(0, step * (d - 1) + 1, step)  # the lags of features 0..d-1
    gram = np.empty((d, d))
    gram[0] = lags[0, features]
    for i in range(1, d):
        gram[i, i:] = gram[i - 1, i - 1 : -1] + gram_moves[i - 1, i - 1 :]
        gram[i, :i] = gram[:i, i]
    cross = np.empty((d, H))
    cross[0] = lags[1, :H]
    cross[:, :cols] = lags[2:, features].T
    for i in range(1, d):
        cross[i, step:] = cross[i - 1, : H - step] + cross_moves[i - 1]
    row_sum, target_sum, energy = _channel_sums(s, x, L, last)
    return BatchStats(gram, cross, _window_sums(row_sum, n, step), _window_sums(target_sum, n, 1),
                      float(_window_sums(energy, n, 1).sum()), n * x.shape[0])


# Origins per GEMM of a LagTables build: each product computes this many
# origins' lags and some it discards (see `_lag_table`).
TABLE_BLOCK = 64


def _lag_table(u: np.ndarray, v: np.ndarray, offset: int, step: int, count: int,
               rows: int) -> np.ndarray:
    """table[t, k] = sum_c u[c, t] v[c, t + offset + step*k] for t < rows and
    k < count, 0 past the end of v. Each block of TABLE_BLOCK origins is one
    GEMM, its columns of u transposed times every column of v its lags
    reach, and a strided view reads that product's band of lags."""
    table = np.empty((rows, count))
    item = table.itemsize
    for start in range(0, rows, TABLE_BLOCK):
        size = min(TABLE_BLOCK, rows - start)
        width = size + step * (count - 1)
        # product[a, j] = u[:, start + a] . v[:, start + offset + j]
        product = u[:, start : start + size].T @ v[:, start + offset : start + offset + width]
        if product.shape[1] < width:  # v ends inside the band; no window reads past it
            product = np.pad(product, ((0, 0), (0, width - product.shape[1])))
        table[start : start + size] = np.lib.stride_tricks.as_strided(
            product, (size, count), ((width + 1) * item, step * item))
    return table


# Row blocks in which `LagTables.stats` sums a batch's upper band of G: each
# block also adds the entries below the diagonal within it, so more blocks
# add fewer entries in more calls. At wide_train's shape (d_in 256, H 96, 64
# windows a batch, one BLAS thread) a whole `stats` call took a median of
# 6.1 ms with 1 block, 5.5 with 2, 4.9 with 3 or 4 and 5.2 with 6 or 8.
UPPER_BLOCKS = 4


class LagTables:
    """Per-origin, channel-summed lag products of a WindowBatch, from which
    `stats` sums any subset of its windows' `BatchStats` without gathering a
    Haar row.

    Time-major, so that one window's block of each table is a strided view:
    gram[t, k] = sum_c s[c, t] s[c, t + step*k] and cross[t, lag - lag0] =
    sum_c s[c, t] x[c, t + lag] with lag0 = L - step*(d_in - 1), for s, step
    and the origins t of `haar_series`, built by blocked GEMM over the
    channels (`_lag_table`). The window at origin b reads gram[b + step*i,
    j - i] as G[i, j] (j >= i) and cross[b + step*i, L + h - step*i - lag0]
    as C[i, h]. Building costs O(channels * timesteps * (d_in + L + H)) once;
    each window then costs d_in * (d_in + H) additions, whatever the channel
    count.
    """

    def __init__(self, model: HadlModel, batch):
        s, step, last = haar_series(model, batch)
        x, d, L, H, n = batch.values, model.d_in, model.lookback, model.horizon, len(batch)
        width = H + step * (d - 1)  # the lags of the cross table
        gram = _lag_table(s, s, 0, step, d, last)
        cross = _lag_table(s, x, L - step * (d - 1), 1, width, last)
        row_sum, target_sum, energy = _channel_sums(s, x, L, last)
        strided = np.lib.stride_tricks.as_strided
        item = gram.itemsize
        # G[i, j] of window b at gram.flat[b*d + i*(step*d - 1) + j]; its
        # entries j < i read other products and are discarded
        self.gram = strided(gram, (n, d, d), (d * item, (step * d - 1) * item, item),
                            writeable=False)
        # C[i, h] of window b at cross.flat[b*width + i*step*(width - 1) + h + step*(d - 1)]
        self.cross = strided(cross.reshape(-1)[step * (d - 1):], (n, d, H),
                             (width * item, step * (width - 1) * item, item), writeable=False)
        # (n, d_in) and (n, H) views of the channel sums of s, x and x^2
        self.row_sum = batch.view(row_sum[None], step * (d - 1) + 1, step)[:, 0]
        self.target_sum = batch.view(target_sum[None], H)[:, 0]
        self.target_energy = batch.view(energy[None], H)[:, 0]
        self.channels = x.shape[0]

    def stats(self, origins) -> BatchStats:
        """`BatchStats` of the windows at `origins`, summed in their order.

        Only G's upper band is summed: in UPPER_BLOCKS blocks of rows, each
        from its first row's diagonal on, into arrays of their own (adding
        into slices of one d_in x d_in array ran at half the speed). The
        band's entries get the additions of a whole-matrix sum, in its order.
        """
        d = self.gram.shape[1]
        size = -(-d // UPPER_BLOCKS)
        blocks = [(a, np.zeros((min(size, d - a), d - a))) for a in range(0, d, size)]
        cross = np.zeros(self.cross.shape[1:])
        for b in origins:
            window = self.gram[b]
            for a, block in blocks:
                block += window[a : a + len(block), a:]
            cross += self.cross[b]
        gram = np.zeros((d, d))
        for a, block in blocks:
            gram[a : a + len(block), a:] = block
        gram = np.triu(gram)
        gram += np.triu(gram, 1).T
        return BatchStats(gram, cross, self.row_sum[origins].sum(axis=0),
                          self.target_sum[origins].sum(axis=0),
                          float(self.target_energy[origins].sum()), len(origins) * self.channels)


def _quadratic_form(folded: HadlModel, stats: BatchStats):
    """(R, column_sum, mse) of the folded head's residual E = S @ M + 1 b.T
    - Y on the rows S and targets Y whose statistics are `stats`, for the
    head's d_in x H map M, its bias b and N rows: R = S.T @ E = G @ M +
    (S.T @ 1) b.T - C, the forecast's column sum M.T @ (S.T @ 1) + N b (None
    without a bias), and mse = ||E||^2 / (N H), where ||E||^2 = <M, R - C> +
    b . (column sum - 2 Y.T @ 1) + ||Y||^2. It costs O(d_in^2 * H) whatever N
    is.

    ||E||^2 is a difference of terms as large as ||S @ M + 1 b.T||^2 and
    ||Y||^2, so the mse's absolute error is about 1e-16 * (||S @ M + 1
    b.T||^2 + ||Y||^2) / (N H): within 1e-12 * ||Y||^2 / N while the
    forecast's energy stays within a few thousand times H of the targets'.
    Near an exact fit that error can take ||E||^2 below 0, so it is clamped
    there.
    """
    R = np.empty_like(stats.cross)
    head_into(replace(folded, bias=None), stats.gram, R)  # G @ M
    R -= stats.cross
    if folded.bias is not None:
        R += np.outer(stats.row_sum, folded.bias)
    M = effective_weight(folded)
    squared = float(np.vdot(M, R - stats.cross)) + stats.target_energy
    column_sum = None
    if folded.bias is not None:
        column_sum = stats.row_sum @ M + stats.rows * folded.bias
        squared += float(folded.bias @ (column_sum - 2.0 * stats.target_sum))
    if squared < 0.0:  # rounding; a NaN passes through
        squared = 0.0
    return R, column_sum, squared / (stats.rows * folded.horizon)


def window_mse(model: HadlModel, stats: BatchStats) -> float:
    """MSE (no L1 term) of the model's forecasts, its head folded (see
    `fold_dct`), for the windows whose `window_stats` are `stats`, with no
    forecast. Its error is absolute, the quadratic form's (`_quadratic_form`):
    about 1e-16 * (||S @ M + 1 b.T||^2 + ||Y||^2) / (N H), within 1e-12 *
    ||Y||^2 / N while the forecast's energy stays within a few thousand
    times H of the targets'. Relative to the MSE it is small only while the
    targets stay near the train mean: against the forecasts' MSE it was
    2.8e-14 with a test segment shifted by 0 train standard deviations,
    5.1e-11 at 100 and 7.6e-7 at 10^4."""
    return _quadratic_form(fold_dct(model), stats)[2]


def dense_equivalent_grad_norm(model: HadlModel, stats: BatchStats) -> float:
    """Frobenius norm of the residual gradient w.r.t. W = P@Q (or W itself)
    over the windows whose `window_stats` are `stats`, taken through the
    folded head (see `fold_dct`) and back to the model's own basis.

    Computed without the L1 term; at a true minimum of the data term this
    vanishes even though the factored gradients only vanish individually.
    The forecast of rows S is S @ M + bias with M the folded head, so the
    summed gradient S.T @ (S @ M + bias - Y) = G @ M + (S.T @ 1) bias - C
    comes from the statistics, with no pass over the windows.
    """
    residual, _, _ = _quadratic_form(fold_dct(model), stats)
    return 2.0 / (stats.rows * model.horizon) * float(np.linalg.norm(_dct_basis(model, residual)))


def _gradients_from_stats(model: HadlModel, stats: BatchStats,
                          l1_lambda: float) -> tuple[dict[str, np.ndarray], float, int]:
    """`_gradients_from_rows` for the rows S and targets Y whose statistics
    are `stats`, from the quadratic form they determine (`_quadratic_form`):
    every gradient follows from R and the forecast's column sum, so the step
    costs O(d_in^2 * H) whatever the row count is. The gradients match the
    row products to rounding (1e-12 relative in the tests); the loss carries
    the quadratic form's absolute error, divided by the rows and H.
    """
    folded = fold_dct(model)
    R, column_sum, data_loss = _quadratic_form(folded, stats)
    scale = 2.0 / (stats.rows * model.horizon)
    R *= scale
    grads: dict[str, np.ndarray] = {}
    if model.head == HEAD_LOW_RANK:
        grads["P"] = _dct_basis(model, R @ model.Q.T)
        grads["Q"] = folded.P.T @ R
    else:
        grads["W"] = _dct_basis(model, R)
    if model.bias is not None:
        grads["bias"] = scale * (column_sum - stats.target_sum)
    return grads, _add_l1(model, grads, data_loss, l1_lambda), stats.rows


# Costs in units of one multiply-add of a rows-step product, fitted to the
# sweeps in `steps_from_stats`: one value a rows step gathers or passes over
# elementwise, one table entry a statistics step adds, and the rest of a
# statistics step's cost per window (its per-window loop and its d_in-sized
# products, shared by 64 windows).
ROW_VALUE_COST = 200
STATS_VALUE_COST = 35
STATS_WINDOW_COST = 100_000


def steps_from_stats(channels: int, d_in: int, horizon: int, rank: int | None,
                     head: str) -> bool:
    """Whether `train` takes its steps from `LagTables` statistics rather
    than from gathered rows: whether, per window, the rows step costs more.

    Per window, the rows step runs channels * (2 d_in r + 3 r H) multiply-adds
    (channels * 2 d_in H for a dense head) and gathers and passes over
    channels * (d_in + H) values; the statistics step adds d_in * (d_in + H)
    table entries whatever the channel count, plus a fixed overhead.

    The constants come from two sweeps at 64 windows per step with one BLAS
    thread. The first is at L = 512 (Haar on unless d_in = 512). Step times
    in ms (gather or table sums, gradients and the ADAM update), rows /
    statistics, by channel count, and the channel count above which the
    rule takes statistics:

        d_in  H    head       4         7         14        21        32        64        rule
        256   96   r=50   1.8/7.1   2.4/6.9   3.9/6.9   5.4/5.6   5.7/5.9  11.9/6.3   > 29.5
        256   96   r=8    0.4/4.9   0.5/4.7   1.3/4.6   1.6/4.7   2.5/4.8   5.2/4.9   > 42.4
        256   96   dense  1.5/5.9   1.8/5.8   2.9/5.6   4.0/5.9   7.0/6.3  15.8/6.2   > 27.2
        256   720  r=50   3.6/20.3  4.5/20.6  8.9/19.5 13.3/19.8 18.7/18.0 39.0/18.0   > 26.9
        256   720  r=8    1.1/15.6  1.9/15.2  3.8/15.4  5.8/16.9 10.0/16.3 24.3/15.8   > 40.8
        256   720  dense  8.6/21.7 11.4/22.7 16.9/21.6 23.9/21.9 37.3/23.1 71.8/23.1   > 15.7
        512   96   r=50   2.6/19.0  3.3/18.4  5.0/19.6  7.3/19.2  9.7/19.2 24.4/18.9   > 58.7
        512   96   dense  5.3/20.9  5.0/19.8  6.4/23.1 11.7/23.7 14.7/21.0 27.7/22.2   > 50.0

    The table was measured after the rows step lost its elementwise passes
    after the residual; the constants were fitted to an earlier sweep, taken
    before that in another session. The rule still picks the faster path in
    every cell above but (256, 96, r=50) at 32 channels, where the paths
    tie: three repeats gave 5.8/6.0, 7.7/6.7 and 7.3/5.4. The second sweep,
    not repeated since, covers small heads: d_in 8 to 64, H 4 to 96, r 2 and
    8, and 2 to 128 channels (168 cells, 0.16 to 14 ms per step). There the
    rule picked the slower path in 9 cells, by at most 0.09 ms each. ETTh1
    (7 channels) steps from rows, electricity and traffic (321 and 862)
    from statistics.
    """
    per_row = 2 * d_in * horizon if head == HEAD_DENSE else 2 * d_in * rank + 3 * rank * horizon
    return (channels * (per_row + ROW_VALUE_COST * (d_in + horizon))
            > STATS_VALUE_COST * d_in * (d_in + horizon) + STATS_WINDOW_COST)


def train(model: HadlModel, train_windows, val_windows,
          config: TrainConfig) -> tuple[HadlModel, TrainTrace, BatchStats | None]:
    """Mini-batch ADAM with seeded shuffling and best-snapshot early stopping.

    `steps_from_stats` picks, from the shapes alone, where every step takes
    its loss and gradients. Few channels: the mini-batch's Haar rows and
    targets, gathered from views of the training segment into arrays
    allocated once per epoch (`_gather_blocks`), so no window set is ever
    copied whole. Many channels: the batch's statistics, summed from
    `LagTables` built on the first epoch. `final_grad_norm` is left NaN
    (see TrainTrace).

    Returns (best model, trace, statistics). Each epoch's batches partition
    the training windows, so on the statistics path the last epoch's batch
    statistics, summed in its order, are the training windows'
    `window_stats` to rounding (1e-12 relative in the tests): a caller
    takes the grad norm from them without another pass. They are None on
    the rows path and when no epoch ran.

    Validation MSE (without the L1 term) comes after every epoch from the
    quadratic form of the validation windows' `window_stats`, computed on
    the first epoch, so no epoch passes over the validation windows (for its
    precision, see `window_mse`).
    Training stops after `patience` epochs without strict improvement on
    the trace's best epoch, and that epoch's parameters are returned: they
    are kept by reference, as `adam_step` writes none of its inputs. A
    non-finite train loss or validation MSE raises DivergedError at once,
    since the initial weights would otherwise be returned as the result.
    """
    n_train, size = len(train_windows), config.batch_size
    if n_train == 0 or len(val_windows) == 0:
        raise SegmentTooShortError("training and validation window sets must be non-empty")

    # the step source, once: a gradient function and the epoch's batches of it
    from_stats = steps_from_stats(train_windows.values.shape[0], model.d_in, model.horizon,
                                  model.rank, model.head)
    if from_stats:
        gradients, tables = _gradients_from_stats, cache(lambda: LagTables(model, train_windows))
        batches = lambda order: map(tables().stats,
                                    (order[a : a + size] for a in range(0, n_train, size)))
    else:  # looked up here, where the benchmark's tracer wraps it
        gradients = _gradients_from_rows
        batches = lambda order: _gather_blocks(model, train_windows, order, size)
    val_stats = cache(lambda: window_stats(model, val_windows))

    params = best_params = model_params(model)
    state = init_adam(params)
    rng = np.random.default_rng(config.seed)
    trace, summed = TrainTrace(), None
    for epoch in range(config.max_epochs):
        # overflow and invalid values of a diverging run become the
        # DivergedError below instead of warnings
        with np.errstate(over="ignore", invalid="ignore"):
            loss_sum, row_count, summed = 0.0, 0, None
            for block in batches(rng.permutation(n_train)):
                grads, batch_loss, rows = gradients(replace_params(model, params), block,
                                                    config.l1_lambda)
                params, state = adam_step(state, params, grads, config)
                loss_sum += batch_loss * rows
                row_count += rows
                if from_stats:
                    summed = block if summed is None else BatchStats(*map(add, summed, block))
            del block  # the epoch's step arrays go before the next epoch makes its own
            trace.train_loss.append(loss_sum / row_count)
            val_mse = window_mse(replace_params(model, params), val_stats())
        trace.val_mse.append(val_mse)
        if not (math.isfinite(trace.train_loss[-1]) and math.isfinite(val_mse)):
            raise DivergedError(
                f"training diverged at epoch {epoch}: train loss {trace.train_loss[-1]!r},"
                f" val MSE {val_mse!r}"
            )
        if trace.best_epoch < 0 or val_mse < trace.val_mse[trace.best_epoch]:
            trace.best_epoch, best_params = epoch, params
        elif epoch - trace.best_epoch >= config.patience:
            trace.stopped_early = True
            break

    return replace_params(model, best_params), trace, summed


def write_trace_csv(trace: TrainTrace, path, fingerprint: str = "") -> None:
    """Columns: epoch, train_loss, val_mse. One row per completed epoch."""
    rows = [[epoch, tl, vm] for epoch, (tl, vm) in enumerate(zip(trace.train_loss, trace.val_mse))]
    write_table(path, ["epoch", "train_loss", "val_mse"], rows, fingerprint)


def write_trace_json(trace: TrainTrace, path, fingerprint: str = "") -> None:
    """Every TrainTrace field, plus the fingerprint if set."""
    payload = {f.name: getattr(trace, f.name) for f in fields(trace)}
    if fingerprint:
        payload["config_fingerprint"] = fingerprint
    write_json_bundle(payload, path)

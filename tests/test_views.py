"""The zero-copy path against materialized windows.

Windows are views into their segment, the Haar rows of every window are a
view of one pass over the segment, the DCT is folded into the head, the
full-set passes run in blocks, and the window statistics, of all windows or
of one training batch, come from lag sums over the segment. Each is checked
here against the copied windows, unfolded features or row products they
replace.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadl.data import Segment, WindowBatch, windows
from hadl.errors import ShapeMismatchError
from hadl.model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    forward,
    head_apply,
    init_model,
    transform_inputs,
    window_rows,
)
from hadl.optim import (
    EVAL_ROWS,
    STATS_BLOCK,
    LagTables,
    TrainConfig,
    _gradients_from_stats,
    _window_views,
    dense_equivalent_grad_norm,
    evaluate,
    train,
    window_mse,
    window_stats,
)
from hadl.transforms import haar_batch
from oracles import forecast_mse, gradcheck, gradients, reference_step


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@st.composite
def cases(draw):
    lookback = 2 * draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 8))
    channels = draw(st.integers(1, 4))
    # up to ~2.5 blocks of the test pass's windows, so its blocks cross edges
    timesteps = lookback + horizon + draw(st.integers(0, 5 * (EVAL_ROWS // channels) // 2))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
        size=(channels, timesteps))
    model = init_model(
        lookback, horizon, draw(st.integers(1, 4)), seed=draw(st.integers(0, 100)),
        use_haar=draw(st.booleans()), use_dct=draw(st.booleans()),
        head=draw(st.sampled_from([HEAD_LOW_RANK, HEAD_DENSE])),
        with_bias=draw(st.booleans()),
    )
    if model.bias is not None:
        model.bias[:] = np.random.default_rng(1).normal(size=horizon)
    return windows(Segment("s", values), lookback, horizon), model


class TestViews:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_windows_are_read_only_views_of_the_segment(self, case):
        batch, _ = case
        for view in (batch.inputs, batch.targets):
            assert np.shares_memory(view, batch.values)
            assert not view.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_haar_view_is_bit_identical_to_haar_of_copies(self, case):
        batch, model = case
        rows = window_rows(model, batch)
        copies = np.array(batch.inputs)
        want = haar_batch(copies) if model.use_haar else copies
        assert rows.shape == want.shape and np.array_equal(rows, want)
        assert np.shares_memory(rows, batch.values) == (not model.use_haar)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_one_window_views_are_bit_identical_to_the_rows(self, case):
        # the rows and targets `evaluate` reads in place, window by window
        batch, model = case
        rows, targets = window_rows(model, batch), batch.targets
        views = list(_window_views(model, batch))
        assert len(views) == len(batch)
        for w, (view, target) in enumerate(views):
            assert np.array_equal(view, rows[w]) and np.array_equal(target, targets[w])
            assert np.shares_memory(target, batch.values)
            assert np.shares_memory(view, batch.values) == (not model.use_haar)


class TestFoldedBlockedPasses:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_match_materialized_rows(self, case):
        batch, model = case
        X, Y = np.array(batch.inputs), np.array(batch.targets)
        A = transform_inputs(model, X)
        want_pred = head_apply(model, A)
        assert_close(forward(model, X), want_pred)

        diff = want_pred - Y
        stats = window_stats(model, batch)
        assert_close(window_mse(model, stats), np.mean(diff * diff))
        assert_close(evaluate(model, batch), np.mean(np.abs(diff)))

        G = (2.0 / Y.size) * diff.reshape(-1, model.horizon)
        want_norm = np.linalg.norm(A.reshape(-1, model.d_in).T @ G)
        assert_close(dense_equivalent_grad_norm(model, stats), want_norm)

    @settings(max_examples=30, deadline=None)
    @given(cases())
    def test_gradients_through_the_fold(self, case):
        batch, model = case
        X, Y = np.array(batch.inputs[:3]), np.array(batch.targets[:3])
        # unfolded analytic gradients from materialized features
        A = transform_inputs(model, X).reshape(-1, model.d_in)
        G = (2.0 / Y.size) * (head_apply(model, A) - Y.reshape(-1, model.horizon))
        grads = gradients(model, X, Y, l1_lambda=0.0)
        if model.head == HEAD_LOW_RANK:
            assert_close(grads["P"], A.T @ (G @ model.Q.T))
            assert_close(grads["Q"], (A @ model.P).T @ G)
        else:
            assert_close(grads["W"], A.T @ G)
        # a random draw can put a gradient entry near zero, where central
        # differences at step 1e-6 carry ~1e-10 of noise: hence 1e-3
        assert gradcheck(model, X, Y, l1_lambda=0.0, step=1e-6, tolerance=1e-3).passed


def test_train_epoch_never_copies_the_window_set():
    # 1657 windows x 100 channels: copies of inputs and targets would take
    # 191 MB; windowing plus one epoch peaks near 17 MB
    lookback, horizon, channels = 128, 16, 100
    values = np.random.default_rng(0).normal(size=(channels, 2000))
    model = init_model(lookback, horizon, 8, seed=0)
    tracemalloc.start()
    try:
        train_w = windows(Segment("train", values[:, :1800]), lookback, horizon)
        val_w = windows(Segment("val", values[:, 1650:]), lookback, horizon)
        train(model, train_w, val_w, TrainConfig(max_epochs=1, patience=1, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copied = len(train_w) * channels * (lookback + horizon) * 8
    assert peak < copied / 4, f"peak {peak / 1e6:.1f} MB vs copied windows {copied / 1e6:.1f} MB"


def reference_stats(model, batch, origins=None):
    """rows.T @ rows, rows.T @ Y, rows.T @ 1, Y.T @ 1 and ||Y||^2 of the
    windows at `origins` (every window by default), summed over slices of
    64 windows of the Haar rows and targets."""
    S, Y = window_rows(model, batch), batch.targets
    origins = np.arange(len(batch)) if origins is None else origins
    gram = np.zeros((model.d_in, model.d_in))
    cross = np.zeros((model.d_in, model.horizon))
    row_sum = np.zeros(model.d_in)
    target_sum = np.zeros(model.horizon)
    energy = 0.0
    for start in range(0, len(origins), 64):
        idx = origins[start : start + 64]
        rows = S[idx].reshape(-1, model.d_in)
        target = Y[idx].reshape(-1, model.horizon)
        gram += rows.T @ rows
        cross += rows.T @ target
        row_sum += rows.sum(axis=0)
        target_sum += target.sum(axis=0)
        energy += float(np.sum(target * target))
    return gram, cross, row_sum, target_sum, energy


class TestWindowStats:
    @settings(max_examples=80, deadline=None)
    @given(lookback=st.integers(1, 12).map(lambda half: 2 * half), horizon=st.integers(1, 9),
           channels=st.integers(1, 4), n=st.integers(1, 150), use_haar=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_equal_to_blocked_sums(self, lookback, horizon, channels, n, use_haar, seed):
        # an offset keeps the row sums away from zero, where relative error means nothing
        values = 0.5 + np.random.default_rng(seed).normal(
            size=(channels, n + lookback + horizon - 1))
        batch = WindowBatch(values, lookback, horizon)
        assert len(batch) == n
        model = init_model(lookback, horizon, 1, seed=0, use_haar=use_haar)
        for got, want in zip(window_stats(model, batch), reference_stats(model, batch)):
            assert_close(got, want)

    @pytest.mark.parametrize("use_haar", [True, False])
    def test_long_series(self, use_haar):
        # as long as a full ETTh1 series: every window sum runs over ~18k terms
        values = 0.5 + np.random.default_rng(3).normal(size=(2, 18000))
        batch = WindowBatch(values, 16, 8)
        model = init_model(16, 8, 1, seed=0, use_haar=use_haar)
        for got, want in zip(window_stats(model, batch), reference_stats(model, batch)):
            assert_close(got, want)

    @pytest.mark.parametrize("use_haar", [True, False])
    def test_channel_blocks_and_horizon_beyond_lookback(self, use_haar):
        # more channels than one block of the correlations and the updates,
        # and H > L, so both recurrences run to the far ends of C's rows
        channels, lookback, horizon, n = STATS_BLOCK + 3, 8, 13, 60
        values = 0.5 + np.random.default_rng(4).normal(
            size=(channels, n + lookback + horizon - 1))
        batch = WindowBatch(values, lookback, horizon)
        model = init_model(lookback, horizon, 1, seed=0, use_haar=use_haar)
        for got, want in zip(window_stats(model, batch), reference_stats(model, batch)):
            assert_close(got, want)

    def test_rejects_other_window_shapes(self):
        # window_rows took another horizon; evaluate and train hit a numpy
        # broadcast error. window_mse and dense_equivalent_grad_norm take
        # statistics, so window_stats makes the check for them
        batch = WindowBatch(np.zeros((1, 40)), 16, 8)
        wide = WindowBatch(np.zeros((EVAL_ROWS, 40)), 16, 8)  # one-window blocks, read in place
        config = TrainConfig(max_epochs=1, patience=1)
        passes = (window_stats, window_rows, LagTables, evaluate,
                  lambda model, batch: evaluate(model, wide),
                  lambda model, batch: train(model, batch, batch, config))
        for lookback, horizon in ((8, 8), (16, 4)):
            for run in passes:
                with pytest.raises(ShapeMismatchError):
                    run(init_model(lookback, horizon, 1, seed=0), batch)


class TestValidationFromStats:
    @settings(max_examples=80, deadline=None)
    @given(lookback=st.integers(1, 24), horizon=st.integers(1, 9), channels=st.integers(1, 4),
           n=st.integers(1, 150), rank=st.integers(1, 4),
           head=st.sampled_from([HEAD_LOW_RANK, HEAD_DENSE]), use_haar=st.booleans(),
           use_dct=st.booleans(), with_bias=st.booleans(), seed=st.integers(0, 2**16))
    @example(lookback=7, horizon=1, channels=1, n=20, rank=2, head=HEAD_LOW_RANK,
             use_haar=False, use_dct=True, with_bias=True, seed=0)
    # 9.6e-11 relative from the forecasts' MSE, within the absolute bound
    @example(lookback=2, horizon=1, channels=1, n=1, rank=1, head=HEAD_DENSE,
             use_haar=True, use_dct=False, with_bias=True, seed=458)
    def test_mse_equal_to_forecasts(self, lookback, horizon, channels, n, rank, head,
                                    use_haar, use_dct, with_bias, seed):
        lookback += use_haar and lookback % 2  # odd lookbacks only with the Haar stage off
        rng = np.random.default_rng(seed)
        batch = WindowBatch(rng.normal(size=(channels, n + lookback + horizon - 1)),
                            lookback, horizon)
        model = init_model(lookback, horizon, rank, seed=seed, use_haar=use_haar,
                           use_dct=use_dct, head=head, with_bias=with_bias)
        if with_bias:
            model.bias[:] = rng.normal(size=horizon)
        stats = window_stats(model, batch)
        # `window_mse`'s documented error: absolute, within 1e-12 * ||Y||^2 / N
        bound = 1e-12 * stats.target_energy / stats.rows
        assert abs(window_mse(model, stats) - forecast_mse(model, batch)) <= bound


class TestLagTables:
    @settings(max_examples=80, deadline=None)
    @given(lookback=st.integers(1, 24), horizon=st.integers(1, 9), channels=st.integers(1, 5),
           n=st.integers(1, 150), use_haar=st.booleans(), batch_size=st.integers(1, 64),
           seed=st.integers(0, 2**16))
    def test_batches_equal_row_products(self, lookback, horizon, channels, n, use_haar,
                                        batch_size, seed):
        lookback += use_haar and lookback % 2  # odd lookbacks only with the Haar stage off
        rng = np.random.default_rng(seed)
        # an offset keeps the sums away from zero, where relative error means nothing
        values = 0.5 + rng.normal(size=(channels, n + lookback + horizon - 1))
        batch = WindowBatch(values, lookback, horizon)
        model = init_model(lookback, horizon, 1, seed=0, use_haar=use_haar)
        tables = LagTables(model, batch)
        order = rng.permutation(n)
        for start in range(0, n, batch_size):  # the last batch may be partial
            origins = order[start : start + batch_size]
            stats = tables.stats(origins)
            assert stats.rows == len(origins) * channels
            for got, want in zip(stats, reference_stats(model, batch, origins)):
                assert_close(got, want)

    @pytest.mark.parametrize("head", [HEAD_LOW_RANK, HEAD_DENSE])
    @pytest.mark.parametrize("use_haar", [True, False])
    @pytest.mark.parametrize("use_dct", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradients_from_stats_match_the_row_step(self, head, use_haar, use_dct, with_bias):
        rng = np.random.default_rng(2)
        batch = WindowBatch(rng.normal(size=(6, 140)), 16, 5)
        model = init_model(16, 5, 3, seed=4, use_haar=use_haar, use_dct=use_dct, head=head,
                           with_bias=with_bias)
        if with_bias:
            model.bias[:] = rng.normal(size=5)
        origins = rng.permutation(len(batch))[:37]
        grads, loss, rows = _gradients_from_stats(model, LagTables(model, batch).stats(origins),
                                                  1e-4)
        S = np.array(window_rows(model, batch)[origins]).reshape(-1, model.d_in)
        Y = np.array(batch.targets[origins]).reshape(-1, model.horizon)
        want, want_loss = reference_step(model, S, Y, 1e-4)
        assert rows == len(S)
        assert grads.keys() == want.keys()
        for name in want:
            assert_close(grads[name], want[name])
        assert abs(loss - want_loss) <= 1e-12 * float(np.sum(Y * Y)) / len(S)

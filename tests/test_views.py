"""The zero-copy path against materialized windows.

Windows are views into their segment, the Haar rows of every window are a
view of one pass over the segment, the DCT is folded into the head, and the
full-set passes run in blocks. Each is checked here against the copied
windows and unfolded features they replace.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hadl.data import Segment, windows
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
    EVAL_BLOCK,
    TrainConfig,
    dense_equivalent_grad_norm,
    evaluate,
    gradcheck,
    gradients,
    train,
)
from hadl.transforms import haar_batch


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@st.composite
def cases(draw):
    lookback = 2 * draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 8))
    channels = draw(st.integers(1, 4))
    # up to ~2.5 blocks of windows, so the blocked passes cross block edges
    timesteps = lookback + horizon + draw(st.integers(0, 2 * EVAL_BLOCK + 40))
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
        mse, mae = evaluate(model, batch)
        assert_close(mse, np.mean(diff * diff))
        assert_close(mae, np.mean(np.abs(diff)))

        G = (2.0 / Y.size) * diff.reshape(-1, model.horizon)
        want_norm = np.linalg.norm(A.reshape(-1, model.d_in).T @ G)
        assert_close(dense_equivalent_grad_norm(model, batch), want_norm)

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

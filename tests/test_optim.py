import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hadl.optim
from hadl.data import WindowBatch, fit_transform, split, synth, windows
from hadl.errors import DivergedError, EmptyDataError, InvalidConfigError, ShapeMismatchError
from hadl.model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    dct_matrix,
    fold_dct,
    forward,
    head_apply,
    init_model,
    model_params,
    window_rows,
)
from hadl.optim import (
    EVAL_ROWS,
    AdamState,
    TrainConfig,
    adam_step,
    dense_equivalent_grad_norm,
    evaluate,
    init_adam,
    l1_penalty,
    steps_from_stats,
    train,
    write_trace_csv,
)
from oracles import (InvalidStepError, gradcheck, gradients, loss, models_equal,
                     reference_train, textbook_adam)


def realizable_windows(lookback=64, horizon=16, channels=3, length=480, seed=0):
    """Windows of the planted realizable task; a rank-2 head fits it exactly."""
    ds = synth("low_rank_target", {"length": length, "channels": channels}, seed=seed)
    train_seg, val_seg, test_seg = split(ds, "ratio", lookback=lookback)
    _, train_seg, val_seg, test_seg = fit_transform(train_seg, val_seg, test_seg)
    return (
        windows(train_seg, lookback, horizon),
        windows(val_seg, lookback, horizon),
        windows(test_seg, lookback, horizon),
    )


class TestLoss:
    def test_zero_at_exact_fit(self):
        m = init_model(4, 1, 1, seed=0)
        pred = np.ones((3, 2, 1))
        assert loss(pred, pred.copy(), m, l1_lambda=0.0) == 0.0

    def test_unit_residual(self):
        m = init_model(4, 1, 1, seed=0)
        pred = np.ones((2, 2, 1))
        target = np.zeros((2, 2, 1))
        assert loss(pred, target, m, l1_lambda=0.0) == pytest.approx(1.0)

    def test_l1_term_hand_value(self):
        m = init_model(4, 1, 1, seed=0)  # d_in=2, P (2x1), Q (1x1)
        m.P[:, 0] = [1.0, -2.0]
        m.Q[0, 0] = 3.0
        x = np.zeros((1, 1, 1))
        assert loss(x, x.copy(), m, l1_lambda=0.1) == pytest.approx(0.6)

    def test_shape_mismatch(self):
        m = init_model(4, 1, 1, seed=0)
        with pytest.raises(ShapeMismatchError):
            loss(np.zeros((2, 1, 1)), np.zeros((1, 1, 1)), m, 0.0)

    def test_bias_excluded_from_penalty(self):
        m = init_model(4, 1, 1, seed=0)
        m.bias[:] = 100.0
        params = model_params(m)
        assert l1_penalty(params) == pytest.approx(np.abs(m.P).sum() + np.abs(m.Q).sum())


class TestGradients:
    def test_zero_at_minimum(self):
        m = init_model(12, 3, 2, seed=1)
        X = np.random.default_rng(2).normal(size=(4, 2, 12))
        Y = forward(m, X)
        grads = gradients(m, X, Y, l1_lambda=0.0)
        for g in grads.values():
            assert_allclose(g, np.zeros_like(g), atol=0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m = init_model(12, 3, 2, seed=9)  # d_in=6, r=2, H=3
        X = rng.normal(size=(4, 1, 12))
        Y = rng.normal(size=(4, 1, 3))
        report = gradcheck(m, X, Y, l1_lambda=0.0, step=1e-6)
        assert report.max_rel_error < 1e-5

    def test_pure_l1_gradient_at_zero_residual(self):
        m = init_model(12, 3, 2, seed=4)
        X = np.random.default_rng(5).normal(size=(3, 1, 12))
        Y = forward(m, X)
        lam = 0.25
        grads = gradients(m, X, Y, l1_lambda=lam)
        assert_allclose(grads["P"], lam * np.sign(m.P), atol=0)
        assert_allclose(grads["Q"], lam * np.sign(m.Q), atol=0)
        assert_allclose(grads["bias"], np.zeros_like(m.bias), atol=0)

    def test_sign_at_zero_is_zero(self):
        m = init_model(4, 1, 1, seed=0)
        m.P[:] = 0.0
        X = np.random.default_rng(6).normal(size=(2, 1, 4))
        Y = forward(m, X)
        grads = gradients(m, X, Y, l1_lambda=0.5)
        assert_allclose(grads["P"], np.zeros_like(m.P), atol=0)

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for i in range(100):
            m = init_model(12, 3, 2, seed=i)
            X = rng.normal(size=(4, 1, 12))
            Y = rng.normal(size=(4, 1, 3))
            report = gradcheck(m, X, Y, l1_lambda=0.0, step=1e-6)
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-5


class TestGradcheck:
    def test_l1_away_from_kinks(self):
        rng = np.random.default_rng(8)
        m = init_model(12, 3, 2, seed=7)
        for arr in model_params(m).values():
            signs = np.where(arr == 0.0, 1.0, np.sign(arr))
            arr[:] = signs * (np.abs(arr) + 0.1)
        X = rng.normal(size=(4, 1, 12))
        Y = rng.normal(size=(4, 1, 3))
        report = gradcheck(m, X, Y, l1_lambda=0.1, step=1e-6)
        assert report.max_rel_error < 1e-4

    def test_zero_step_rejected(self):
        m = init_model(4, 1, 1, seed=0)
        with pytest.raises(InvalidStepError):
            gradcheck(m, np.zeros((1, 1, 4)), np.zeros((1, 1, 1)), 0.0, step=0.0)

    def test_report_counts_every_parameter(self):
        m = init_model(12, 3, 2, seed=0)
        report = gradcheck(
            m,
            np.random.default_rng(9).normal(size=(2, 1, 12)),
            np.random.default_rng(10).normal(size=(2, 1, 3)),
        )
        assert report.n_params == 6 * 2 + 2 * 3 + 3
        assert report.passed


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        cfg = TrainConfig(seed=0)
        params = {"w": np.array([1.0, -2.0])}
        state = init_adam(params)
        new_params, new_state = adam_step(state, params, {"w": np.zeros(2)}, cfg)
        assert np.array_equal(new_params["w"], params["w"])
        assert new_state.step == 1

    def test_constant_gradient_update_approaches_lr(self):
        cfg = TrainConfig(learning_rate=1e-3, seed=0)
        params = {"w": np.array([0.0, 5.0])}
        grads = {"w": np.array([2.5, -1.0])}
        state = init_adam(params)
        for _ in range(10_000):
            prev = params["w"].copy()
            params, state = adam_step(state, params, grads, cfg)
        update = params["w"] - prev
        assert_allclose(update, -1e-3 * np.sign(grads["w"]), rtol=1e-4)

    def test_deterministic(self):
        cfg = TrainConfig(seed=0)
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        a = adam_step(init_adam(params), params, grads, cfg)
        b = adam_step(init_adam(params), params, grads, cfg)
        assert np.array_equal(a[0]["w"], b[0]["w"])
        assert a[1].step == b[1].step

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1,
                           max_size=3),
           steps=st.integers(1, 12), learning_rate=st.floats(1e-6, 1.0),
           seed=st.integers(0, 2**16))
    def test_equals_textbook_adam_bit_for_bit(self, shapes, steps, learning_rate, seed):
        # the moments are updated in place; every value must match fresh arrays
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(learning_rate=learning_rate)
        params = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        zeros = {k: np.zeros_like(v) for k, v in params.items()}
        want, moments = dict(params), (zeros, zeros)
        state = init_adam(params)
        for step in range(1, steps + 1):
            # gradients of every scale, exact zeros included
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 4, size=v.shape)
                        * rng.integers(0, 2, size=v.shape) for k, v in params.items()}
            before = {k: v.copy() for k, v in grads.items()}
            params, state = adam_step(state, params, grads, cfg)
            want, moments = textbook_adam(want, grads, moments, step, cfg)
            assert state.step == step
            for name in params:
                assert np.array_equal(params[name], want[name])
                assert np.array_equal(state.m[name], moments[0][name])
                assert np.array_equal(state.v[name], moments[1][name])
                assert np.array_equal(grads[name], before[name])


class TestTrainConfig:
    @pytest.mark.parametrize("key, value", [
        ("learning_rate", -0.01), ("l1_lambda", -1.0), ("l1_lambda", float("nan")),
        ("max_epochs", -1), ("patience", 0), ("batch_size", 0),
        ("learning_rate", float("inf")), ("l1_lambda", float("inf")),
    ])
    def test_error_names_the_key(self, key, value):
        with pytest.raises(InvalidConfigError, match=key):
            TrainConfig(**{key: value})

    def test_patience_bounded_by_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=5, patience=6)
        TrainConfig(max_epochs=0, patience=1)  # degenerate no-training config is allowed


class TestTrain:
    def test_realizable_task_converges(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, l1_lambda=0.0, max_epochs=200,
                          patience=200, batch_size=64, seed=1)
        model = init_model(64, 16, 2, seed=5)
        best, trace = train(model, w_train, w_val, cfg)
        assert min(trace.val_mse) < 1e-4
        assert trace.best_epoch == int(np.argmin(trace.val_mse))

    def test_no_early_stop_while_improving(self):
        w_train, _, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, l1_lambda=0.0, max_epochs=30,
                          patience=1, batch_size=64, seed=1)
        model = init_model(64, 16, 2, seed=5)
        _, trace = train(model, w_train, w_train, cfg)
        assert not trace.stopped_early
        assert len(trace.val_mse) == 30

    def test_zero_epochs_returns_initial_model(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(max_epochs=0, patience=1, seed=0)
        model = init_model(64, 16, 2, seed=5)
        best, trace = train(model, w_train, w_val, cfg)
        assert models_equal(best, model)
        assert trace.train_loss == [] and trace.val_mse == []
        assert trace.best_epoch == -1

    def test_non_finite_loss_raises_diverged(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=1e300, max_epochs=3, patience=3, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergedError, match="epoch 0"):
            train(init_model(64, 16, 2, seed=5), w_train, w_val, cfg)

    def test_bit_reproducible(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=20, patience=20, seed=3)
        model = init_model(64, 16, 2, seed=5)
        best_a, trace_a = train(model, w_train, w_val, cfg)
        best_b, trace_b = train(model, w_train, w_val, cfg)
        assert models_equal(best_a, best_b)
        assert trace_a.train_loss == trace_b.train_loss
        assert trace_a.val_mse == trace_b.val_mse

    def test_gradient_norm_vanishes_at_convergence(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, l1_lambda=0.0, max_epochs=600,
                          patience=600, batch_size=64, seed=1)
        model = init_model(64, 16, 2, seed=5)
        best, _ = train(model, w_train, w_val, cfg)
        assert dense_equivalent_grad_norm(best, w_train) < 1e-3

    def test_l1_shrinks_weights_monotonically(self):
        w_train, w_val, _ = realizable_windows()
        model = init_model(64, 16, 2, seed=5)
        norms = []
        for lam in (0.0, 1e-4, 1e-3):
            cfg = TrainConfig(learning_rate=0.01, l1_lambda=lam, max_epochs=150,
                              patience=150, batch_size=64, seed=1)
            best, _ = train(model, w_train, w_val, cfg)
            norms.append(l1_penalty(model_params(best)))
        assert norms[0] >= norms[1] >= norms[2]

    @pytest.mark.parametrize("channels", [3, 40])
    def test_exact_fit_writes_no_negative_val_mse(self, channels):
        # low_rank_target is bit-exactly periodic with period 24, so the dense
        # head that copies the sample 24 steps back forecasts every window
        # exactly; a learning rate of 1e-300 keeps it there whatever rounding
        # the statistics steps' gradients carry, and each validation MSE's
        # quadratic form is rounding around 0, below it for some seeds
        lookback, horizon = 32, 8
        W = np.zeros((lookback, horizon))
        for h in range(horizon):
            W[lookback + h - 24 * (h // 24 + 1), h] = 1.0
        model = replace(init_model(lookback, horizon, None, seed=0, use_haar=False,
                                   use_dct=False, head=HEAD_DENSE, with_bias=False), W=W)
        cfg = TrainConfig(learning_rate=1e-300, l1_lambda=0.0, max_epochs=2, patience=2, seed=0)
        for seed in range(4):
            w_train, w_val, _ = realizable_windows(lookback, horizon, channels, seed=seed)
            assert evaluate(model, w_val) == (0.0, 0.0)
            _, trace = train(model, w_train, w_val, cfg)
            assert all(0.0 <= mse < 1e-12 for mse in trace.val_mse), trace.val_mse

    def test_empty_windows_rejected(self):
        w_train, w_val, _ = realizable_windows()
        # a segment one step short of a window holds no windows
        span = w_train.lookback + w_train.horizon
        empty = replace(w_train, values=w_train.values[:, : span - 1])
        assert len(empty) == 0
        with pytest.raises(EmptyDataError):
            train(init_model(64, 16, 2, seed=0), empty, w_val, TrainConfig(seed=0))

    def test_early_stopping_restores_best_snapshot(self):
        # force overfitting-style oscillation with a large lr: the returned
        # model must match the best recorded validation epoch
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.2, l1_lambda=0.0, max_epochs=40,
                          patience=5, batch_size=64, seed=2)
        model = init_model(64, 16, 2, seed=6)
        best, trace = train(model, w_train, w_val, cfg)
        from hadl.model import head_apply, transform_inputs

        A_val = transform_inputs(best, w_val.inputs).reshape(-1, best.d_in)
        Y_val = w_val.targets.reshape(-1, best.horizon)
        refit = head_apply(best, A_val) - Y_val
        assert float(np.mean(refit * refit)) == pytest.approx(min(trace.val_mse), rel=1e-12)


class TestBufferedSteps:
    """`train` reuses one epoch's step arrays; every bit of the steps must
    match fresh ones. The validation MSE comes from window statistics, not
    from the rows `reference_train` evaluates, so it matches to rounding."""

    @pytest.mark.parametrize("model_kwargs, batch_size", [
        ({}, 48),  # 257 windows: five full batches and a final one of 17
        ({}, 1000),  # one batch larger than the window set
        ({"head": HEAD_DENSE}, 48),
        ({"with_bias": False}, 48),
        ({"use_haar": False}, 48),
        ({"use_dct": False}, 64),
    ])
    def test_matches_fresh_arrays_per_step(self, model_kwargs, batch_size):
        w_train, w_val, _ = realizable_windows()
        assert len(w_train) % batch_size != 0
        cfg = TrainConfig(learning_rate=0.05, l1_lambda=1e-4, max_epochs=8, patience=3,
                          batch_size=batch_size, seed=4)
        model = init_model(64, 16, 2, seed=5, **model_kwargs)
        best, trace = train(model, w_train, w_val, cfg)
        ref_best, ref_train_loss, ref_val_mse = reference_train(model, w_train, w_val, cfg)
        assert trace.train_loss == ref_train_loss
        assert_allclose(trace.val_mse, ref_val_mse, rtol=1e-12, atol=0.0)
        assert trace.best_epoch == int(np.argmin(ref_val_mse))
        assert models_equal(best, ref_best)


class TestStatisticsSteps:
    """Many-channel steps come from `LagTables` statistics: the same training
    as fresh row products, to rounding."""

    @pytest.mark.parametrize("model_kwargs", [{}, {"head": HEAD_DENSE}, {"use_haar": False}])
    def test_train_matches_fresh_row_steps(self, monkeypatch, model_kwargs):
        # noise, not a realizable task: the quadratic form cannot resolve a
        # near-zero loss relative to itself
        values = np.random.default_rng(11).normal(size=(40, 330))
        w_train = WindowBatch(values[:, :240], 32, 8)
        w_val = WindowBatch(values[:, 200:], 32, 8)
        model = init_model(32, 8, 4, seed=3, **model_kwargs)
        assert steps_from_stats(40, model.d_in, 8, model.rank, model.head)

        def no_row_steps(*args):
            raise AssertionError("a many-channel step gathered rows")

        monkeypatch.setattr(hadl.optim, "_gradients_from_rows", no_row_steps)
        cfg = TrainConfig(learning_rate=0.05, l1_lambda=1e-4, max_epochs=3, patience=3,
                          batch_size=48, seed=4)  # 201 windows: a final batch of 9
        best, trace = train(model, w_train, w_val, cfg)
        monkeypatch.undo()
        ref_best, ref_train_loss, ref_val_mse = reference_train(model, w_train, w_val, cfg)
        assert trace.best_epoch == int(np.argmin(ref_val_mse))
        assert_allclose(trace.train_loss, ref_train_loss, rtol=1e-9, atol=0.0)
        assert_allclose(trace.val_mse, ref_val_mse, rtol=1e-9, atol=0.0)
        for name, want in model_params(ref_best).items():
            got = model_params(best)[name]
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_benchmark_shapes_fall_on_opposite_sides(self):
        # L = 512, r = 50: ETTh1 steps from rows, electricity and traffic from statistics
        for horizon in (96, 192, 336, 720):
            assert not steps_from_stats(7, 256, horizon, 50, HEAD_LOW_RANK)
            assert steps_from_stats(321, 256, horizon, 50, HEAD_LOW_RANK)
            assert steps_from_stats(862, 256, horizon, 50, HEAD_LOW_RANK)
        assert not steps_from_stats(7, 256, 96, None, HEAD_DENSE)
        assert steps_from_stats(321, 256, 96, None, HEAD_DENSE)


def eval_windows(channels: int) -> int:
    """Windows per block of `evaluate` for a batch of `channels` channels."""
    return max(1, EVAL_ROWS // channels)


def reference_residuals(model, batch):
    """(Haar rows, forecast minus target) of each block of `eval_windows`
    windows in origin order: `head_apply` on sliced, reshape-copied blocks,
    fresh arrays each."""
    folded = fold_dct(model, dct_matrix(model))
    S, Y = window_rows(model, batch), batch.targets
    size = eval_windows(batch.values.shape[0])
    for start in range(0, len(batch), size):
        rows = S[start : start + size].reshape(-1, model.d_in)
        target = Y[start : start + size].reshape(-1, model.horizon)
        yield rows, head_apply(folded, rows) - target


def reference_evaluate(model, batch):
    squared = absolute = 0.0
    for _, diff in reference_residuals(model, batch):
        squared += float(np.sum(diff * diff))
        absolute += float(np.sum(np.abs(diff)))
    count = len(batch) * batch.values.shape[0] * model.horizon
    return squared / count, absolute / count


def reference_grad_norm(model, batch):
    total = np.zeros((model.d_in, model.horizon))
    for rows, diff in reference_residuals(model, batch):
        total += rows.T @ diff
    F = dct_matrix(model)
    count = len(batch) * batch.values.shape[0] * model.horizon
    return float(np.linalg.norm((2.0 / count) * (total if F is None else F.T @ total)))


def random_batch(channels, n, lookback=64, horizon=16, seed=0):
    """n windows of a random series of `channels` channels."""
    values = np.random.default_rng(seed).normal(size=(channels, n + lookback + horizon - 1))
    batch = WindowBatch(values, lookback, horizon)
    assert len(batch) == n
    return batch


# (channels, windows): full blocks then a final one-window block; a single
# partial block; one window per block above the row budget and exactly at
# it; two windows per block, the last block one window
BLOCK_CASES = [
    (3, 2 * eval_windows(3) + 1),
    (3, eval_windows(3) // 2),
    (EVAL_ROWS + 1, 3),
    (EVAL_ROWS, 3),
    (EVAL_ROWS // 2, 5),
]


class TestBlockedPasses:
    """`evaluate` gathers each block into arrays allocated once per pass;
    every bit must match fresh per-block arrays. The grad norm comes from
    window statistics instead, so it matches the blocked pass to rounding."""

    @pytest.mark.parametrize("head", [HEAD_LOW_RANK, HEAD_DENSE])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("use_haar", [True, False])
    @pytest.mark.parametrize("use_dct", [True, False])
    def test_equal_to_sliced_blocks(self, head, with_bias, use_haar, use_dct):
        # (full blocks, windows in a last partial block) of each case
        assert [divmod(n, eval_windows(c)) for c, n in BLOCK_CASES] == [
            (2, 1), (0, eval_windows(3) // 2), (3, 0), (3, 0), (2, 1)]
        model = init_model(64, 16, 2, seed=7, head=head, with_bias=with_bias,
                           use_haar=use_haar, use_dct=use_dct)
        if with_bias:
            model.bias[:] = np.random.default_rng(8).normal(size=16)
        for seed, (channels, n) in enumerate(BLOCK_CASES):
            batch = random_batch(channels, n, seed=seed)
            assert evaluate(model, batch) == reference_evaluate(model, batch)
            assert dense_equivalent_grad_norm(model, batch) == pytest.approx(
                reference_grad_norm(model, batch), rel=1e-12, abs=0.0)

    @staticmethod
    def traced_peak(pass_, model, batch) -> int:
        """tracemalloc peak, in bytes, of one pass over a batch."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pass_(model, batch)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def etth1_peak(self, pass_) -> float:
        """tracemalloc peak of a full-set pass over ETTh1 validation at L=512,
        H=720 (2161 windows of 7 channels), in units of one block's copied
        targets or forecast: an (eval_windows(7) * 7) x 720 array."""
        batch = random_batch(7, 2161, 512, 720, seed=9)
        peak = self.traced_peak(pass_, init_model(512, 720, 50, seed=0), batch)
        return peak / (eval_windows(7) * 7 * 720 * 8)

    def test_evaluate_memory_at_etth1_shape(self):
        assert self.etth1_peak(evaluate) < 4

    def test_grad_norm_memory_at_etth1_shape(self):
        # the blocked pass peaked at 3.82: it allocated a d_in x H product per block
        assert self.etth1_peak(dense_equivalent_grad_norm) < 3.82

    def test_evaluate_memory_is_bounded_in_rows(self):
        # 400 channels: 64-window blocks would take all 32 windows, 12800 rows
        # (16 MB over the three arrays); a one-window block holds 400 rows
        channels, lookback, horizon = 400, 128, 48
        model = init_model(lookback, horizon, 8, seed=0)
        batch = random_batch(channels, 32, lookback, horizon, seed=10)
        bound = 4 * max(EVAL_ROWS, channels) * (model.d_in + 2 * horizon) * 8
        assert self.traced_peak(evaluate, model, batch) < bound


def test_trace_csv_columns(tmp_path):
    w_train, w_val, _ = realizable_windows()
    cfg = TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=0)
    _, trace = train(init_model(64, 16, 2, seed=0), w_train, w_val, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mse"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(trace.train_loss[0])

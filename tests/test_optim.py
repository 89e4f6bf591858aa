import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hadl.data import WindowBatch, fit_transform, split, synth, windows
from hadl.errors import (DivergedError, EmptyDataError, InvalidConfigError, InvalidStepError,
                         ShapeMismatchError)
from hadl.model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    dct_matrix,
    fold_dct,
    forward,
    head_apply,
    init_model,
    model_params,
    models_equal,
    replace_params,
    window_rows,
)
from hadl.optim import (
    EVAL_BLOCK,
    AdamState,
    TrainConfig,
    adam_step,
    dense_equivalent_grad_norm,
    evaluate,
    gradcheck,
    gradients,
    init_adam,
    l1_penalty,
    loss,
    train,
    write_trace_csv,
)


def realizable_windows(lookback=64, horizon=16, channels=3, length=480, seed=0):
    """Windows of the planted realizable task; a rank-2 head fits it exactly."""
    ds = synth(
        "low_rank_target",
        {"length": length, "channels": channels, "period": 24.0},
        seed=seed,
    )
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


class TestTrainConfig:
    @pytest.mark.parametrize("key, value", [
        ("learning_rate", -0.01), ("l1_lambda", -1.0),
        ("max_epochs", -1), ("patience", 0), ("batch_size", 0),
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


def reference_step(model, S, Y, l1_lambda, F):
    """The training step's arithmetic with every array freshly allocated."""
    folded = fold_dct(model, F)
    if model.head == HEAD_LOW_RANK:
        Z = S @ folded.P
        pred = Z @ model.Q
    else:
        pred = S @ folded.W
    if model.bias is not None:
        pred = pred + model.bias
    diff = pred - Y
    total = float(np.mean(diff * diff))
    G = diff * (2.0 / Y.size)
    to_dct = (lambda g: g) if F is None else (lambda g: F.T @ g)
    grads = {}
    if model.head == HEAD_LOW_RANK:
        grads["P"] = to_dct(S.T @ (G @ model.Q.T))
        grads["Q"] = Z.T @ G
    else:
        grads["W"] = to_dct(S.T @ G)
    if model.bias is not None:
        grads["bias"] = G.sum(axis=0)
    if l1_lambda > 0.0:
        for name, value in model_params(model).items():
            if name != "bias":
                grads[name] = grads[name] + l1_lambda * np.sign(value)
        total += l1_lambda * l1_penalty(model_params(model))
    return grads, total


def reference_train(model, train_windows, val_windows, config):
    """`train` with fresh fancy-indexed batches and step arrays at every step:
    (best model, train_loss, val_mse)."""
    n_train = len(train_windows)
    S_train = window_rows(model, train_windows)
    Y_train = train_windows.targets
    F = dct_matrix(model)
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
                                               config.l1_lambda, F)
            params, state = adam_step(state, params, grads, config)
            loss_sum += batch_loss * S.shape[0]
            row_count += S.shape[0]
        train_loss.append(loss_sum / row_count)
        val_mse.append(evaluate(replace_params(model, params), val_windows)[0])
        if val_mse[-1] < best_val:
            best_params, best_val, waited = params, val_mse[-1], 0
        else:
            waited += 1
            if waited >= config.patience:
                break
    return replace_params(model, best_params), train_loss, val_mse


class TestBufferedSteps:
    """`train` reuses one epoch's step arrays; every bit must match fresh ones."""

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
        assert trace.val_mse == ref_val_mse
        assert models_equal(best, ref_best)


def reference_residuals(model, batch):
    """(Haar rows, forecast minus target) of each EVAL_BLOCK windows in origin
    order: `head_apply` on sliced, reshape-copied blocks, fresh arrays each."""
    folded = fold_dct(model, dct_matrix(model))
    S, Y = window_rows(model, batch), batch.targets
    for start in range(0, len(batch), EVAL_BLOCK):
        rows = S[start : start + EVAL_BLOCK].reshape(-1, model.d_in)
        target = Y[start : start + EVAL_BLOCK].reshape(-1, model.horizon)
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


class TestBlockedPasses:
    """`evaluate` and the grad norm gather each block into arrays allocated
    once per pass; every bit must match fresh per-block arrays."""

    @pytest.mark.parametrize("head", [HEAD_LOW_RANK, HEAD_DENSE])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("use_haar", [True, False])
    @pytest.mark.parametrize("use_dct", [True, False])
    def test_equal_to_sliced_blocks(self, head, with_bias, use_haar, use_dct):
        w_train, w_val, _ = realizable_windows()
        # four full blocks and a final one of a single window; one partial block
        assert len(w_train) % EVAL_BLOCK == 1 and len(w_val) < EVAL_BLOCK
        model = init_model(64, 16, 2, seed=7, head=head, with_bias=with_bias,
                           use_haar=use_haar, use_dct=use_dct)
        if with_bias:
            model.bias[:] = np.random.default_rng(8).normal(size=16)
        for batch in (w_train, w_val):
            assert evaluate(model, batch) == reference_evaluate(model, batch)
            assert dense_equivalent_grad_norm(model, batch) == reference_grad_norm(model, batch)

    def test_evaluate_memory_at_etth1_shape(self):
        # ETTh1 validation at L=512, H=720: 2161 windows of 7 channels
        values = np.random.default_rng(9).normal(size=(7, 2161 + 512 + 720 - 1))
        batch = WindowBatch(values, 512, 720)
        assert len(batch) == 2161
        model = init_model(512, 720, 50, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate(model, batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the block's copied targets and forecast are one 448 x 720 array each
        assert peak < 4 * (EVAL_BLOCK * 7 * 720 * 8)


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

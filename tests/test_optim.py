import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hadl.optim
from hadl.data import WindowBatch, fit_transform, split, synth, windows
from hadl.errors import DivergedError, InvalidConfigError, SegmentTooShortError, ShapeMismatchError
from hadl.model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    dct_matrix,
    fold_dct,
    forward,
    haar_rows,
    head_apply,
    init_model,
    model_params,
    window_rows,
)
from hadl.optim import (
    EVAL_ROWS,
    AdamState,
    TrainConfig,
    _gather_blocks,
    adam_step,
    dense_equivalent_grad_norm,
    evaluate,
    init_adam,
    l1_penalty,
    steps_from_stats,
    train,
    window_mse,
    window_stats,
    write_trace_csv,
)
from hadl.transforms import dct2_scaled
from oracles import (InvalidStepError, forecast_mse, gradcheck, gradients, loss, mae,
                     models_equal, package_step, reference_step, reference_train,
                     textbook_adam)


def realizable_windows(lookback=64, horizon=16, channels=3, length=480, seed=0):
    """Windows of the planted realizable task; a rank-2 head fits it exactly."""
    ds = synth("low_rank_target", length=length, channels=channels, seed=seed)
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


def exact_fit_bounds(model, X, Y) -> dict[str, float]:
    """Bounds on the rounding a low-rank step's gradients carry at an exact
    fit, where their terms cancel: a float64 epsilon of each gradient's
    largest term (F.T @ S.T @ Y @ Q.T, Z.T @ Y and Y.T @ 1, times 2 /
    Y.size) for every addition along its longest sum (rows + d_in)."""
    S = haar_rows(model, X).reshape(-1, model.d_in)
    Y = Y.reshape(-1, model.horizon)
    Z, scale = S @ fold_dct(model).P, 2.0 / Y.size
    terms = {"P": dct_matrix(model).T @ S.T @ Y @ model.Q.T, "Q": Z.T @ Y,
             "bias": Y.sum(axis=0)}
    count = len(S) + model.d_in
    return {name: count * np.finfo(float).eps * scale * float(np.max(np.abs(term)))
            for name, term in terms.items()}


class TestGradients:
    def test_zero_at_minimum(self):
        # the rank-space step's gradients are sums of terms that cancel at
        # the fit, so they are rounding-level values, not exact zeros
        m = init_model(12, 3, 2, seed=1)
        X = np.random.default_rng(2).normal(size=(4, 2, 12))
        Y = forward(m, X)
        grads = gradients(m, X, Y, l1_lambda=0.0)
        bounds = exact_fit_bounds(m, X, Y)
        for name, g in grads.items():
            assert np.max(np.abs(g)) <= bounds[name], name
        # the loss is a clamped quadratic form: rounding above 0, never below
        data_loss = hadl.optim._gradients_from_rows(m, (haar_rows(m, X), Y), 0.0)[1]
        assert 0.0 <= data_loss <= 1e-12 * float(np.sum(Y * Y)) / (4 * 2)

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
        bounds = exact_fit_bounds(m, X, Y)
        assert np.max(np.abs(grads["P"] - lam * np.sign(m.P))) <= bounds["P"]
        assert np.max(np.abs(grads["Q"] - lam * np.sign(m.Q))) <= bounds["Q"]
        assert np.max(np.abs(grads["bias"])) <= bounds["bias"]

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
            given_params, kept = params, {k: v.copy() for k, v in params.items()}
            params, state = adam_step(state, params, grads, cfg)
            want, moments = textbook_adam(want, grads, moments, step, cfg)
            assert state.step == step
            # `train` keeps its best parameters by reference: no input is written
            # or handed back
            inputs = [*given_params.values(), *grads.values(), *state.m.values(),
                      *state.v.values()]
            for name in params:
                assert np.array_equal(given_params[name], kept[name])
                assert not any(params[name] is array for array in inputs)
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
        best, trace, _ = train(model, w_train, w_val, cfg)
        assert min(trace.val_mse) < 1e-4
        assert trace.best_epoch == int(np.argmin(trace.val_mse))

    def test_no_early_stop_while_improving(self):
        w_train, _, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, l1_lambda=0.0, max_epochs=30,
                          patience=1, batch_size=64, seed=1)
        model = init_model(64, 16, 2, seed=5)
        _, trace, _ = train(model, w_train, w_train, cfg)
        assert not trace.stopped_early
        assert len(trace.val_mse) == 30

    def test_zero_epochs_returns_initial_model(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(max_epochs=0, patience=1, seed=0)
        model = init_model(64, 16, 2, seed=5)
        best, trace, _ = train(model, w_train, w_val, cfg)
        assert models_equal(best, model)
        assert trace.train_loss == [] and trace.val_mse == []
        assert trace.best_epoch == -1

    def test_non_finite_loss_raises_diverged(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=1e300, max_epochs=3, patience=3, seed=0)
        model = init_model(64, 16, 2, seed=5)
        with np.errstate(all="ignore"), pytest.raises(DivergedError, match="epoch 0"):
            train(model, w_train, w_val, cfg)

    def test_bit_reproducible(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=20, patience=20, seed=3)
        model = init_model(64, 16, 2, seed=5)
        best_a, trace_a, _ = train(model, w_train, w_val, cfg)
        best_b, trace_b, _ = train(model, w_train, w_val, cfg)
        assert models_equal(best_a, best_b)
        assert trace_a.train_loss == trace_b.train_loss
        assert trace_a.val_mse == trace_b.val_mse

    def test_gradient_norm_vanishes_at_convergence(self):
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.01, l1_lambda=0.0, max_epochs=600,
                          patience=600, batch_size=64, seed=1)
        model = init_model(64, 16, 2, seed=5)
        best, _, _ = train(model, w_train, w_val, cfg)
        assert dense_equivalent_grad_norm(best, window_stats(best, w_train)) < 1e-3

    def test_l1_shrinks_weights_monotonically(self):
        w_train, w_val, _ = realizable_windows()
        model = init_model(64, 16, 2, seed=5)
        norms = []
        for lam in (0.0, 1e-4, 1e-3):
            cfg = TrainConfig(learning_rate=0.01, l1_lambda=lam, max_epochs=150,
                              patience=150, batch_size=64, seed=1)
            best, _, _ = train(model, w_train, w_val, cfg)
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
            assert forecast_mse(model, w_val) == 0.0 and evaluate(model, w_val) == 0.0
            _, trace, _ = train(model, w_train, w_val, cfg)
            assert all(0.0 <= mse < 1e-12 for mse in trace.val_mse), trace.val_mse

    @pytest.mark.parametrize("patience", [1, 2])
    def test_stops_patience_epochs_after_the_best(self, monkeypatch, patience):
        # a scripted validation sequence: the best at epoch 2, then a tie
        # (no strict improvement) and rises; stopping one epoch late kept
        # every other test passing
        scripted = iter([3.0, 2.5, 2.0, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6])
        monkeypatch.setattr(hadl.optim, "window_mse", lambda *args: next(scripted))
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(max_epochs=10, patience=patience, seed=0)
        model = init_model(64, 16, 2, seed=5)
        _, trace, _ = train(model, w_train, w_val, cfg)
        assert trace.best_epoch == 2 and trace.stopped_early
        assert len(trace.val_mse) == trace.best_epoch + 1 + patience

    def test_empty_windows_rejected(self):
        w_train, w_val, _ = realizable_windows()
        # a segment one step short of a window holds no windows
        span = w_train.lookback + w_train.horizon
        empty = replace(w_train, values=w_train.values[:, : span - 1])
        assert len(empty) == 0
        model = init_model(64, 16, 2, seed=0)
        with pytest.raises(SegmentTooShortError, match="window sets must be non-empty"):
            train(model, empty, w_val, TrainConfig(seed=0))

    def test_early_stopping_restores_best_snapshot(self):
        # force overfitting-style oscillation with a large lr: the returned
        # model must match the best recorded validation epoch
        w_train, w_val, _ = realizable_windows()
        cfg = TrainConfig(learning_rate=0.2, l1_lambda=0.0, max_epochs=40,
                          patience=5, batch_size=64, seed=2)
        model = init_model(64, 16, 2, seed=6)
        best, trace, _ = train(model, w_train, w_val, cfg)
        from hadl.model import head_apply, transform_inputs

        A_val = transform_inputs(best, w_val.inputs).reshape(-1, best.d_in)
        Y_val = w_val.targets.reshape(-1, best.horizon)
        refit = head_apply(best, A_val) - Y_val
        assert float(np.mean(refit * refit)) == pytest.approx(min(trace.val_mse), rel=1e-12)


VARIANTS = [dict(head=head, use_haar=use_haar, use_dct=use_dct, with_bias=with_bias)
            for head in (HEAD_LOW_RANK, HEAD_DENSE) for use_haar in (True, False)
            for use_dct in (True, False) for with_bias in (True, False)]


class TestRowsStep:
    """The rows step's arithmetic (rank space for a low-rank head, F's
    halves) against the textbook residual step, `reference_step`."""

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=["-".join(map(str, v.values())) for v in VARIANTS])
    @pytest.mark.parametrize("three_d", [False, True])
    def test_matches_the_reference_step(self, variant, three_d):
        rng = np.random.default_rng(2)
        lookback = 16 if variant["use_haar"] else 13  # d_in 8, or 13: F's halves differ in size
        batch = WindowBatch(0.5 + rng.normal(size=(6, 140)), lookback, 5)
        model = init_model(lookback, 5, 3, seed=4, **variant)
        if model.bias is not None:
            model.bias[:] = rng.normal(size=5)
        origins = rng.permutation(len(batch))[:37]
        S = np.array(window_rows(model, batch)[origins])
        Y = np.array(batch.targets[origins])
        block = (S, Y) if three_d else (S.reshape(-1, model.d_in), Y.reshape(-1, 5))
        grads, loss, rows = hadl.optim._gradients_from_rows(model, block, 1e-4)
        want, want_loss = reference_step(model, S.reshape(-1, model.d_in), Y.reshape(-1, 5), 1e-4)
        assert rows == 37 * 6 and grads.keys() == want.keys()
        for name in want:
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * np.max(np.abs(want[name]))
        assert abs(loss - want_loss) <= 1e-12 * float(np.sum(Y * Y)) / rows


class TestBufferedSteps:
    """`train` gathers each step's block from views of the window set: every
    bit of its steps must match the package's own step on fresh arrays, and
    the training that of the textbook step to rounding. The validation MSE
    comes from window statistics, not from the rows `reference_train`
    evaluates, so it matches to rounding."""

    CASES = [
        ({}, 48),  # 257 windows: five full batches and a final one of 17
        ({}, 1000),  # one batch larger than the window set
        ({"head": HEAD_DENSE}, 48),
        ({"with_bias": False}, 48),
        ({"use_haar": False}, 48),
        ({"use_dct": False}, 64),
    ]

    @staticmethod
    def run(model_kwargs, batch_size, step):
        w_train, w_val, _ = realizable_windows()
        assert len(w_train) % batch_size != 0
        cfg = TrainConfig(learning_rate=0.05, l1_lambda=1e-4, max_epochs=8, patience=3,
                          batch_size=batch_size, seed=4)
        model = init_model(64, 16, 2, seed=5, **model_kwargs)
        return train(model, w_train, w_val, cfg), reference_train(model, w_train, w_val, cfg,
                                                                  step)

    @pytest.mark.parametrize("model_kwargs, batch_size", CASES)
    def test_matches_fresh_arrays_per_step(self, model_kwargs, batch_size):
        (best, trace, _), (ref_best, ref_train_loss, ref_val_mse) = self.run(
            model_kwargs, batch_size, package_step)
        assert trace.train_loss == ref_train_loss
        assert_allclose(trace.val_mse, ref_val_mse, rtol=1e-12, atol=0.0)
        assert trace.best_epoch == int(np.argmin(ref_val_mse))
        assert models_equal(best, ref_best)

    @pytest.mark.parametrize("model_kwargs, batch_size", CASES)
    def test_matches_the_textbook_steps(self, model_kwargs, batch_size):
        (best, trace, _), (ref_best, ref_train_loss, ref_val_mse) = self.run(
            model_kwargs, batch_size, reference_step)
        assert trace.best_epoch == int(np.argmin(ref_val_mse))
        assert_allclose(trace.train_loss, ref_train_loss, rtol=1e-9, atol=0.0)
        assert_allclose(trace.val_mse, ref_val_mse, rtol=1e-9, atol=0.0)
        for name, want in model_params(ref_best).items():
            got = model_params(best)[name]
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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
        best, trace, _ = train(model, w_train, w_val, cfg)
        monkeypatch.undo()
        ref_best, ref_train_loss, ref_val_mse = reference_train(model, w_train, w_val, cfg)
        assert trace.best_epoch == int(np.argmin(ref_val_mse))
        assert_allclose(trace.train_loss, ref_train_loss, rtol=1e-9, atol=0.0)
        assert_allclose(trace.val_mse, ref_val_mse, rtol=1e-9, atol=0.0)
        for name, want in model_params(ref_best).items():
            got = model_params(best)[name]
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("channels", [19, 40])
    @pytest.mark.parametrize("use_haar", [True, False])
    @pytest.mark.parametrize("head", [HEAD_LOW_RANK, HEAD_DENSE])
    def test_returns_the_training_windows_statistics(self, channels, use_haar, head):
        # the last epoch's batches, summed, stand in for the grad norm's
        # window_stats pass over the training windows
        lookback = 64 if use_haar else 32
        values = 0.5 + np.random.default_rng(channels).normal(size=(channels, 300))
        w_train = WindowBatch(values[:, :230], lookback, 16)
        w_val = WindowBatch(values[:, 150:], lookback, 16)
        model = init_model(lookback, 16, 4, seed=2, use_haar=use_haar, head=head)
        assert steps_from_stats(channels, model.d_in, 16, model.rank, head)
        cfg = TrainConfig(max_epochs=2, patience=2, batch_size=40, seed=1)
        best, _, summed = train(model, w_train, w_val, cfg)
        want = window_stats(best, w_train)
        assert summed.rows == want.rows == len(w_train) * channels
        for got, expected in zip(summed[:5], want[:5]):
            assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12 * np.max(np.abs(expected))

    def test_returns_no_statistics_from_rows_or_no_epoch(self):
        w_train, w_val, _ = realizable_windows()
        model = init_model(64, 16, 2, seed=5)
        assert not steps_from_stats(3, model.d_in, 16, model.rank, model.head)
        for epochs in (0, 1):
            cfg = TrainConfig(max_epochs=epochs, patience=1, seed=0)
            assert train(model, w_train, w_val, cfg)[2] is None
        on_stats = WindowBatch(np.random.default_rng(0).normal(size=(40, 200)), 64, 16)
        cfg = TrainConfig(max_epochs=0, patience=1, seed=0)
        assert train(model, on_stats, on_stats, cfg)[2] is None

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
    folded = fold_dct(model)
    S, Y = window_rows(model, batch), batch.targets
    size = eval_windows(batch.values.shape[0])
    for start in range(0, len(batch), size):
        rows = S[start : start + size].reshape(-1, model.d_in)
        target = Y[start : start + size].reshape(-1, model.horizon)
        yield rows, head_apply(folded, rows) - target


def reference_mae(model, batch):
    absolute = 0.0
    for _, diff in reference_residuals(model, batch):
        absolute += float(np.sum(np.abs(diff)))
    return absolute / (len(batch) * batch.values.shape[0] * model.horizon)


def reference_grad_norm(model, batch):
    total = np.zeros((model.d_in, model.horizon))
    for rows, diff in reference_residuals(model, batch):
        total += rows.T @ diff
    F = dct_matrix(model)
    count = len(batch) * batch.values.shape[0] * model.horizon
    return float(np.linalg.norm((2.0 / count) * (total if F is None else F.T @ total)))


def grad_norm_pass(model, batch):
    return dense_equivalent_grad_norm(model, window_stats(model, batch))


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
    """`evaluate`, the MAE pass, gathers each block from views of the window
    set; every bit must match sliced per-block arrays. The MSE and
    the grad norm come from window statistics instead, so they match the
    forecasts to rounding."""

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
            stats = window_stats(model, batch)
            assert evaluate(model, batch) == reference_mae(model, batch)
            assert window_mse(model, stats) == pytest.approx(
                forecast_mse(model, batch), rel=1e-12, abs=0.0)
            assert dense_equivalent_grad_norm(model, stats) == pytest.approx(
                reference_grad_norm(model, batch), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("use_haar", [True, False])
    def test_range_and_array_orders_gather_alike(self, use_haar):
        model = init_model(64, 16, 2, seed=7, use_haar=use_haar)
        batch = random_batch(3, 11, seed=3)
        S = window_rows(model, batch)
        for order in (range(11), range(2, 11, 3)):
            blocks = zip(range(0, len(order), 4), _gather_blocks(model, batch, order, 4),
                         _gather_blocks(model, batch, np.array(order), 4), strict=True)
            for start, (rows, target), (rows_a, target_a) in blocks:
                idx = list(order[start : start + 4])
                assert np.array_equal(rows, rows_a) and np.array_equal(target, target_a)
                assert np.array_equal(rows, S[idx].reshape(-1, model.d_in))
                assert np.array_equal(target, batch.targets[idx].reshape(-1, 16))

    @staticmethod
    def traced_peak(pass_, model, batch) -> int:
        """tracemalloc peak, in bytes, of one pass `pass_(model, batch)` over
        a batch, with dct_matrix(model) built before it, as a job's `train`
        has built it before its test pass."""
        dct_matrix(model)
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
        # the blocked pass peaked at 3.82: it allocated a d_in x H product per
        # block; the pass includes the statistics, as a job builds them for it
        assert self.etth1_peak(grad_norm_pass) < 3.82

    def test_evaluate_memory_is_bounded_in_rows(self):
        # 400 channels: 64-window blocks would take all 32 windows, 12800 rows
        # (16 MB over the three arrays); a one-window block holds 400 rows
        channels, lookback, horizon = 400, 128, 48
        model = init_model(lookback, horizon, 8, seed=0)
        batch = random_batch(channels, 32, lookback, horizon, seed=10)
        bound = 4 * max(EVAL_ROWS, channels) * (model.d_in + 2 * horizon) * 8
        assert self.traced_peak(evaluate, model, batch) < bound

    @pytest.mark.parametrize("use_haar", [True, False])
    def test_evaluate_memory_on_a_long_many_channel_segment(self, use_haar):
        # one-window blocks read the Haar series in place: the pass holds one
        # series, split by parity, and one block's forecast and A @ P. The
        # interleaved series and its temporary peaked at two series
        channels, lookback, horizon = 400, 128, 48
        model = init_model(lookback, horizon, 8, seed=0, use_haar=use_haar)
        batch = random_batch(channels, 2000, lookback, horizon, seed=12)
        assert eval_windows(channels) == 1
        series = channels * (batch.values.shape[1] - 1) * 8 if use_haar else 0
        block = channels * (model.d_in + 2 * horizon) * 8
        assert series > 10 * block or not use_haar
        assert self.traced_peak(evaluate, model, batch) <= series + block


class TestOneBlockAtATime:
    """Each gathered block is a fresh copy, so `train` and `evaluate` must
    drop one before the next is gathered: a loop that keeps its block holds
    two blocks' copies at every gather."""

    @staticmethod
    def watch(monkeypatch) -> list[int]:
        """Wrap `_gather_blocks` so that a weak reference watches the memory
        of every array it yields. Returns the list that gets, at each gather
        and at the end, how many of those arrays are still alive."""
        alive, refs = [], []
        gather = hadl.optim._gather_blocks

        def watched(*args):
            source = gather(*args)
            while True:
                alive.append(sum(ref() is not None for ref in refs))
                block = list(next(source, ()))
                if not block:
                    return
                refs.extend(weakref.ref(a if a.base is None else a.base) for a in block)
                yield block.pop(0), block.pop()  # the frame keeps no reference

        monkeypatch.setattr(hadl.optim, "_gather_blocks", watched)
        return alive

    def test_train_epoch(self, monkeypatch):
        alive = self.watch(monkeypatch)
        w_train, w_val, _ = realizable_windows()
        model = init_model(64, 16, 2, seed=5)
        assert not steps_from_stats(3, model.d_in, 16, model.rank, model.head)
        train(model, w_train, w_val, TrainConfig(max_epochs=2, patience=2, batch_size=48))
        assert len(alive) == 2 * (-(-len(w_train) // 48) + 1) and max(alive) == 0

    def test_evaluate_pass(self, monkeypatch):
        alive = self.watch(monkeypatch)
        batch = random_batch(3, 2 * eval_windows(3) + 1, seed=1)
        evaluate(init_model(64, 16, 2, seed=5), batch)
        assert alive == [0, 0, 0, 0]


class TestOneDctMatrix:
    """`dct_matrix` owns F: one read-only array per (d_in, lookback), which
    every function that applies a head folds in through `fold_dct`, so no
    caller builds or passes it."""

    def test_one_read_only_matrix_per_shape(self):
        model = init_model(32, 8, 2, seed=0)
        F = dct_matrix(model)
        assert dct_matrix(init_model(32, 16, 4, seed=1, head=HEAD_DENSE)) is F
        assert np.array_equal(F, dct2_scaled(np.eye(16), 32))
        with pytest.raises(ValueError, match="read-only"):
            F[0, 0] = 1.0
        assert dct_matrix(replace(model, use_haar=False)).shape == (32, 32)
        assert dct_matrix(replace(model, use_dct=False)) is None

    @pytest.mark.parametrize("lookback, use_haar", [(2, True), (64, True), (1024, True),
                                                   (1, False), (2, False), (7, False),
                                                   (33, False), (511, False)])
    def test_halves_match_the_matrix(self, lookback, use_haar):
        # `fold_dct` and `_dct_basis` take F's even/odd halves, odd d_in included
        rng = np.random.default_rng(lookback)
        for head in (HEAD_LOW_RANK, HEAD_DENSE):
            model = init_model(lookback, 6, 3, seed=lookback, use_haar=use_haar, head=head)
            F, first = dct_matrix(model), "P" if head == HEAD_LOW_RANK else "W"
            grad = rng.normal(size=getattr(model, first).shape)
            for got, want in ((getattr(fold_dct(model), first), F @ getattr(model, first)),
                              (hadl.optim._dct_basis(model, grad), F.T @ grad)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(use_haar=st.booleans(), use_dct=st.booleans(),
           head=st.sampled_from([HEAD_LOW_RANK, HEAD_DENSE]), with_bias=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_folded_head_is_the_same_predictor(self, use_haar, use_dct, head, with_bias, seed):
        # a head folded twice, or a DCT-off model folded with a DCT-on twin's
        # F, forecast as another predictor; now the model alone decides
        model = init_model(16, 4, 2, seed=seed, use_haar=use_haar, use_dct=use_dct, head=head,
                           with_bias=with_bias)
        if with_bias:
            model.bias[:] = np.random.default_rng(seed).normal(size=4)
        batch = random_batch(3, 20, 16, 4, seed=seed)
        stats, folded = window_stats(model, batch), fold_dct(model)
        assert fold_dct(folded) is folded and (use_dct or folded is model)
        assert window_mse(folded, stats) == window_mse(model, stats) == pytest.approx(
            forecast_mse(model, batch), rel=1e-12, abs=0.0)
        assert evaluate(folded, batch) == evaluate(model, batch) == pytest.approx(
            mae(forward(model, batch.inputs), batch.targets), rel=1e-12, abs=0.0)
        # the grad norm is w.r.t. each model's own first factor: the folded
        # head's is F @ P, whose gradient F.T maps back to the DCT basis
        norm = dense_equivalent_grad_norm(folded, stats)
        assert norm == pytest.approx(reference_grad_norm(folded, batch), rel=1e-12, abs=0.0)
        if not use_dct:
            assert norm == dense_equivalent_grad_norm(model, stats)

    @pytest.mark.parametrize("channels", [3, 40])
    def test_tables_only_for_statistics_steps(self, channels, monkeypatch):
        # `train` picks its step source from the shapes alone, for a model of
        # either DCT setting and for a folded head
        assert steps_from_stats(channels, 16, 8, 2, HEAD_LOW_RANK) == (channels == 40)
        w_train, w_val, _ = realizable_windows(32, 8, channels)
        calls = []
        for name in ("LagTables", "adam_step"):
            original = getattr(hadl.optim, name)
            monkeypatch.setattr(hadl.optim, name,
                                lambda *a, f=original, n=name: calls.append(n) or f(*a))
        cfg = TrainConfig(max_epochs=1, patience=1, seed=0)
        on = init_model(32, 8, 2, seed=0)
        for model in (on, replace(on, use_dct=False), fold_dct(on)):
            calls.clear()
            train(model, w_train, w_val, cfg)
            assert "adam_step" in calls and ("LagTables" in calls) == (channels == 40)


def test_trace_csv_columns(tmp_path):
    w_train, w_val, _ = realizable_windows()
    cfg = TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=0)
    model = init_model(64, 16, 2, seed=0)
    _, trace, _ = train(model, w_train, w_val, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mse"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(trace.train_loss[0])

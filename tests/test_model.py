import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hadl.errors import OddLengthError, ShapeMismatchError
from hadl.model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    HadlModel,
    effective_weight,
    forward,
    head_apply,
    head_into,
    init_model,
    kilo_display,
    load_checkpoint,
    model_params,
    param_count,
    replace_params,
    save_checkpoint,
    transform_inputs,
)
from oracles import floor_kilo_display, models_equal

SQRT2 = math.sqrt(2.0)


def small_model(seed=0, lookback=8, horizon=3, rank=2, **kwargs):
    return init_model(lookback, horizon, rank, seed=seed, **kwargs)


class TestForward:
    def test_zero_weights_expose_bias(self):
        m = small_model()
        m.P[:] = 0.0
        m.bias[:] = [1.5, -2.0, 0.25]
        out = forward(m, np.random.default_rng(0).normal(size=(4, 2, 8)))
        assert out.shape == (4, 2, 3)
        assert_allclose(out, np.broadcast_to(m.bias, out.shape), atol=0)

    def test_constant_input_closed_form(self):
        # haar lifts a constant c to sqrt(2)*c; the scaled DCT then leaves
        # only the DC coefficient, so the head sees [sqrt(2)*c, 0, ..., 0]
        m = small_model(seed=3, lookback=16, horizon=4, rank=2)
        c = 0.8
        X = np.full((1, 1, 16), c)
        A = transform_inputs(m, X)
        expected_feature = np.zeros(8)
        expected_feature[0] = SQRT2 * c
        assert_allclose(A[0, 0], expected_feature, atol=1e-12)
        out = forward(m, X)
        assert_allclose(out[0, 0], SQRT2 * c * (m.P @ m.Q)[0, :] + m.bias, rtol=1e-12)

    def test_low_rank_matches_dense_at_full_rank(self):
        rng = np.random.default_rng(4)
        for d_in in range(1, 9):
            for horizon in range(1, 9):
                lookback = 2 * d_in
                r = min(d_in, horizon)
                lr = init_model(lookback, horizon, r, seed=7)
                dense = init_model(lookback, horizon, r, seed=7, head=HEAD_DENSE)
                dense.W = lr.P @ lr.Q
                dense.bias = lr.bias.copy()
                X = rng.normal(size=(3, 2, lookback))
                assert_allclose(forward(dense, X), forward(lr, X), atol=1e-10)

    def test_linear_in_input_without_bias(self):
        m = small_model(seed=5, with_bias=False)
        rng = np.random.default_rng(6)
        X, Y = rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 3, 8))
        a, b = 1.25, -0.5
        combined = forward(m, a * X + b * Y)
        assert_allclose(combined, a * forward(m, X) + b * forward(m, Y), rtol=1e-9, atol=1e-12)

    def test_channel_permutation_equivariance(self):
        m = small_model(seed=8)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2, 5, 8))
        perm = rng.permutation(5)
        assert_allclose(forward(m, X[:, perm]), forward(m, X)[:, perm], atol=0)

    def test_wrong_lookback_rejected(self):
        with pytest.raises(ShapeMismatchError):
            forward(small_model(), np.zeros((1, 1, 10)))

    def test_variant_flags_change_the_pipeline(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(1, 1, 8))
        m_all = init_model(8, 3, 2, seed=1)
        m_nohaar = init_model(8, 3, 2, seed=1, use_haar=False)
        m_nodct = init_model(8, 3, 2, seed=1, use_dct=False)
        assert transform_inputs(m_all, X).shape == (1, 1, 4)
        assert transform_inputs(m_nohaar, X).shape == (1, 1, 8)
        # without haar the DCT keeps the same 2/L constant on the full row
        from hadl.transforms import dct2_raw, haar_batch

        assert_allclose(transform_inputs(m_nohaar, X), 0.25 * dct2_raw(X), atol=0)
        assert_allclose(transform_inputs(m_nodct, X), haar_batch(X), atol=0)


class TestEffectiveWeight:
    def test_rank_one_outer_product(self):
        m = small_model()
        m.P[:] = 0.0
        m.Q[:] = 0.0
        m.P[0, 0] = 1.0
        m.Q[0, 0] = 1.0
        W = effective_weight(m)
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0
        assert_allclose(W, expected, atol=0)

    def test_sum_of_outer_products(self):
        m = small_model(seed=11)
        expected = np.outer(m.P[:, 0], m.Q[0]) + np.outer(m.P[:, 1], m.Q[1])
        assert_allclose(effective_weight(m), expected, rtol=1e-12)

    def test_zero_factor_gives_zero_matrix(self):
        m = small_model()
        m.P[:] = 0.0
        assert_allclose(effective_weight(m), np.zeros((4, 3)), atol=0)

    def test_dense_head_is_w(self):
        m = small_model(head=HEAD_DENSE)
        assert effective_weight(m) is m.W


@pytest.mark.parametrize("kwargs", [{}, {"head": HEAD_DENSE}, {"with_bias": False}])
def test_head_apply_is_the_explicit_product(kwargs):
    m = small_model(seed=3, **kwargs)
    if m.bias is not None:
        m.bias[:] = [0.5, -1.0, 2.0]
    A = np.random.default_rng(4).normal(size=(5, 2, m.d_in))
    want = (A @ m.P) @ m.Q if m.head == HEAD_LOW_RANK else A @ m.W
    if m.bias is not None:
        want = want + m.bias
    assert np.array_equal(head_apply(m, A), want)
    out = np.full((10, 3), np.nan)
    Z = head_into(m, A.reshape(10, m.d_in), out)
    assert np.array_equal(out, want.reshape(10, 3))
    assert Z is None if m.head == HEAD_DENSE else np.array_equal(Z, A.reshape(10, -1) @ m.P)


class TestParamCount:
    def test_breakdown_sums_to_total(self):
        pc = param_count(512, 96, 50, with_bias=True, use_haar=True)
        assert pc.total == sum(pc.breakdown.values())
        assert pc.breakdown == {"P": 256 * 50, "Q": 50 * 96, "bias": 96}

    @pytest.mark.parametrize(
        "horizon,total,display",
        [(96, 17696, "17.6K"), (192, 22592, "22.5K"), (336, 29936, "29.9K"), (720, 49520, "49.5K")],
    )
    def test_rank50_summary_cells(self, horizon, total, display):
        pc = param_count(512, horizon, 50, with_bias=True, use_haar=True)
        assert pc.total == total
        assert floor_kilo_display(pc.total) == display

    @pytest.mark.parametrize(
        "horizon,with_haar,without_haar",
        [(96, 14176, 24416), (192, 18112, 28352), (336, 24016, 34256), (720, 39760, 50000)],
    )
    def test_rank40_haar_ablation_cells(self, horizon, with_haar, without_haar):
        assert param_count(512, horizon, 40, True, use_haar=True).total == with_haar
        assert param_count(512, horizon, 40, True, use_haar=False).total == without_haar

    @pytest.mark.parametrize(
        "horizon,low_rank,dense",
        [(96, 14080, 24576), (192, 17920, 49152), (336, 23680, 86016), (720, 39040, 184320)],
    )
    def test_rank40_no_bias_head_cells(self, horizon, low_rank, dense):
        assert param_count(512, horizon, 40, False, True, HEAD_LOW_RANK).total == low_rank
        assert param_count(512, horizon, 40, False, True, HEAD_DENSE).total == dense

    def test_kilo_display_rounding(self):
        assert kilo_display(14176) == "14.18K"
        assert kilo_display(39040) == "39.04K"
        assert kilo_display(50000) == "50.0K"
        assert kilo_display(26496) == "26.5K"
        assert kilo_display(184320) == "184.32K"

    def test_rank_one_no_bias(self):
        assert param_count(512, 96, 1, with_bias=False, use_haar=True).total == 352

    @pytest.mark.parametrize("args, error", [
        ((512, 96, -3, True, True), ShapeMismatchError),  # was -1440 parameters
        ((512, 96, 0, True, True), ShapeMismatchError),
        ((33, 96, 50, True, True), OddLengthError),
        ((0, 96, 50, True, False), ShapeMismatchError),
        ((512, 0, 50, True, True), ShapeMismatchError),
        ((512, 96, 50, True, True, "conv"), ShapeMismatchError),
    ])
    def test_rejects_what_init_model_rejects(self, args, error):
        with pytest.raises(error):
            param_count(*args)
        lookback, horizon, rank, with_bias, use_haar, *head = args
        with pytest.raises(error):
            init_model(lookback, horizon, rank, seed=0, use_haar=use_haar, with_bias=with_bias,
                       head=head[0] if head else HEAD_LOW_RANK)

    def test_odd_lookback_counts_without_haar(self):
        assert param_count(33, 8, 2, with_bias=False, use_haar=False).total == 33 * 2 + 2 * 8


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(16, 5, 3, seed=42)
        b = init_model(16, 5, 3, seed=42)
        assert models_equal(a, b)

    def test_different_seeds_differ(self):
        a = init_model(16, 5, 3, seed=1)
        b = init_model(16, 5, 3, seed=2)
        assert not models_equal(a, b)

    def test_entries_within_fan_in_bound(self):
        m = init_model(32, 7, 4, seed=3)
        bound = 1.0 / math.sqrt(16)
        assert np.all(np.abs(m.P) <= bound)
        assert np.all(np.abs(m.Q) <= bound)
        assert_allclose(m.bias, np.zeros(7), atol=0)

    def test_dense_init(self):
        m = init_model(8, 3, 2, seed=0, head=HEAD_DENSE, with_bias=False)
        assert m.W.shape == (4, 3)
        assert m.bias is None and m.P is None


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for kwargs in [{}, {"head": HEAD_DENSE}, {"with_bias": False}, {"use_haar": False}]:
            m = small_model(seed=13, **kwargs)
            path = tmp_path / "model.npz"
            save_checkpoint(m, path)
            loaded = load_checkpoint(path)
            assert models_equal(m, loaded)

    def test_replace_params_is_nondestructive(self):
        m = small_model(seed=14)
        new = {k: v + 1.0 for k, v in model_params(m).items()}
        m2 = replace_params(m, new)
        assert not models_equal(m, m2)
        assert_allclose(m2.P, m.P + 1.0, atol=0)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hadl.errors import OddLengthError, ShapeMismatchError, TooShortError
from hadl.transforms import dct2_scaled, haar_batch
from oracles import (HaarPair, dct2_bruteforce, dct2_orthonormal, haar_forward, haar_inverse,
                     signal_energy)

SQRT2 = math.sqrt(2.0)


class TestHaarForward:
    def test_constant_signal_has_zero_detail(self):
        pair = haar_forward([1.0, 1.0, 1.0, 1.0])
        assert_allclose(pair.approx, [SQRT2, SQRT2], rtol=0, atol=1e-15)
        assert_allclose(pair.detail, [0.0, 0.0], rtol=0, atol=1e-15)

    def test_two_tap_filters_direct_evaluation(self):
        pair = haar_forward([1.0, 2.0, 3.0, 4.0])
        assert_allclose(pair.approx, [3.0 / SQRT2, 7.0 / SQRT2], rtol=1e-15)
        assert_allclose(pair.approx, [2.1213203, 4.9497475], atol=1e-7)
        assert_allclose(pair.detail, [1.0 / SQRT2, 1.0 / SQRT2], rtol=1e-15)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            haar_forward([1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            haar_forward([1.0])

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 8, 30, 64, 512):
            x = rng.normal(size=n)
            pair = haar_forward(x)
            assert_allclose(haar_inverse(pair), x, rtol=0, atol=1e-12)

    def test_energy_preserved(self):
        rng = np.random.default_rng(12)
        for n in (2, 10, 128):
            x = rng.normal(size=n)
            pair = haar_forward(x)
            total = signal_energy(pair.approx) + signal_energy(pair.detail)
            assert total == pytest.approx(signal_energy(x), rel=1e-9)

    def test_inverse_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            haar_inverse(HaarPair(approx=np.zeros(3), detail=np.zeros(2)))


class TestHaarBatch:
    def test_constant_row(self):
        out = haar_batch([[[1.0, 1.0, 1.0, 1.0]]])
        assert out.shape == (1, 1, 2)
        assert_allclose(out, [[[SQRT2, SQRT2]]], rtol=1e-15)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 1, 4))
        out = haar_batch(X)
        swapped = haar_batch(X[::-1])
        assert_allclose(swapped, out[::-1], rtol=0, atol=0)

    def test_per_pair_sums(self):
        X = np.zeros((1, 2, 6))
        X[0, 0] = [1, 2, 3, 4, 5, 6]
        out = haar_batch(X)
        assert_allclose(out[0, 0], np.array([3.0, 7.0, 11.0]) / SQRT2, rtol=1e-15)

    def test_matches_vector_path(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3, 2, 8))
        out = haar_batch(X)
        for b in range(3):
            for c in range(2):
                assert_allclose(out[b, c], haar_forward(X[b, c]).approx, rtol=0, atol=0)

    def test_odd_length_propagates(self):
        with pytest.raises(OddLengthError):
            haar_batch(np.zeros((1, 1, 5)))


class TestDct2Raw:
    """`dct2_scaled` on raw windows, the Haar stage off: rows of length N =
    lookback, scaled by 2/N."""

    def test_constant_input(self):
        n, c = 10, 2.5
        out = dct2_scaled(np.full(n, c), n)
        assert out[0] == pytest.approx(2.0 * c, rel=1e-12)
        assert_allclose(out[1:], np.zeros(n - 1), atol=1e-10)

    def test_unit_impulse_closed_form(self):
        n = 8
        x = np.zeros(n)
        x[0] = 1.0
        expected = (2.0 / n) * np.cos(np.pi * np.arange(n) / (2 * n))
        assert_allclose(dct2_scaled(x, n), expected, rtol=1e-12)

    def test_matches_bruteforce_length8(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8)
        assert_allclose(dct2_scaled(x, 8), (2.0 / 8) * dct2_bruteforce(x), rtol=1e-9)

    def test_matches_bruteforce_all_lengths(self):
        rng = np.random.default_rng(6)
        for n in range(1, 65):
            x = rng.normal(size=n)
            oracle = (2.0 / n) * dct2_bruteforce(x)
            ours = dct2_scaled(x, n)
            denom = np.maximum(np.abs(oracle), 1e-12)
            assert np.max(np.abs(ours - oracle) / denom) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=16), rng.normal(size=16)
        a, b = 2.5, -0.75
        combined = dct2_scaled(a * x + b * y, 16)
        assert_allclose(combined, a * dct2_scaled(x, 16) + b * dct2_scaled(y, 16), rtol=1e-9)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=12)
        assert_allclose(dct2_scaled(3.0 * x, 12), 3.0 * dct2_scaled(x, 12), rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            dct2_scaled(np.zeros(0), 0)


class TestDct2Scaled:
    def test_dc_unit_gain(self):
        c = 1.7
        out = dct2_scaled(np.full((1, 1, 256), c), lookback=512)
        assert out[0, 0, 0] == pytest.approx(c, rel=1e-12)
        assert_allclose(out[0, 0, 1:], np.zeros(255), atol=1e-12)

    def test_zero_input(self):
        out = dct2_scaled(np.zeros((2, 3, 8)), lookback=16)
        assert_allclose(out, np.zeros((2, 3, 8)), atol=0)

    def test_scale_applied_to_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=16)
        expected = dct2_bruteforce(x) / 16.0
        assert_allclose(dct2_scaled(x[None, None, :], lookback=32)[0, 0], expected, rtol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            dct2_scaled(np.zeros((1, 1, 16)), lookback=512)

    @pytest.mark.parametrize("lookback, lengths", [(16, (1, 7, 9, 15, 17, 32)), (7, (2, 3, 4))])
    def test_only_half_or_full_lookback_accepted(self, lookback, lengths):
        # Haar rows are lookback/2 long, raw windows lookback; an odd lookback has no half
        for n in lengths:
            with pytest.raises(ShapeMismatchError):
                dct2_scaled(np.zeros((2, n)), lookback)
        assert dct2_scaled(np.ones(lookback), lookback)[0] == pytest.approx(2.0, rel=1e-12)
        if lookback % 2 == 0:
            assert dct2_scaled(np.ones(lookback // 2), lookback)[0] == pytest.approx(1.0, rel=1e-12)

    def test_length_preserving_and_linear(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=16), rng.normal(size=16)
        sx = dct2_scaled(x[None, None], 32)
        assert sx.shape == (1, 1, 16)
        both = dct2_scaled((2.0 * x - y)[None, None], 32)
        assert_allclose(both, 2.0 * sx - dct2_scaled(y[None, None], 32), rtol=1e-9)


class TestDct2Orthonormal:
    def test_unit_impulse_energy(self):
        y = dct2_orthonormal([1.0, 0.0, 0.0, 0.0])
        assert signal_energy(y) == pytest.approx(1.0, rel=1e-12)

    def test_constant_closed_form(self):
        y = dct2_orthonormal([3.0, 3.0, 3.0, 3.0])
        assert_allclose(y, [6.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert signal_energy(y) == pytest.approx(36.0, rel=1e-12)

    def test_energy_conserved_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.normal(size=64)
            ratio = signal_energy(dct2_orthonormal(x)) / signal_energy(x)
            assert ratio == pytest.approx(1.0, rel=1e-9)

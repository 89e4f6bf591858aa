from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import hadl.data
from hadl.data import (
    KNOWN_DATASETS,
    Dataset,
    Scaler,
    Segment,
    SeriesTensor,
    _parse_cells,
    fit_transform,
    inject_noise,
    load_csv,
    load_registry,
    split,
    synth,
    windows,
)
from hadl.errors import (
    ConstantChannelError,
    EmptyFileError,
    HadlError,
    MissingValueError,
    ParseError,
    SegmentTooShortError,
    UnknownConventionError,
    UnknownKindError,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def fake_dataset(channels=2, timesteps=100, seed=0, name="toy"):
    values = np.random.default_rng(seed).normal(size=(channels, timesteps))
    return Dataset(
        name=name,
        series=SeriesTensor(values=values, channels=tuple(f"c{i}" for i in range(channels))),
        granularity="test",
        split_bounds=(int(0.7 * timesteps), int(0.8 * timesteps)),
    )


class TestLoadCsv:
    def test_toy_file_in_order(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", "date,a,b\nt0,1,4\nt1,2,5\nt2,3,6\n")
        ds = load_csv(path, "ratio")
        assert ds.series.values.shape == (2, 3)
        assert_allclose(ds.series.values, [[1, 2, 3], [4, 5, 6]])
        assert ds.series.channels == ("a", "b")
        assert ds.name == "toy"

    def test_non_numeric_cell_named(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "date,a,b\nt0,1,4\nt1,oops,5\n")
        with pytest.raises(ParseError, match="row 2.*'a'"):
            load_csv(path, "ratio")

    def test_empty_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", "date,a,b\nt0,1,\n")
        with pytest.raises(MissingValueError, match="row 1"):
            load_csv(path, "ratio")

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "nan.csv", "date,a\nt0,nan\n")
        with pytest.raises(MissingValueError):
            load_csv(path, "ratio")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(EmptyFileError):
            load_csv(path, "ratio")

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "header.csv", "date,a,b\n")
        with pytest.raises(EmptyFileError):
            load_csv(path, "ratio")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "date,a,b\nt0,1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path, "ratio")

    def test_known_name_channel_validation(self, tmp_path):
        path = write_csv(tmp_path / "ETTh1.csv", "date,a,b\nt0,1,2\n")
        with pytest.raises(ParseError, match="expected 7 channels"):
            load_csv(path, "etth")
        assert KNOWN_DATASETS["etth1"]["channels"] == 7

    def test_explicit_channel_expectation(self, tmp_path):
        path = write_csv(tmp_path / "three.csv", "date,a,b,c\nt0,1,2,3\n")
        ds = load_csv(path, "ratio", expected_channels=3)
        assert ds.series.values.shape == (3, 1)


def parse_outcome(parse, path):
    """The values a parser returns, or the type and message it raises."""
    try:
        return parse(path)
    except HadlError as exc:
        return type(exc), str(exc)


def load_values(path):
    return load_csv(path, "ratio").series.values


# load_csv must agree with the per-cell reference parser on each of these,
# whichever of its two parsers ends up reading the file
EDGE_CSVS = {
    "extra_field": ("date,a,b\nt0,1,2\nt1,3,4,5\n", ParseError),
    "trailing_comma": ("date,a,b\nt0,1,2\nt1,3,4,\n", ParseError),
    "missing_field": ("date,a,b\nt0,1,2\nt1,3\n", ParseError),
    "whitespace_line": ("date,a,b\nt0,1,2\n  \t\nt1,3,4\n", ParseError),
    "quoted_cell": ('date,a,b\nt0,"1.5"," 2 "\n', [[1.5], [2.0]]),
    "space_before_quote": ('date,a,b\nt0,"1.5", "2"\n', ParseError),
    "quoted_timestamp_comma": ('date,a,b\n"2016-07-01, 00:00",1,2\n', [[1.0], [2.0]]),
    "bom": ("\ufeffdate,a,b\nt0,1,2\n", [[1.0], [2.0]]),
    "underscore": ("date,a,b\nt0,1_5,2\n", [[15.0], [2.0]]),
    "nan": ("date,a,b\nt0,1,2\nt1,nan,4\n", MissingValueError),
    "inf": ("date,a,b\nt0,1,-inf\n", MissingValueError),
    "overflow": ("date,a,b\nt0,1e400,2\n", MissingValueError),
    "inline_hash": ("date,a,b\nt0,2 # c,2\n", ParseError),
    "header_only": ("date,a,b\n", EmptyFileError),
    "one_row": ("date,a,b\nt0,1,2", [[1.0], [2.0]]),
    "every_row_one_extra": ("date,a,b\nt0,1,2,3\nt1,4,5,6\n", ParseError),
}


@pytest.mark.parametrize("name", sorted(EDGE_CSVS))
def test_load_csv_agrees_with_parse_cells(tmp_path, name):
    text, expected = EDGE_CSVS[name]
    path = write_csv(tmp_path / "edge.csv", text)
    fast, reference = parse_outcome(load_values, path), parse_outcome(_parse_cells, path)
    if isinstance(expected, list):
        assert np.array_equal(reference, expected)
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))
    else:
        assert reference[0] is expected
        assert isinstance(fast, tuple) and fast == reference


CELL_FORMATS = (repr, "%.17g".__mod__, "%.6e".__mod__, "%.3f".__mod__, "%.25g".__mod__)


@settings(max_examples=60, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
    fmt=st.sampled_from(CELL_FORMATS),
    quoted_stamp=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_every=st.integers(0, 3),
)
def test_load_csv_bit_identical_to_parse_cells(tmp_path_factory, values, fmt, quoted_stamp,
                                               newline, blank_every):
    rows = ["date," + ",".join(f"c{c}" for c in range(values.shape[1]))]
    for t, row in enumerate(values):
        stamp = f'"2016-07-01 {t:02d}:00, Mon"' if quoted_stamp else f"2016-07-01T{t:02d}"
        rows.append(",".join([stamp, *(fmt(float(v)) for v in row)]))
        if blank_every and t % blank_every == 0:
            rows.append("")
    path = tmp_path_factory.mktemp("csv") / "random.csv"
    path.write_bytes(newline.join(rows).encode("utf-8"))
    reference = _parse_cells(path)
    # a well-formed file never reaches the per-cell parser
    with mock.patch.object(hadl.data, "_parse_cells", side_effect=AssertionError("fell back")):
        fast = load_values(path)
    assert fast.flags.c_contiguous
    assert fast.shape == reference.shape
    assert np.array_equal(fast.view(np.int64), reference.view(np.int64))


class TestSplit:
    def test_etth_step_counts(self):
        ds = fake_dataset(channels=7, timesteps=17420, name="etth_like")
        train, val, test = split(ds, "etth")
        assert train.values.shape[1] == 8640
        assert val.values.shape[1] == 2880
        assert test.values.shape[1] == 2880

    def test_ettm_step_counts(self):
        ds = fake_dataset(channels=2, timesteps=69680, name="ettm_like")
        train, val, test = split(ds, "ettm")
        assert (train.values.shape[1], val.values.shape[1], test.values.shape[1]) == (
            34560, 11520, 11520,
        )

    def test_ratio_split(self):
        ds = fake_dataset(timesteps=100)
        train, val, test = split(ds, "ratio")
        assert (train.values.shape[1], val.values.shape[1], test.values.shape[1]) == (70, 10, 20)

    def test_unknown_convention(self):
        with pytest.raises(UnknownConventionError):
            split(fake_dataset(), "foo")

    def test_lookback_extends_val_and_test_backwards(self):
        ds = fake_dataset(timesteps=100)
        train, val, test = split(ds, "ratio", lookback=8)
        assert val.values.shape[1] == 10 + 8
        assert test.values.shape[1] == 20 + 8
        # the extension is exactly the tail of the previous segment
        assert_allclose(val.values[:, :8], ds.series.values[:, 62:70], atol=0)
        assert_allclose(test.values[:, :8], ds.series.values[:, 72:80], atol=0)

    def test_segments_never_reach_forward(self):
        ds = fake_dataset(timesteps=100)
        train, val, test = split(ds, "ratio", lookback=8)
        assert_allclose(val.values[:, -1], ds.series.values[:, 79], atol=0)
        assert_allclose(train.values[:, -1], ds.series.values[:, 69], atol=0)


class TestScaler:
    def test_known_transform_value(self):
        scaler = Scaler.fit(np.array([[5.0, 3.0, 7.0, 5.0, 3.0, 7.0]]))
        assert scaler.mean[0] == pytest.approx(5.0)
        assert scaler.std[0] == pytest.approx(np.sqrt(8.0 / 3.0))
        direct = Scaler(mean=np.array([5.0]), std=np.array([2.0]))
        assert direct.transform(np.array([[9.0]]))[0, 0] == pytest.approx(2.0)

    def test_standardized_train_stats(self):
        rng = np.random.default_rng(2)
        train = Segment("train", rng.normal(7.0, 3.0, size=(3, 400)))
        scaler, train_std = fit_transform(train)
        assert_allclose(train_std.values.mean(axis=1), np.zeros(3), atol=1e-9)
        assert_allclose(train_std.values.std(axis=1), np.ones(3), atol=1e-9)

    def test_constant_channel_rejected(self):
        values = np.ones((2, 10))
        with pytest.raises(ConstantChannelError):
            Scaler.fit(values)

    def test_stats_ignore_val_and_test(self):
        rng = np.random.default_rng(3)
        train = Segment("train", rng.normal(size=(2, 100)))
        val_a = Segment("val", rng.normal(size=(2, 30)))
        val_b = Segment("val", val_a.values + 100.0)
        scaler_a, *_ = fit_transform(train, val_a)
        scaler_b, *_ = fit_transform(train, val_b)
        assert np.array_equal(scaler_a.mean, scaler_b.mean)
        assert np.array_equal(scaler_a.std, scaler_b.std)


class TestWindows:
    def test_count_and_first_window(self):
        seg = Segment("s", np.arange(20, dtype=float).reshape(2, 10))
        batch = windows(seg, lookback=4, horizon=2)
        assert len(batch) == 5
        assert_allclose(batch.inputs[0], seg.values[:, 0:4], atol=0)
        assert_allclose(batch.targets[0], seg.values[:, 4:6], atol=0)
        assert batch.origins[0] == 0

    def test_too_short_segment(self):
        seg = Segment("s", np.zeros((1, 6)))
        with pytest.raises(SegmentTooShortError):
            windows(seg, lookback=4, horizon=3)

    def test_benchmark_scale_count(self):
        seg = Segment("s", np.zeros((1, 8640)))
        batch = windows(seg, lookback=512, horizon=96)
        assert len(batch) == 8033

    @settings(max_examples=60, deadline=None)
    @given(
        timesteps=st.integers(min_value=2, max_value=60),
        lookback=st.integers(min_value=1, max_value=12),
        horizon=st.integers(min_value=1, max_value=12),
    )
    def test_windows_stay_inside_segment(self, timesteps, lookback, horizon):
        seg = Segment("s", np.arange(timesteps, dtype=float)[None, :])
        if timesteps < lookback + horizon:
            with pytest.raises(SegmentTooShortError):
                windows(seg, lookback, horizon)
            return
        batch = windows(seg, lookback, horizon)
        expected = timesteps - lookback - horizon + 1
        assert len(batch) == expected
        for b in range(len(batch)):
            t = int(batch.origins[b])
            assert_allclose(batch.inputs[b, 0], np.arange(t, t + lookback), atol=0)
            assert_allclose(
                batch.targets[b, 0], np.arange(t + lookback, t + lookback + horizon), atol=0
            )
            assert t + lookback + horizon <= timesteps


class TestInjectNoise:
    def test_eta_zero_bit_identical(self):
        seg = Segment("s", np.random.default_rng(4).normal(size=(2, 50)))
        noised = inject_noise(seg, 0.0, seed=1)
        assert np.array_equal(noised.values, seg.values)
        assert noised.values is not seg.values

    def test_noise_variance(self):
        seg = Segment("s", np.zeros((10, 10_000)))
        noised = inject_noise(seg, 0.3, seed=2)
        sample_var = float(np.var(noised.values - seg.values))
        assert sample_var == pytest.approx(0.09, rel=0.05)

    def test_different_seeds_differ(self):
        seg = Segment("s", np.zeros((1, 100)))
        a = inject_noise(seg, 0.5, seed=1)
        b = inject_noise(seg, 0.5, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_original_untouched(self):
        values = np.random.default_rng(5).normal(size=(2, 40))
        seg = Segment("s", values)
        before = values.copy()
        inject_noise(seg, 1.7, seed=3)
        assert np.array_equal(values, before)

    def test_negative_eta_rejected(self):
        with pytest.raises(HadlError, match="-0.1"):
            inject_noise(Segment("s", np.zeros((1, 4))), -0.1, seed=0)


class TestSynth:
    def test_sine_mix_bounded_and_periodic(self):
        ds = synth("sine_mix", {"length": 96, "channels": 2}, seed=7)
        values = ds.series.values
        assert values.shape == (2, 96)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)
        assert np.array_equal(values[:, : 96 - 24], values[:, 24:])

    def test_same_seed_identical(self):
        a = synth("sine_mix", {"length": 50, "channels": 3}, seed=9)
        b = synth("sine_mix", {"length": 50, "channels": 3}, seed=9)
        assert np.array_equal(a.series.values, b.series.values)

    def test_random_walk_shape(self):
        ds = synth("random_walk", {"length": 64, "channels": 4}, seed=1)
        assert ds.series.values.shape == (4, 64)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKindError):
            synth("sawtooth", {}, seed=0)

    def test_unknown_param_rejected(self):
        with pytest.raises(UnknownKindError):
            synth("random_walk", {"periods": [3]}, seed=0)

    def test_low_rank_target_is_realizable(self):
        # least-squares oracle: transformed windows predict targets exactly,
        # and the exact solution has (numerical) rank 2
        from hadl.model import init_model, transform_inputs

        ds = synth("low_rank_target", {"length": 480, "channels": 3}, seed=0)
        train_seg, val_seg, _ = split(ds, "ratio", lookback=64)
        _, train_seg, val_seg = fit_transform(train_seg, val_seg)
        batch = windows(train_seg, 64, 16)
        model = init_model(64, 16, 2, seed=0)
        A = transform_inputs(model, batch.inputs).reshape(-1, 32)
        Y = batch.targets.reshape(-1, 16)
        W, residuals, rank, _ = np.linalg.lstsq(A, Y, rcond=None)
        fit = A @ W
        assert float(np.mean((fit - Y) ** 2)) < 1e-20
        singular = np.linalg.svd(W, compute_uv=False)
        assert np.sum(singular > 1e-8 * singular[0]) <= 2


def test_load_registry(tmp_path):
    reg = tmp_path / "datasets.txt"
    # a byte-order mark was read as part of the first name
    for head in ("# comment\n", "\ufeff"):
        reg.write_text(head + "ETTh1 = data/ETTh1.csv, etth, 7\ncustom = /tmp/x.csv, ratio, 12\n",
                       encoding="utf-8")
        parsed = load_registry(reg)
        assert parsed["ETTh1"] == {"path": "data/ETTh1.csv", "convention": "etth", "channels": 7}
        assert parsed["custom"]["channels"] == 12


def test_registry_bad_line(tmp_path):
    reg = tmp_path / "datasets.txt"
    reg.write_text("ETTh1 data/ETTh1.csv\n")
    with pytest.raises(ParseError):
        load_registry(reg)


def test_registry_channel_count_not_an_integer(tmp_path):
    # was a ValueError traceback from int()
    reg = tmp_path / "datasets.txt"
    reg.write_text("# comment\nx = data/x.csv, ratio, two\n")
    with pytest.raises(ParseError, match=r"datasets.txt: line 2: channel count 'two'"):
        load_registry(reg)

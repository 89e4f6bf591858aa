import csv
import hashlib
import io
import json
import os
import re
import sys
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
    split,
    standardize,
    synth,
    windows,
)
from hadl.errors import (
    ConstantChannelError,
    HadlError,
    InvalidConfigError,
    ParseError,
    SegmentTooShortError,
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
        with pytest.raises(ParseError, match="empty cell at row 1"):
            load_csv(path, "ratio")

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "nan.csv", "date,a\nt0,nan\n")
        with pytest.raises(ParseError, match="non-finite cell at row 1"):
            load_csv(path, "ratio")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(ParseError, match="file is empty"):
            load_csv(path, "ratio")

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "header.csv", "date,a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
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


def parse_outcome(parse, path):
    """The values a parser returns, or the type and message it raises."""
    try:
        return parse(path)
    except HadlError as exc:
        return type(exc), str(exc)


def load_values(path):
    return load_csv(path, "ratio").series.values


# load_csv must agree with the per-cell reference parser on each of these,
# whichever of its two parsers ends up reading the file: the values, or a
# ParseError whose message has the given words
EDGE_CSVS = {
    "extra_field": ("date,a,b\nt0,1,2\nt1,3,4,5\n", "row 2 has 4 fields"),
    "trailing_comma": ("date,a,b\nt0,1,2\nt1,3,4,\n", "row 2 has 4 fields"),
    "missing_field": ("date,a,b\nt0,1,2\nt1,3\n", "row 2 has 2 fields"),
    "whitespace_line": ("date,a,b\nt0,1,2\n  \t\nt1,3,4\n", "row 2 has 1 fields"),
    "quoted_cell": ('date,a,b\nt0,"1.5"," 2 "\n', [[1.5], [2.0]]),
    "space_before_quote": ('date,a,b\nt0,"1.5", "2"\n', "non-numeric cell"),
    "quoted_timestamp_comma": ('date,a,b\n"2016-07-01, 00:00",1,2\n', [[1.0], [2.0]]),
    "bom": ("\ufeffdate,a,b\nt0,1,2\n", [[1.0], [2.0]]),
    "underscore": ("date,a,b\nt0,1_5,2\n", [[15.0], [2.0]]),
    "nan": ("date,a,b\nt0,1,2\nt1,nan,4\n", "non-finite cell at row 2"),
    "inf": ("date,a,b\nt0,1,-inf\n", "non-finite cell at row 1"),
    "overflow": ("date,a,b\nt0,1e400,2\n", "non-finite cell at row 1"),
    "inline_hash": ("date,a,b\nt0,2 # c,2\n", "non-numeric cell"),
    "header_only": ("date,a,b\n", "no data rows"),
    "one_row": ("date,a,b\nt0,1,2", [[1.0], [2.0]]),
    "every_row_one_extra": ("date,a,b\nt0,1,2,3\nt1,4,5,6\n", "row 1 has 4 fields"),
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
        assert reference[0] is ParseError and expected in reference[1]
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


def cache_file(path):
    return path.parent / "__hadlcache__" / (path.name + ".npz")


def parse_fails():
    """A patch under which load_csv can answer only from its cache: every
    parse opens the CSV as text first."""
    return mock.patch.object(hadl.data, "open_text", side_effect=AssertionError("parsed"))


class _Owned:
    def __init__(self, st, uid):
        self._st, self.st_uid = st, uid

    def __getattr__(self, name):
        return getattr(self._st, name)


def owned_by(uid, *paths):
    """A patch under which os.stat and os.fstat report `uid` as the owner of
    the files that are now at `paths`."""
    inodes = {os.stat(p).st_ino for p in paths}
    real_stat, real_fstat = os.stat, os.fstat

    def relabel(st):
        return _Owned(st, uid) if st.st_ino in inodes else st

    return mock.patch.multiple(hadl.data.os, stat=lambda *a, **k: relabel(real_stat(*a, **k)),
                               fstat=lambda fd: relabel(real_fstat(fd)))


def assert_same_dataset(a, b):
    assert (a.name, a.granularity, a.split_bounds) == (b.name, b.granularity, b.split_bounds)
    assert a.series.channels == b.series.channels
    for values in (a.series.values, b.series.values):
        assert values.dtype == np.float64 and values.flags.c_contiguous
    assert a.series.values.shape == b.series.values.shape
    assert np.array_equal(a.series.values.view(np.int64), b.series.values.view(np.int64))


# the csv module reads a NUL only from Python 3.11 on
HEADER_NAMES = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=(
    "" if sys.version_info >= (3, 11) else "\x00")), max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(HEADER_NAMES, min_size=1, max_size=4),
    data=st.data(),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    bom=st.booleans(),
    underscores=st.booleans(),
)
def test_cache_hit_equals_parse(tmp_path_factory, names, data, quoting, bom, underscores):
    values = data.draw(arrays(np.float64, st.tuples(st.integers(1, 5), st.just(len(names))),
                              elements=st.floats(allow_nan=False, allow_infinity=False)
                              | st.integers(-10**6, 10**6).map(float)))

    def cell(v):  # `1_000` takes the per-cell parser
        return f"{int(v):_}" if underscores and v.is_integer() and abs(v) < 1e15 else repr(v)

    text = io.StringIO()
    writer = csv.writer(text, quoting=quoting)
    writer.writerow(["date", *names])
    writer.writerows([f"t{t}", *map(cell, row)] for t, row in enumerate(values.tolist()))
    path = tmp_path_factory.mktemp("csv") / "drawn.csv"
    path.write_text(("\ufeff" if bom else "") + text.getvalue(), encoding="utf-8")
    miss = load_csv(path, "ratio")
    assert cache_file(path).is_file()
    with parse_fails():
        hit = load_csv(path, "ratio")
    assert_same_dataset(miss, hit)
    assert miss.series.channels == tuple(n.strip() for n in names)
    assert np.array_equal(miss.series.values, values.T)


class TestIngestCache:
    CSV = "date,a,b\nt0,1.5,4\nt1,2,5\nt2,3,6.25\n"

    def test_cache_layout(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        load_csv(path, "ratio")
        with np.load(cache_file(path), allow_pickle=False) as archive:
            assert sorted(archive.files) == ["meta", "values"]
            meta = json.loads(str(archive["meta"]))
            values = archive["values"]
        assert meta == {"format": hadl.data.CACHE_FORMAT, "channels": ["a", "b"],
                        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert np.array_equal(values, [[1.5, 2, 3], [4, 5, 6.25]])

    def test_trailing_nul_in_a_name_survives(self, tmp_path):
        if sys.version_info < (3, 11):
            pytest.skip("the csv module reads a NUL only from Python 3.11 on")
        path = write_csv(tmp_path / "nul.csv", "date,a\x00,\x00\nt0,1,2\n")
        load_csv(path, "ratio")
        with parse_fails():
            assert load_csv(path, "ratio").series.channels == ("a\x00", "\x00")

    def test_rewritten_digit_with_same_size_and_mtime_is_parsed(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        load_csv(path, "ratio")
        stamp = path.stat()
        write_csv(path, self.CSV.replace("1.5", "7.5"))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        assert load_csv(path, "ratio").series.values[0, 0] == 7.5
        with parse_fails():  # the cache now holds the new bytes
            assert load_csv(path, "ratio").series.values[0, 0] == 7.5

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "flipped_byte", "other_file",
                                        "other_format", "no_meta", "wrong_dtype", "wrong_rows",
                                        "fortran_order"])
    def test_damaged_cache_is_parsed_and_rewritten(self, tmp_path, capfd, damage):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        want = load_csv(path, "ratio")
        cache = cache_file(path)
        good = cache.read_bytes()
        with np.load(cache) as archive:
            meta = json.loads(str(archive["meta"]))
        if damage == "truncated":
            cache.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            cache.write_bytes(b"not a cache at all")
        elif damage == "flipped_byte":  # inside the values: a CRC error
            at = good.index(np.float64(6.25).tobytes())
            cache.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
        elif damage == "other_file":
            other = write_csv(tmp_path / "other.csv", "date,a,b\nt0,9,9\n")
            load_csv(other, "ratio")
            cache.write_bytes(cache_file(other).read_bytes())
        else:
            values = want.series.values
            if damage == "other_format":
                meta["format"] += 1
            elif damage == "wrong_dtype":
                values = values.astype(np.float32)
            elif damage == "wrong_rows":
                values = values[:1]
            elif damage == "fortran_order":  # would change Scaler.fit's sum order
                values = np.asfortranarray(values)
            arrays = {"values": values} if damage == "no_meta" else {
                "values": values, "meta": json.dumps(meta)}
            with open(cache, "wb") as handle:
                np.savez(handle, **arrays)
        assert_same_dataset(load_csv(path, "ratio"), want)
        with parse_fails():
            assert_same_dataset(load_csv(path, "ratio"), want)
        assert capfd.readouterr() == ("", "")

    def test_file_changed_during_the_parse_is_not_cached(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        real_open = hadl.data.open_text

        def touch_then_open(p):
            os.utime(p, ns=(0, path.stat().st_mtime_ns + 1))
            return real_open(p)

        with mock.patch.object(hadl.data, "open_text", side_effect=touch_then_open):
            load_csv(path, "ratio")
        assert not cache_file(path).parent.exists()

    def test_unwritable_cache_is_skipped_in_silence(self, tmp_path, capfd):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        with mock.patch.object(hadl.data.os, "replace", side_effect=PermissionError(13, "denied")):
            first = load_csv(path, "ratio")
        assert list(cache_file(path).parent.iterdir()) == []  # no temporary file left
        assert_same_dataset(load_csv(path, "ratio"), first)
        assert capfd.readouterr() == ("", "")

    def test_pipe_skips_the_cache(self, tmp_path):
        read_end, write_end = os.pipe()
        os.write(write_end, self.CSV.encode())
        os.close(write_end)
        try:
            with mock.patch.object(hadl.data.np, "load", wraps=np.load) as np_load:
                ds = load_csv(f"/dev/fd/{read_end}", "ratio", name="toy")
        finally:
            os.close(read_end)
        assert np_load.call_count == 0
        assert np.array_equal(ds.series.values, [[1.5, 2, 3], [4, 5, 6.25]])

    def plant(self, path):
        """A cache for `path`'s bytes with doubled values, as another user
        able to write the cache directory could leave it."""
        load_csv(path, "ratio")
        with np.load(cache_file(path)) as archive:
            planted = {"meta": str(archive["meta"]), "values": archive["values"] * 2}
        with open(cache_file(path), "wb") as handle:
            np.savez(handle, **planted)
        return planted["values"]

    @pytest.mark.parametrize("foreign", ["file", "directory"])
    def test_cache_of_another_user_is_not_read(self, tmp_path, capfd, foreign):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        planted = self.plant(path)
        target = cache_file(path) if foreign == "file" else cache_file(path).parent
        with owned_by(4242, target):
            assert load_csv(path, "ratio").series.values[0, 0] == 1.5
        with parse_fails():  # the parse rewrote the cache as this user's
            assert load_csv(path, "ratio").series.values[0, 0] == 1.5
        assert capfd.readouterr() == ("", "")
        assert planted[0, 0] == 3.0

    def test_cache_of_the_csv_owner_is_read_by_another_user(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", self.CSV)
        planted = self.plant(path)
        with owned_by(4242, path, cache_file(path), cache_file(path).parent), \
                mock.patch.object(hadl.data.os, "geteuid", return_value=1000), parse_fails():
            assert np.array_equal(load_csv(path, "ratio").series.values, planted)

    @pytest.mark.parametrize("text", ["date,a,b\nt0,1,oops\n", "date,a\n", "date\nt0\n"])
    def test_failed_parse_leaves_no_cache(self, tmp_path, text):
        path = write_csv(tmp_path / "bad.csv", text)
        errors = [parse_outcome(load_values, path) for _ in range(2)]
        assert errors[0] == errors[1] and issubclass(errors[0][0], HadlError)
        assert not cache_file(path).parent.exists()

    def test_known_name_checked_on_a_hit(self, tmp_path):
        path = write_csv(tmp_path / "ETTh1.csv", self.CSV)
        load_csv(path, "ratio", name="two")  # no known name: the parse writes the cache
        with parse_fails():
            with pytest.raises(ParseError, match="expected 7 channels for ETTh1, found 2"):
                load_csv(path, "etth")
            assert load_csv(path, "ratio", name="two").series.values.shape == (2, 3)


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
        with pytest.raises(InvalidConfigError, match="unknown split convention 'foo'"):
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


class TestStandardize:
    """`standardize` z-scores the whole series on the statistics of the
    convention's train segment alone."""

    @pytest.mark.parametrize("convention, timesteps", [("etth", 14500), ("ratio", 500)])
    def test_train_segment_alone_sets_the_scale(self, convention, timesteps):
        datasets = [fake_dataset(channels=3, timesteps=timesteps, seed=5) for _ in range(2)]
        train_end = split(datasets[0], convention)[0].values.shape[1]
        for dataset in datasets:
            dataset.series.values[:] = 7.0 + 3.0 * dataset.series.values
        later = datasets[1].series.values[:, train_end:]
        later[:] = 100.0 + 5.0 * later  # values past the train segment, changed
        trains = [split(standardize(dataset, convention), convention)[0].values
                  for dataset in datasets]
        assert trains[0].shape[1] == train_end
        assert np.array_equal(trains[0], trains[1])
        assert_allclose(trains[0].mean(axis=1), np.zeros(3), rtol=0, atol=1e-12)
        assert_allclose(trains[0].std(axis=1), np.ones(3), rtol=1e-12, atol=0)


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
        with pytest.raises(InvalidConfigError, match="eta must be >= 0, got -0.1"):
            inject_noise(Segment("s", np.zeros((1, 4))), -0.1, seed=0)

    def test_overflowing_eta_is_an_invalid_config(self):
        # an out-of-range config value, like a negative eta
        with pytest.raises(InvalidConfigError) as caught:
            inject_noise(Segment("s", np.zeros((2, 200))), 1e308, seed=0)
        assert str(caught.value) == "noise intensity eta=1e+308 overflows float64"

    @settings(max_examples=80, deadline=None)
    @given(
        values=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 40)),
                      elements=st.floats(-1e308, 1e308)),
        eta=st.one_of(st.floats(1e-300, 1e3), st.floats(1e300, 1e308), st.just(1e308)),
        seed=st.integers(0, 2**32),
    )
    def test_bits_of_values_plus_scaled_noise(self, values, eta, seed):
        # one array in place of `values + eta * noise`, its bits unchanged;
        # an overflow of either is the one named error, and the input,
        # which jobs share read-only, is only read
        values.flags.writeable = False
        with np.errstate(over="raise"):
            try:
                want = values + eta * np.random.default_rng(seed).standard_normal(values.shape)
            except FloatingPointError:
                want = None
        if want is None:
            with pytest.raises(HadlError, match=re.escape(f"eta={eta!r} overflows float64")):
                inject_noise(Segment("s", values), eta, seed)
            return
        got = inject_noise(Segment("s", values), eta, seed).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSynth:
    def test_sine_mix_bounded_and_periodic(self):
        ds = synth("sine_mix", length=96, channels=2, seed=7)
        values = ds.series.values
        assert values.shape == (2, 96)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)
        assert np.array_equal(values[:, : 96 - 24], values[:, 24:])

    def test_same_seed_identical(self):
        a = synth("sine_mix", length=50, channels=3, seed=9)
        b = synth("sine_mix", length=50, channels=3, seed=9)
        assert np.array_equal(a.series.values, b.series.values)

    def test_random_walk_shape(self):
        ds = synth("random_walk", length=64, channels=4, seed=1)
        assert ds.series.values.shape == (4, 64)

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfigError, match="unknown synthetic kind 'sawtooth'"):
            synth("sawtooth", seed=0)

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError, match="periods"):
            synth("random_walk", periods=[3], seed=0)

    def test_low_rank_target_is_realizable(self):
        # least-squares oracle: transformed windows predict targets exactly,
        # and the exact solution has (numerical) rank 2
        from hadl.model import init_model, transform_inputs

        ds = synth("low_rank_target", length=480, channels=3, seed=0)
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


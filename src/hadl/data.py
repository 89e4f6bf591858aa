"""Dataset ingestion, splits, standardization, windowing, noise, synthetics.

Canonical layout everywhere is channels x timesteps, float64. Splits follow
the community conventions for the hourly/quarter-hourly transformer files
(fixed step counts) and a 70/10/20 ratio for everything else; validation and
test samplers may reach back `lookback` steps before their segment for
inputs, never forward, so no target ever leaks across a boundary.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConstantChannelError, InvalidConfigError, ParseError, SegmentTooShortError,
                     ShapeMismatchError)


@dataclass(frozen=True)
class SeriesTensor:
    """A multivariate series: values (channels x timesteps) plus names."""

    values: np.ndarray
    channels: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    name: str
    series: SeriesTensor
    granularity: str
    # (train_end, val_end). Unread: synth's are ratio's whatever the convention
    split_bounds: tuple[int, int]


@dataclass(frozen=True)
class Segment:
    """A contiguous slice of a series, the unit the samplers operate on."""

    name: str
    values: np.ndarray  # (channels, timesteps)


@dataclass(frozen=True)
class WindowBatch:
    """Every lookback/horizon window pair of one segment, one per step.

    inputs[b] covers values[:, b : b+L] and targets[b] covers
    values[:, b+L : b+L+H]; origins[b] = b. Nothing is copied: inputs,
    targets and `view` are read-only views into `values`, so copy one
    before writing to it.
    """

    values: np.ndarray  # (channels, timesteps) of the segment
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return max(self.values.shape[1] - self.lookback - self.horizon + 1, 0)

    @property
    def origins(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def inputs(self) -> np.ndarray:
        """(n, channels, L) view."""
        return self.view(self.values, self.lookback)

    @property
    def targets(self) -> np.ndarray:
        """(n, channels, H) view."""
        return self.view(self.values[:, self.lookback:], self.horizon)

    def view(self, series: np.ndarray, width: int, step: int = 1) -> np.ndarray:
        """(n, channels, ceil(width/step)) read-only view of `series`: every
        `step`-th of the `width` samples that start at each window origin."""
        sliding = np.lib.stride_tricks.sliding_window_view(series, width, axis=1)
        return sliding[:, : len(self), ::step].transpose(1, 0, 2)


# Channel counts and granularities of the common benchmark files, used to
# validate a load when the file name matches.
KNOWN_DATASETS: dict[str, dict] = {
    "etth1": {"channels": 7, "convention": "etth", "granularity": "1 hour"},
    "etth2": {"channels": 7, "convention": "etth", "granularity": "1 hour"},
    "ettm1": {"channels": 7, "convention": "ettm", "granularity": "15 min"},
    "ettm2": {"channels": 7, "convention": "ettm", "granularity": "15 min"},
    "weather": {"channels": 21, "convention": "ratio", "granularity": "10 min"},
    "traffic": {"channels": 862, "convention": "ratio", "granularity": "1 hour"},
    "electricity": {"channels": 321, "convention": "ratio", "granularity": "15 min"},
}

# Fixed split step counts: (train, val, test) prefix lengths.
_ETTH_SPLIT = (8640, 2880, 2880)
_ETTM_SPLIT = (34560, 11520, 11520)

SYNTH_KINDS = ("sine_mix", "low_rank_target", "random_walk")
# Period, in steps, of the sine_mix and low_rank_target sinusoids.
SYNTH_PERIOD = 24.0
CACHE_FORMAT = 1  # load_csv's cache layout: a new value makes older caches misses


def convention_for(name: str) -> str:
    info = KNOWN_DATASETS.get(name.lower())
    return info["convention"] if info else "ratio"


@contextlib.contextmanager
def open_text(path):
    """`path` opened as UTF-8 text for reading, a leading byte-order mark
    dropped; a byte that does not decode raises a ParseError naming the file,
    wherever the reader meets it."""
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, convention: str, name: str | None = None) -> Dataset:
    """Load a header-and-timestamp CSV into a Dataset split by `convention`.

    The first column is treated as an opaque timestamp and dropped; all other
    columns must be finite decimal numbers. Row order and column order are
    preserved. Errors name the offending cell, or the convention the series
    is too short for. A known name (`KNOWN_DATASETS`) must have its channel
    count.

    numpy's C reader parses the rows; a file it rejects, or whose result
    fails a guard, goes through `_parse_cells`, which names the bad cell or
    reads text numpy does not (such as `1_5`). The result is cached in
    `<csv dir>/__hadlcache__/<file name>.npz`, keyed on the file's SHA-256.
    """
    channels, values = _cached_parse(path)
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    info = KNOWN_DATASETS.get(name.lower())
    if info is not None and values.shape[0] != info["channels"]:
        raise ParseError(
            f"{path}: expected {info['channels']} channels for {name}, found {values.shape[0]}"
        )
    granularity = info["granularity"] if info else "unknown"
    train_end, val_end, _ = _split_edges(convention, values.shape[1])
    return Dataset(
        name=name,
        series=SeriesTensor(values=values, channels=channels),
        granularity=granularity,
        split_bounds=(train_end, val_end),
    )


def _parse_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header's channel names and the (channels, timesteps) values."""
    with open_text(path) as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        if len(header) < 2:
            raise ParseError(f"{path}: need a timestamp column plus data columns")
        channels = tuple(h.strip() for h in header[1:])
        with warnings.catch_warnings():
            # a header-only file: _parse_cells raises the one error for it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                # the converter keeps loadtxt's field-count check on every
                # row, which usecols would skip (extra fields, trailing commas)
                table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"',
                                   ndmin=2, converters={0: lambda _: 0.0})
            except ValueError:
                table = None

    if (table is not None and table.shape[1] == len(header) and len(table) > 0
            and np.isfinite(table).all()):
        # C order, as _parse_cells returns it: it fixes Scaler.fit's sum order
        return channels, np.ascontiguousarray(table[:, 1:].T)
    return channels, _parse_cells(path)


def _cached_parse(path) -> tuple[tuple[str, ...], np.ndarray]:
    """`_parse_csv` through a cache keyed on the file's SHA-256, read only if it
    and its directory belong to the CSV's owner or to this user; the cache of a
    file whose size and mtime held is written. Pipes skip it; it prints nothing."""
    try:
        before, digest = os.stat(path), hashlib.sha256()
        if not stat.S_ISREG(before.st_mode):
            return _parse_csv(path)
        with open(path, "rb") as handle:
            # 64 KiB reads: freed 1 MiB ones raise glibc's mmap threshold (+1.2 MB peak RSS)
            while chunk := handle.read(1 << 16):
                digest.update(chunk)
    except OSError:
        return _parse_csv(path)  # which raises this file's error
    cache = os.path.join(os.path.dirname(path), "__hadlcache__", os.path.basename(path) + ".npz")
    meta = {"format": CACHE_FORMAT, "sha256": digest.hexdigest()}
    with contextlib.suppress(Exception):  # a damaged zip fails in many ways: all miss
        # an open handle of our own: np.load leaks the one it opens for a bad zip
        with open(cache, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            owners = {os.fstat(handle.fileno()).st_uid, os.stat(os.path.dirname(cache)).st_uid}
            stored, values = json.loads(str(archive["meta"])), archive["values"]
        channels = tuple(stored.pop("channels"))
        if (owners <= {before.st_uid, os.geteuid()} and stored == meta
                and values.dtype == np.float64 and values.ndim == 2
                and values.flags.c_contiguous and len(values) == len(channels)):
            return channels, values
    channels, values = _parse_csv(path)  # its arrays are freed before the write
    tmp = f"{cache}.{os.getpid()}.tmp.npz"
    try:
        after = os.stat(path)
        if (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
            os.makedirs(os.path.dirname(cache), exist_ok=True)
            # names as JSON: numpy string arrays drop trailing NULs
            np.savez(tmp, values=values, meta=json.dumps({**meta, "channels": channels}))
            os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return channels, values


def _parse_cells(path) -> np.ndarray:
    """The reference parser: `float()` on every cell after the header, as a
    (channels, timesteps) array. Raises a named error for the first bad row
    or cell."""
    with open_text(path) as handle:
        reader = csv.reader(handle)
        header = next(reader)  # load_csv has checked it
        channels = tuple(h.strip() for h in header[1:])
        columns: list[list[float]] = [[] for _ in channels]
        n_rows = 0
        for row_idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}"
                )
            for col_idx, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    raise ParseError(
                        f"{path}: empty cell at row {row_idx}, column {channels[col_idx]!r}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell {cell!r} at row {row_idx},"
                        f" column {channels[col_idx]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: non-finite cell at row {row_idx}, column {channels[col_idx]!r}"
                    )
                columns[col_idx].append(value)
            n_rows += 1

    if n_rows == 0:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(columns, dtype=np.float64)


def _split_edges(convention: str, timesteps: int) -> tuple[int, int, int]:
    """(train_end, val_end, test_end) timestep indices for a convention."""
    if convention == "etth":
        tr, va, te = _ETTH_SPLIT
    elif convention == "ettm":
        tr, va, te = _ETTM_SPLIT
    elif convention == "ratio":
        tr = int(0.7 * timesteps)
        va = int(0.1 * timesteps)
        te = timesteps - tr - va
    else:
        raise InvalidConfigError(f"unknown split convention {convention!r}")
    if tr + va + te > timesteps:
        raise ShapeMismatchError(
            f"series has {timesteps} steps, convention {convention!r} needs {tr + va + te}"
        )
    return tr, tr + va, tr + va + te


def split(dataset: Dataset, convention: str, lookback: int = 0) -> tuple[Segment, Segment, Segment]:
    """Cut train/val/test segments; val and test keep `lookback` extra steps
    of left context so their first windows start right at the boundary."""
    values = dataset.series.values
    train_end, val_end, test_end = _split_edges(convention, values.shape[1])
    train = Segment(f"{dataset.name}/train", values[:, :train_end])
    val = Segment(f"{dataset.name}/val", values[:, max(train_end - lookback, 0) : val_end])
    test = Segment(f"{dataset.name}/test", values[:, max(val_end - lookback, 0) : test_end])
    return train, val, test


@dataclass(frozen=True)
class Scaler:
    """Per-channel z-score statistics, fitted on the training segment only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        mean = values.mean(axis=1)
        std = values.std(axis=1)
        if np.any(std == 0.0):
            bad = int(np.argmax(std == 0.0))
            raise ConstantChannelError(f"channel {bad} is constant on the training segment")
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean[:, None]) / self.std[:, None]


def _fit_scaler(train: Segment) -> Scaler:
    if train.values.shape[1] == 0:  # the mean and std of no steps are NaN
        raise SegmentTooShortError(f"{train.name}: 0 steps, nothing to fit the scaler on")
    return Scaler.fit(train.values)


def fit_transform(train: Segment, *others: Segment) -> tuple:
    """Fit a Scaler on the train segment and standardize all given segments.

    Returns (scaler, train_std, *others_std). Statistics never see val/test
    content.
    """
    scaler = _fit_scaler(train)
    out = [Segment(seg.name, scaler.transform(seg.values)) for seg in (train, *others)]
    return (scaler, *out)


def standardize(dataset: Dataset, convention: str) -> Dataset:
    """`dataset` z-scored in place on `convention`'s train segment, which no
    lookback changes, then made read-only: `split` then cuts every job's
    segments as views of it, bit-equal to `fit_transform`'s copies."""
    values = dataset.series.values
    scaler = _fit_scaler(split(dataset, convention)[0])
    values -= scaler.mean[:, None]
    values /= scaler.std[:, None]
    values.flags.writeable = False
    return dataset


def windows(segment: Segment, lookback: int, horizon: int) -> WindowBatch:
    """All (input, target) windows of a segment in origin order, as views.

    Window b covers [b, b+L) for inputs and [b+L, b+L+H) for targets;
    nothing ever reads past the end of the segment.
    """
    T = segment.values.shape[1]
    if T < lookback + horizon:
        raise SegmentTooShortError(
            f"{segment.name}: {T} steps cannot fit lookback {lookback} + horizon {horizon}"
        )
    return WindowBatch(segment.values, lookback, horizon)


def inject_noise(segment: Segment, eta: float, seed: int) -> Segment:
    """Additive standard-normal noise scaled by eta, as a new segment.

    Pure: the input segment (and anything sharing its memory) is untouched.
    eta = 0 returns a bit-identical copy. An eta whose noisy values overflow
    float64 is an InvalidConfigError naming it, not an overflow warning and a
    diverged run.
    """
    if eta < 0.0:
        raise InvalidConfigError(f"eta must be >= 0, got {eta}")
    if eta == 0.0:
        return Segment(segment.name, segment.values.copy())
    noise = np.random.default_rng(seed).standard_normal(segment.values.shape)
    try:
        with np.errstate(over="raise"):
            noise *= eta  # the bits of values + eta * noise, in one array
            noise += segment.values
    except FloatingPointError:
        raise InvalidConfigError(f"noise intensity eta={eta!r} overflows float64") from None
    return Segment(segment.name, noise)


def synth(kind: str, length: int = 480, channels: int = 3, seed: int = 0) -> Dataset:
    """Deterministic desk-scale test signals: `channels` series of `length` steps.

    kinds:
      sine_mix       one unit sinusoid of period SYNTH_PERIOD per channel,
                     with a random phase; bit-exactly periodic.
      low_rank_target the same with a random amplitude as well. The
                     window-to-target map of such a signal factors through
                     its two-dimensional oscillator state, so a rank-2 head
                     can fit it exactly: a realizable task for optimizer
                     tests.
      random_walk    cumulative sum of seeded standard-normal steps.
    """
    if kind not in SYNTH_KINDS:
        raise InvalidConfigError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "random_walk":
        values = np.cumsum(rng.normal(0.0, 1.0, size=(channels, length)), axis=1)
    else:
        t = np.arange(length, dtype=np.float64)
        values = np.zeros((channels, length), dtype=np.float64)
        for c in range(channels):
            amp = rng.uniform(0.5, 1.5) if kind == "low_rank_target" else 1.0
            phase = rng.uniform(0.0, 1.0)
            # t % SYNTH_PERIOD keeps x[t] == x[t + SYNTH_PERIOD] bit-exact
            values[c] = amp * np.sin(2.0 * np.pi * ((t % SYNTH_PERIOD) / SYNTH_PERIOD + phase))

    train_end, val_end, _ = _split_edges("ratio", length)
    return Dataset(
        name=kind,
        series=SeriesTensor(values=values, channels=tuple(f"ch{i}" for i in range(channels))),
        granularity="synthetic",
        split_bounds=(train_end, val_end),
    )

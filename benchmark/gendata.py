"""Seeded input series for the benchmark, generated without hadl.

A series is a slow random walk riding on daily and weekly cycles with
AR(1) noise, one column per channel. The cycles and the short-memory noise
keep the z-scored test MSE within a few percent from seed to seed; a pure
random walk wanders so far that its test MSE moves by half between seeds,
which no regression bound could absorb.
"""

from __future__ import annotations

import numpy as np

DAY, WEEK = 24, 168
CYCLE_AMPLITUDES = (2.0, 1.0)
NOISE_PHI = 0.5
WALK_STEP = 0.001


def series(seed: int, rows: int, channels: int) -> np.ndarray:
    """(rows, channels) float64 values; equal seeds give equal arrays."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)[:, None]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, channels))
    values = CYCLE_AMPLITUDES[0] * np.sin(2.0 * np.pi * t / DAY + phases[0])
    values += CYCLE_AMPLITUDES[1] * np.sin(2.0 * np.pi * t / WEEK + phases[1])
    shocks = rng.standard_normal((rows, channels))
    noise = np.empty_like(shocks)
    level = np.zeros(channels)
    for row in range(rows):
        level = NOISE_PHI * level + shocks[row]
        noise[row] = level
    values += noise
    values += np.cumsum(WALK_STEP * rng.standard_normal((rows, channels)), axis=0)
    return values


def write_csv(path, values: np.ndarray) -> None:
    """Header plus an integer timestamp column; %.17g round-trips float64."""
    header = "date," + ",".join(f"ch{c}" for c in range(values.shape[1]))
    stamped = np.column_stack([np.arange(values.shape[0]), values])
    fmt = ["%d"] + ["%.17g"] * values.shape[1]
    np.savetxt(path, stamped, fmt=fmt, delimiter=",", header=header, comments="")

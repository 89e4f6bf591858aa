"""The forecasting model: Haar compression, scaled DCT features, linear head.

A model maps (batch, channels, L) inputs to (batch, channels, H) forecasts.
The head (low-rank P@Q factors or a dense matrix, plus optional bias) is
shared by every channel; the transforms carry no trainable state, so the
head parameters are the only parameters.

The scaled DCT-II is a fixed linear map F, so A @ P = S @ (F @ P) for Haar
rows S and their DCT features A = S @ F. Predictions are computed that way
(`fold_dct`): the DCT costs one d_in x d_in product per head instead of one
per input row, and P (or W) stays in the DCT basis the L1 penalty and the
checkpoints use.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import CorruptCheckpointError, HadlError, InvalidConfigError, ShapeMismatchError
from .transforms import dct2_scaled, haar_batch, haar_pairs

HEAD_LOW_RANK = "low_rank"
HEAD_DENSE = "dense"
# each head kind's factor names in draw order; the first is the one F folds into
HEAD_FACTORS = {HEAD_LOW_RANK: ("P", "Q"), HEAD_DENSE: ("W",)}


@dataclass(eq=False)
class HadlModel:
    """Trainable state plus the variant flags that define the pipeline.

    Low-rank head: P (d_in x r) and Q (r x H). Dense head: W (d_in x H).
    bias is (H,) or None. d_in is L/2 when the Haar stage is on, else L.
    """

    lookback: int
    horizon: int
    use_haar: bool = True
    use_dct: bool = True
    head: str = HEAD_LOW_RANK
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    W: np.ndarray | None = None
    bias: np.ndarray | None = None
    seed: int = 0

    @property
    def d_in(self) -> int:
        return self.lookback // 2 if self.use_haar else self.lookback

    @property
    def rank(self) -> int | None:
        return None if self.P is None else int(self.P.shape[1])


@dataclass(frozen=True)
class ParamCount:
    """Total trainable parameters with a per-component breakdown."""

    total: int
    breakdown: dict[str, int] = field(default_factory=dict)


def param_shapes(lookback: int, horizon: int, rank: int, with_bias: bool, use_haar: bool,
                 head: str) -> dict[str, tuple[int, ...]]:
    """The trainable arrays' shapes by name, in draw order, for any variant:
    P (d_in x r) and Q (r x H), or W (d_in x H), then bias (H,); d_in is L/2
    with the Haar stage on, else L. The one check that such a model exists:
    positive lookback and horizon, an even lookback with the Haar stage on,
    a known head, rank >= 1 if low-rank."""
    if lookback < 1 or horizon < 1:
        raise ShapeMismatchError(
            f"lookback and horizon must be positive, got {lookback}, {horizon}"
        )
    if use_haar and lookback % 2 != 0:
        raise ShapeMismatchError(f"lookback must be even with the Haar stage on, got {lookback}")
    if head not in HEAD_FACTORS:
        raise InvalidConfigError(f"unknown head kind {head!r}")
    if head == HEAD_LOW_RANK and rank < 1:
        raise ShapeMismatchError(f"rank must be >= 1, got {rank}")
    d_in = lookback // 2 if use_haar else lookback
    # the factors chain d_in -> (r ->) H
    dims = (d_in, rank, horizon) if head == HEAD_LOW_RANK else (d_in, horizon)
    shapes = dict(zip(HEAD_FACTORS[head], zip(dims, dims[1:])))
    if with_bias:
        shapes["bias"] = (horizon,)
    return shapes


def init_model(
    lookback: int,
    horizon: int,
    rank: int,
    seed: int,
    use_haar: bool = True,
    use_dct: bool = True,
    head: str = HEAD_LOW_RANK,
    with_bias: bool = True,
) -> HadlModel:
    """Build a model with fan-in-scaled uniform weights and zero bias.

    Weights are i.i.d. uniform on [-1/sqrt(d_in), +1/sqrt(d_in)], drawn from
    a generator seeded with `seed` in `param_shapes` order, so identical
    arguments give bit-identical models. The scheme is recorded via `seed`
    for run metadata.
    """
    shapes = param_shapes(lookback, horizon, rank, with_bias, use_haar, head)
    model = HadlModel(lookback=lookback, horizon=horizon, use_haar=use_haar, use_dct=use_dct,
                      head=head, seed=seed)
    bound = 1.0 / math.sqrt(model.d_in)
    rng = np.random.default_rng(seed)
    params = {name: np.zeros(shape) if name == "bias" else rng.uniform(-bound, bound, size=shape)
              for name, shape in shapes.items()}
    return replace_params(model, params)


def haar_rows(model: HadlModel, X) -> np.ndarray:
    """The Haar stage alone: (..., L) -> (..., d_in); identity with it off."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != model.lookback:
        raise ShapeMismatchError(
            f"last axis has length {X.shape[-1]}, model lookback is {model.lookback}"
        )
    return haar_batch(X) if model.use_haar else X


def check_windows(model: HadlModel, batch) -> None:
    """Raise ShapeMismatchError unless a WindowBatch's windows have the
    model's lookback and horizon."""
    if (batch.lookback, batch.horizon) != (model.lookback, model.horizon):
        raise ShapeMismatchError(
            f"windows have lookback/horizon {batch.lookback}/{batch.horizon},"
            f" model has {model.lookback}/{model.horizon}"
        )


def haar_series(model: HadlModel, batch):
    """(s, step, last) for a WindowBatch of the model's lookback and horizon:
    feature i of the window at origin b is s[c, b + step*i], where s =
    haar_pairs(values) and step = 2 (s = values and step = 1 with the Haar
    stage off), and `last` is one past the last sample of s any feature reads."""
    check_windows(model, batch)
    s, step = (haar_pairs(batch.values), 2) if model.use_haar else (batch.values, 1)
    return s, step, step * (model.d_in - 1) + len(batch)


def window_rows(model: HadlModel, batch) -> np.ndarray:
    """`haar_rows` of every window of a WindowBatch, as a read-only
    (n, channels, d_in) view of its `haar_series`, so nothing is copied."""
    s, step, _ = haar_series(model, batch)
    return batch.view(s, step * (model.d_in - 1) + 1, step)


def dct_matrix(model: HadlModel) -> np.ndarray | None:
    """The d_in x d_in matrix F of the DCT stage (its image of the identity),
    so transform_inputs(X) = haar_rows(X) @ F up to rounding; None with the
    DCT stage off. One read-only array per (d_in, lookback), built on first
    use in a process, so no caller builds or passes F."""
    return _dct_of_shape(model.d_in, model.lookback) if model.use_dct else None


@cache
def _dct_of_shape(d_in: int, lookback: int) -> np.ndarray:
    F = dct2_scaled(np.eye(d_in), lookback)
    F.setflags(write=False)
    return F


def fold_dct(model: HadlModel) -> HadlModel:
    """The same predictor for `haar_rows` inputs: `dct_matrix(model)` folded
    into the first head factor (P or W), the DCT stage switched off. A model
    whose DCT stage is off, a folded head included, is returned as it is."""
    if not model.use_dct:
        return model
    first = HEAD_FACTORS[model.head][0]
    return replace(model, use_dct=False, **{first: dct_matrix(model) @ getattr(model, first)})


def transform_inputs(model: HadlModel, X) -> np.ndarray:
    """Apply the configured Haar/DCT stages along the last axis.

    Input shape (..., L), output (..., d_in). Predictions never materialize
    these features (see `fold_dct`); this is their reference.
    """
    rows = haar_rows(model, X)
    return dct2_scaled(rows, model.lookback) if model.use_dct else rows


def head_into(model: HadlModel, A: np.ndarray, out: np.ndarray) -> np.ndarray | None:
    """Write the shared head's forecast for rows A (..., d_in) into the
    caller's `out` (..., H); return A @ P for a low-rank head (the Q gradient
    reuses it), else None. Every forecast is computed here: `head_apply`, the
    training step and the full-set passes of `hadl.optim` all call it."""
    Z = None
    if model.head == HEAD_LOW_RANK:
        Z = A @ model.P
        np.matmul(Z, model.Q, out=out)
    else:
        np.matmul(A, model.W, out=out)
    if model.bias is not None:
        out += model.bias
    return Z


def head_apply(model: HadlModel, A) -> np.ndarray:
    """Apply the shared linear head to already-transformed rows (..., d_in)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[-1] != model.d_in:
        raise ShapeMismatchError(
            f"last axis has length {A.shape[-1]}, head expects {model.d_in}"
        )
    out = np.empty(A.shape[:-1] + (model.horizon,))
    head_into(model, A, out)
    return out


def forward(model: HadlModel, X) -> np.ndarray:
    """Full pipeline: transforms then head. (batch, channels, L) -> (..., H)."""
    return head_apply(fold_dct(model), haar_rows(model, X))


def effective_weight(model: HadlModel) -> np.ndarray:
    """The head's d_in x H map: P@Q for a low-rank head, W for a dense one."""
    return model.P @ model.Q if model.head == HEAD_LOW_RANK else model.W


def param_count(
    lookback: int,
    horizon: int,
    rank: int,
    with_bias: bool,
    use_haar: bool,
    head: str = HEAD_LOW_RANK,
) -> ParamCount:
    """Trainable-parameter arithmetic for any variant: the sizes of the
    `param_shapes` arrays. Low-rank: d_in*r + r*H (+ H for bias); dense:
    d_in*H (+ H)."""
    shapes = param_shapes(lookback, horizon, rank, with_bias, use_haar, head)
    breakdown = {name: math.prod(shape) for name, shape in shapes.items()}
    return ParamCount(total=sum(breakdown.values()), breakdown=breakdown)


def kilo_display(total: int) -> str:
    """Format a parameter count in thousands, e.g. 14176 -> '14.18K':
    rounded to two decimals, trailing zeros trimmed down to one decimal
    (39040 -> '39.04K' but 50000 -> '50.0K')."""
    text = f"{total / 1000.0:.2f}".rstrip("0")
    return text + ("0K" if text.endswith(".") else "K")


def model_params(model: HadlModel) -> dict[str, np.ndarray]:
    """The trainable arrays by name, in `param_shapes` order: the head kind's
    factors, then bias if set."""
    names = HEAD_FACTORS[model.head] + (("bias",) if model.bias is not None else ())
    return {name: getattr(model, name) for name in names}


def replace_params(model: HadlModel, params: dict[str, np.ndarray]) -> HadlModel:
    """A copy of `model` with the given parameter arrays swapped in."""
    return replace(model, **params)


# Checkpoint layout: a single .npz archive. Key "meta" holds a JSON string
# with the CHECKPOINT_META fields and "arrays", the list of array keys
# present; keys "P", "Q", "W", "bias" hold the float64 parameter matrices in
# row-major order. float64 survives the round trip bit-exactly.
CHECKPOINT_META = {"lookback": int, "horizon": int, "use_haar": bool, "use_dct": bool,
                   "head": str, "seed": int}


def save_checkpoint(model: HadlModel, path) -> None:
    params = model_params(model)
    meta = {key: getattr(model, key) for key in CHECKPOINT_META}
    meta["arrays"] = sorted(params)
    arrays = {k: np.ascontiguousarray(v) for k, v in params.items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path) -> HadlModel:
    """The model saved at `path`. Raises CorruptCheckpointError unless each
    meta field has its JSON type (CHECKPOINT_META; `arrays` a list of
    strings) and the archive holds exactly the arrays its meta lists, named
    for the head kind and shaped for its lookback, horizon and rank, as
    finite float64."""
    # an open handle of our own: np.load leaks the one it opens for a bad zip
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except (ValueError, zipfile.BadZipFile) as exc:  # numpy reads a non-zip file as a pickle
            raise CorruptCheckpointError(f"{path}: not an .npz archive") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CorruptCheckpointError(f"{path}: a single .npy array, not an .npz archive")
        with archive:
            try:
                meta = json.loads(str(archive["meta"]))
                fields = {key: meta[key] for key in CHECKPOINT_META}
                names = meta["arrays"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptCheckpointError(f"{path}: unreadable meta: {exc!r}") from exc
            # exact types: bool("false") is True, int(16.9) is 16, and a JSON true is no seed
            for key, kind in CHECKPOINT_META.items():
                if type(fields[key]) is not kind:
                    raise CorruptCheckpointError(
                        f"{path}: meta {key!r} is {fields[key]!r}, not {kind.__name__}")
            if type(names) is not list or any(type(name) is not str for name in names):
                raise CorruptCheckpointError(
                    f"{path}: meta 'arrays' is {names!r}, not a list of strings")
            model = HadlModel(**fields)
            absent = [name for name in names if name not in archive.files]
            if absent:
                raise CorruptCheckpointError(
                    f"{path}: meta lists arrays {absent} the archive lacks")
            arrays = {name: archive[name] for name in names}
    _check_checkpoint(model, arrays, path)
    return replace_params(model, arrays)


def _check_checkpoint(model: HadlModel, arrays: dict[str, np.ndarray], path) -> None:
    P = arrays.get("P")
    # the meta fixes every shape but the rank, which P's last axis declares
    rank = P.shape[-1] if P is not None and P.ndim > 0 else 1
    try:
        shapes = param_shapes(model.lookback, model.horizon, rank, "bias" in arrays,
                              model.use_haar, model.head)
    except HadlError as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
    if sorted(arrays) != sorted(shapes):
        raise CorruptCheckpointError(
            f"{path}: arrays {sorted(arrays)} do not match a {model.head} head"
        )
    for name, value in arrays.items():
        if value.dtype != np.float64:
            raise CorruptCheckpointError(f"{path}: {name} has dtype {value.dtype}, not float64")
        if value.shape != shapes[name]:
            raise CorruptCheckpointError(
                f"{path}: {name} has shape {value.shape}, expected {shapes[name]}"
                f" (lookback {model.lookback}, horizon {model.horizon},"
                f" use_haar={model.use_haar})"
            )
        if not np.all(np.isfinite(value)):
            raise CorruptCheckpointError(f"{path}: {name} holds non-finite values")

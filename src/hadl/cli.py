"""Command-line experiment runner.

Subcommands: train, robustness, ablate, params, export-weights. Every run is
fully described by an ExperimentConfig, assembled from defaults, an optional
flat `key = value` config file, and per-key CLI overrides (highest priority).
A short hash of the resolved config, outdir left out, heads every output
file, and no output contains timestamps, so re-running a command with the
same config and seed reproduces every file byte for byte.

Every command runs each cell of the product of its lists (`grid_cells`).
Output layout: <outdir>/<dataset>/<variant>/<horizon>/ with checkpoint,
trace and report files; ablation tables sit one level up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import re
import sys
import types
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import data as hadl_data
from . import metrics as hadl_metrics
from . import optim as hadl_optim
from .errors import HadlError, InvalidConfigError, ParseError, WorkerDiedError
from .model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    forward,
    init_model,
    kilo_display,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .optim import (TrainConfig, check_budget, evaluate, listed, train, window_mse,
                    write_trace_csv, write_trace_json)

# the keys that take one value or a comma list; `horizons` and `eta_list`
# always hold a list
SWEPT = ("seed", "rank", "lookback")


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Every knob a run can turn. Names double as config-file keys and
    as --flags (with '-' for '_'). The training keys, their defaults and
    their checks are TrainConfig's, so a job is itself what `train` takes.

    A SWEPT key holds one value, or a tuple of several that a command runs
    one by one (`grid_cells`). One value is kept as itself, never as a
    1-tuple, so a grid cell is a config with one value per key and hashes
    as a config given that value alone does."""

    seed: int | tuple[int, ...] = 0
    dataset: str = "sine_mix"
    data_path: str = ""
    convention: str = ""
    lookback: int | tuple[int, ...] = 512
    horizons: tuple[int, ...] = (96, 192, 336, 720)
    rank: int | tuple[int, ...] = 50
    use_haar: bool = True
    use_dct: bool = True
    head: str = HEAD_LOW_RANK
    with_bias: bool = True
    noise_eta: float = 0.0
    eta_list: tuple[float, ...] = (0.0, 0.3, 0.7, 1.3, 1.7, 2.3)
    robust_max_epochs: int = 50
    robust_patience: int = 10
    outdir: str = "runs"
    synth_length: int = 480
    synth_channels: int = 3

    def __post_init__(self):
        for key in SWEPT:
            values = getattr(self, key)
            if isinstance(values, tuple) and len(values) == 1:
                object.__setattr__(self, key, values[0])
        super().__post_init__()
        # -0 is the zero eta: one experiment, one set of bytes (x + 0.0 turns -0.0 into 0.0)
        object.__setattr__(self, "noise_eta", self.noise_eta + 0.0)
        object.__setattr__(self, "eta_list", tuple(eta + 0.0 for eta in self.eta_list))
        check_budget(self.robust_max_epochs, self.robust_patience, "robust_")
        if not self.horizons or min(self.horizons) < 1:
            raise InvalidConfigError(
                f"horizons must list at least one horizon >= 1, got {list(self.horizons)}"
            )
        # here, not as a numpy ValueError mid-run: no series has a negative
        # length or fewer than one channel
        for key, low in (("synth_length", 0), ("synth_channels", 1)):
            if getattr(self, key) < low:
                raise InvalidConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        # here, before any job trains: prepare_windows would train eta < 0 on clean data
        for key, etas in (("noise_eta", (self.noise_eta,)), ("eta_list", self.eta_list)):
            bad = [eta for eta in etas if eta < 0.0]
            if bad:
                raise InvalidConfigError(f"{key}: noise intensity must be >= 0, got {bad[0]}")
        # an empty list runs nothing; a repeat trains the same job twice:
        # checkpoints overwrite, rows double
        for key in ("horizons", "eta_list", *SWEPT):
            values = listed(getattr(self, key))
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if not values or repeated:
                raise InvalidConfigError(f"{key}: {repeated[0]} is listed twice" if values
                                         else f"{key}: the list is empty")

    def fingerprint(self) -> str:
        """The experiment's hash: every key but `outdir`, where it is written."""
        blob = json.dumps({k: v for k, v in asdict(self).items() if k != "outdir"}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# every config key's type, from the annotations; also the known-key set
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_value(name: str, text: str, kind=None):
    """`text` parsed as config key `name`'s type, or as `kind` for a flag
    that is no key; a value that does not parse is an InvalidConfigError."""
    label = f"config key {name}" if kind is None else name
    kind, text = kind or _KEY_TYPES[name], text.strip()
    try:
        if typing.get_origin(kind) in (tuple, types.UnionType):  # a list, or a SWEPT key
            elem = typing.get_args(kind)[0]
            return tuple(elem(part.strip()) for part in text.split(",")) if text else ()
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        return kind(text)
    except ValueError as exc:
        raise InvalidConfigError(f"{label}: {exc}") from exc


class _IntFlag(argparse.Action):
    """Stores an integer flag that is no config key, parsed by `_parse_value`
    (argparse's `type=int` would print a usage block and exit 2), so a bad
    value fails in one line, as a bad config value does."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _parse_value(self.dest, values, int))


def read_config_file(path) -> dict:
    """Flat `key = value` lines (see `hadl_data.open_text`), each parsed by
    its key's type, in one pass: the first bad line raises. A '#' at a line's
    start or after whitespace opens a comment (`runs#2` keeps its '#'). A line
    without '=' or a key listed twice is a ParseError; an unknown key or a
    value that does not parse is an InvalidConfigError."""
    values: dict = {}
    first_line: dict[str, int] = {}
    with hadl_data.open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = re.sub(r"(^|\s)#.*", "", line, count=1).strip()
            if not line:
                continue
            key, equals, value = line.partition("=")
            key = key.strip()
            if not equals:
                raise ParseError(f"{path}: line {line_no}: expected `key = value`")
            if key in first_line:
                raise ParseError(f"{path}: line {line_no}: {key!r} is listed twice,"
                                 f" first on line {first_line[key]}")
            if key not in _KEY_TYPES:
                raise InvalidConfigError(f"{path}: line {line_no}: unknown config key {key!r}")
            first_line[key] = line_no
            values[key] = _parse_value(key, value)
    return values


# Each ablation axis: its key and the values it sweeps. The rank and
# lookback axes sweep their key's own list.
ABLATIONS = {"haar": ("use_haar", (True, False)), "head": ("head", (HEAD_LOW_RANK, HEAD_DENSE)),
             "dct": ("use_dct", (True, False)), "rank": ("rank", ()), "lookback": ("lookback", ())}

# The config keys each command form reads, from key groups: the model shape
# that `params` prints, then what a trained model adds (the DCT stage, the
# data, the training keys, the outdir) and one of the two epoch budgets. An
# axis of fixed values sets its key in every cell, so its forms do not read
# it. `resolve_config` is the one reader.
_SHAPE = ("lookback", "horizons", "rank", "use_haar", "head", "with_bias")
_TRAINED = (*_SHAPE, "use_dct", "dataset", "data_path", "convention", "synth_length",
            "synth_channels", "learning_rate", "l1_lambda", "batch_size", "seed", "outdir")
_BUDGET = ("max_epochs", "patience")
COMMAND_KEYS = {
    "train": {*_TRAINED, *_BUDGET, "noise_eta"},
    "robustness": {*_TRAINED, "eta_list", "robust_max_epochs", "robust_patience"},
    **{f"ablate {axis}{suffix}": set(keys) - ({key} if values else set())
       for axis, (key, values) in ABLATIONS.items()
       for suffix, keys in (("", (*_TRAINED, *_BUDGET, "noise_eta")),
                            (" --params-only", (*_SHAPE, "dataset", "outdir")))},
    "params": set(_SHAPE),
}

# The grid's keys, outermost first: a command's cells are the product of
# their values in this order.
GRID_ORDER = ("use_haar", "use_dct", "head", "lookback", "rank", "horizons", "seed", "noise_eta")


def _readers(key: str) -> str:
    """The command forms that read `key`, the axes of `ablate`'s forms
    folded into one (`hadl ablate haar|head --params-only`)."""
    axes: dict[tuple[str, str], list[str]] = {}
    for form, keys in COMMAND_KEYS.items():
        if key in keys:
            command, _, rest = form.partition(" ")
            axis, _, suffix = rest.partition(" ")
            axes.setdefault((command, suffix), []).append(axis)
    names = (filter(None, ("hadl", command, "|".join(folded), suffix))
             for (command, suffix), folded in axes.items())
    return ", ".join(" ".join(name) for name in names)


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values, then the flags', of the keys that the
    command form reads (COMMAND_KEYS). A flag for any other key is an
    InvalidConfigError, raised before any value is parsed. A config file may
    set any key, since one file may serve several commands: each line is
    parsed, but a key the form does not read is not applied. `--rank` for a
    dense head fails once the values are parsed."""
    form = " ".join(filter(None, (args.command, getattr(args, "axis", None))))
    if getattr(args, "params_only", False):
        form += " --params-only"
    reads = COMMAND_KEYS[form]
    keys = [f.name for f in fields(ExperimentConfig) if getattr(args, f.name) is not None]
    for key in keys:
        if key not in reads:
            raise InvalidConfigError(f"--{key.replace('_', '-')}: hadl {form} does not read"
                                     f" {key}; it is read by {_readers(key)}")
    values = read_config_file(args.config) if args.config else {}
    values = {key: value for key, value in values.items() if key in reads}
    for key in keys:
        values[key] = _parse_value(key, getattr(args, key))
    if "rank" in keys and values.get("head") == HEAD_DENSE:
        raise InvalidConfigError(f"--rank: a {HEAD_DENSE} head has no rank,"
                                 f" so hadl {form} would drop it")
    return ExperimentConfig(**values)


def mix_seed(base: int, *parts) -> int:
    """Derive a stream-specific seed from the base seed; stable across runs
    and platforms (unlike hash())."""
    material = json.dumps([int(base)] + [str(p) for p in parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def variant_name(job: ExperimentConfig) -> str:
    """A cell's output directory: its lookback and its model's stages."""
    parts = [
        f"L{job.lookback}",
        "haar" if job.use_haar else "nohaar",
        "dct" if job.use_dct else "nodct",
        f"lowrank_r{job.rank}" if job.head == HEAD_LOW_RANK else "dense",
        "bias" if job.with_bias else "nobias",
    ]
    return "-".join(parts)


def grid_cells(config: ExperimentConfig, sweep=()) -> list[tuple[ExperimentConfig, int]]:
    """A command's (job, horizon) cells: the product, in GRID_ORDER, of the
    SWEPT keys' values, the horizons and `sweep`, a (key, values) pair that
    an ablation axis or the noise sweep adds. A job is `config` with one
    value of each key. A dense head has no rank, so its cells take the
    first rank, and each runs once."""
    values = {key: listed(getattr(config, key)) for key in (*SWEPT, "horizons")}
    values.update([sweep] if sweep else [])
    keys = [key for key in GRID_ORDER if key in values]
    cells = []
    for product in itertools.product(*(values[key] for key in keys)):
        cell = dict(zip(keys, product))
        if cell.get("head", config.head) == HEAD_DENSE:
            cell["rank"] = values["rank"][0]
        horizon = cell.pop("horizons")
        cells.append((replace(config, **cell), horizon))
    return list(dict.fromkeys(cells))


def load_dataset(config: ExperimentConfig) -> tuple[hadl_data.Dataset, str]:
    """The command's dataset, standardized in place (`hadl_data.standardize`),
    and its split convention: `convention`, else the known-name default
    (ratio for anything unrecognized). A CSV is read from `data_path`, else
    from data/<dataset>.csv. A synthetic series does not depend on `seed`,
    as a CSV does not, so each cell of a grid runs as it would alone."""
    name = config.dataset
    convention = config.convention or hadl_data.convention_for(name)
    if name in hadl_data.SYNTH_KINDS:  # seed 0's draw, whatever the seeds: fixed data
        dataset = hadl_data.synth(name, config.synth_length, config.synth_channels,
                                  seed=mix_seed(0, "dataset"))
    else:
        path = config.data_path or os.path.join("data", f"{name}.csv")
        if not os.path.exists(path):
            raise InvalidConfigError(f"dataset file not found: {path} (set data_path)")
        dataset = hadl_data.load_csv(path, convention, name=name)
    return hadl_data.standardize(dataset, convention), convention


def prepare_windows(job: ExperimentConfig, horizon: int, data):
    """Split `load_dataset`'s standardized `data` into views, noise the train
    segment into a new one, and window all three."""
    dataset, convention = data
    train_seg, val_seg, test_seg = hadl_data.split(dataset, convention, lookback=job.lookback)
    if job.noise_eta > 0.0:
        train_seg = hadl_data.inject_noise(
            train_seg, job.noise_eta, mix_seed(job.seed, "noise", job.noise_eta)
        )
    w_train = hadl_data.windows(train_seg, job.lookback, horizon)
    w_val = hadl_data.windows(val_seg, job.lookback, horizon)
    w_test = hadl_data.windows(test_seg, job.lookback, horizon)
    return w_train, w_val, w_test


def run_single(job: ExperimentConfig, horizon: int, data, train_outputs: bool = False):
    """Train one model on `data` = `load_dataset`'s (dataset, convention)
    and evaluate it on the clean test split.

    Returns (best_model, trace, EvalReport). The model init seed does not
    depend on noise_eta, so a robustness sweep perturbs only the training data.
    The test MSE comes from the test windows' `window_stats`, with no
    forecast. train_outputs adds what only `train` writes: the test MAE,
    from one forecast pass over the test windows (`evaluate`), and
    trace.final_grad_norm, from the training windows' statistics: those
    `train` summed on its last epoch, else their `window_stats`. Without it
    the MAE is None and the norm stays NaN.
    """
    w_train, w_val, w_test = prepare_windows(job, horizon, data)
    model = init_model(job.lookback, horizon, job.rank,
                       seed=mix_seed(job.seed, "init", job.lookback, horizon),
                       use_haar=job.use_haar, use_dct=job.use_dct, head=job.head,
                       with_bias=job.with_bias)
    best, trace, train_stats = train(model, w_train, w_val, job)
    test_mae = None
    if train_outputs:
        # looked up on hadl.optim, where the benchmark's tracer wraps it
        trace.final_grad_norm = hadl_optim.dense_equivalent_grad_norm(
            best, hadl_optim.window_stats(best, w_train) if train_stats is None else train_stats)
        test_mae = evaluate(best, w_test)
    report = hadl_metrics.EvalReport(
        dataset=data[0].name,
        horizon=horizon,
        use_haar=job.use_haar,
        use_dct=job.use_dct,
        head=job.head,
        with_bias=job.with_bias,
        rank=best.rank,
        seed=job.seed,
        noise_eta=job.noise_eta,
        mse=window_mse(best, hadl_optim.window_stats(best, w_test)),
        mae=test_mae,
    )
    return best, trace, report


def param_totals(cells) -> list[int]:
    """Parameter totals of the (job, horizon) cells. `run_grid` calls it
    before loading data: `param_count` rejects an impossible model shape
    there, so it fails before any dataset loads or worker process starts."""
    return [param_count(job.lookback, horizon, job.rank, job.with_bias, job.use_haar,
                        job.head).total for job, horizon in cells]


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 or above the CPUs this process may run
    on, before the command loads data: workers beyond the CPUs only share
    them, and a pool started by fork starts every worker at its first job."""
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers > cpus:
        raise InvalidConfigError(f"workers must be <= {cpus}, the CPU count, got {workers}")


def run_grid(config: ExperimentConfig, workers: int, train_outputs: bool, sweep=()) -> list:
    """run_single over `grid_cells(config, sweep)` on `config`'s dataset,
    serially or in one pool of at most one worker per cell, once every
    cell's model shape and windows, the worker count and the outdir are
    checked. Prints one progress line per job in cell order and returns
    ((job, horizon), (best_model, trace, EvalReport)) pairs in cell order;
    a pool's workers also compute the train_outputs."""
    cells = grid_cells(config, sweep)
    param_totals(cells)
    check_workers(workers)
    # an outdir this process cannot create fails here, not at its first write
    # after every job: its nearest existing ancestor must be a writable directory
    path = os.path.abspath(config.outdir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise InvalidConfigError(f"outdir {config.outdir!r}: {path} is not a writable directory")
    dataset, convention = data = load_dataset(config)
    # the first cell whose segments hold no window fails here; views only, no noise
    for lookback, horizon in dict.fromkeys((job.lookback, horizon) for job, horizon in cells):
        for segment in hadl_data.split(dataset, convention, lookback=lookback):
            hadl_data.windows(segment, lookback, horizon)
    workers = min(workers, len(cells))
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_single, job, horizon, data, train_outputs)
                           for job, horizon in cells]
                return [_progress(cell, future.result()) for cell, future in zip(cells, futures)]
        except BrokenExecutor as exc:  # a worker died: BrokenProcessPool
            raise WorkerDiedError("a worker process died before its jobs finished"
                                  " (out of memory? fewer workers use less)") from exc
    return [_progress(cell, run_single(*cell, data, train_outputs)) for cell in cells]


def _progress(cell, result):
    (job, horizon), (_, trace, report) = cell, result
    mae = "" if report.mae is None else f" test_mae={report.mae:.6f}"
    print(
        f"job dataset={report.dataset} variant={variant_name(job)} L={job.lookback} "
        f"H={horizon} seed={job.seed} eta={job.noise_eta} best_epoch={trace.best_epoch} "
        f"test_mse={report.mse:.6f}{mae}"
    )
    return cell, result


def _run_dirs(config: ExperimentConfig, pairs):
    """`run_grid`'s pairs grouped by output directory, <outdir>/<dataset>/
    <variant>/<horizon>, in cell order: each created directory, the keys its
    JSON files open with, and its (job, result) pairs."""
    groups: dict = {}
    for (job, horizon), result in pairs:
        groups.setdefault((variant_name(job), horizon), []).append((job, result))
    for (variant, horizon), jobs in groups.items():
        path = os.path.join(config.outdir, config.dataset, variant, str(horizon))
        os.makedirs(path, exist_ok=True)
        yield path, {"config": asdict(config), "config_fingerprint": config.fingerprint(),
                     "dataset": config.dataset, "horizon": horizon, "variant": variant}, jobs


def cmd_train(config: ExperimentConfig, workers: int = 1) -> list[hadl_metrics.EvalReport]:
    """Train every cell of the grid and write its checkpoint and traces,
    with one eval.csv|json per (variant, horizon) directory, a row per seed.

    workers > 1 runs the cells in parallel processes; job outputs are
    independent of scheduling, so results match a serial run.
    """
    pairs = run_grid(config, workers, train_outputs=True)  # the norms and MAEs
    fingerprint = config.fingerprint()
    for run_dir, header, jobs in _run_dirs(config, pairs):
        for job, (best, trace, _) in jobs:
            save_checkpoint(best, os.path.join(run_dir, f"checkpoint_seed{job.seed}.npz"))
            write_trace_csv(trace, os.path.join(run_dir, f"trace_seed{job.seed}.csv"), fingerprint)
            write_trace_json(trace, os.path.join(run_dir, f"trace_seed{job.seed}.json"),
                             fingerprint)
        reports = [report for _, (_, _, report) in jobs]
        hadl_metrics.write_eval_csv(reports, os.path.join(run_dir, "eval.csv"), fingerprint)
        mses = [r.mse for r in reports]
        bundle = {
            **header,
            "reports": [asdict(r) for r in reports],
            "mse_mean": float(np.mean(mses)),
            "mse_std": float(np.std(mses)),
        }
        hadl_metrics.write_json_bundle(bundle, os.path.join(run_dir, "eval.json"))
    return [report for _, (_, _, report) in pairs]


def cmd_robustness(config: ExperimentConfig,
                   workers: int = 1) -> list[hadl_metrics.RobustnessReport]:
    """Noise sweep of every cell of the grid; evaluation always clean.

    Each (cell, eta) trains its own model (robust_max_epochs/
    robust_patience); the eta list must contain 0.0 for the NRR baseline.
    workers > 1 trains them in parallel processes. Returns one report per
    (variant, horizon, seed), in cell order; each (variant, horizon)
    directory holds its seeds' reports.
    """
    if config.noise_eta != 0.0:  # the sweep sets it in every cell
        raise InvalidConfigError(f"noise_eta: robustness sweeps eta_list, so it would drop"
                                 f" noise_eta={config.noise_eta}")
    etas = tuple(sorted(config.eta_list))
    if 0.0 not in etas:
        raise InvalidConfigError("eta_list must contain 0.0")
    base = replace(config, max_epochs=config.robust_max_epochs, patience=config.robust_patience)
    pairs = run_grid(base, workers, train_outputs=False, sweep=("noise_eta", etas))
    fingerprint = config.fingerprint()
    reports = []
    for run_dir, header, jobs in _run_dirs(config, pairs):
        per_seed = [hadl_metrics.robustness_report(seed, etas, [r.mse for _, (_, _, r) in group])
                    for seed, group in itertools.groupby(jobs, lambda pair: pair[0].seed)]
        for report in per_seed:
            cell = f"variant={header['variant']} H={header['horizon']} seed={report.seed}"
            for prev, nxt in zip(report.nrr_per_eta, report.nrr_per_eta[1:]):
                if nxt < prev - 0.02:
                    print(f"warning: {cell}: NRR decreased from {prev:.4f} to {nxt:.4f} with"
                          " more noise; unusual but not an error", file=sys.stderr)
            if report.mav is None:
                print(f"robustness: {cell} no noisy etas, MAV undefined")
            else:
                print(f"robustness: {cell} MAV={report.mav:.6f} over etas {list(etas[1:])}")
        hadl_metrics.write_robustness_csv(
            per_seed, os.path.join(run_dir, "robustness.csv"), fingerprint
        )
        bundle = {**header, "reports": [asdict(report) for report in per_seed]}
        hadl_metrics.write_json_bundle(bundle, os.path.join(run_dir, "robustness.json"))
        reports += per_seed
    return reports


def cmd_ablate(config: ExperimentConfig, axis: str, params_only: bool = False,
               workers: int = 1) -> str:
    """Run the grid with an ablation axis and write an MSE + parameter-count
    table, one row per cell.

    With params_only the table skips training and fills only the parameter
    columns (useful to inspect model sizes without data).
    """
    if axis not in ABLATIONS:
        raise InvalidConfigError(f"unknown ablation axis {axis!r}; choose from {tuple(ABLATIONS)}")
    if axis == "rank" and config.head != HEAD_LOW_RANK:  # every cell would train one dense head
        raise InvalidConfigError(f"head: ablate rank varies a low_rank head, got {config.head!r}")
    key, values = ABLATIONS[axis]
    sweep = (key, values) if values else ()
    if params_only:
        cells = grid_cells(config, sweep)
        mses = seeds = [""] * len(cells)
    else:
        pairs = run_grid(config, workers, train_outputs=False, sweep=sweep)
        cells = [cell for cell, _ in pairs]
        mses = [report.mse for _, (_, _, report) in pairs]
        seeds = [job.seed for job, _ in cells]
    totals = param_totals(cells)
    rows = []
    for (job, horizon), seed, mse, total in zip(cells, seeds, mses, totals):
        value = getattr(job, key)  # labelled `with_haar`, `without_dct`, `dense`, 16, ...
        label = f"{'with' if value else 'without'}_{axis}" if isinstance(value, bool) else value
        rows.append([axis, label, job.lookback, job.rank if job.head == HEAD_LOW_RANK else "",
                     horizon, seed, mse, total, kilo_display(total)])

    out_root = os.path.join(config.outdir, config.dataset)
    os.makedirs(out_root, exist_ok=True)
    out_path = os.path.join(out_root, f"ablate_{axis}.csv")
    header = ["axis", "value", "lookback", "rank", "horizon", "seed", "mse", "params",
              "params_display"]
    hadl_metrics.write_table(out_path, header, rows, config.fingerprint())
    print(f"ablate table written to {out_path}")
    return out_path


def cmd_params(config: ExperimentConfig) -> None:
    """Print parameter counts for every cell of the grid."""
    cells = grid_cells(config)
    counts = [param_count(job.lookback, horizon, job.rank, job.with_bias, job.use_haar, job.head)
              for job, horizon in cells]
    for (job, horizon), counted in zip(cells, counts):
        detail = " + ".join(f"{k}={v}" for k, v in counted.breakdown.items())
        print(
            f"L={job.lookback} H={horizon} rank={job.rank} head={job.head} "
            f"haar={job.use_haar} bias={job.with_bias}: "
            f"{counted.total} parameters ({kilo_display(counted.total)}) [{detail}]"
        )


def cmd_export_weights(checkpoint_path: str, out_path: str) -> None:
    """Dump a checkpoint's whole forecaster as a plain CSV matrix: the L x H
    map of its Haar, DCT and head stages (the forecasts of the unit
    windows), then one bias row (zeros without a bias), so that [x, 1] @
    table is `forward` of a window x."""
    model = load_checkpoint(checkpoint_path)
    table = np.vstack([forward(replace(model, bias=None), np.eye(model.lookback)),
                       np.zeros(model.horizon) if model.bias is None else model.bias])
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(table.tolist())
    print(f"wrote {table.shape[0]}x{table.shape[1]} forecaster table to {out_path}")


def build_parser() -> argparse.ArgumentParser:
    """The `hadl` parser. A subcommand takes its arguments from parent parsers,
    its own first, and binds the `run(args)` that `main` calls."""
    keys = argparse.ArgumentParser(add_help=False)
    keys.add_argument("--config", help="flat `key = value` config file")
    for f in fields(ExperimentConfig):
        keys.add_argument("--" + f.name.replace("_", "-"), dest=f.name, metavar="V",
                          help=f"override config key {f.name} (default {f.default!r})")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", action=_IntFlag, default=1,
                         help="run the grid's jobs in N parallel processes")
    axis = argparse.ArgumentParser(add_help=False)
    axis.add_argument("axis", choices=ABLATIONS)
    axis.add_argument("--params-only", action="store_true",
                      help="skip training; emit parameter counts only")
    parser = argparse.ArgumentParser(prog="hadl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[workers, keys], help="train and evaluate per horizon"
                   ).set_defaults(run=lambda a: cmd_train(resolve_config(a), a.workers))
    sub.add_parser("robustness", parents=[workers, keys], help="noise sweep with NRR/MAV report"
                   ).set_defaults(run=lambda a: cmd_robustness(resolve_config(a), a.workers))
    sub.add_parser("ablate", parents=[axis, workers, keys], help="variant-grid table for one axis"
                   ).set_defaults(run=lambda a: cmd_ablate(resolve_config(a), a.axis,
                                                           a.params_only, a.workers))
    sub.add_parser("params", parents=[keys], help="print parameter counts"
                   ).set_defaults(run=lambda a: cmd_params(resolve_config(a)))
    p_export = sub.add_parser("export-weights", help="dump the forecaster as a CSV table")
    p_export.add_argument("checkpoint")
    p_export.add_argument("out")
    p_export.set_defaults(run=lambda a: cmd_export_weights(a.checkpoint, a.out))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # `_IntFlag` raises InvalidConfigError
        args.run(args)
    except (HadlError, OSError, MemoryError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

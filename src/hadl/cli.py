"""Command-line experiment runner.

Subcommands: train, robustness, ablate, params, export-weights. Every run is
fully described by an ExperimentConfig, assembled from defaults, an optional
flat `key = value` config file, and per-key CLI overrides (highest priority).
A short hash of the resolved config, outdir left out, heads every output
file, and no output contains timestamps, so re-running a command with the
same config and seed reproduces every file byte for byte.

Output layout: <outdir>/<dataset>/<variant>/<horizon>/ with checkpoint,
trace and report files; robustness and ablation tables sit one level up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
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
from .optim import (TrainConfig, check_budget, evaluate, train, window_mse, write_trace_csv,
                    write_trace_json)


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Every knob a run can turn. Names double as config-file keys and
    as --flags (with '-' for '_'). The training keys, their defaults and
    their checks are TrainConfig's, so a job is itself what `train` takes."""

    dataset: str = "sine_mix"
    data_path: str = ""
    convention: str = ""
    lookback: int = 512
    horizons: tuple[int, ...] = (96, 192, 336, 720)
    rank: int = 50
    use_haar: bool = True
    use_dct: bool = True
    head: str = HEAD_LOW_RANK
    with_bias: bool = True
    seeds: tuple[int, ...] = ()
    noise_eta: float = 0.0
    eta_list: tuple[float, ...] = (0.0, 0.3, 0.7, 1.3, 1.7, 2.3)
    robust_max_epochs: int = 50
    robust_patience: int = 10
    rank_list: tuple[int, ...] = (15, 35, 55, 75)
    lookback_list: tuple[int, ...] = (48, 96, 192, 336, 512, 720)
    outdir: str = "runs"
    synth_length: int = 480
    synth_channels: int = 3

    def __post_init__(self):
        super().__post_init__()
        # -0 is the zero eta: one experiment, one set of bytes (x + 0.0 turns -0.0 into 0.0)
        object.__setattr__(self, "noise_eta", self.noise_eta + 0.0)
        object.__setattr__(self, "eta_list", tuple(eta + 0.0 for eta in self.eta_list))
        check_budget(self.robust_max_epochs, self.robust_patience, "robust_")
        if not self.horizons or min(self.horizons) < 1:
            raise InvalidConfigError(
                f"horizons must list at least one horizon >= 1, got {list(self.horizons)}"
            )
        for key in ("rank_list", "lookback_list"):
            if not getattr(self, key):
                raise InvalidConfigError(f"{key}: the list is empty")
        # here, not as a numpy ValueError mid-run: default_rng takes no negative
        # seed, and no series has a negative length or fewer than one channel
        for key, values, low in (("seeds", self.seeds, 0),
                                 ("synth_length", (self.synth_length,), 0),
                                 ("synth_channels", (self.synth_channels,), 1)):
            bad = [v for v in values if v < low]
            if bad:
                raise InvalidConfigError(f"{key} must be >= {low}, got {bad[0]}")
        # here, before any job trains: prepare_windows would train eta < 0 on clean data
        for key, etas in (("noise_eta", (self.noise_eta,)), ("eta_list", self.eta_list)):
            bad = [eta for eta in etas if eta < 0.0]
            if bad:
                raise InvalidConfigError(f"{key}: noise intensity must be >= 0, got {bad[0]}")
        # a repeat trains the same job twice: checkpoints overwrite, rows double
        for key in ("horizons", "seeds", "eta_list", "rank_list", "lookback_list"):
            listed = getattr(self, key)
            repeated = [v for i, v in enumerate(listed) if v in listed[:i]]
            if repeated:
                raise InvalidConfigError(f"{key}: {repeated[0]} is listed twice")

    def fingerprint(self) -> str:
        """The experiment's hash: every key but `outdir`, where it is written."""
        blob = json.dumps({k: v for k, v in asdict(self).items() if k != "outdir"}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def seed_list(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else (self.seed,)


# every config key's type, from the annotations; also the known-key set
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_value(name: str, text: str, kind=None):
    """`text` parsed as config key `name`'s type, or as `kind` for a flag
    that is no key; a value that does not parse is an InvalidConfigError."""
    label = f"config key {name}" if kind is None else name
    kind, text = kind or _KEY_TYPES[name], text.strip()
    try:
        if typing.get_origin(kind) is tuple:
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


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(read_config_file(args.config))
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            values[f.name] = _parse_value(f.name, raw)
    return ExperimentConfig(**values)


def mix_seed(base: int, *parts) -> int:
    """Derive a stream-specific seed from the base seed; stable across runs
    and platforms (unlike hash())."""
    material = json.dumps([int(base)] + [str(p) for p in parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def variant_name(config: ExperimentConfig) -> str:
    parts = [
        "haar" if config.use_haar else "nohaar",
        "dct" if config.use_dct else "nodct",
        f"lowrank_r{config.rank}" if config.head == HEAD_LOW_RANK else "dense",
        "bias" if config.with_bias else "nobias",
    ]
    return "-".join(parts)


def load_dataset(config: ExperimentConfig) -> tuple[hadl_data.Dataset, str]:
    """The command's dataset, standardized in place (`hadl_data.standardize`),
    and its split convention: `convention`, else the known-name default
    (ratio for anything unrecognized). A CSV is read from `data_path`, else
    from data/<dataset>.csv."""
    name = config.dataset
    convention = config.convention or hadl_data.convention_for(name)
    if name in hadl_data.SYNTH_KINDS:
        dataset = hadl_data.synth(name, config.synth_length, config.synth_channels,
                                  seed=mix_seed(config.seed, "dataset"))
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


def run_grid(config: ExperimentConfig, cells, workers: int, train_outputs: bool) -> list:
    """run_single over (job, horizon) cells on `config`'s dataset, serially or
    in one pool of at most one worker per cell, once every cell's model shape
    and windows, the worker count and the outdir are checked. Prints one
    progress line per job in cell order and returns the (best_model, trace,
    EvalReport) triples in cell order; a pool's workers also compute the
    train_outputs."""
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
    return result


def _one_seed(config: ExperimentConfig, command: str) -> None:
    if len(config.seeds) > 1:  # only train sweeps seeds; the rest would be dropped
        raise InvalidConfigError(f"seeds: {command} trains one seed, got {list(config.seeds)}")


def _run_dir(config: ExperimentConfig, variant: str, horizon: int) -> str:
    path = os.path.join(config.outdir, config.dataset, variant, str(horizon))
    os.makedirs(path, exist_ok=True)
    return path


def _json_header(config: ExperimentConfig, horizon: int, variant: str) -> dict:
    """The keys eval.json and robustness.json open with."""
    return {"config": asdict(config), "config_fingerprint": config.fingerprint(),
            "dataset": config.dataset, "horizon": horizon, "variant": variant}


def cmd_train(config: ExperimentConfig, workers: int = 1) -> list[hadl_metrics.EvalReport]:
    """Train per horizon (and per seed), write checkpoints, traces, reports.

    workers > 1 runs the (horizon, seed) grid in parallel processes; job
    outputs are independent of scheduling, so results match a serial run.
    """
    seeds = config.seed_list()
    cells = [(replace(config, seed=seed), horizon)
             for horizon in config.horizons for seed in seeds]
    results = run_grid(config, cells, workers, train_outputs=True)  # the norms and MAEs
    fingerprint = config.fingerprint()
    variant = variant_name(config)

    for i, horizon in enumerate(config.horizons):
        run_dir = _run_dir(config, variant, horizon)
        per_seed = results[i * len(seeds):(i + 1) * len(seeds)]
        for seed, (best, trace, _) in zip(seeds, per_seed):
            save_checkpoint(best, os.path.join(run_dir, f"checkpoint_seed{seed}.npz"))
            write_trace_csv(trace, os.path.join(run_dir, f"trace_seed{seed}.csv"), fingerprint)
            write_trace_json(trace, os.path.join(run_dir, f"trace_seed{seed}.json"), fingerprint)
        reports = [report for _, _, report in per_seed]
        hadl_metrics.write_eval_csv(reports, os.path.join(run_dir, "eval.csv"), fingerprint)
        mses = [r.mse for r in reports]
        bundle = {
            **_json_header(config, horizon, variant),
            "reports": [asdict(r) for r in reports],
            "mse_mean": float(np.mean(mses)),
            "mse_std": float(np.std(mses)),
        }
        hadl_metrics.write_json_bundle(bundle, os.path.join(run_dir, "eval.json"))
    return [report for _, _, report in results]


def cmd_robustness(config: ExperimentConfig,
                   workers: int = 1) -> list[hadl_metrics.RobustnessReport]:
    """Noise sweep at each configured horizon; evaluation always clean.

    Each (horizon, eta) cell trains its own model (robust_max_epochs/
    robust_patience); the eta list must contain 0.0 for the NRR baseline.
    workers > 1 trains the cells in parallel processes. Returns one report
    per horizon, in horizon order.
    """
    etas = tuple(sorted(config.eta_list))
    if 0.0 not in etas:
        raise InvalidConfigError("eta_list must contain 0.0")
    _one_seed(config, "robustness")
    if config.noise_eta != 0.0:  # each job's eta is one of eta_list's
        raise InvalidConfigError(f"noise_eta must be 0 for robustness, got {config.noise_eta}")
    base = replace(config, seed=config.seed_list()[0], max_epochs=config.robust_max_epochs,
                   patience=config.robust_patience)
    cells = [(replace(base, noise_eta=eta), horizon)
             for horizon in config.horizons for eta in etas]
    mses = [r.mse for _, _, r in run_grid(config, cells, workers, train_outputs=False)]
    reports = [hadl_metrics.robustness_report(etas, mses[i:i + len(etas)])
               for i in range(0, len(mses), len(etas))]
    fingerprint = config.fingerprint()
    variant = variant_name(config)

    for horizon, report in zip(config.horizons, reports):
        for prev, nxt in zip(report.nrr_per_eta, report.nrr_per_eta[1:]):
            if nxt < prev - 0.02:
                print(f"warning: H={horizon}: NRR decreased from {prev:.4f} to {nxt:.4f} with"
                      " more noise; unusual but not an error", file=sys.stderr)
        if report.mav is None:
            print(f"robustness: H={horizon} no noisy etas, MAV undefined")
        else:
            print(f"robustness: H={horizon} MAV={report.mav:.6f} over etas {list(etas[1:])}")

        run_dir = _run_dir(config, variant, horizon)
        hadl_metrics.write_robustness_csv(
            report, os.path.join(run_dir, "robustness.csv"), fingerprint
        )
        bundle = {**_json_header(config, horizon, variant), **asdict(report)}
        hadl_metrics.write_json_bundle(bundle, os.path.join(run_dir, "robustness.json"))
    return reports


ABLATION_AXES = ("haar", "head", "dct", "rank", "lookback")


def _ablate_grid(config: ExperimentConfig, axis: str) -> list[tuple[str, ExperimentConfig]]:
    """The (label, job config) grid an ablation axis expands to."""
    variants = {
        "haar": [("with_haar", {"use_haar": True}), ("without_haar", {"use_haar": False})],
        "head": [("low_rank", {"head": HEAD_LOW_RANK}), ("dense", {"head": HEAD_DENSE})],
        "dct": [("with_dct", {"use_dct": True}), ("without_dct", {"use_dct": False})],
        "rank": [(str(rank), {"rank": rank}) for rank in config.rank_list],
        "lookback": [(str(lb), {"lookback": lb}) for lb in config.lookback_list],
    }
    if axis not in variants:
        raise InvalidConfigError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")
    _one_seed(config, "ablate")
    if axis == "rank" and config.head != HEAD_LOW_RANK:  # every cell would train one dense head
        raise InvalidConfigError(f"head: ablate rank varies a low_rank head, got {config.head!r}")
    base = replace(config, seed=config.seed_list()[0])
    return [(label, replace(base, **keys)) for label, keys in variants[axis]]


def cmd_ablate(config: ExperimentConfig, axis: str, params_only: bool = False) -> str:
    """Run a variant grid and write an MSE + parameter-count table.

    With params_only the table skips training and fills only the parameter
    columns (useful to inspect model sizes without data).
    """
    grid = _ablate_grid(config, axis)
    labels = [label for label, _ in grid for _ in config.horizons]
    cells = [(job, horizon) for _, job in grid for horizon in config.horizons]
    totals = param_totals(cells)
    if params_only:
        mses = [""] * len(cells)
    else:
        results = run_grid(config, cells, 1, train_outputs=False)
        mses = [r.mse for _, _, r in results]
    rows = [[axis, label, job.lookback, horizon, mse, total, kilo_display(total)]
            for label, (job, horizon), mse, total in zip(labels, cells, mses, totals)]

    out_root = os.path.join(config.outdir, config.dataset)
    os.makedirs(out_root, exist_ok=True)
    out_path = os.path.join(out_root, f"ablate_{axis}.csv")
    header = ["axis", "value", "lookback", "horizon", "mse", "params", "params_display"]
    hadl_metrics.write_table(out_path, header, rows, config.fingerprint())
    print(f"ablate table written to {out_path}")
    return out_path


def cmd_params(config: ExperimentConfig) -> None:
    """Print parameter counts for the configured variant at every horizon."""
    for horizon in config.horizons:
        counted = param_count(
            config.lookback, horizon, config.rank, config.with_bias,
            config.use_haar, config.head,
        )
        detail = " + ".join(f"{k}={v}" for k, v in counted.breakdown.items())
        print(
            f"L={config.lookback} H={horizon} rank={config.rank} head={config.head} "
            f"haar={config.use_haar} bias={config.with_bias}: "
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
    axis.add_argument("axis", choices=ABLATION_AXES)
    axis.add_argument("--params-only", action="store_true",
                      help="skip training; emit parameter counts only")
    parser = argparse.ArgumentParser(prog="hadl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[workers, keys], help="train and evaluate per horizon"
                   ).set_defaults(run=lambda a: cmd_train(resolve_config(a), a.workers))
    sub.add_parser("robustness", parents=[workers, keys], help="noise sweep with NRR/MAV report"
                   ).set_defaults(run=lambda a: cmd_robustness(resolve_config(a), a.workers))
    sub.add_parser("ablate", parents=[axis, keys], help="variant-grid table for one axis"
                   ).set_defaults(run=lambda a: cmd_ablate(resolve_config(a), a.axis,
                                                           a.params_only))
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

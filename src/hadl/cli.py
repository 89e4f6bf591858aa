"""Command-line experiment runner.

Subcommands: train, robustness, ablate, params, export-weights. Every run is
fully described by an ExperimentConfig, assembled from defaults, an optional
flat `key = value` config file, and per-key CLI overrides (highest priority).
A short hash of the resolved config is embedded in every output file header,
and no output contains timestamps, so re-running a command with the same
config and seed reproduces every file byte for byte.

Output layout: <outdir>/<dataset>/<variant>/<horizon>/ with checkpoint,
trace and report files; robustness and ablation tables sit one level up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import data as hadl_data
from . import metrics as hadl_metrics
from . import optim as hadl_optim
from .errors import HadlError, InvalidConfigError, MissingZeroEtaError, UnknownAxisError
from .model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    effective_weight,
    forward,  # noqa: F401  (hadl.cli.forward: a benchmark tracing target)
    init_model,
    kilo_display,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .optim import TrainConfig, check_budget, evaluate, train, write_trace_csv, write_trace_json


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Every knob a run can turn. Names double as config-file keys and
    as --flags (with '-' for '_'). The training keys, their defaults and
    their checks are TrainConfig's, so a job is itself what `train` takes."""

    dataset: str = "sine_mix"
    data_path: str = ""
    registry: str = ""
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
    ablate_rank: int = 40
    rank_list: tuple[int, ...] = (15, 35, 55, 75)
    lookback_list: tuple[int, ...] = (48, 96, 192, 336, 512, 720)
    outdir: str = "runs"
    synth_length: int = 480
    synth_channels: int = 3

    def __post_init__(self):
        super().__post_init__()
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
        for key in ("horizons", "seeds", "rank_list", "lookback_list"):
            listed = getattr(self, key)
            repeated = [v for i, v in enumerate(listed) if v in listed[:i]]
            if repeated:
                raise InvalidConfigError(f"{key}: {repeated[0]} is listed twice")

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def seed_list(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else (self.seed,)


# every config key's type, from the annotations; also the known-key set
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_value(name: str, text: str):
    kind, text = _KEY_TYPES[name], text.strip()
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
        raise InvalidConfigError(f"config key {name}: {exc}") from exc


def read_config_file(path) -> dict:
    """Flat `key = value` lines; '#' comments and blank lines ignored."""
    values: dict = {}
    with hadl_data.open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HadlError(f"{path}: line {line_no}: expected `key = value`")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEY_TYPES:
                raise HadlError(f"{path}: line {line_no}: unknown config key {key!r}")
            values[key] = _parse_value(key, value)
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name, None)
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
    """The command's dataset and its split convention, reading the registry
    at most once. Convention: explicit config wins, then the registry entry,
    then the known-name default (ratio for anything unrecognized)."""
    name = config.dataset
    entry = hadl_data.load_registry(config.registry).get(name, {}) if config.registry else {}
    convention = config.convention or entry.get("convention") or hadl_data.convention_for(name)
    if name in hadl_data.SYNTH_KINDS:
        params = {"length": config.synth_length, "channels": config.synth_channels}
        return hadl_data.synth(name, params, seed=mix_seed(config.seed, "dataset")), convention
    path = config.data_path or entry.get("path") or os.path.join("data", f"{name}.csv")
    if not os.path.exists(path):
        raise HadlError(f"dataset file not found: {path} (set data_path or registry)")
    dataset = hadl_data.load_csv(path, convention, name=name,
                                 expected_channels=entry.get("channels"))
    return dataset, convention


def prepare_windows(job: ExperimentConfig, horizon: int, data):
    """Split, standardize, noise the train segment, and window all three."""
    dataset, convention = data
    segments = hadl_data.split(dataset, convention, lookback=job.lookback)
    _, train_seg, val_seg, test_seg = hadl_data.fit_transform(*segments)
    if job.noise_eta > 0.0:
        train_seg = hadl_data.inject_noise(
            train_seg, job.noise_eta, mix_seed(job.seed, "noise", job.noise_eta)
        )
    w_train = hadl_data.windows(train_seg, job.lookback, horizon)
    w_val = hadl_data.windows(val_seg, job.lookback, horizon)
    w_test = hadl_data.windows(test_seg, job.lookback, horizon)
    return w_train, w_val, w_test


def run_single(job: ExperimentConfig, horizon: int, data, grad_norm: bool = False):
    """Train one model on `data` = (dataset, convention) and evaluate it on
    the clean test split.

    Returns (best_model, trace, EvalReport). The model init seed does not
    depend on noise_eta, so a robustness sweep perturbs only the training data.
    With grad_norm, trace.final_grad_norm is filled in for the best model
    (from the training windows' statistics, `trace.train_stats` where
    `train` left them; only `train` writes it out); otherwise it stays NaN.
    trace.train_stats is dropped either way, so a result stays small.
    """
    w_train, w_val, w_test = prepare_windows(job, horizon, data)
    model = init_model(
        job.lookback,
        horizon,
        job.rank,
        seed=mix_seed(job.seed, "init", job.lookback, horizon),
        use_haar=job.use_haar,
        use_dct=job.use_dct,
        head=job.head,
        with_bias=job.with_bias,
    )
    best, trace = train(model, w_train, w_val, job)
    if grad_norm:
        # looked up on hadl.optim, where the benchmark's tracer wraps it
        trace.final_grad_norm = hadl_optim.dense_equivalent_grad_norm(best, w_train,
                                                                      trace.train_stats)
    trace.train_stats = None
    test_mse, test_mae = evaluate(best, w_test)
    report = hadl_metrics.EvalReport(
        dataset=data[0].name,
        horizon=horizon,
        use_haar=job.use_haar,
        use_dct=job.use_dct,
        head=job.head,
        with_bias=job.with_bias,
        rank=job.rank if job.head == HEAD_LOW_RANK else None,
        seed=job.seed,
        noise_eta=job.noise_eta,
        mse=test_mse,
        mae=test_mae,
    )
    return best, trace, report


def param_totals(cells) -> list[int]:
    """Parameter totals of the (job, horizon) cells. Commands call it before
    loading data: `param_count` rejects an impossible model shape there, so
    it fails before any dataset loads or worker process starts."""
    return [param_count(job.lookback, horizon, job.rank, job.with_bias, job.use_haar,
                        job.head).total for job, horizon in cells]


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 or above the CPU count, before the
    command loads data: workers beyond the CPUs only share them, and a pool
    started by fork starts every worker at its first job."""
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise InvalidConfigError(f"workers must be <= {cpus}, the CPU count, got {workers}")


def run_grid(cells, data, workers: int, grad_norm: bool) -> list:
    """run_single over (job, horizon) cells, serially or in one process pool
    of at most one worker per cell; a job is the command's config with the
    cell's keys replaced. Prints one progress line per job as its result
    arrives, in cell order, and returns the (best_model, trace, EvalReport)
    triples in cell order. grad_norm is passed to every run_single, so a
    pool computes the norms in its workers."""
    workers = min(workers, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_single, job, horizon, data, grad_norm)
                       for job, horizon in cells]
            return [_progress(cell, future.result()) for cell, future in zip(cells, futures)]
    return [_progress(cell, run_single(*cell, data, grad_norm)) for cell in cells]


def _progress(cell, result):
    (job, horizon), (_, trace, report) = cell, result
    print(
        f"job dataset={report.dataset} variant={variant_name(job)} L={job.lookback} "
        f"H={horizon} seed={job.seed} eta={job.noise_eta} best_epoch={trace.best_epoch} "
        f"test_mse={report.mse:.6f} test_mae={report.mae:.6f}"
    )
    return result


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
    param_totals(cells)
    check_workers(workers)
    data = load_dataset(config)  # validates inputs before any output dir exists
    fingerprint = config.fingerprint()
    variant = variant_name(config)
    results = run_grid(cells, data, workers, grad_norm=True)  # written to trace_seed*.json

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


def cmd_robustness(config: ExperimentConfig, workers: int = 1) -> hadl_metrics.RobustnessReport:
    """Noise sweep at the first configured horizon; evaluation always clean.

    Each eta trains its own model (robust_max_epochs/robust_patience); the
    eta list must contain 0.0 for the NRR baseline. workers > 1 trains the
    etas in parallel processes.
    """
    etas = tuple(sorted(set(config.eta_list)))
    if 0.0 not in etas:
        raise MissingZeroEtaError("eta_list must contain 0.0")
    horizon = config.horizons[0]
    base = replace(config, seed=config.seed_list()[0], max_epochs=config.robust_max_epochs,
                   patience=config.robust_patience)
    cells = [(replace(base, noise_eta=eta), horizon) for eta in etas]
    param_totals(cells)
    check_workers(workers)
    data = load_dataset(config)
    fingerprint = config.fingerprint()
    variant = variant_name(config)
    results = run_grid(cells, data, workers, grad_norm=False)
    report = hadl_metrics.robustness_report(etas, [r.mse for _, _, r in results])

    for prev, nxt in zip(report.nrr_per_eta, report.nrr_per_eta[1:]):
        if nxt < prev - 0.02:
            print(
                f"warning: NRR decreased from {prev:.4f} to {nxt:.4f} with more noise;"
                " unusual but not an error",
                file=sys.stderr,
            )
    if report.mav is None:
        print("robustness: no noisy etas, MAV undefined")
    else:
        print(f"robustness: MAV={report.mav:.6f} over etas {list(report.eta_list[1:])}")

    run_dir = _run_dir(config, variant, horizon)
    hadl_metrics.write_robustness_csv(
        report, os.path.join(run_dir, "robustness.csv"), fingerprint
    )
    bundle = {**_json_header(config, horizon, variant), **asdict(report)}
    hadl_metrics.write_json_bundle(bundle, os.path.join(run_dir, "robustness.json"))
    return report


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
        raise UnknownAxisError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")
    base = replace(config, rank=config.ablate_rank, seed=config.seed_list()[0])
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
        mses = [r.mse for _, _, r in run_grid(cells, load_dataset(config), 1, grad_norm=False)]
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
    """Dump a checkpoint's d_in x H head map (`effective_weight`: P@Q, or W
    for a dense head) as a plain CSV matrix (one row per input feature)."""
    model = load_checkpoint(checkpoint_path)
    weight = effective_weight(model)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(weight.tolist())
    print(f"wrote {weight.shape[0]}x{weight.shape[1]} weight matrix to {out_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat `key = value` config file")
        for f in fields(ExperimentConfig):
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, metavar="V",
                           help=f"override config key {f.name} (default {f.default!r})")

    p_train = sub.add_parser("train", help="train and evaluate per horizon")
    p_train.add_argument("--workers", type=int, default=1,
                         help="run the (horizon, seed) grid in N parallel processes")
    add_config_args(p_train)

    p_rob = sub.add_parser("robustness", help="noise sweep with NRR/MAV report")
    p_rob.add_argument("--workers", type=int, default=1,
                       help="train the noise intensities in N parallel processes")
    add_config_args(p_rob)

    p_abl = sub.add_parser("ablate", help="variant-grid table for one axis")
    p_abl.add_argument("axis", choices=ABLATION_AXES)
    p_abl.add_argument("--params-only", action="store_true",
                       help="skip training; emit parameter counts only")
    add_config_args(p_abl)

    p_params = sub.add_parser("params", help="print parameter counts")
    add_config_args(p_params)

    p_export = sub.add_parser("export-weights", help="dump effective weight matrix as CSV")
    p_export.add_argument("checkpoint")
    p_export.add_argument("out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cmd_train(resolve_config(args), workers=args.workers)
        elif args.command == "robustness":
            cmd_robustness(resolve_config(args), workers=args.workers)
        elif args.command == "ablate":
            cmd_ablate(resolve_config(args), args.axis, params_only=args.params_only)
        elif args.command == "params":
            cmd_params(resolve_config(args))
        elif args.command == "export-weights":
            cmd_export_weights(args.checkpoint, args.out)
    except (HadlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

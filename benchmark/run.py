#!/usr/bin/env python3
"""Benchmark of hadl: one workload run through `hadl.cli.main`, timed from outside.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports hadl from ./src.
Each workload is a closed loop: one command at a time, each in a fresh
process, with BLAS pinned to one thread and `--workers 1`. The seed picks
the generated input series; the program sees only the CSV.

--trace 0 runs the set-up command (epoch budget 0) twice and the full
command at least three times, and goes on with full commands until S
seconds have passed. It reports the medians of job_s, setup_s and
peak_rss_mb, plus the test MSE the command wrote. --trace 1 repeats rounds
of one untraced and one traced command, alternating which runs first, and
reports the per-layer figures of the median traced run and the tracing
overhead.
Both check the outputs: every failed check counts as a failed operation,
and the exit code is 1 if any check failed. The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is imported, here and (inherited) in every child: one
# BLAS thread against two made a 10x difference on a 2-vCPU machine.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gendata  # noqa: E402
import reference  # noqa: E402
from tracing import LAYERS, PER_LAYER, TRACE_METRICS, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

LOOKBACK = 512
ETAS = "0,0.7,2.3"
MIN_SETUPS = 2
MIN_JOBS = 3  # at least two, so that their outputs can be compared
TIME_LIMIT_S = 165.0  # the whole run, set-up and checks included, stays under 180 s
POLL_S = 0.002
REL_TOL = 1e-9

END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("test_mse", "mse"))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hadl subcommand
    dataset: str  # --dataset; ETTh1 turns on hadl's etth split and 7-channel check
    split: str  # the split hadl applies to that dataset name
    rows: int
    channels: int
    horizons: tuple[int, ...]
    epochs: int  # fixed budget; patience equals it, so the stopping epoch cannot move

    def argv(self, data_path: str, epochs: int) -> list[str]:
        patience = str(max(epochs, 1))  # hadl requires patience >= 1
        if self.command == "robustness":
            budget = ["--eta-list", ETAS, "--robust-max-epochs", str(epochs),
                      "--robust-patience", patience]
        else:
            budget = ["--max-epochs", str(epochs), "--patience", patience]
        return [
            self.command, "--workers", "1",
            "--dataset", self.dataset, "--data-path", data_path,
            "--horizons", ",".join(map(str, self.horizons)),
            "--lookback", str(LOOKBACK), "--rank", "50",
            "--learning-rate", "0.001", "--batch-size", "64", "--l1-lambda", "0.0001",
            "--seed", "0", "--outdir", "out", *budget,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's protocol: the epoch loop runs ADAM steps of 448 rows.
        Workload("etth1_train", "train", "ETTh1", "etth", 17420, 7, (96, 720), 2),
        # Every eta's job re-splits, re-scales, adds noise, re-windows and
        # re-transforms: per-job preparation outweighs training, and it is the
        # only workload that injects noise or writes robustness tables.
        Workload("etth1_robustness", "robustness", "ETTh1", "etth", 17420, 7, (192,), 1),
        # 321 channels: 20544-row batches and a window copy ~320x the series.
        Workload("wide_train", "train", "wide", "ratio", 1700, 321, (96,), 2),
    )
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float  # user + system; wall minus this is time spent waiting for a CPU or I/O
    rss_mb: float
    code: int
    log: str


class Checks:
    """Correctness checks, each one operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def run_child(argv: list[str], cwd: Path, deadline: float, spans: Path | None = None) -> Sample:
    """Run one hadl command in a fresh process; wall time and its own peak RSS."""
    cwd.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *argv]
    log_path = cwd / "log.txt"
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"{' '.join(argv[:1])} exceeded the run's time limit")
                time.sleep(POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, log_path.read_text(encoding="utf-8", errors="replace"))


def read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def output_dirs(workload: Workload, rep_dir: Path) -> dict[int, Path]:
    """out/<dataset>/<variant>/<horizon> per horizon; the variant is not assumed."""
    dirs = {}
    for horizon in workload.horizons:
        found = sorted(rep_dir.glob(f"out/{workload.dataset}/*/{horizon}"))
        if len(found) != 1:
            raise FileNotFoundError(f"expected one output dir for H={horizon}, found {len(found)}")
        dirs[horizon] = found[0]
    return dirs


def expected_files(workload: Workload) -> tuple[str, ...]:
    if workload.command == "robustness":
        return ("robustness.csv", "robustness.json")
    return ("eval.csv", "eval.json", "checkpoint_seed0.npz", "trace_seed0.csv", "trace_seed0.json")


def check_command(checks: Checks, name: str, workload: Workload, rep_dir: Path,
                  sample: Sample) -> bool:
    """The command exited 0 and wrote every expected file."""
    if sample.code != 0:
        checks.record(name, False, f"exit code {sample.code}: {sample.log[-400:]}")
        return False
    try:
        dirs = output_dirs(workload, rep_dir)
    except FileNotFoundError as exc:
        checks.record(name, False, str(exc))
        return False
    absent = [str(d / f) for d in dirs.values() for f in expected_files(workload)
              if not (d / f).is_file()]
    checks.record(name, not absent, f"missing {absent}")
    return not absent


def check_outputs(checks: Checks, workload: Workload, rep_dir: Path, log: str,
                  values: np.ndarray) -> float:
    """Quality checks on one full command's outputs; returns its mean test MSE."""
    dirs = output_dirs(workload, rep_dir)
    try:
        if workload.command == "robustness":
            return _check_robustness(checks, workload, dirs, log)
        return _check_train(checks, workload, dirs, values)
    except (OSError, KeyError, ValueError) as exc:
        checks.record("readable outputs", False, f"{type(exc).__name__}: {exc}")
        return math.nan


def _check_train(checks: Checks, workload: Workload, dirs: dict[int, Path],
                 values: np.ndarray) -> float:
    mses = []
    for horizon, out in dirs.items():
        rows = read_table(out / "eval.csv")
        finite = bool(rows) and all(math.isfinite(float(r[k]))
                                    for r in rows for k in ("mse", "mae"))
        checks.record(f"H={horizon} finite mse/mae", finite)
        if not finite:
            continue
        mse = float(rows[0]["mse"])
        mses.append(mse)
        best = json.loads((out / "trace_seed0.json").read_text())["best_epoch"]
        checks.record(f"H={horizon} best_epoch >= 0", best >= 0, f"best_epoch={best}")
        with np.load(out / "checkpoint_seed0.npz", allow_pickle=False) as ckpt:
            P, Q, bias = ckpt["P"], ckpt["Q"], ckpt["bias"]
        ref = reference.test_mse(values, workload.split, LOOKBACK, P, Q, bias)
        rel = abs(ref - mse) / abs(ref)
        checks.record(f"H={horizon} reference test MSE", rel <= REL_TOL,
                      f"eval.csv {mse!r} vs reference {ref!r} (rel {rel:.2e})")
    return statistics.fmean(mses) if mses else math.nan


def _check_robustness(checks: Checks, workload: Workload, dirs: dict[int, Path],
                      log: str) -> float:
    rows = read_table(dirs[workload.horizons[0]] / "robustness.csv")
    etas = [float(r["eta"]) for r in rows]
    mses = [float(r["mse"]) for r in rows]
    finite = bool(mses) and all(math.isfinite(m) for m in mses)
    checks.record("finite mse per eta", finite)
    bests = [int(b) for b in re.findall(r"best_epoch=(-?\d+)", log)]
    checks.record("best_epoch >= 0 per eta", len(bests) == len(etas) and min(bests) >= 0,
                  f"best_epoch values {bests}")
    if not finite:
        return math.nan
    ratios, mav = reference.nrr_mav(etas, mses)
    written = [float(r["nrr"]) for r in rows if r["nrr"]]
    ok = len(written) == len(ratios) and all(
        math.isclose(a, b, rel_tol=REL_TOL) for a, b in zip(written, ratios)
    ) and math.isclose(float(rows[-1]["mav"]), mav, rel_tol=REL_TOL)
    checks.record("NRR and MAV recomputed", ok, f"written {written}, {rows[-1]['mav']}; "
                  f"recomputed {ratios}, {mav!r}")
    return statistics.fmean(mses)


def check_same_bytes(checks: Checks, dir_a: Path, dir_b: Path) -> None:
    """Two runs of one command write byte-identical CSV and JSON files."""
    def tables(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted((root / "out").rglob("*")) if p.suffix in (".csv", ".json")}
    a, b = tables(dir_a), tables(dir_b)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    checks.record(f"byte-identical outputs ({len(a)} files)", bool(a) and not differ,
                  f"differ: {differ}")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def manifest(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def median_of(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def measure(workload: Workload, run_dir: Path, data_path: str, values: np.ndarray,
            seconds: float, deadline: float, checks: Checks) -> tuple[dict, dict]:
    """Set-up and full commands, interleaved; end-to-end metrics and samples."""
    setup, job = [], []
    measure_end = time.perf_counter() + seconds
    test_mse = math.nan
    while len(setup) < MIN_SETUPS or len(job) < MIN_JOBS or time.perf_counter() < measure_end:
        if len(setup) < MIN_SETUPS and len(setup) <= len(job):
            rep_dir = run_dir / f"setup{len(setup)}"
            setup.append(run_child(workload.argv(data_path, 0), rep_dir, deadline))
            check_command(checks, f"set-up command {len(setup)}", workload, rep_dir, setup[-1])
            continue
        if len(job) >= MIN_JOBS and time.perf_counter() + 1.5 * job[-1].wall_s > deadline:
            break
        rep_dir = run_dir / f"job{len(job)}"
        job.append(run_child(workload.argv(data_path, workload.epochs), rep_dir, deadline))
        if not check_command(checks, f"command {len(job)}", workload, rep_dir, job[-1]):
            continue
        if len(job) == 1:
            test_mse = check_outputs(checks, workload, rep_dir, job[0].log, values)
        else:
            check_same_bytes(checks, run_dir / "job0", rep_dir)
            shutil.rmtree(rep_dir)
    metrics = {
        "job_s": median_of([s.wall_s for s in job]),
        "setup_s": median_of([s.wall_s for s in setup]),
        "peak_rss_mb": median_of([s.rss_mb for s in job]),
        "test_mse": test_mse,
    }
    samples = {"job_s": [s.wall_s for s in job], "setup_s": [s.wall_s for s in setup],
               "peak_rss_mb": [s.rss_mb for s in job],
               "job_cpu_s": [s.cpu_s for s in job], "setup_cpu_s": [s.cpu_s for s in setup]}
    return metrics, samples


def measure_traced(workload: Workload, run_dir: Path, data_path: str, values: np.ndarray,
                   seconds: float, deadline: float, checks: Checks) -> tuple[dict, dict]:
    """Rounds of an untraced and a traced command; per-layer metrics and samples."""
    untraced, traced, figures = [], [], []
    measure_end = min(time.perf_counter() + seconds, deadline)
    argv = workload.argv(data_path, workload.epochs)
    missing: list[str] = []
    # At least two rounds, so that each order runs once.
    while len(traced) < 2 or (
            time.perf_counter() + untraced[-1].wall_s + traced[-1].wall_s < measure_end):
        rep = len(traced)
        plain_dir, traced_dir = run_dir / f"job{rep}", run_dir / f"traced{rep}"
        spans_path = run_dir / f"spans{rep}.json"
        # Alternate which runs first, so neither side always pays for a cold start.
        for traced_turn in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced_turn:
                traced.append(run_child(argv, traced_dir, deadline, spans=spans_path))
            else:
                untraced.append(run_child(argv, plain_dir, deadline))
        plain_ok = check_command(checks, f"command {rep}", workload, plain_dir, untraced[-1])
        if not check_command(checks, f"traced command {rep}", workload, traced_dir, traced[-1]):
            continue
        if plain_ok:
            if rep == 0:
                check_outputs(checks, workload, plain_dir, untraced[0].log, values)
            check_same_bytes(checks, plain_dir, traced_dir)
        record = json.loads(spans_path.read_text())
        spans, missing = record["spans"], record["missing"]
        fig = layer_metrics(spans)
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        layer_sum = sum(fig[f"layer.{layer}.self_s"] for layer in LAYERS)
        checks.record(f"traced command {rep}: layer self times add up to the root spans",
                      abs(layer_sum - roots) <= 1e-6 * max(roots, 1.0),
                      f"{layer_sum!r} vs {roots!r}")
        fig["trace.job_s"] = traced[-1].wall_s
        fig["trace.gap_s"] = traced[-1].wall_s - roots
        figures.append(fig)
    # All figures come from the traced command of median wall time, so that
    # its layer self times and gap add up to its trace.job_s.
    figures.sort(key=lambda f: f["trace.job_s"])
    metrics = dict(figures[(len(figures) - 1) // 2]) if figures else {}
    metrics["trace.untraced_job_s"] = median_of([s.wall_s for s in untraced])
    metrics["trace.overhead_s"] = (median_of([s.wall_s for s in traced])
                                   - metrics["trace.untraced_job_s"])
    metrics["trace.hooks_missing"] = len(missing)
    samples = {"trace.job_s": [s.wall_s for s in traced],
               "trace.untraced_job_s": [s.wall_s for s in untraced],
               "hooks_missing": missing}
    return metrics, samples


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "hadl" / "cli.py").is_file():
        print(f"error: no hadl sources at {SRC / 'hadl'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = started + TIME_LIMIT_S
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    checks = Checks()
    try:
        run_dir.mkdir(parents=True)
        values = gendata.series(args.seed, workload.rows, workload.channels)
        data_path = str(run_dir / "input.csv")
        gendata.write_csv(data_path, values)
        measure_fn = measure_traced if args.trace else measure
        try:
            metrics, samples = measure_fn(workload, run_dir, data_path, values,
                                          args.seconds, deadline, checks)
        except TimeoutError as exc:
            checks.record("time limit", False, str(exc))
            metrics, samples = {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = dict(TRACE_METRICS + PER_LAYER) if args.trace else dict(END_TO_END)
    # A figure the run could not measure is null, never a number.
    report = {name: {"value": _finite_or_none(metrics.get(name)), "unit": unit}
              for name, unit in units.items()}
    info = {"workload": workload.name,
            "argv": workload.argv("<input.csv>", workload.epochs),
            "input_shape": [workload.rows, workload.channels],
            "manifest": manifest(args.seed), "samples": samples,
            "failures": checks.failures}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": report}, indent=2) + "\n")

    print("manifest " + json.dumps(info["manifest"], sort_keys=True))
    print(f"workload {workload.name}: hadl {' '.join(info['argv'])}")
    for name, entry in report.items():
        runs = samples.get(name, [])
        note = f"  (median of {len(runs)} runs)" if runs else ""
        print(f"  {name:32s} {entry['value']!s:>24} {entry['unit']}{note}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

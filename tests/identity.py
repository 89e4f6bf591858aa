"""Byte identity of hadl's outputs between two source trees (or two
environments of one tree).

    python tests/identity.py run SRC WORKDIR
    python tests/identity.py compare [--ignore-config] WORKDIR_A WORKDIR_B

`run` runs every argv of ARGVS, in order, as `python -m hadl.cli ...` with
PYTHONPATH=SRC and the working directory WORKDIR, which must not exist yet.
Every argv writes under the same relative outdir (`runs`), so the `outdir`
entry of each JSON config matches between trees too. The environment is
passed on as it is, so set the BLAS thread variables before the run. Each
command's exit code, stdout and stderr go to log/NN.txt, and
WORKDIR/manifest.txt gets one `sha256  path` line per file under runs/ and
log/. The whole set takes about 6 s serially, with one BLAS thread.

`compare` reads two such manifests and names every file that differs or is
in one of them only. For a differing CSV or JSON file it gives the first
differing value, where it sits and the relative difference of two numbers;
for any other file, the first differing line. It exits 1 if any file
differs. With --ignore-config it skips each CSV's `# config_fingerprint=`
line and each JSON file's `config` and `config_fingerprint` values, and
counts a CSV or JSON file whose other values are all equal as the same: so
a change to the config keys can still show that every other value is
equal.

The argvs take every subcommand (`export-weights` and `--params-only`
included), the rows and the statistics steps (40 channels), the Haar and
DCT stages on and off, both heads, bias on and off, an odd lookback with
Haar off, a 0-epoch run, a `--workers 2` pool (refused, and logged so, on
a machine with one CPU), robustness at two horizons and two etas, and
every ablation axis. The last two repeat the last argvs to write their
files, POOL and ROBUSTNESS, with a `--config` file that sets only keys the
command does not read (CONFIGS), so they rewrite those files with the same
bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BUDGET = ["--max-epochs", "2", "--patience", "2"]
SMALL = ["--dataset", "sine_mix", "--lookback", "16", "--horizons", "4,8"]
TRAINS = [*SMALL, *BUDGET]
# 40 channels at L = 32, H = 8, r = 4 take the statistics steps (`steps_from_stats`)
WIDE = ["--dataset", "random_walk", "--synth-channels", "40", "--synth-length", "600",
        "--lookback", "32", "--horizons", "8", *BUDGET]
# an ETTh1-shaped CSV (7 channels, the etth split's 14400 rows) that `run`
# writes, read once from the text and then from the ingest cache
CSV = ["--dataset", "ETTh1", "--data-path", "ETTh1.csv", "--lookback", "16", "--rank", "2"]
CHECKPOINT = "runs/sine_mix/{}/4/checkpoint_seed0.npz"
# config files that `run` writes, each setting keys that its command does not read
CONFIGS = {"train_unread.cfg": "robust_max_epochs = 7\neta_list = 0.5\nrobust_patience = 3\n",
           "robustness_unread.cfg": "max_epochs = 3\npatience = 1\nnoise_eta = 0.5\n"}
POOL = ["train", *TRAINS, "--rank", "2", "--seed", "4,5", "--workers", "2"]
ROBUSTNESS = ["robustness", *SMALL, "--rank", "2", "--eta-list", "0,0.5",
              "--robust-max-epochs", "2", "--robust-patience", "2"]

ARGVS = [
    ["train", *TRAINS, "--rank", "2", "--seed", "0,1"],
    ["train", *TRAINS, "--rank", "2", "--use-dct", "false", "--with-bias", "false"],
    ["train", "--dataset", "sine_mix", "--lookback", "15", "--horizons", "4,8", *BUDGET,
     "--rank", "3", "--use-haar", "false"],
    ["train", *TRAINS, "--head", "dense"],
    ["train", *TRAINS, "--head", "dense", "--use-haar", "false", "--use-dct", "false",
     "--with-bias", "false"],
    ["train", *SMALL, "--rank", "2", "--max-epochs", "0", "--patience", "1", "--seed", "3"],
    POOL,
    ["train", *WIDE, "--rank", "4"],
    ["train", *WIDE, "--head", "dense", "--use-dct", "false"],
    ROBUSTNESS,
    ["train", *CSV, "--horizons", "4", "--max-epochs", "1", "--patience", "1"],
    ["robustness", *CSV, "--horizons", "8", "--eta-list", "0,0.5", "--robust-max-epochs", "1",
     "--robust-patience", "1"],
    ["ablate", "haar", *TRAINS, "--rank", "2"],
    ["ablate", "head", *TRAINS, "--rank", "2"],
    ["ablate", "dct", *TRAINS, "--rank", "2"],
    ["ablate", "rank", *TRAINS, "--rank", "2,4"],
    ["ablate", "lookback", "--dataset", "sine_mix", "--lookback", "16,24", "--horizons",
     "4", "--rank", "2", *BUDGET],
    ["ablate", "head", "--params-only", "--horizons", "96,720", "--rank", "40", "--with-bias",
     "false"],
    ["params", "--lookback", "512", "--horizons", "96,720", "--rank", "50"],
    ["export-weights", CHECKPOINT.format("L16-haar-dct-lowrank_r2-bias"), "runs/lowrank.csv"],
    ["export-weights", CHECKPOINT.format("L16-haar-dct-dense-bias"), "runs/dense.csv"],
    [*POOL, "--config", "train_unread.cfg"],
    [*ROBUSTNESS, "--config", "robustness_unread.cfg"],
]


def run(src: str, workdir: str) -> None:
    root = Path(workdir)
    (root / "log").mkdir(parents=True)
    with open(root / "ETTh1.csv", "w", encoding="utf-8") as handle:
        handle.write("date," + ",".join(f"c{c}" for c in range(7)) + "\n")
        for t in range(14400):
            values = (math.sin(0.26 * t + c) + 0.1 * math.cos(0.0437 * t * (c + 1))
                      for c in range(7))
            handle.write(f"{t}," + ",".join(f"{v:.6f}" for v in values) + "\n")
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    for i, argv in enumerate(ARGVS):
        if argv[0] in ("train", "robustness", "ablate"):
            argv = [*argv, "--outdir", "runs"]
        proc = subprocess.run([sys.executable, "-m", "hadl.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True)
        (root / "log" / f"{i:02d}.txt").write_text(
            f"{' '.join(argv)}\nexit {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr}")
    lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
             for top in ("log", "runs") for path in sorted((root / top).rglob("*"))
             if path.is_file()]
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


def _manifest(workdir: Path) -> dict[str, str]:
    lines = (workdir / "manifest.txt").read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def _values(path: Path, text: str, ignore_config: bool) -> list[tuple[str, object]]:
    """A CSV or JSON file's values in file order, each with where it sits;
    with `ignore_config`, those of the config and its fingerprint left out."""
    if path.suffix == ".csv":
        lines = [line for line in text.splitlines()
                 if not (ignore_config and line.startswith("# config_fingerprint="))]
        return [(f"row {r} column {c}", cell) for r, row in enumerate(csv.reader(lines), start=1)
                for c, cell in enumerate(row, start=1)]
    found = []

    def walk(where: str, node) -> None:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (dict, list)):
                walk(f"{where}{key}.", value)
            else:
                found.append((f"{where}{key}", value))

    tree = json.loads(text)
    if ignore_config:
        tree = {key: value for key, value in tree.items()
                if key not in ("config", "config_fingerprint")}
    walk("", tree)
    return found


def _relative(value_a, value_b) -> str:
    try:
        a, b = float(value_a), float(value_b)
    except (TypeError, ValueError):
        return ""
    scale = max(abs(a), abs(b))
    return f", relative difference {abs(a - b) / scale if scale else 0.0:.3g}"


def _first_difference(a: Path, b: Path, ignore_config: bool) -> str | None:
    """Where two files first differ; None for CSV or JSON files whose
    values are all equal."""
    try:
        text_a, text_b = a.read_text(), b.read_text()
    except UnicodeDecodeError:
        return "binary"
    if a.suffix in (".csv", ".json"):
        values_a, values_b = _values(a, text_a, ignore_config), _values(b, text_b, ignore_config)
        for (where_a, value_a), (where_b, value_b) in zip(values_a, values_b):
            if (where_a, value_a) != (where_b, value_b):
                if where_a != where_b:
                    return f"{where_a} against {where_b}"
                return f"{where_a}: {value_a!r} against {value_b!r}{_relative(value_a, value_b)}"
        if values_a == values_b:
            return None
        return f"{len(values_a)} values against {len(values_b)}"
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            return f"line {number}: {line_a!r} against {line_b!r}"
    return f"{len(lines_a)} lines against {len(lines_b)}"


def compare(workdir_a: str, workdir_b: str, ignore_config: bool = False) -> int:
    a, b = Path(workdir_a), Path(workdir_b)
    left, right = _manifest(a), _manifest(b)
    differing = 0
    for path in sorted(left.keys() | right.keys()):
        if path not in right or path not in left:
            print(f"only in {a if path in left else b}: {path}")
        elif left[path] == right[path]:
            continue
        else:
            where = _first_difference(a / path, b / path, ignore_config)
            if where is None:
                continue
            print(f"differs: {path}: {where}")
        differing += 1
    print(f"{differing} of {len(left.keys() | right.keys())} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    ignore = args[:2] == ["compare", "--ignore-config"]
    if ignore:
        del args[1]
    if len(args) != 3 or args[0] not in ("run", "compare"):
        sys.exit(__doc__)
    if args[0] == "run":
        run(args[1], args[2])
    else:
        sys.exit(compare(args[1], args[2], ignore))

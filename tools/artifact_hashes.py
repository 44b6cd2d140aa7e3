"""Run every CLI command on small generated data and print each artifact's sha256.

    python tools/artifact_hashes.py [SRC_DIR] > hashes.txt
    python tools/artifact_hashes.py [SRC_DIR] --compare OTHER_SRC

``SRC_DIR`` is the directory holding the ``subnet`` package (default: the
``src/`` next to this script).  To show that a change keeps its artifacts
byte-identical, run the script once against the parent's sources and once
against the change, then ``diff`` the two outputs.  Export the parent with
``git archive`` (as ``tools/paired_bench.py`` does), which leaves no metadata
in the checkout::

    mkdir parent && git archive HEAD~1 src | tar -x -C parent
    python tools/artifact_hashes.py parent/src > before.txt

OpenBLAS is pinned to one thread before numpy loads, and the commands run in a
temporary directory with relative paths, so ``effective_config.json`` does not
depend on where the script runs.  ``run_info.json`` holds the wall time and is
not hashed.  Each command's exit status is printed; a command that fails prints
its status and the first line of its error instead of artifacts.  ``--out DIR``
runs the commands in ``DIR`` and keeps the artifacts there.

``--compare OTHER_SRC`` says how far the artifacts of two source trees drift
apart, for a change that sets out to change numerics.  It runs the commands
once per tree, each tree in its own process, and prints one line per artifact:
``identical``, the largest relative difference ``|a - b| / max(|a|, |b|)``
over the numeric cells of a CSV or the numbers of a JSON file, or the first
mismatch that is not a pair of finite numbers (text, a missing key, a
different row count).  A command whose exit status differs between the trees
is reported as such.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = {"run_info.json"}

TRAIN = {"T": 8, "batch_size": 8, "max_updates": 60, "eval_every": 20, "patience": 20}
MODEL = {"n_x": 2, "n_a": 2, "n_b": 2, "hidden": [6, 6]}
LIN_DATA = {"train_path": "out/gen-lin-train/dataset.csv",
            "test_path": "out/gen-lin-test/dataset.csv", "dt": 0.5}
TANKS_DATA = {"train_path": "out/gen-tanks/dataset.csv", "dt": 4.0}


def _linear2(seed: int) -> dict:
    return {"system": "linear2", "n_samples": 160, "dt": 0.5, "seed": seed, "noise_std": 0.05}


def _train(data=LIN_DATA, model=None, solver=None, train=None) -> dict:
    return {"data": data, "model": {**MODEL, **(model or {})},
            "solver": solver or {}, "train": {**TRAIN, **(train or {})}}


# (name, command, config, extra command-line arguments), run in this order
RUNS = [
    ("gen-lin-train", "generate", {"synthetic": _linear2(0)}, []),
    ("gen-lin-test", "generate", {"synthetic": _linear2(2)}, []),
    ("gen-lin-c", "generate",
     {"synthetic": {**_linear2(4), "params": {"c1": 0.3, "c2": 1.7}}}, []),
    ("gen-tanks", "generate",
     {"synthetic": {"system": "cascaded_tanks", "n_samples": 200, "dt": 4.0,
                    "input": "random_steps", "seed": 3, "noise_std": 0.01}}, []),
    ("train-ct-rk4", "train", _train(), []),
    ("train-ct-euler3", "train", _train(solver={"method": "euler", "substeps": 3}), []),
    ("train-dt", "train", _train(model={"mode": "dt"}), []),
    ("train-tanks-rk4", "train", _train(data=TANKS_DATA), []),
    ("train-lag0-truncated", "train", _train(model={"n_a": 0, "n_b": 0}), []),
    ("train-lag0-full", "train",
     _train(model={"n_a": 0, "n_b": 0}, train={"loss_target": "full"}), []),
    ("eval", "eval", {"data": LIN_DATA, "eval": {"model_path": "out/train-ct-rk4/model.json"}}, []),
    ("sweep-serial", "sweep-tau",
     {**_train(), "sweep": {"dt_over_tau": [0.1, 1.0], "seeds": [0, 1]}}, []),
    ("sweep-dt", "sweep-tau",
     {**_train(model={"mode": "dt"}), "sweep": {"dt_over_tau": [0.1, 1.0], "seeds": [0, 1]}},
     []),
    ("sweep-threads2", "sweep-tau",
     {**_train(), "sweep": {"dt_over_tau": [0.1, 1.0], "seeds": [0, 1]}}, ["--threads", "2"]),
    ("ensemble-serial", "ensemble", {**_train(), "ensemble": {"seeds": [0, 1, 2]}}, []),
    ("ensemble-threads2", "ensemble",
     {**_train(), "ensemble": {"seeds": [0, 1, 2]}}, ["--threads", "2"]),
    ("probe", "probe-smoothness",
     {"data": LIN_DATA, "model": MODEL,
      "probe": {"T_values": [4, 16], "n_probes": 4, "eps": 1e-4, "seeds": [0, 1]}}, []),
    ("reconstruct", "reconstruct",
     {"seed": 5, "synthetic": {"system": "linear2", "n_samples": 40, "dt": 0.5,
                               "noise_std": 0.0, "truth_substeps": 16},
      "reconstruct": {"z": 3, "n_points": 5}}, []),
]


def run_all() -> None:
    from subnet.cli import main

    for name, command, doc, extra in RUNS:
        out = Path("out", name)
        cfg = Path(f"cfg/{name}.json")
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text(json.dumps({"command": command, "out": str(out), **doc}, indent=1))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                status = main([command, "--config", str(cfg), *extra])
            except Exception as e:  # an uncaught fault is a result too
                status = f"raised {type(e).__name__}: {e}"
        print(f"{name}: exit {status}")
        if status != 0:
            lines = err.getvalue().splitlines()
            print(f"  {lines[0] if lines else ''}")
            continue
        for p in sorted(out.iterdir()):
            if p.name not in SKIP:
                print(f"  {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}")


# --------------------------------------------------------------------------
# drift between the artifacts of two trees
# --------------------------------------------------------------------------


def _number(v) -> float | None:
    """``v`` as a finite float (a CSV cell or a JSON number), else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        x = float(v)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _drift(pairs) -> str:
    """The largest relative difference over ``(where, a, b)`` leaves and where it
    is, or the first mismatch that is not a pair of finite numbers."""
    worst, at = 0.0, None
    for where, a, b in pairs:
        if a == b or repr(a) == repr(b):  # the repr also matches NaN with NaN
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return f"first mismatch at {where}: {a!r} != {b!r}"
        rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
        if rel > worst:
            worst, at = rel, where
    return f"max relative difference {worst:.3g}" + (f" at {at}" if at else "")


def _csv_cells(a: str, b: str):
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    header = rows_a[0] if rows_a else []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            yield f"row {i}", f"{len(ra)} cells", f"{len(rb)} cells"
            return
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            name = header[j] if j < len(header) else j
            yield f"row {i} column {name!r}", ca, cb
    if len(rows_a) != len(rows_b):
        yield "end", f"{len(rows_a)} rows", f"{len(rows_b)} rows"


def _json_leaves(a, b, where="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            yield where, f"keys {list(a)}", f"keys {list(b)}"
            return
        for k in a:
            yield from _json_leaves(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield where, f"{len(a)} items", f"{len(b)} items"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_leaves(x, y, f"{where}[{i}]")
    else:
        yield where, a, b


def compare_artifact(a: Path, b: Path) -> str:
    """One line on how far artifact ``b`` drifts from ``a``."""
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return "identical"
    ta, tb = da.decode("utf-8"), db.decode("utf-8")
    if a.suffix == ".csv":
        pairs = _csv_cells(ta, tb)
    elif a.suffix == ".json":
        pairs = _json_leaves(json.loads(ta), json.loads(tb))
    else:
        return "differs (neither CSV nor JSON)"
    return _drift(pairs)


def compare_outputs(out_a: Path, out_b: Path) -> list[str]:
    """One line per artifact of every command's output directory under ``out_a``/``out_b``."""
    lines = []
    for name in sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()}):
        files = {p.name for d in (out_a / name, out_b / name) if d.is_dir()
                 for p in d.iterdir() if p.name not in SKIP}
        for f in sorted(files):
            pa, pb = out_a / name / f, out_b / name / f
            if not (pa.exists() and pb.exists()):
                lines.append(f"{name}/{f}: only in {'A' if pa.exists() else 'B'}")
            else:
                lines.append(f"{name}/{f}: {compare_artifact(pa, pb)}")
    return lines


def _statuses(listing: str) -> dict[str, str]:
    return dict(line.split(": exit ", 1) for line in listing.splitlines()
                if not line.startswith(" ") and ": exit " in line)


def compare_trees(src_a: Path, src_b: Path) -> list[str]:
    """Run the commands on each tree in its own process and report the drift."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for tag, src in (("a", src_a), ("b", src_b)):
            out = Path(tmp, tag)
            out.mkdir()
            listing = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(src),
                                      "--out", str(out)],
                                     check=True, capture_output=True, text=True).stdout
            runs.append((out / "out", _statuses(listing)))
        (out_a, st_a), (out_b, st_b) = runs
        lines = [f"{name}: exit {st_a.get(name)} (A) vs {st_b.get(name)} (B)"
                 for name, _, _, _ in RUNS if st_a.get(name) != st_b.get(name)]
        return lines + compare_outputs(out_a, out_b)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Hash, or compare, the artifacts of every CLI command.")
    ap.add_argument("src", nargs="?", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the subnet package (default: this checkout's src/)")
    ap.add_argument("--compare", type=Path, metavar="OTHER_SRC",
                    help="report the drift of OTHER_SRC's artifacts from SRC's")
    ap.add_argument("--out", type=Path, help="run in this directory and keep the artifacts")
    args = ap.parse_args()
    if args.compare is not None:
        print("\n".join(compare_trees(args.src.resolve(), args.compare.resolve())))
        sys.exit(0)
    sys.path.insert(0, str(args.src.resolve()))
    if args.out is not None:
        os.chdir(args.out)
        run_all()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            run_all()

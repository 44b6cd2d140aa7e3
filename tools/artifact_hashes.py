"""Run every CLI command on small generated data and print each artifact's sha256.

    python tools/artifact_hashes.py [SRC_DIR] > hashes.txt

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
its status and the first line of its error instead of artifacts.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import json
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


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run_all()

"""The drift report of ``tools/artifact_hashes.py --compare``."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "artifact_hashes", Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py")
ah = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ah)

SRC = Path(__file__).resolve().parents[1] / "src"
VALUE = 0.7310585786300049


def _tree(root: Path, value: float = VALUE, label: str = "max_updates") -> Path:
    """A fake output tree: one command with a CSV and a JSON artifact."""
    run = root / "out" / "train"
    run.mkdir(parents=True)
    (run / "metrics.csv").write_text(f"metric,value\nval_rmse,{value!r}\n{label},60\n")
    (run / "model.json").write_text(json.dumps({"stats": [1.5, value], "stop": label}))
    (run / "run_info.json").write_text('{"wall_s": 1.0}')  # never compared
    return root / "out"


def test_identical_trees():
    # the same sources, each run in its own process, give identical artifacts
    lines = ah.compare_trees(SRC, SRC)
    assert len(lines) > 40
    assert all(line.endswith(": identical") for line in lines), lines


def test_one_ulp_change_reports_its_relative_size(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", value=float(np.nextafter(VALUE, 1.0)))
    lines = ah.compare_outputs(a, b)
    assert [line.split(": ", 1)[0] for line in lines] == ["train/metrics.csv", "train/model.json"]
    ulp = np.spacing(VALUE) / VALUE
    for line, where in zip(lines, ["row 1 column 'value'", "$.stats[1]"]):
        assert line.endswith(f"max relative difference {ulp:.3g} at {where}")


def test_changed_string_reports_the_first_mismatch(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", label="patience")
    assert ah.compare_outputs(a, b) == [
        "train/metrics.csv: first mismatch at row 2 column 'metric': 'max_updates' != 'patience'",
        "train/model.json: first mismatch at $.stop: 'max_updates' != 'patience'",
    ]

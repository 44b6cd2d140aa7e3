"""Tests of the benchmark itself: reduced-size runs of every workload, the
checks failing on corrupted outputs, and the layer tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from subnet import data, evaluation, model, serialize, training  # noqa: E402
from subnet.ode import SolverConfig  # noqa: E402

SMALL = workloads.Sizes(
    tanks_n=256, tanks_updates=120, tanks_eval_every=40, hidden=(32, 32),
    freerun_n=300, freerun_repeats=2, truth_checks=5,
    linear2_n=(256, 128, 128), linear2_updates=200, linear2_eval_every=40,
    val_nrmse_limit=1.0,
)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_run(name, tmp_path, trace, seed=3):
    return workloads.run(name, seed, 0.0, trace, tmp_path / name, SMALL)


# --------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# --------------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


# --------------------------------------------------------------------------
# reduced-size smoke runs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    r = _small_run(name, tmp_path, trace=False)
    assert r.correct, r.error
    assert r.attempted > 0 and r.failed == 0
    assert [(k, u) for k, (_, u) in r.metrics.items()] == list(workloads.END_TO_END)
    assert all(v > 0 for v, _ in r.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    r = _small_run(name, tmp_path, trace=True)
    assert r.correct, r.error
    assert r.failed == 0
    assert list(r.metrics) == [name for name, *_ in tracing.PER_LAYER]


def test_renamed_boundary_is_reported_absent(tmp_path, monkeypatch):
    renamed = tuple(("training", "_val_rmse_renamed", span) if span == "training.eval"
                    else (mod, attr, span) for mod, attr, span in tracing.BOUNDARIES)
    monkeypatch.setattr(tracing, "BOUNDARIES", renamed)
    r = _small_run("tanks-train", tmp_path, trace=True)
    assert r.correct, r.error
    assert "training.eval.ms" not in r.metrics
    assert "training.update_overhead.ms" not in r.metrics
    assert r.metrics["training.loss_grad.ms"][0] > 0


def test_uninstall_restores_every_function():
    before = {k: dict(vars(m)) for k, m in sys.modules.items()
              if k == "subnet" or k.startswith("subnet.")}
    sample_batch = data.BatchSampler.sample_batch
    with tracing.installed(tracing.Tracer()):
        assert training.train is not before["subnet.training"]["train"]
    for k, snapshot in before.items():
        now = vars(sys.modules[k])
        assert all(now[name] is value for name, value in snapshot.items()), k
    assert data.BatchSampler.sample_batch is sample_batch


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tanks-train",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert "correct" not in p.stdout


# --------------------------------------------------------------------------
# each check fails on a corrupted output
# --------------------------------------------------------------------------


def _tiny_tanks():
    ds, _ = data.generate_synthetic(data.SyntheticConfig(n_samples=80, seed=1, noise_std=0.19))
    solver = SolverConfig("rk4", 1, 1.0 / training.suggest_tau(ds), ds.dt)
    m = model.init_model(2, 1, 1, 5, 5, solver, data.fit_normalizer(ds), hidden=(8, 8), seed=1)
    return ds, m


def test_gradient_check_catches_a_perturbed_gradient():
    ds, m = _tiny_tanks()
    batch = np.arange(5, 40, 5)
    theta = model.model_flatten(m).values

    def loss(v):
        return training.truncated_loss_and_grad(model.model_with_values(m, v), ds, batch, 10)[0]

    _, grad = training.truncated_loss_and_grad(m, ds, batch, 10)
    g = grad.values
    assert checks.check_gradient(loss, theta, g, np.random.default_rng(0)) < 1e-6
    noise = np.random.default_rng(1).standard_normal(g.size)
    bad = g + 1e-2 * np.linalg.norm(g) * noise / np.linalg.norm(noise)
    with pytest.raises(CheckFailed, match="central differences"):
        checks.check_gradient(loss, theta, bad, np.random.default_rng(0))


def test_free_run_check_catches_a_shifted_output():
    m = serialize.load_model(workloads.FROZEN_MODEL)
    doc = json.loads(workloads.FROZEN_MODEL.read_text(encoding="utf-8"))
    ds, _ = data.generate_synthetic(data.SyntheticConfig(n_samples=120, seed=4, noise_std=0.19))
    y_pred = evaluation.evaluate_model(m, ds).trace.y_pred
    y_ref = checks.reference_free_run(doc, ds.u, ds.y)
    scale = float(ds.y.std())
    assert checks.check_free_run(y_pred, y_ref, scale) < 1e-9
    shifted = y_pred.copy()
    shifted[60:] += 1e-6 * scale
    with pytest.raises(CheckFailed, match="numpy reference"):
        checks.check_free_run(shifted, y_ref, scale)


def test_truth_checks_catch_corrupted_states():
    ds, truth = data.generate_synthetic(data.SyntheticConfig(n_samples=200, seed=7))
    states = np.array(truth.states)
    assert checks.check_truth_solve_ivp(states, ds.u, ds.dt, 10) == 10
    checks.check_clamp_box(states)
    moved = states.copy()
    moved[1:] *= 1.0 + 1e-5
    with pytest.raises(CheckFailed, match="solve_ivp"):
        checks.check_truth_solve_ivp(moved, ds.u, ds.dt, 10)
    moved = states.copy()
    moved[50, 1] = 10.5
    with pytest.raises(CheckFailed, match="box"):
        checks.check_clamp_box(moved)


def _sweep_rows():
    grid, seeds = [0.1, 0.2], [0, 1]
    rows = [[repr(g), str(s), m, repr(0.1 + 0.01 * i)]
            for g in grid for s in seeds for i, m in enumerate(checks.METRICS)]
    return rows, grid, seeds


def test_sweep_checks_catch_a_changed_row():
    rows, grid, seeds = _sweep_rows()
    cells = checks.check_sweep_rows(rows, grid, seeds, y_std=1.0)
    cell = evaluation.SweepCell(0.1, 0, *(float(cells[(0.1, 0)][m]) for m in checks.METRICS))
    checks.check_cell_matches(cells[(0.1, 0)], cell)

    bad = [list(r) for r in rows]
    bad[2][3] = "1.5"   # test_rmse of the first cell above the output std
    with pytest.raises(CheckFailed, match="output std"):
        checks.check_sweep_rows(bad, grid, seeds, y_std=1.0)
    bad = [list(r) for r in rows]
    bad[5][3] = "nan"   # a failed cell
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_sweep_rows(bad, grid, seeds, y_std=1.0)
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_sweep_rows(rows[:-1], grid, seeds, y_std=1.0)
    off_by_one_ulp = replace(cell, test_rmse=np.nextafter(cell.test_rmse, 1.0))
    with pytest.raises(CheckFailed, match="test_rmse"):
        checks.check_cell_matches(cells[(0.1, 0)], off_by_one_ulp)

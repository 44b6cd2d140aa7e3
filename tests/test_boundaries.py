import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from subnet import model
from subnet.data import SyntheticConfig, fit_normalizer, generate_synthetic
from subnet.evaluation import run_cell
from subnet.model import init_model, model_flatten, simulate_free_run
from subnet.ode import SolverConfig
from subnet.training import TrainConfig, truncated_loss_and_grad


def test_benchmark_boundaries_resolve():
    # the benchmark times the package at the functions named in
    # perfbench.tracing.BOUNDARIES; a renamed one silently drops its per-layer metrics
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.tracing import BOUNDARIES

    unresolved = []
    for module, attr, span in BOUNDARIES:
        owner = importlib.import_module(f"subnet.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{span}: subnet.{module}.{attr}")
    assert BOUNDARIES and not unresolved, unresolved


def test_benchmark_reads_resolve(toy_model, toy_dataset):
    # the tanks-train check reads the .values of model_flatten and of the
    # truncated-loss gradient, and the sweep check calls run_cell with 12
    # positional arguments (perfbench/workloads.py)
    n = toy_model.values.size
    theta = model_flatten(toy_model).values
    _, grad = truncated_loss_and_grad(toy_model, toy_dataset, [3, 10, 20], 5)
    for v in (theta, grad.values):
        assert isinstance(v, np.ndarray) and v.shape == (n,)
    inspect.signature(run_cell).bind(toy_dataset, toy_dataset, toy_dataset, 0.5, 0,
                                     TrainConfig(), 2, 5, 5, (8, 8), "euler", 4)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_free_run_crosses_step_plain_once_per_sample(mode, monkeypatch):
    # ode.step_plain times one whole no-gradient step: a free run of N samples
    # crosses ode.mlp_ode_step_plain N - lag times, in ct and dt mode alike
    ds, _ = generate_synthetic(SyntheticConfig(n_samples=60, seed=0))
    m = init_model(2, 1, 1, 5, 5, SolverConfig("rk4", 2, 1.0, ds.dt), fit_normalizer(ds),
                   mode=mode, hidden=(8,), seed=0)
    calls = []
    crossed = model.mlp_ode_step_plain
    monkeypatch.setattr(model, "mlp_ode_step_plain",
                        lambda *args: calls.append(1) or crossed(*args))
    simulate_free_run(m, ds)
    assert len(calls) == ds.n - m.lag

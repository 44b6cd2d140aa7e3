"""Shared fixtures: small deterministic datasets and models."""

import numpy as np
import pytest

from subnet.data import Dataset, SyntheticConfig, fit_normalizer, generate_synthetic
from subnet.model import init_model
from subnet.ode import SolverConfig


def pytest_collection_modifyitems(items):
    """Mark the acceptance criteria ``slow``: ``pytest -m "not slow"`` runs the fast tier."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


@pytest.fixture()
def toy_dataset():
    rng = np.random.default_rng(100)
    return Dataset(rng.standard_normal((60, 1)), rng.standard_normal((60, 1)), 0.5, "toy")


@pytest.fixture()
def toy_model(toy_dataset):
    solver = SolverConfig("rk4", 1, 4.0, toy_dataset.dt)
    return init_model(2, 1, 1, 3, 3, solver, fit_normalizer(toy_dataset),
                      hidden=(8, 8), seed=1)


@pytest.fixture(scope="session")
def tanks_bundle():
    """Train/val/test cascaded-tanks records at ~20 dB SNR plus the noise floor."""
    clean, _ = generate_synthetic(SyntheticConfig(seed=0))
    sigma = 0.1 * clean.y.std()

    def make(seed):
        return generate_synthetic(SyntheticConfig(seed=seed, noise_std=sigma))

    train_ds, train_tr = make(0)
    val_ds, _ = make(1)
    test_ds, test_tr = make(2)
    floor_rmse = float(np.sqrt(np.mean((test_tr.y_clean - test_ds.y) ** 2)))
    return {
        "train": train_ds, "val": val_ds, "test": test_ds,
        "test_trace": test_tr, "sigma": sigma, "floor_rmse": floor_rmse,
    }

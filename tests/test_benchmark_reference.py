import json
import sys
from pathlib import Path

import numpy as np

from subnet.data import SyntheticConfig, generate_synthetic
from subnet.evaluation import evaluate_model
from subnet.serialize import load_model

ROOT = Path(__file__).resolve().parents[1]
FROZEN = ROOT / "perfbench" / "frozen" / "tanks_model.json"


def test_free_run_matches_benchmark_reference():
    # the benchmark's frozen tanks model against the benchmark's own one-sample-
    # at-a-time numpy free run, so free-run numerics cannot drift unseen by tier 1
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import checks

    ds, _ = generate_synthetic(SyntheticConfig(n_samples=400, dt=4.0, seed=1_000_000,
                                               noise_std=0.19))
    report = evaluate_model(load_model(FROZEN), ds)
    y_ref = checks.reference_free_run(json.loads(FROZEN.read_text(encoding="utf-8")), ds.u, ds.y)
    err = checks.check_free_run(report.trace.y_pred, y_ref, float(ds.y.std()))
    assert np.isfinite(err)

"""Regenerate the frozen model that the tanks-freerun workload simulates.

    python3 perfbench/freeze_model.py

Trains at the tanks-train setting on the records of run seed 0 (1024
samples, ~20 dB SNR, T=30, batch 64, 64x64 tanh + bypass, RK4 x1, tau from
``suggest_tau``) for a fixed 2000 updates, evaluating every 100, and writes
the best model to ``perfbench/frozen/tanks_model.json``.  Single-threaded
runs are bit-identical, so this reproduces the committed file.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import FROZEN_MODEL, FULL, TanksTrain  # noqa: E402
from subnet import evaluation, serialize, training  # noqa: E402

UPDATES = 2000


def main() -> int:
    wl = TanksTrain(0, FULL, ROOT / "perfbench" / "_runs" / "freeze")
    wl.setup()
    cfg = training.TrainConfig(T=30, batch_size=64, max_updates=UPDATES, eval_every=100,
                               patience=UPDATES + 1, seed=0)
    best, hist = training.train(wl.m0, wl.train_ds, wl.val_ds, cfg)
    FROZEN_MODEL.parent.mkdir(exist_ok=True)
    serialize.save_model(best, FROZEN_MODEL)
    nrmse = evaluation.evaluate_model(best, wl.test_ds).nrmse
    print(f"wrote {FROZEN_MODEL} (best update {hist.best_update}, test NRMSE {nrmse:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload tanks-train --seed 0 --seconds 20 --trace 0

Runs one workload (see README.md) from the root of a checkout, using the
``subnet`` package under ``src/`` of that checkout.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A failed correctness check prints ``correct: false``
and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread everywhere, pool workers included; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "_runs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tanks-train", "tanks-freerun", "linear2-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subnet" / "__init__.py").is_file():
        print(f"perfbench: no subnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import run

    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    doc = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({**doc, "samples": result.samples}, indent=2)
                                     + "\n", encoding="utf-8")
    if result.trace is not None:
        (out / "trace.json").write_text(json.dumps(result.trace, indent=1) + "\n",
                                        encoding="utf-8")
    if result.error:
        print(f"perfbench: CHECK FAILED: {result.error}", file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

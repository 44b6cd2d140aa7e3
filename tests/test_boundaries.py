import importlib
import sys
from pathlib import Path


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

"""Spans and counts at the layer boundaries of the ``subnet`` package.

Nothing in ``src/`` is instrumented.  :func:`install` replaces the boundary
functions listed in :data:`BOUNDARIES` with timing wrappers, in every
``subnet`` module namespace that holds them (``from .x import f`` makes
copies), and :func:`uninstall` puts the originals back.  A boundary that a
later version renames is skipped and its metrics are reported as absent.

Spans are aggregated as they close instead of being stored one by one: per
span name the call count, total time, self time (total minus the time of the
spans it caused) and a few work counters.  A layer's self time is the sum
over the span names that belong to it.  Worker processes forked while the
wrappers are installed (the CLI's process pool) inherit them; each worker
writes its aggregate to a spool directory when a sweep cell ends, and the
parent merges those files with :meth:`Tracer.merge_spool`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from subnet.errors import NumericFaultError

LAYERS = ("nnmath", "ode", "model", "data", "training", "evaluation", "serialize", "cli")

# (module, attribute, span name).  "Class.method" attributes patch the class.
BOUNDARIES = (
    ("nnmath", "mlp_forward_cached", "nnmath.mlp_forward"),
    ("nnmath", "mlp_backward_cached", "nnmath.mlp_backward"),
    ("nnmath", "adam_step", "nnmath.adam_step"),
    ("ode", "mlp_ode_step_cached", "ode.step_fwd"),
    ("ode", "mlp_ode_step_backward", "ode.step_bwd"),
    ("ode", "mlp_ode_step_plain", "ode.step_plain"),
    ("ode", "ode_step", "ode.ode_step"),
    ("model", "model_with_values", "model.with_values"),
    ("model", "model_flatten", "model.flatten"),
    ("model", "simulate_free_run", "model.simulate_free_run"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "BatchSampler.sample_batch", "data.sample_batch"),
    ("data", "load_csv", "data.load_csv"),
    ("training", "train", "training.train"),
    ("training", "_loss_and_grad_normed", "training.loss_grad"),
    ("training", "_val_rmse", "training.eval"),
    ("serialize", "model_to_json", "serialize.model_to_json"),
    ("serialize", "load_model", "serialize.load_model"),
    ("evaluation", "evaluate_model", "evaluation.evaluate_model"),
    ("evaluation", "run_cell", "evaluation.run_cell"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "main", "cli.main"),
)

# span names whose individual durations are kept (few calls, needed as distributions)
_KEEP_DURATIONS = {"evaluation.run_cell"}


class Tracer:
    """In-memory aggregate of closed spans; one per process and phase."""

    def __init__(self, spool_dir: Path | None = None):
        self.origin_pid = self.pid = os.getpid()
        self.spool_dir = spool_dir
        self._seq = 0
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.work: dict[str, float] = {}      # counter name -> sum
        self.durations: dict[str, list[float]] = {}
        self.root_s = 0.0                     # time covered by spans opened at depth 0
        self.stack: list[float] = []          # child time of each open span
        self.loss_depth = 0                   # > 0 while inside training.loss_grad
        self.missing: set[str] = set()

    def add_work(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + value

    def close(self, name: str, d: float, child: float) -> None:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += d
        s[2] += d - child
        if self.stack:
            self.stack[-1] += d
        else:
            self.root_s += d
        if name in _KEEP_DURATIONS:
            self.durations.setdefault(name, []).append(d)

    def span(self, name: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------

    def in_worker(self) -> bool:
        """True in a forked child; its first call drops the state inherited from the parent."""
        pid = os.getpid()
        if pid == self.origin_pid:
            return False
        if pid != self.pid:
            self.pid = pid
            self.reset()
        return True

    def to_dict(self) -> dict:
        return {"stats": self.stats, "work": self.work, "durations": self.durations,
                "root_s": self.root_s}

    def spool(self) -> None:
        """Write this (worker) process's aggregate and start a fresh one."""
        self._seq += 1
        path = self.spool_dir / f"{self.pid}-{self._seq}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        tmp.replace(path)
        self.reset()

    def merge(self, other: dict) -> None:
        for name, (n, total, self_s) in other["stats"].items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += n
            s[1] += total
            s[2] += self_s
        for key, v in other["work"].items():
            self.add_work(key, v)
        for name, ds in other["durations"].items():
            self.durations.setdefault(name, []).extend(ds)
        self.root_s += other["root_s"]

    def merge_spool(self) -> list[dict]:
        """Merge and delete every spooled worker file; returns the raw aggregates."""
        parts = []
        for path in sorted(self.spool_dir.glob("*.json")):
            part = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            self.merge(part)
            parts.append(part)
        return parts


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.stack.append(0.0)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        d = perf_counter() - self.t0
        self.tracer.close(self.name, d, self.tracer.stack.pop())
        return False


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------


def _mlp_flops_per_row(p) -> int:
    """Multiply-adds x2 of one forward pass, counted from the layer sizes."""
    n = sum(w.shape[0] * w.shape[1] for w in p.weights)
    if p.bypass is not None:
        n += p.bypass.size
    return 2 * n


def _wrap(fn, name: str, tracer: Tracer):
    """Generic timing wrapper; boundary-specific work counters live in _after."""
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            tracer.close(name, d, stack.pop())
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _wrap_mlp(fn, name: str, tracer: Tracer, backward: bool):
    """MLP passes are split by where they run: batch of one (free run), inside
    loss+grad (training), or elsewhere.  FLOPs are counted inside loss+grad."""

    @functools.wraps(fn)
    def wrapper(p, x, *rest, **kwargs):
        rows = (x[0] if backward else x).shape[0]
        if rows == 1:
            span = name + "_b1"
        elif tracer.loss_depth:
            span = name
        else:
            span = name + "_other"
        stack = tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(p, x, *rest, **kwargs)
        finally:
            d = perf_counter() - t0
            tracer.close(span, d, stack.pop())
            if span == name:
                tracer.add_work("loss_grad.flops",
                                (2 if backward else 1) * rows * _mlp_flops_per_row(p))

    return wrapper


def _wrap_loss_grad(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        stack.append(0.0)
        tracer.loss_depth += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except NumericFaultError:
            tracer.add_work("training.n_faults", 1)
            raise
        finally:
            d = perf_counter() - t0
            tracer.loss_depth -= 1
            tracer.close(name, d, stack.pop())
        if not is_finite_result(*result[:2]):
            tracer.add_work("training.n_faults", 1)
        return result

    return wrapper


def _wrap_run_cell(fn, name: str, tracer: Tracer):
    """Cells run in pool workers; each worker spools its aggregate per cell."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        in_worker = tracer.in_worker()
        stack = tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            tracer.close(name, d, stack.pop())
            if in_worker:
                tracer.spool()

    return wrapper


def is_finite_result(loss, grad) -> bool:
    """True when a loss+grad result is usable; mirrors the check in ``train``."""
    values = getattr(grad, "values", grad)
    return math.isfinite(loss) and bool(np.isfinite(values).all())


def _after_train(tracer, args, kwargs, result):
    hist = result[1]
    tracer.add_work("training.n_updates", hist.n_updates)
    tracer.add_work("training.n_evals", len(hist.records))
    tracer.add_work("training.n_train", 1)


def _after_free_run(tracer, args, kwargs, result):
    tracer.add_work("model.simulate_free_run.samples", result.y_pred.shape[0])


def _after_generate(tracer, args, kwargs, result):
    tracer.add_work("data.generate_synthetic.samples", result[0].n)


_AFTER = {
    "training.train": _after_train,
    "model.simulate_free_run": _after_free_run,
    "data.generate_synthetic": _after_generate,
}


# --------------------------------------------------------------------------
# install / uninstall
# --------------------------------------------------------------------------


def _subnet_modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "subnet" or k.startswith("subnet."))]


def _lookup(module: str, attr: str):
    mod = importlib.import_module(f"subnet.{module}")
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf, None
    return owner, leaf, getattr(owner, leaf, None)


def _make_wrapper(fn, name: str, tracer: Tracer):
    if name in ("nnmath.mlp_forward", "nnmath.mlp_backward"):
        return _wrap_mlp(fn, name, tracer, backward=name.endswith("backward"))
    if name == "training.loss_grad":
        return _wrap_loss_grad(fn, name, tracer)
    if name == "evaluation.run_cell":
        return _wrap_run_cell(fn, name, tracer)
    return _wrap(fn, name, tracer)


def install(tracer: Tracer):
    """Wrap every boundary that exists; returns the undo log for :func:`uninstall`."""
    undo = []
    modules = _subnet_modules()
    for module, attr, name in BOUNDARIES:
        owner, leaf, fn = _lookup(module, attr)
        if not callable(fn):
            tracer.missing.add(name)
            continue
        wrapper = _make_wrapper(fn, name, tracer)
        if isinstance(owner, type):
            undo.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)


class installed:
    """``with installed(tracer):`` wraps the boundaries for the block."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        if self.tracer is not None:
            self.undo = install(self.tracer)
        return self.tracer

    def __exit__(self, *exc):
        uninstall(self.undo)
        return False


class FaultCounter:
    """Counts faulting loss+grad calls in this process: a raised
    ``NumericFaultError`` or a non-finite loss or gradient, the cases
    ``train`` skips without a trace.  Cheap enough for untraced runs."""

    def __init__(self):
        self.calls = 0
        self.faults = 0
        self.undo = []

    def __enter__(self):
        from subnet import training

        fn = getattr(training, "_loss_and_grad_normed", None)
        if fn is None:
            print("perfbench: training._loss_and_grad_normed not found; faults are not counted",
                  file=sys.stderr)
            return self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls += 1
            try:
                result = fn(*args, **kwargs)
            except NumericFaultError:
                self.faults += 1
                raise
            if not is_finite_result(*result[:2]):
                self.faults += 1
            return result

        self.undo = [(training, "_loss_and_grad_normed", fn)]
        training._loss_and_grad_normed = counted
        return self

    def __exit__(self, *exc):
        uninstall(self.undo)
        return False


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

# name, unit, better, span names it needs (absent if one of them could not be wrapped)
PER_LAYER = (
    ("training.loss_grad.ms", "ms", "lower", ("training.loss_grad",)),
    ("training.update_overhead.ms", "ms", "lower",
     ("training.train", "training.loss_grad", "training.eval", "serialize.model_to_json")),
    ("training.eval.ms", "ms", "lower", ("training.eval",)),
    ("training.n_updates", "count", "higher", ("training.train",)),
    ("training.n_evals", "count", "lower", ("training.train",)),
    ("training.n_faults", "count", "lower", ("training.train", "training.loss_grad")),
    ("nnmath.mlp_forward.us", "us", "lower", ("nnmath.mlp_forward", "training.loss_grad")),
    ("nnmath.mlp_backward.us", "us", "lower", ("nnmath.mlp_backward", "training.loss_grad")),
    ("nnmath.mlp_forward.calls_per_update", "count", "lower",
     ("nnmath.mlp_forward", "training.loss_grad")),
    ("nnmath.mlp_backward.calls_per_update", "count", "lower",
     ("nnmath.mlp_backward", "training.loss_grad")),
    ("nnmath.mlp_forward_b1.us", "us", "lower", ("nnmath.mlp_forward",)),
    ("nnmath.adam_step.us", "us", "lower", ("nnmath.adam_step",)),
    ("nnmath.loss_grad.gflops", "computed_GFLOP/s", "higher",
     ("nnmath.mlp_forward", "nnmath.mlp_backward", "training.loss_grad")),
    ("ode.step_fwd.us", "us", "lower", ("ode.step_fwd",)),
    ("ode.step_bwd.us", "us", "lower", ("ode.step_bwd",)),
    ("ode.step_plain.us", "us", "lower", ("ode.step_plain",)),
    ("ode.ode_step.us", "us", "lower", ("ode.ode_step",)),
    ("model.with_values.us", "us", "lower", ("model.with_values",)),
    ("model.flatten.us", "us", "lower", ("model.flatten",)),
    ("model.simulate_free_run.ms_per_1k", "ms", "lower", ("model.simulate_free_run",)),
    ("data.generate_synthetic.ms_per_1k", "ms", "lower", ("data.generate_synthetic",)),
    ("data.sample_batch.us", "us", "lower", ("data.sample_batch",)),
    ("data.load_csv.ms", "ms", "lower", ("data.load_csv",)),
    ("serialize.model_to_json.ms", "ms", "lower", ("serialize.model_to_json",)),
    ("serialize.load_model.ms", "ms", "lower", ("serialize.load_model",)),
    ("evaluation.evaluate_model.ms", "ms", "lower", ("evaluation.evaluate_model",)),
    ("evaluation.run_cell.s.median", "s", "lower", ("evaluation.run_cell",)),
    ("evaluation.run_cell.s.max", "s", "lower", ("evaluation.run_cell",)),
    ("evaluation.test_nrmse", "ratio", "lower", ()),
    ("cli.parse_config.ms", "ms", "lower", ("cli.parse_config",)),
    ("cli.pool.efficiency", "ratio", "higher", ("cli.main", "evaluation.run_cell")),
    *((f"{layer}.self_pct", "%", "lower", ()) for layer in LAYERS),
    ("trace.overhead_pct", "%", "lower", ()),
)


def _mean(stats, name: str, scale: float) -> float:
    n, total, _ = stats.get(name, (0, 0.0, 0.0))
    return scale * total / n if n else 0.0


def _total(stats, name: str) -> float:
    return stats.get(name, (0, 0.0, 0.0))[1]


def _calls(stats, name: str) -> int:
    return stats.get(name, (0, 0.0, 0.0))[0]


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_metrics(setup: Tracer, rounds: Tracer, extra: dict[str, float]) -> dict:
    """Per-layer values from the traced set-ups and traced rounds.

    Per-call and per-sample values use every traced span (set-up and rounds);
    layer self times use the traced rounds only, as a percentage of the time
    covered by root spans in all processes.  A boundary that was never
    crossed reads 0; one that could not be wrapped makes its metrics absent.
    ``extra`` holds the values the workload measures itself.
    """
    both = Tracer()
    both.merge(setup.to_dict())
    both.merge(rounds.to_dict())
    st, work = both.stats, both.work
    lg = _calls(st, "training.loss_grad")
    n_train = work.get("training.n_train", 0.0)
    n_updates = work.get("training.n_updates", 0.0)
    overhead = (_total(st, "training.train") - _total(st, "training.loss_grad")
                - _total(st, "training.eval") - _total(st, "serialize.model_to_json"))
    cells = sorted(both.durations.get("evaluation.run_cell", []))
    values = {
        "training.loss_grad.ms": _mean(st, "training.loss_grad", 1e3),
        "training.update_overhead.ms": _per(overhead, n_updates, 1e3),
        "training.eval.ms": _mean(st, "training.eval", 1e3),
        "training.n_updates": _per(n_updates, n_train),
        "training.n_evals": _per(work.get("training.n_evals", 0.0), n_train),
        "training.n_faults": _per(work.get("training.n_faults", 0.0), n_train),
        "nnmath.mlp_forward.us": _mean(st, "nnmath.mlp_forward", 1e6),
        "nnmath.mlp_backward.us": _mean(st, "nnmath.mlp_backward", 1e6),
        "nnmath.mlp_forward.calls_per_update": _per(_calls(st, "nnmath.mlp_forward"), lg),
        "nnmath.mlp_backward.calls_per_update": _per(_calls(st, "nnmath.mlp_backward"), lg),
        "nnmath.mlp_forward_b1.us": _mean(st, "nnmath.mlp_forward_b1", 1e6),
        "nnmath.adam_step.us": _mean(st, "nnmath.adam_step", 1e6),
        "nnmath.loss_grad.gflops": _per(work.get("loss_grad.flops", 0.0),
                                        _total(st, "training.loss_grad"), 1e-9),
        "ode.step_fwd.us": _mean(st, "ode.step_fwd", 1e6),
        "ode.step_bwd.us": _mean(st, "ode.step_bwd", 1e6),
        "ode.step_plain.us": _mean(st, "ode.step_plain", 1e6),
        "ode.ode_step.us": _mean(st, "ode.ode_step", 1e6),
        "model.with_values.us": _mean(st, "model.with_values", 1e6),
        "model.flatten.us": _mean(st, "model.flatten", 1e6),
        "model.simulate_free_run.ms_per_1k": _per(
            _total(st, "model.simulate_free_run"),
            work.get("model.simulate_free_run.samples", 0.0), 1e6),
        "data.generate_synthetic.ms_per_1k": _per(
            _total(st, "data.generate_synthetic"),
            work.get("data.generate_synthetic.samples", 0.0), 1e6),
        "data.sample_batch.us": _mean(st, "data.sample_batch", 1e6),
        "data.load_csv.ms": _mean(st, "data.load_csv", 1e3),
        "serialize.model_to_json.ms": _mean(st, "serialize.model_to_json", 1e3),
        "serialize.load_model.ms": _mean(st, "serialize.load_model", 1e3),
        "evaluation.evaluate_model.ms": _mean(st, "evaluation.evaluate_model", 1e3),
        "evaluation.run_cell.s.median": float(np.median(cells)) if cells else 0.0,
        "evaluation.run_cell.s.max": cells[-1] if cells else 0.0,
        "cli.parse_config.ms": _mean(st, "cli.parse_config", 1e3),
        "cli.pool.efficiency": 0.0,
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in rounds.stats.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    for layer, self_s in layer_self.items():
        values[f"{layer}.self_pct"] = _per(self_s, rounds.root_s, 100.0)
    values.update(extra)
    missing = setup.missing | rounds.missing
    out = {}
    for name, unit, _, needs in PER_LAYER:
        if name in values and not missing.intersection(needs):
            out[name] = (float(values[name]), unit)
    return out

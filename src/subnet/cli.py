"""Config-driven command line front end.

``subnet <command> --config <path> [--out <dir>] [--seed <int>] [--threads <int>]``

Commands: generate | train | eval | sweep-tau | probe-smoothness |
reconstruct | ensemble.  The fully-resolved ("effective") configuration is
echoed to the output directory on every run; re-running from the echo with
the same seed reproduces the artifacts bit-for-bit in single-threaded mode.
Configs are strict JSON: unknown keys and type mismatches are rejected with
the offending JSON path.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import sys
from pathlib import Path
from typing import Annotated, Literal, Optional, Union, get_type_hints

import numpy as np
from pydantic import (BaseModel, ConfigDict, Field, NonNegativeInt, PositiveInt, ValidationError,
                      create_model)

from . import evaluation as ev
from .data import (
    Dataset,
    SyntheticConfig,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    make_system,
    open_artifact,
    save_csv,
    save_truth_csv,
    slice_dataset,
    write_csv,
)
from .errors import ConfigError, SubnetError
from .model import init_model
from .ode import SolverConfig
from .serialize import load_model
from .training import TrainConfig, save_history_csv, suggest_tau, train

COMMANDS = ("generate", "train", "eval", "sweep-tau", "probe-smoothness",
            "reconstruct", "ensemble")


# --------------------------------------------------------------------------
# config schema (strict: unknown keys are errors)
# --------------------------------------------------------------------------


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class DataSection(_Strict):
    train_path: Optional[str] = None
    val_path: Optional[str] = None
    test_path: Optional[str] = None
    n_u: int = Field(1, ge=1)
    n_y: int = Field(1, ge=1)
    dt: float = Field(..., gt=0)
    val_fraction: float = Field(0.25, gt=0, lt=1)


def _section(name: str, dc, omit=(), keys={}, **wrap) -> type[_Strict]:
    """The fields of the dataclass ``dc`` less ``omit``, in order, with their defaults and
    metadata limits.  ``keys`` renames a field's JSON key; ``wrap[field] = (fn, default)``
    makes the limited type ``t`` ``fn(t)``, with ``default``."""
    hints, fields = get_type_hints(dc), {}
    for f in dataclasses.fields(dc):
        if f.name in omit:
            continue
        lim = dict(f.metadata)
        t = Literal[lim.pop("choices")] if "choices" in lim else hints[f.name]
        fn, default = wrap.get(f.name, (lambda t: t, f.default))
        if default is dataclasses.MISSING:
            default = Field(default_factory=f.default_factory)
        fields[keys.get(f.name, f.name)] = (fn(Annotated[t, Field(**lim)]), default)
    return create_model(name, __base__=_Strict, **fields)


# synthetic.seed None means the top-level seed
SyntheticSection = _section("SyntheticSection", SyntheticConfig, keys={"input_kind": "input"},
                            seed=(lambda t: Optional[t], None))


class ModelSection(_Strict):
    n_x: int = Field(..., ge=1)
    n_a: int = Field(5, ge=0)
    n_b: int = Field(5, ge=0)
    hidden: list[PositiveInt] = Field(default_factory=lambda: [64, 64])
    mode: Literal["ct", "dt"] = "ct"
    seed: Optional[int] = Field(None, ge=0)


# dt comes from the data; tau "auto" is 1 / suggest_tau(training data)
SolverSection = _section("SolverSection", SolverConfig, omit=("dt",),
                         tau=(lambda t: Union[Literal["auto"], t], "auto"))
# seed is the top-level seed; every network is trained
TrainSection = _section("TrainSection", TrainConfig, omit=("seed", "trainable"))


class EvalSection(_Strict):
    model_path: str


class SweepSection(_Strict):
    dt_over_tau: list[float] = Field(
        default_factory=lambda: list(np.logspace(-3, 1, 9)), min_length=1)
    seeds: list[NonNegativeInt] = Field(default_factory=lambda: [0, 1, 2], min_length=1)


class ProbeSection(_Strict):
    T_values: list[int] = Field(default_factory=lambda: [8, 32, 128], min_length=1)
    n_probes: int = Field(32, ge=1)
    eps: float = Field(1e-4, gt=0)
    seeds: list[NonNegativeInt] = Field(default_factory=lambda: [0], min_length=1)


class ReconstructSection(_Strict):
    z: int = Field(3, ge=1)
    indices: Optional[list[int]] = None
    n_points: int = Field(20, ge=1)
    substeps: Optional[int] = Field(None, ge=1)
    state_box: tuple[float, float] = (-3.0, 3.0)


class EnsembleSection(_Strict):
    seeds: list[NonNegativeInt] = Field(default_factory=lambda: [0, 1, 2], min_length=1)


class RunConfig(_Strict):
    format_version: Literal[1] = 1
    command: Optional[Literal[COMMANDS]] = None
    seed: int = Field(0, ge=0)
    out: Optional[str] = None
    threads: int = Field(1, ge=1)
    data: Optional[DataSection] = None
    synthetic: Optional[SyntheticSection] = None
    model: Optional[ModelSection] = None
    solver: SolverSection = Field(default_factory=SolverSection)
    train: TrainSection = Field(default_factory=TrainSection)
    eval: Optional[EvalSection] = None
    sweep: SweepSection = Field(default_factory=SweepSection)
    probe: ProbeSection = Field(default_factory=ProbeSection)
    reconstruct: ReconstructSection = Field(default_factory=ReconstructSection)
    ensemble: EnsembleSection = Field(default_factory=EnsembleSection)


def _format_validation_error(e: ValidationError) -> str:
    lines = []
    for err in e.errors():
        path = ".".join(str(p) for p in err["loc"]) or "<root>"
        if err["type"] == "extra_forbidden":
            lines.append(f"{path}: unknown key")
        else:
            lines.append(f"{path}: {err['msg']}")
    return "; ".join(lines)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Unknown keys and type mismatches raise :class:`ConfigError` naming the
    JSON path; referenced data/model files must exist.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    try:
        cfg = RunConfig.model_validate(doc)
    except ValidationError as e:
        raise ConfigError(f"{path}: {_format_validation_error(e)}") from e
    for label, p in _referenced_paths(cfg):
        if not Path(p).exists():
            raise ConfigError(f"{label}: path {p!r} does not exist")
    return cfg


def _referenced_paths(cfg: RunConfig):
    if cfg.data is not None:
        for label in ("train_path", "val_path", "test_path"):
            p = getattr(cfg.data, label)
            if p is not None:
                yield f"data.{label}", p
    if cfg.eval is not None:
        yield "eval.model_path", cfg.eval.model_path


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _require(cfg: RunConfig, *sections: str) -> None:
    missing = [s for s in sections if getattr(cfg, s) is None]
    if missing:
        raise ConfigError(f"command {cfg.command!r} needs config section(s): {missing}")


def _out_dir(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: RunConfig, out: Path) -> None:
    with open_artifact(out / "effective_config.json") as fh:
        fh.write(json.dumps(cfg.model_dump(mode="json"), indent=2) + "\n")


def _write_metrics(path: Path, items: dict) -> None:
    write_csv(path, ["metric", "value"], items.items())


def _load_splits(cfg: RunConfig) -> tuple[Dataset, Dataset, Optional[Dataset]]:
    """Train/val/test datasets; without val_path the train tail is split off."""
    d = cfg.data
    if d.train_path is None:
        raise ConfigError("data.train_path is required for this command")
    train_ds = load_csv(d.train_path, d.n_u, d.n_y, d.dt)
    test_ds = load_csv(d.test_path, d.n_u, d.n_y, d.dt) if d.test_path else None
    if d.val_path:
        val_ds = load_csv(d.val_path, d.n_u, d.n_y, d.dt)
    else:
        cut = int(round(train_ds.n * (1.0 - d.val_fraction)))
        if not (0 < cut < train_ds.n):
            raise ConfigError("val_fraction leaves an empty train or validation split")
        train_ds, val_ds = slice_dataset(train_ds, 0, cut), slice_dataset(train_ds, cut, train_ds.n)
    return train_ds, val_ds, test_ds


def _resolve_tau(cfg: RunConfig, train_ds: Dataset) -> RunConfig:
    if cfg.solver.tau == "auto":
        rate = suggest_tau(train_ds)
        cfg = cfg.model_copy(deep=True)
        cfg.solver.tau = 1.0 / rate
    return cfg


def _train_cfg(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(**cfg.train.model_dump(), seed=cfg.seed)


def _synth_cfg(cfg: RunConfig) -> SyntheticConfig:
    s = cfg.synthetic.model_dump()
    s.update(input_kind=s.pop("input"), seed=cfg.seed if s["seed"] is None else s["seed"])
    return SyntheticConfig(**s)


def _sweep(cfg: RunConfig, splits: tuple[Dataset, Dataset, Dataset], grid, seeds) -> list:
    """:func:`evaluation.tau_sweep` over ``grid`` x ``seeds``, with ``cfg.threads`` workers."""
    m = cfg.model
    args = (*splits, grid, seeds, _train_cfg(cfg), m.n_x, m.n_a, m.n_b, tuple(m.hidden),
            cfg.solver.method, cfg.solver.substeps, m.mode)
    if cfg.threads <= 1 or len(grid) * len(seeds) <= 1:
        return ev.tau_sweep(*args)
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.threads) as pool:
        return ev.tau_sweep(*args, map=pool.map)


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------


def _cmd_generate(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "synthetic")
    scfg = _synth_cfg(cfg)
    cfg = cfg.model_copy(deep=True)
    cfg.synthetic.seed = scfg.seed
    ds, trace = generate_synthetic(scfg)
    save_csv(ds, out / "dataset.csv")
    save_truth_csv(ds, trace, out / "truth.csv")
    print(f"wrote {out / 'dataset.csv'} and {out / 'truth.csv'} (N={ds.n})")
    return cfg


def _build_model(cfg: RunConfig, train_ds: Dataset):
    mdl = cfg.model
    solver = SolverConfig(cfg.solver.method, cfg.solver.substeps,
                          float(cfg.solver.tau), train_ds.dt)
    norm = fit_normalizer(train_ds)
    seed = cfg.seed if mdl.seed is None else mdl.seed
    return init_model(mdl.n_x, train_ds.n_u, train_ds.n_y, mdl.n_a, mdl.n_b,
                      solver, norm, mode=mdl.mode, hidden=tuple(mdl.hidden), seed=seed)


def _cmd_train(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "data", "model")
    train_ds, val_ds, test_ds = _load_splits(cfg)
    cfg = _resolve_tau(cfg, train_ds)
    cfg = cfg.model_copy(deep=True)
    cfg.model.seed = cfg.seed if cfg.model.seed is None else cfg.model.seed
    m0 = _build_model(cfg, train_ds)
    best, hist = train(m0, train_ds, val_ds, _train_cfg(cfg))
    with open_artifact(out / "model.json") as fh:
        fh.write(hist.best_checkpoint + "\n")
    save_history_csv(hist, out / "history.csv")
    metrics = {
        "best_val_rmse": hist.best_val_rmse,
        "best_update": hist.best_update,
        "n_updates": hist.n_updates,
        "stop_reason": hist.stop_reason,
        "dt_over_tau": train_ds.dt / float(cfg.solver.tau),
    }
    if test_ds is not None:
        report = ev.evaluate_model(best, test_ds)
        metrics.update(test_rmse=report.rmse, test_nrmse=report.nrmse,
                       rms_x=report.rms_x, rms_f=report.rms_f)
    _write_metrics(out / "metrics.csv", metrics)
    with open_artifact(out / "run_info.json") as fh:
        fh.write(json.dumps({"wall_time_s": hist.wall_time}, indent=2) + "\n")
    print(f"best val RMSE {hist.best_val_rmse:.6g} at update {hist.best_update} "
          f"({hist.stop_reason}); artifacts in {out}")
    return cfg


def _cmd_eval(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "data", "eval")
    if cfg.data.test_path is None:
        raise ConfigError("eval needs data.test_path")
    ds = load_csv(cfg.data.test_path, cfg.data.n_u, cfg.data.n_y, cfg.data.dt)
    m = load_model(cfg.eval.model_path)
    report = ev.evaluate_model(m, ds)
    _write_metrics(out / "metrics.csv", {
        "rmse": report.rmse, "nrmse": report.nrmse,
        "rms_x": report.rms_x, "rms_f": report.rms_f,
        "n_samples": report.n_samples,
    })
    tr = report.trace
    ny = tr.y_meas.shape[1]
    write_csv(out / "trace.csv",
              ["k"] + [f"y{j}" for j in range(ny)] + [f"y_pred{j}" for j in range(ny)],
              ([tr.start + k, *ym, *yp] for k, (ym, yp) in enumerate(zip(tr.y_meas, tr.y_pred))))
    print(f"test RMSE {report.rmse:.6g} (NRMSE {report.nrmse:.4g}) over "
          f"{report.n_samples} samples")
    return cfg


def _cmd_sweep(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "data", "model")
    train_ds, val_ds, test_ds = _load_splits(cfg)
    if test_ds is None:
        raise ConfigError("sweep-tau needs data.test_path")
    cells = _sweep(cfg, (train_ds, val_ds, test_ds), cfg.sweep.dt_over_tau, cfg.sweep.seeds)
    ev.save_sweep_csv(cells, out / "sweep.csv")
    for ratio in cfg.sweep.dt_over_tau:
        vals = [c.test_rmse for c in cells if c.dt_over_tau == float(ratio)]
        print(f"dt/tau={ratio:g}: median test RMSE {np.nanmedian(vals):.6g}")
    return cfg


def _cmd_probe(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "data", "model")
    train_ds, _, _ = _load_splits(cfg)
    cfg2 = _resolve_tau(cfg, train_ds)
    runs = []
    for seed in cfg.probe.seeds:
        m = _build_model(
            cfg2.model_copy(update={"model": cfg2.model.model_copy(update={"seed": int(seed)})}),
            train_ds)
        runs.append((int(seed), ev.smoothness_probe(m, train_ds, cfg.probe.T_values,
                                                    cfg.probe.n_probes, cfg.probe.eps,
                                                    seed=int(seed))))
    ev.save_probe_csv(runs, out / "probe.csv")
    for T in cfg.probe.T_values:
        med = np.median([r.l_hat for _, results in runs for r in results if r.T == T])
        print(f"T={T}: median L_hat {med:.6g}")
    return cfg2


def _cmd_reconstruct(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "synthetic")
    scfg = _synth_cfg(cfg)
    ds, trace = generate_synthetic(scfg)
    system = make_system(scfg)
    r = cfg.reconstruct
    if r.indices is not None:
        indices = [int(i) for i in r.indices]
    else:
        indices = sorted(set(np.linspace(r.z, ds.n - 1, r.n_points).astype(int).tolist()))
    substeps = scfg.truth_substeps if r.substeps is None else r.substeps
    errs, rows = [], []
    for n in indices:
        x_hat = ev.reconstruct_oracle(system, ds, n, r.z, substeps=substeps,
                                      state_box=tuple(r.state_box))
        errs.append(float(np.linalg.norm(x_hat - trace.states[n])))
        rows.append([n, *trace.states[n], *x_hat, errs[-1]])
    write_csv(out / "reconstruct.csv", ["n"] + [f"x_true{i}" for i in range(system.n_x)]
              + [f"x_hat{i}" for i in range(system.n_x)] + ["err_norm"], rows)
    _write_metrics(out / "metrics.csv", {
        "n_points": len(indices),
        "rms_state_error": float(np.sqrt(np.mean(np.square(errs)))),
        "max_state_error": max(errs),
    })
    print(f"reconstructed {len(indices)} states; RMS error "
          f"{float(np.sqrt(np.mean(np.square(errs)))):.6g}")
    return cfg


def _cmd_ensemble(cfg: RunConfig, out: Path) -> RunConfig:
    _require(cfg, "data", "model")
    train_ds, val_ds, test_ds = _load_splits(cfg)
    if test_ds is None:
        raise ConfigError("ensemble needs data.test_path")
    cfg = _resolve_tau(cfg, train_ds)
    # an ensemble is a sweep with the one ratio dt/tau
    cells = _sweep(cfg, (train_ds, val_ds, test_ds), [train_ds.dt / float(cfg.solver.tau)],
                   cfg.ensemble.seeds)
    write_csv(out / "ensemble.csv", ["seed", "test_rmse", "val_rmse", "rms_x", "rms_f"],
              ([c.seed, c.test_rmse, c.val_rmse, c.rms_x, c.rms_f] for c in cells))
    rmses = np.array([c.test_rmse for c in cells])
    # best RMSE with the ensemble mean in parentheses, as benchmark tables report
    _write_metrics(out / "metrics.csv", {
        "best_test_rmse": float(np.nanmin(rmses)),
        "mean_test_rmse": float(np.nanmean(rmses)),
        "n_models": len(cells),
    })
    print(f"ensemble of {len(cells)}: best test RMSE {np.nanmin(rmses):.6g} "
          f"({np.nanmean(rmses):.6g})")
    return cfg


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-tau": _cmd_sweep,
    "probe-smoothness": _cmd_probe,
    "reconstruct": _cmd_reconstruct,
    "ensemble": _cmd_ensemble,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns a process exit status."""
    if cfg.command is None:
        raise ConfigError("no command given (set 'command' in the config)")
    out = _out_dir(cfg)
    effective = _HANDLERS[cfg.command](cfg, out)
    _echo_config(effective, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subnet",
        description="Continuous-time state-space identification with subspace encoders.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for sweep-tau/ensemble")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.command is not None and cfg.command != args.command:
            raise ConfigError(
                f"config command {cfg.command!r} does not match subcommand {args.command!r}")
        updates = {k: getattr(args, k) for k in ("command", "out", "seed", "threads")
                   if getattr(args, k) is not None}
        try:  # the overrides get the same checks as the file
            cfg = RunConfig.model_validate({**cfg.model_dump(), **updates})
        except ValidationError as e:
            raise ConfigError(f"command line: {_format_validation_error(e)}") from e
        return run(cfg)
    except SubnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

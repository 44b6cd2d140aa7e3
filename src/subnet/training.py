"""Training: truncated subsection loss, full-sequence baseline loss, the
Adam loop with free-run validation and early stopping, and tau selection.

Losses are computed on z-scored signals; validation RMSE is reported in
physical units.  Everything is deterministic given the config seed when run
single-threaded.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import BatchSampler, Dataset, normalize_dataset, valid_start_indices, write_csv
from .errors import DegenerateDataError, InvalidArgumentError, NumericFaultError, check_limits
from .model import (
    SubnetModel,
    _net_views,
    _sim_backward,
    _sim_forward,
    _windows,
    model_with_values,
    simulate_free_run,
    trace_rms,
)
from .nnmath import (
    Array,
    FlatParams,
    adam_init,
    adam_step,
    mlp_backward_cached,
    mlp_forward_cached,
)
from .serialize import model_from_dict, model_to_json

# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _subsection_residuals(
    m: SubnetModel, u_norm: Array, y_norm: Array, ns: Array, T: int, caches=None
):
    """(simulated minus measured normalized outputs (B, T, n_y), psi cache) of the subsections
    at ``ns``, each started from the encoder's state; a ``caches`` list keeps the rollout.
    """
    win = _windows(u_norm, y_norm, ns, m.n_a, m.n_b)
    x0, psi_cache = mlp_forward_cached(m.psi_net, win)
    steps = ns[:, None] + np.arange(T)[None, :]  # rows ns..ns+T-1 of each subsection
    _, outputs = _sim_forward(m, x0, u_norm[steps], ns, caches)
    return outputs - y_norm[steps], psi_cache


def _loss_and_grad_normed(
    m: SubnetModel, u_norm: Array, y_norm: Array, ns: Array, T: int
) -> tuple[float, Array]:
    """Truncated loss plus exact flat gradient on pre-normalized arrays."""
    B = len(ns)
    grad = np.zeros_like(m.values)
    f_acc, h_acc, psi_acc = _net_views(m, grad)
    caches = []
    diff, psi_cache = _subsection_residuals(m, u_norm, y_norm, ns, T, caches)
    loss = float(np.sum(diff * diff)) / (B * T)
    g_x0 = _sim_backward(m, caches, (2.0 / (B * T)) * diff, f_acc, h_acc)
    mlp_backward_cached(m.psi_net, psi_cache, g_x0, psi_acc)
    return loss, grad


def truncated_loss_and_grad(
    m: SubnetModel, ds: Dataset, batch, T: int
) -> tuple[float, FlatParams]:
    """Mean subsection loss over a batch of start indices and its exact gradient.

    loss = mean_n (1/T) sum_k ||y_{n+k} - yhat_{n+k|n}||^2 on normalized
    outputs; the gradient runs through the encoder, the solver rollout and
    the output map.
    """
    if T < 1:
        raise InvalidArgumentError("T must be >= 1")
    ns = np.asarray(batch, dtype=np.int64)
    if ns.size == 0:
        raise InvalidArgumentError("batch must be nonempty")
    if ns.min() < m.lag or ns.max() > ds.n - T:
        raise InvalidArgumentError(
            f"start indices must lie in [{m.lag}, {ds.n - T}]"
        )
    dsn = normalize_dataset(ds, m.norm)
    loss, grad = _loss_and_grad_normed(m, dsn.u, dsn.y, ns, T)
    return loss, FlatParams(grad, m.layout)


def full_sim_loss(
    m: SubnetModel, ds: Dataset, x0
) -> tuple[float, FlatParams, Array]:
    """Full-sequence simulation loss (1/N) sum ||y_k - yhat_k||^2 from a free x0.

    ``x0`` is a normalized-state vector and an optimization variable in its
    own right; returns (loss, gradient over the model parameters, gradient
    over x0).  The encoder network does not participate (its gradient
    segment is zero).  This is the independent reference for the truncated
    loss: with one subsection spanning the record and a constant encoder
    holding ``x0``, :func:`truncated_loss_and_grad` must give the same loss,
    so it is kept apart from that path rather than built on it.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (m.n_x,):
        raise InvalidArgumentError(f"x0 must have shape ({m.n_x},)")
    dsn = normalize_dataset(ds, m.norm)
    grad = np.zeros_like(m.values)
    f_acc, h_acc, _ = _net_views(m, grad)
    caches = []
    # the simulation starts at sample 0
    _, outputs = _sim_forward(m, x0[None, :], dsn.u[None, :, :], np.zeros(1, np.int64), caches)
    diff = outputs - dsn.y[None, :, :]
    loss = float(np.sum(diff * diff)) / ds.n
    g_x0 = _sim_backward(m, caches, (2.0 / ds.n) * diff, f_acc, h_acc)
    return loss, FlatParams(grad, m.layout), g_x0[0]


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    T: int = field(default=30, metadata={"ge": 1})
    batch_size: int = field(default=64, metadata={"ge": 1})
    max_updates: int = field(default=50_000, metadata={"ge": 0})
    eval_every: int = field(default=100, metadata={"ge": 1})
    patience: int = field(default=20, metadata={"ge": 1})
    lr: float = field(default=1e-3, metadata={"gt": 0})
    beta1: float = field(default=0.9, metadata={"gt": 0, "lt": 1})
    beta2: float = field(default=0.999, metadata={"gt": 0, "lt": 1})
    eps: float = field(default=1e-8, metadata={"gt": 0})
    seed: int = field(default=0, metadata={"ge": 0})
    clip_norm: float | None = field(default=10.0, metadata={"gt": 0})
    loss_target: str = field(default="truncated", metadata={"choices": ("truncated", "full")})
    trainable: tuple[str, ...] = ("f", "h", "psi")

    def __post_init__(self):
        check_limits(self)
        if not set(self.trainable) <= {"f", "h", "psi"}:
            raise InvalidArgumentError(f"unknown network names in trainable: {self.trainable}")


@dataclass(frozen=True)
class HistoryRecord:
    update: int
    train_loss: float
    val_rmse: float


@dataclass
class TrainHistory:
    """Per-evaluation log plus the best checkpoint (lowest validation RMSE)."""

    records: list[HistoryRecord] = field(default_factory=list)
    best_update: int = 0
    best_val_rmse: float = np.inf
    best_checkpoint: str = ""
    wall_time: float = 0.0
    n_updates: int = 0
    stop_reason: str = ""


def _val_rmse(m: SubnetModel, val_ds: Dataset) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # wild models free-run to huge values
        trace = simulate_free_run(m, val_ds)
        err = trace.y_pred - trace.y_meas
        return float(np.sqrt(np.mean(err * err)))


def _clip(grad: Array, clip_norm: float | None) -> None:
    """Scale ``grad`` in place to norm ``clip_norm`` when it is longer."""
    if clip_norm is None:
        return
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm:
        grad *= clip_norm / norm


def train(
    m0: SubnetModel, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig
) -> tuple[SubnetModel, TrainHistory]:
    """Adam on the truncated (or full) simulation loss with early stopping.

    The full target is the truncated loss over the one subsection that spans
    the training record from sample 0; it needs a constant encoder, whose
    bias is the free initial state and trains like any other parameter.
    Every ``eval_every`` updates the free-run validation RMSE is computed and
    the best model kept; training stops after ``max_updates`` updates, when
    ``patience`` evaluations pass without improvement, or after three
    consecutive numerically faulting batches.
    """
    if cfg.loss_target == "full" and m0.psi_net.input_dim != 0:
        raise InvalidArgumentError(
            "loss_target='full' optimizes a free x0; use a constant (zero-input) encoder"
        )
    # the full target's one subsection spans the record, so its only start is 0
    T = cfg.T if cfg.loss_target == "truncated" else train_ds.n
    sampler = BatchSampler(valid_start_indices(train_ds.n, T, m0.n_a, m0.n_b),
                           cfg.batch_size, np.random.default_rng(cfg.seed))
    if val_ds.n <= m0.lag:
        raise InvalidArgumentError("validation set too short for the encoder lag")

    t_start = time.perf_counter()
    dsn = normalize_dataset(train_ds, m0.norm)
    # the live model is a view of theta, which Adam updates in place; m0 is never written
    model = model_with_values(m0, m0.values)
    theta = model.values
    frozen = [sl for name, sl in model.segments.items() if name not in cfg.trainable]
    adam = adam_init(theta.size, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    hist = TrainHistory()
    # the incoming model is the fallback checkpoint even if validation never succeeds
    hist.best_checkpoint = model_to_json(m0)
    last_loss = float("nan")
    since_best = 0
    fault_streak = 0
    update = 0

    def record_eval() -> None:
        """Append one evaluation and keep the checkpoint when it improved."""
        nonlocal since_best
        try:
            rmse = _val_rmse(model, val_ds)
        except NumericFaultError:
            rmse = float("nan")  # free-run diverged; treat as no improvement
        hist.records.append(HistoryRecord(update, last_loss, rmse))
        if rmse < hist.best_val_rmse:
            hist.best_val_rmse = rmse
            hist.best_update = update
            hist.best_checkpoint = model_to_json(model)
            since_best = 0
        else:
            since_best += 1

    record_eval()
    since_best = 0  # the initial evaluation never counts against patience
    hist.stop_reason = "max_updates"
    while update < cfg.max_updates:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, g = _loss_and_grad_normed(model, dsn.u, dsn.y, sampler.sample_batch(), T)
            if not (np.isfinite(loss) and np.isfinite(g).all()):
                raise NumericFaultError("non-finite loss or gradient", update=update)
            for sl in frozen:
                g[sl] = 0.0
            _clip(g, cfg.clip_norm)
            adam_step(adam, theta, g)
            if not np.isfinite(theta).all():
                raise InvalidArgumentError(f"non-finite parameter entries after update {update}")
            last_loss = loss
            fault_streak = 0
        except NumericFaultError:
            fault_streak += 1
            last_loss = float("nan")
            if fault_streak >= 3:
                hist.stop_reason = "numeric_fault"
                update += 1
                break
        update += 1
        if update % cfg.eval_every == 0 or update == cfg.max_updates:
            record_eval()
            if since_best >= cfg.patience:
                hist.stop_reason = "patience"
                break

    hist.n_updates = update
    hist.wall_time = time.perf_counter() - t_start
    best = model_from_dict(json.loads(hist.best_checkpoint))
    return best, hist


def save_history_csv(hist: TrainHistory, path) -> None:
    write_csv(path, ["update", "train_loss", "val_rmse"],
              ([r.update, r.train_loss, r.val_rmse] for r in hist.records))


# --------------------------------------------------------------------------
# tau selection
# --------------------------------------------------------------------------


def suggest_tau(ds: Dataset, pilot: SubnetModel | None = None) -> float:
    """Rate 1/tau making state and state-derivative RMS comparable.

    With a pilot model: 1/tau = RMS(dx/dt) / RMS(x) over its free-run
    trajectory, the derivative being the pilot's own (1/tau) f evaluations.
    Without one: RMS of the first-difference derivative of the z-scored
    outputs over their RMS, a data-only proxy.  Returns 1/tau (units 1/s).
    """
    if ds.n < 2:
        raise InvalidArgumentError("need at least two samples")
    if pilot is not None:
        if pilot.mode != "ct":
            raise InvalidArgumentError("pilot must be a continuous-time model")
        rms_x, rms_f = trace_rms(pilot, simulate_free_run(pilot, ds), ds)
        if rms_x == 0.0:
            raise DegenerateDataError("pilot state trajectory has zero RMS")
        return rms_f / pilot.solver.tau / rms_x
    y_std = ds.y.std(axis=0)
    for c, s in enumerate(y_std):
        if s == 0.0:
            raise DegenerateDataError(f"channel y[{c}] has zero variance")
    y_z = (ds.y - ds.y.mean(axis=0)) / y_std
    dy = np.diff(y_z, axis=0) / ds.dt
    rms_y = float(np.sqrt(np.mean(y_z * y_z)))
    rms_dy = float(np.sqrt(np.mean(dy * dy)))
    if rms_dy == 0.0:
        raise DegenerateDataError("outputs are constant over time")
    return rms_dy / rms_y

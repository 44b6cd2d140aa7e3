"""Training: truncated subsection loss, full-sequence baseline loss, the
Adam loop with free-run validation and early stopping, and tau selection.

Losses are computed on z-scored signals; validation RMSE is reported in
physical units.  Everything is deterministic given the config seed when run
single-threaded.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import BatchSampler, Dataset, normalize_dataset, valid_start_indices
from .errors import DegenerateDataError, InvalidArgumentError, NumericFaultError
from .model import (
    SubnetModel,
    _net_views,
    _sim_backward,
    _sim_forward_cached,
    _windows,
    model_with_values,
    simulate_free_run,
)
from .nnmath import (
    Array,
    FlatParams,
    adam_init,
    adam_step,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
)
from .serialize import model_from_dict, model_to_json

# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _gather_steps(a: Array, ns: Array, T: int) -> Array:
    """(B, T, channels) view of rows ns..ns+T-1 for each start index."""
    return a[ns[:, None] + np.arange(T)[None, :]]


def _loss_and_grad_normed(
    m: SubnetModel, u_norm: Array, y_norm: Array, ns: Array, T: int
) -> tuple[float, FlatParams]:
    """Truncated loss plus exact gradient on pre-normalized arrays."""
    B = len(ns)
    grad = np.zeros_like(m.values)
    f_acc, h_acc, psi_acc = _net_views(m, grad)
    win = _windows(u_norm, y_norm, ns, m.n_a, m.n_b)
    x0, psi_cache = mlp_forward_cached(m.psi_net, win)
    u_steps = _gather_steps(u_norm, ns, T)
    targets = _gather_steps(y_norm, ns, T)
    _, outputs, h_caches, step_caches = _sim_forward_cached(m, x0, u_steps, ns)
    diff = outputs - targets
    loss = float(np.sum(diff * diff)) / (B * T)
    g_x0 = _sim_backward(m, h_caches, step_caches, (2.0 / (B * T)) * diff, f_acc, h_acc)
    mlp_backward_cached(m.psi_net, psi_cache, g_x0, psi_acc)
    return loss, FlatParams(grad, m.layout)


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
    try:
        return _loss_and_grad_normed(m, dsn.u, dsn.y, ns, T)
    except NumericFaultError as e:
        raise NumericFaultError("truncated loss failed", **e.context) from e


def full_sim_loss(
    m: SubnetModel, ds: Dataset, x0
) -> tuple[float, FlatParams, Array]:
    """Full-sequence simulation loss (1/N) sum ||y_k - yhat_k||^2 from a free x0.

    ``x0`` is a normalized-state vector and an optimization variable in its
    own right; returns (loss, gradient over the model parameters, gradient
    over x0).  The encoder network does not participate (its gradient
    segment is zero).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (m.n_x,):
        raise InvalidArgumentError(f"x0 must have shape ({m.n_x},)")
    dsn = normalize_dataset(ds, m.norm)
    loss, grad, g_x0 = _full_loss_and_grad_normed(m, dsn.u, dsn.y, x0)
    return loss, FlatParams(grad, m.layout), g_x0


def _full_loss_and_grad_normed(
    m: SubnetModel, u_norm: Array, y_norm: Array, x0: Array
) -> tuple[float, Array, Array]:
    """Full-sequence loss, flat parameter gradient and x0 gradient on pre-normalized arrays."""
    N = len(y_norm)
    grad = np.zeros_like(m.values)
    f_acc, h_acc, _ = _net_views(m, grad)
    _, outputs, h_caches, step_caches = _sim_forward_cached(m, x0[None, :], u_norm[None, :, :])
    diff = outputs - y_norm[None, :, :]
    loss = float(np.sum(diff * diff)) / N
    g_x0 = _sim_backward(m, h_caches, step_caches, (2.0 / N) * diff, f_acc, h_acc)
    return loss, grad, g_x0[0]


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    T: int = 30
    batch_size: int = 64
    max_updates: int = 50_000
    eval_every: int = 100
    patience: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    mode: str = "ct"
    loss_target: str = "truncated"
    clip_norm: float | None = 10.0
    trainable: tuple[str, ...] = ("f", "h", "psi")

    def __post_init__(self):
        if self.T < 1 or self.batch_size < 1 or self.patience < 1 or self.eval_every < 1:
            raise InvalidArgumentError("T, batch_size, patience, eval_every must be >= 1")
        if self.max_updates < 0:
            raise InvalidArgumentError("max_updates must be >= 0")
        if self.mode not in ("ct", "dt") or self.loss_target not in ("truncated", "full"):
            raise InvalidArgumentError("bad mode or loss_target")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise InvalidArgumentError("clip_norm must be positive or None")
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

    Every ``eval_every`` updates the free-run validation RMSE is computed and
    the best model kept; training stops after ``max_updates`` updates, when
    ``patience`` evaluations pass without improvement, or after three
    consecutive numerically faulting batches.
    """
    if cfg.mode != m0.mode:
        raise InvalidArgumentError(f"config mode {cfg.mode!r} != model mode {m0.mode!r}")
    if cfg.loss_target == "full" and m0.psi_net.input_dim != 0:
        raise InvalidArgumentError(
            "loss_target='full' optimizes a free x0; use a constant (zero-input) encoder"
        )
    indices = valid_start_indices(train_ds.n, cfg.T, m0.n_a, m0.n_b)
    if val_ds.n <= m0.lag:
        raise InvalidArgumentError("validation set too short for the encoder lag")

    t_start = time.perf_counter()
    dsn = normalize_dataset(train_ds, m0.norm)
    # the live model is a view of theta, which Adam updates in place; m0 is never written
    model = model_with_values(m0, m0.values)
    theta = model.values
    frozen = [sl for name, sl in model.segments.items() if name not in cfg.trainable]
    adam = adam_init(theta.size, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    sampler = BatchSampler(indices, cfg.batch_size, np.random.default_rng(cfg.seed))

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
                if cfg.loss_target == "truncated":
                    batch = sampler.sample_batch()
                    loss, grad = _loss_and_grad_normed(model, dsn.u, dsn.y, batch, cfg.T)
                    g = grad.values
                else:
                    x0 = mlp_forward(model.psi_net, np.zeros(0))
                    loss, g, g_x0 = _full_loss_and_grad_normed(model, dsn.u, dsn.y, x0)
                    _net_views(model, g)[2].biases[0][:] = g_x0  # x0 lives in the constant encoder
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["update", "train_loss", "val_rmse"])
        for r in hist.records:
            w.writerow([r.update, repr(r.train_loss), repr(r.val_rmse)])


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
        trace = simulate_free_run(pilot, ds)
        x = trace.states[:-1]
        u_norm = (ds.u[pilot.lag:] - pilot.norm.u_mean) / pilot.norm.u_std
        dx = mlp_forward(pilot.f_net, np.concatenate([x, u_norm], axis=1)) / pilot.solver.tau
        rms_x = float(np.sqrt(np.mean(x * x)))
        rms_dx = float(np.sqrt(np.mean(dx * dx)))
        if rms_x == 0.0:
            raise DegenerateDataError("pilot state trajectory has zero RMS")
        return rms_dx / rms_x
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

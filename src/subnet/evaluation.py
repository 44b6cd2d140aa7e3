"""Evaluation: error metrics, state/state-derivative RMS, the scaling
identity behind the 1/tau normalization, the tau sweep, the loss-smoothness
probe, and a Gauss-Newton oracle that reconstructs the true state from past
inputs/outputs of a known synthetic system.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    SyntheticSystem,
    fit_normalizer,
    normalize_dataset,
    valid_start_indices,
    write_csv,
)
from .errors import (
    DegenerateDataError,
    InvalidArgumentError,
    NoSolutionError,
    NumericFaultError,
    ObservabilityError,
    SubnetError,
)
from .model import (
    EvalTrace,
    SubnetModel,
    init_model,
    model_flatten,
    model_with_values,
    simulate_free_run,
    trace_rms,
)
from .nnmath import Array, finite_diff_jacobian
from .ode import SolverConfig, ode_step
from .training import TrainConfig, _subsection_residuals, train

# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def rmse(y, y_hat) -> float:
    """sqrt(mean_k ||y_k - yhat_k||^2 / n_y), i.e. RMS over all entries."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64).T).T
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=np.float64).T).T
    if y.shape != y_hat.shape or y.shape[0] < 1:
        raise InvalidArgumentError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    d = y - y_hat
    return float(np.sqrt(np.mean(d * d)))


def nrmse(y, y_hat) -> float:
    """RMSE divided by the pooled standard deviation of the measured output."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64).T).T
    scale = float(np.sqrt(np.mean(y.var(axis=0))))
    if scale == 0.0:
        raise DegenerateDataError("measured output has zero variance")
    return rmse(y, y_hat) / scale


@dataclass(frozen=True)
class EvalReport:
    """Free-run evaluation summary in physical units."""

    rmse: float
    nrmse: float
    rms_x: float
    rms_f: float
    n_samples: int
    trace: EvalTrace


def evaluate_model(m: SubnetModel, ds: Dataset) -> EvalReport:
    trace = simulate_free_run(m, ds)
    rms_x, rms_f = trace_rms(m, trace, ds)
    return EvalReport(
        rmse=rmse(trace.y_meas, trace.y_pred),
        nrmse=nrmse(trace.y_meas, trace.y_pred),
        rms_x=rms_x,
        rms_f=rms_f,
        n_samples=trace.y_pred.shape[0],
        trace=trace,
    )


# --------------------------------------------------------------------------
# the scaling identity behind 1/tau
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TauNormalizationReport:
    gamma: float
    tau: float
    rms_x_tilde: float
    rms_f_tilde: float


def verify_theorem2(states, derivs) -> TauNormalizationReport:
    """Evaluate gamma = RMS(x), 1/tau = RMS(dx)/RMS(x) and the two scaled RMS values.

    For any bounded nonzero trajectory the scaled state and scaled derivative
    must both have RMS exactly 1; callers assert this to 1e-9.
    """
    x = np.asarray(states, dtype=np.float64)
    dx = np.asarray(derivs, dtype=np.float64)
    rms_x = float(np.sqrt(np.mean(x * x)))
    rms_dx = float(np.sqrt(np.mean(dx * dx)))
    if rms_x == 0.0 or rms_dx == 0.0:
        raise DegenerateDataError("states and derivatives must both have nonzero RMS")
    gamma = rms_x
    tau = rms_x / rms_dx
    rms_x_tilde = float(np.sqrt(np.mean((x / gamma) ** 2)))
    rms_f_tilde = tau * rms_dx / gamma
    return TauNormalizationReport(gamma, tau, rms_x_tilde, rms_f_tilde)


# --------------------------------------------------------------------------
# tau sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """Result of one (dt/tau, seed) training cell; NaNs when the run failed."""

    dt_over_tau: float
    seed: int
    rms_x: float
    rms_f: float
    test_rmse: float
    val_rmse: float
    error: str = ""


def run_cell(
    train_ds: Dataset, val_ds: Dataset, test_ds: Dataset,
    dt_over_tau: float, seed: int, train_cfg: TrainConfig,
    n_x: int, n_a: int, n_b: int, hidden: tuple[int, ...] = (64, 64),
    method: str = "rk4", substeps: int = 1, mode: str = "ct",
) -> SweepCell:
    """Train one model at a fixed dt/tau and evaluate it on the test split.

    Initialization and batch order depend only on ``seed`` so cells at
    different dt/tau values are directly comparable; cells are independent
    and safe to run in parallel.
    """
    try:
        solver = SolverConfig(method, substeps, train_ds.dt / dt_over_tau, train_ds.dt)
        norm = fit_normalizer(train_ds)
        m0 = init_model(n_x, train_ds.n_u, train_ds.n_y, n_a, n_b, solver, norm,
                        mode=mode, hidden=hidden, seed=seed)
        best, hist = train(m0, train_ds, val_ds, replace(train_cfg, seed=seed))
        if not np.isfinite(hist.best_val_rmse):
            raise NumericFaultError("no validation free run stayed finite",
                                    n_evals=len(hist.records))
        report = evaluate_model(best, test_ds)
        return SweepCell(dt_over_tau, seed, report.rms_x, report.rms_f,
                         report.rmse, hist.best_val_rmse)
    except SubnetError as e:
        nan = float("nan")
        return SweepCell(dt_over_tau, seed, nan, nan, nan, nan, error=str(e))


def tau_sweep(
    train_ds: Dataset, val_ds: Dataset, test_ds: Dataset,
    dt_over_tau_grid, seeds, train_cfg: TrainConfig,
    n_x: int, n_a: int, n_b: int, hidden: tuple[int, ...] = (64, 64),
    method: str = "rk4", substeps: int = 1, mode: str = "ct", map=map,
) -> list[SweepCell]:
    """One :func:`run_cell` per (dt/tau, seed), ratio-major; failures become NaN rows.

    ``map(fn, ratios, seeds)`` runs the cells, by default in order in this
    process.  ``fn`` is a picklable ``functools.partial`` and each cell seeds
    itself, so an executor's ``map`` gives the same cells from worker processes.
    """
    seeds = list(seeds)
    grid = [(float(ratio), int(seed)) for ratio in dt_over_tau_grid for seed in seeds]
    if not grid:
        raise InvalidArgumentError("grid and seeds must be nonempty")
    cell = functools.partial(run_cell, train_ds, val_ds, test_ds, train_cfg=train_cfg,
                             n_x=n_x, n_a=n_a, n_b=n_b, hidden=hidden, method=method,
                             substeps=substeps, mode=mode)
    return list(map(cell, *zip(*grid)))


def save_sweep_csv(cells: list[SweepCell], path) -> None:
    """Tidy CSV (setting, seed, metric, value), one row per metric; box-plot ready."""
    write_csv(path, ["setting", "seed", "metric", "value"],
              ([c.dt_over_tau, c.seed, metric, getattr(c, metric)]
               for c in cells for metric in ("rms_x", "rms_f", "test_rmse", "val_rmse")))


# --------------------------------------------------------------------------
# loss-smoothness probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    T: int
    l_hat: float
    n_failed: int


def smoothness_probe(
    m: SubnetModel, ds: Dataset, T_values, n_probes: int, eps: float, seed: int = 0
) -> list[ProbeResult]:
    """Directional local Lipschitz surrogate of the truncated loss, per T.

    For each subsection length the loss over *all* valid subsections is
    probed along ``n_probes`` shared random unit directions in parameter
    space: L_hat(T) = max_d |V(theta + eps d) - V(theta)| / eps.  Probes that
    fault numerically are skipped and counted.
    """
    if n_probes < 1 or eps <= 0:
        raise InvalidArgumentError("need n_probes >= 1 and eps > 0")
    theta = model_flatten(m)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_probes, theta.values.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dsn = normalize_dataset(ds, m.norm)

    def loss(model: SubnetModel, ns: Array, T: int) -> float:  # the mean squared residual
        diff, _ = _subsection_residuals(model, dsn.u, dsn.y, ns, T)
        return float(np.sum(diff * diff)) / (len(ns) * T)

    results = []
    for T in T_values:
        ns = valid_start_indices(ds.n, int(T), m.n_a, m.n_b)
        base = loss(m, ns, int(T))
        best = 0.0
        failed = 0
        for d in dirs:
            try:
                perturbed = model_with_values(m, theta.values + eps * d)
                v = loss(perturbed, ns, int(T))
            except NumericFaultError:
                failed += 1
                continue
            if not np.isfinite(v):
                failed += 1
                continue
            best = max(best, abs(v - base) / eps)
        results.append(ProbeResult(int(T), best, failed))
    return results


def save_probe_csv(runs: list[tuple[int | None, list[ProbeResult]]], path) -> None:
    """Tidy CSV (setting, seed, metric, value) of (seed, results) pairs, in order."""
    write_csv(path, ["setting", "seed", "metric", "value"],
              ([r.T, "" if seed is None else seed, metric, getattr(r, metric)]
               for seed, results in runs for r in results for metric in ("l_hat", "n_failed")))


# --------------------------------------------------------------------------
# state reconstruction oracle (known synthetic dynamics)
# --------------------------------------------------------------------------


def _backward_state(system: SyntheticSystem, x: Array, u_window: Array,
                    dt: float, substeps: int) -> list[Array]:
    """States x_{n-1}, ..., x_{n-z} by integrating -f with ZOH inputs backwards."""
    cfg = SolverConfig("rk4", substeps, 1.0, dt)
    neg_f = lambda xx, uu: -np.asarray(system.f(xx, uu), dtype=np.float64)
    out = []
    for u in u_window:  # u_window is [u_{n-1}, u_{n-2}, ...]
        x = ode_step(neg_f, x, u, cfg)
        out.append(x)
    return out


def _residual(system: SyntheticSystem, x_hat: Array, u_win: Array, y_win: Array,
              dt: float, substeps: int) -> Array:
    xs = _backward_state(system, x_hat, u_win, dt, substeps)
    return (y_win - system.h(np.array(xs))).ravel()


# Gauss-Newton iteration cap, converged-step norm, and central-difference step
_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-10
_FD_STEP = 1e-6


def _gn_minimize(resid, x0: Array):
    """Gauss-Newton with backtracking and a Levenberg-damped rescue step.

    Returns (x, cost, converged); converged means the step norm dropped
    below ``_GN_STEP_TOL`` or no descent step exists (a stationary point).
    """
    x = np.asarray(x0, dtype=np.float64)
    try:
        r = resid(x)
    except NumericFaultError:
        return x, np.inf, False
    cost = float(r @ r)
    if not np.isfinite(cost):
        return x, np.inf, False

    def try_step(delta):
        nonlocal x, r, cost
        step = 1.0
        for _ in range(12):
            try:
                r_new = resid(x + step * delta)
            except NumericFaultError:
                step *= 0.5
                continue
            c_new = float(r_new @ r_new)
            if np.isfinite(c_new) and c_new < cost:
                x = x + step * delta
                r, cost = r_new, c_new
                return True
            step *= 0.5
        return False

    for _ in range(_GN_MAX_ITERS):
        try:
            J = finite_diff_jacobian(resid, x, _FD_STEP)
        except NumericFaultError:
            return x, cost, False
        delta = np.linalg.lstsq(J, -r, rcond=None)[0]
        if float(np.linalg.norm(delta)) < _GN_STEP_TOL:
            return x, cost, True
        if try_step(delta):
            continue
        # the pure GN direction failed: escalate diagonal damping
        JtJ, Jtr = J.T @ J, J.T @ r
        scale = max(float(np.trace(JtJ)) / max(x.size, 1), 1e-12)
        rescued = False
        for lam in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
            delta = np.linalg.solve(JtJ + lam * scale * np.eye(x.size), -Jtr)
            if float(np.linalg.norm(delta)) < _GN_STEP_TOL:
                return x, cost, True
            if try_step(delta):
                rescued = True
                break
        if not rescued:
            return x, cost, True  # no descent direction: stationary point
    return x, cost, True


def reconstruct_oracle(
    system: SyntheticSystem, ds: Dataset, n: int, z: int,
    *, substeps: int = 32, state_box: tuple[float, float] = (-3.0, 3.0),
) -> Array:
    """Estimate the true state at index n by nonlinear least squares.

    Minimizes || Y - (h o backward-flow)(x, U) ||_2 over the window of the z
    most recent outputs, by Gauss-Newton from a grid of ~27 starting points
    over ``state_box`` (3 per dimension for three states; denser for fewer).
    Requires z * n_y >= n_x; raises :class:`NoSolutionError` when no start
    converges.
    """
    if z < 1:
        raise InvalidArgumentError("z must be >= 1")
    if z * ds.n_y < system.n_x:
        raise ObservabilityError(
            f"z*n_y = {z * ds.n_y} < n_x = {system.n_x}: state not reconstructible"
        )
    if not (z <= n <= ds.n):
        raise InvalidArgumentError(f"need z <= n <= N, got n={n}")
    u_win = ds.u[n - 1::-1][:z]        # u_{n-1}, u_{n-2}, ..., u_{n-z}
    y_win = ds.y[n - 1::-1][:z]
    resid = lambda x: _residual(system, x, u_win, y_win, ds.dt, substeps)

    grid_points = max(2, round(27.0 ** (1.0 / system.n_x)))
    lo, hi = state_box
    axes = [np.linspace(lo, hi, grid_points) for _ in range(system.n_x)]
    # a numerically-zero residual is the global minimum; stop the multi-start
    exact_cost = (1e-9 ** 2) * z * ds.n_y
    best_x, best_cost = None, np.inf
    for start in itertools.product(*axes):
        x, cost, converged = _gn_minimize(resid, np.asarray(start))
        if converged and np.isfinite(cost) and cost < best_cost:
            best_x, best_cost = x, cost
            if best_cost <= exact_cost:
                break
    if best_x is None:
        raise NoSolutionError("Gauss-Newton did not converge from any start")
    return best_x

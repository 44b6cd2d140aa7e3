"""Correctness checks for the benchmark's outputs.

Every check is built apart from the code it checks, or tests a property of
the method; none compares with a stored copy of earlier output.  Each takes
the program's outputs as plain arguments, so the benchmark's tests can feed
it corrupted ones, and raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import base64
import csv
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# --------------------------------------------------------------------------
# tanks-train: gradient against central differences
# --------------------------------------------------------------------------


def check_gradient(loss_fn, theta: np.ndarray, grad: np.ndarray, rng: np.random.Generator,
                   n_dirs: int = 3, eps: float = 1e-5, rtol: float = 1e-6) -> float:
    """Directional derivatives ``grad . d`` against central differences of ``loss_fn``.

    ``d`` are seeded random unit directions.  Returns the largest error
    relative to ``|grad|``, which bounds any directional derivative.
    """
    g_norm = float(np.linalg.norm(grad))
    require(math.isfinite(g_norm) and g_norm > 0, f"gradient norm is {g_norm}")
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        fd = (loss_fn(theta + eps * d) - loss_fn(theta - eps * d)) / (2.0 * eps)
        err = abs(fd - float(grad @ d)) / g_norm
        require(math.isfinite(err), "non-finite loss during finite differences")
        worst = max(worst, err)
    require(worst <= rtol,
            f"gradient disagrees with central differences: error {worst:.3g} x |grad| > {rtol:g}")
    return worst


# --------------------------------------------------------------------------
# tanks-freerun: an independent numpy free run from the decoded parameters
# --------------------------------------------------------------------------


def _decode_net(d: dict) -> tuple[list, list, np.ndarray | None]:
    """Weights, biases and bypass from the documented model-file layout."""
    flat = np.frombuffer(base64.b64decode(d["params_b64"]), dtype="<f8")
    sizes = d["layer_sizes"]
    ws, bs, off = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        ws.append(flat[off:off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        bs.append(flat[off:off + fan_out])
        off += fan_out
    bypass = None
    if d["with_bypass"]:
        bypass = flat[off:off + sizes[0] * sizes[-1]].reshape(sizes[0], sizes[-1])
        off += sizes[0] * sizes[-1]
    require(off == flat.size, "model file: parameter blob does not match its layer sizes")
    return ws, bs, bypass


def _mlp(net, x: np.ndarray) -> np.ndarray:
    ws, bs, bypass = net
    a = x
    for w, b in zip(ws[:-1], bs[:-1]):
        a = np.tanh(w @ a + b)
    y = ws[-1] @ a + bs[-1]
    return y + bypass.T @ x if bypass is not None else y


def reference_free_run(doc: dict, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Free-run outputs of a continuous-time model document, in physical units.

    Plain numpy, one sample at a time: encoder on the first window, then
    ``h`` and classical RK4 on ``dx/dt = f(x, u) / tau`` under a held input.
    """
    require(doc["mode"] == "ct", "reference free run covers continuous-time models")
    f, h, psi = (_decode_net(doc["networks"][k]) for k in ("f", "h", "psi"))
    nm, sv = doc["norm"], doc["solver"]
    un = (u - np.asarray(nm["u_mean"])) / np.asarray(nm["u_std"])
    yn = (y - np.asarray(nm["y_mean"])) / np.asarray(nm["y_std"])
    n_a, n_b = doc["n_a"], doc["n_b"]
    lag = max(n_a, n_b)
    window = np.concatenate([un[lag - 1::-1][:n_b].ravel() if n_b else np.zeros(0),
                             yn[lag - 1::-1][:n_a].ravel() if n_a else np.zeros(0)])
    x = _mlp(psi, window)
    hstep = sv["dt"] / sv["substeps"]
    tau = sv["tau"]

    def deriv(xx, uu):
        return _mlp(f, np.concatenate([xx, uu])) / tau

    out = np.empty((u.shape[0] - lag, y.shape[1]))
    for k in range(out.shape[0]):
        out[k] = _mlp(h, x)
        uk = un[lag + k]
        for _ in range(sv["substeps"]):
            if sv["method"] == "euler":
                x = x + hstep * deriv(x, uk)
            else:
                k1 = deriv(x, uk)
                k2 = deriv(x + 0.5 * hstep * k1, uk)
                k3 = deriv(x + 0.5 * hstep * k2, uk)
                k4 = deriv(x + hstep * k3, uk)
                x = x + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out * np.asarray(nm["y_std"]) + np.asarray(nm["y_mean"])


def check_free_run(y_pred: np.ndarray, y_ref: np.ndarray, y_scale: float,
                   rtol: float = 1e-9) -> float:
    """The program's free run equals the reference to rounding (relative to ``y_scale``)."""
    require(y_pred.shape == y_ref.shape,
            f"free run has shape {y_pred.shape}, reference {y_ref.shape}")
    require(bool(np.isfinite(y_pred).all()), "free run has non-finite outputs")
    err = float(np.max(np.abs(y_pred - y_ref))) / y_scale
    require(err <= rtol, f"free run differs from the numpy reference by {err:.3g} x std(y)")
    return err


# --------------------------------------------------------------------------
# tanks-freerun: the synthetic truth against scipy's integrator
# --------------------------------------------------------------------------

# cascaded tanks, written out here from the model equations:
#   dx1/dt = -k1 sqrt(x1) + k4 u,   dx2/dt = k1 sqrt(x1) - k2 sqrt(x2),   y = x2
TANKS = {"k1": 0.5, "k2": 0.4, "k4": 1.0, "x_max": 10.0}


def _tanks_rhs(x, u):
    k1, k2, k4 = TANKS["k1"], TANKS["k2"], TANKS["k4"]
    r1, r2 = math.sqrt(max(x[0], 0.0)), math.sqrt(max(x[1], 0.0))
    return [-k1 * r1 + k4 * u, k1 * r1 - k2 * r2]


def check_clamp_box(states: np.ndarray) -> None:
    """Tank levels never leave [0, x_max]."""
    lo, hi = float(states.min()), float(states.max())
    require(bool(np.isfinite(states).all()) and lo >= 0.0 and hi <= TANKS["x_max"],
            f"tank states leave the box [0, {TANKS['x_max']}]: min {lo}, max {hi}")


def check_truth_solve_ivp(states: np.ndarray, u: np.ndarray, dt: float, n_check: int,
                          margin: float = 0.5, atol: float = 2e-7) -> int:
    """One-sample propagation of the generated states against ``solve_ivp``.

    For each interval k in the first samples, integrate from ``states[k]``
    under the held input ``u[k]`` at tight tolerance and compare with
    ``states[k+1]``.  Intervals where the solution comes within ``margin`` of
    the clamp box (where the generator clips, and where sqrt is not smooth)
    are skipped.  Returns the number of intervals compared.
    """
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, dt, 33)
    lo, hi = margin, TANKS["x_max"] - margin
    compared, worst, k = 0, 0.0, 0
    while compared < n_check and k < states.shape[0] - 1:
        x0, uk = states[k], float(u[k, 0])
        k += 1
        if x0.min() < lo or x0.max() > hi:
            continue
        sol = solve_ivp(lambda t, x: _tanks_rhs(x, uk), (0.0, dt), x0, method="DOP853",
                        t_eval=t_eval, rtol=1e-12, atol=1e-12)
        require(sol.success, f"solve_ivp failed on interval {k - 1}")
        if sol.y.min() < lo or sol.y.max() > hi:
            continue
        worst = max(worst, float(np.max(np.abs(sol.y[:, -1] - states[k]))))
        compared += 1
    require(compared > 0, "no interval away from the clamp box to compare")
    require(worst <= atol,
            f"generated states differ from solve_ivp by {worst:.3g} > {atol:g}")
    return compared


# --------------------------------------------------------------------------
# linear2-sweep
# --------------------------------------------------------------------------

METRICS = ("rms_x", "rms_f", "test_rmse", "val_rmse")


def read_sweep_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["setting", "seed", "metric", "value"],
            f"{path}: unexpected header {rows[:1]}")
    return rows[1:]


def check_sweep_rows(rows: list[list[str]], grid: list[float], seeds: list[int],
                     y_std: float) -> dict[tuple[float, int], dict[str, str]]:
    """Grid x seeds x 4 rows; every cell finite with a test RMSE below ``y_std``.

    A cell whose training raised has NaN metrics, so finiteness also shows
    that every cell ran without error.  Returns the cells keyed by
    (dt/tau, seed) with the value strings as written.
    """
    require(len(rows) == len(grid) * len(seeds) * len(METRICS),
            f"sweep.csv has {len(rows)} rows, expected {len(grid) * len(seeds) * len(METRICS)}")
    cells: dict[tuple[float, int], dict[str, str]] = {}
    for setting, seed, metric, value in rows:
        cells.setdefault((float(setting), int(seed)), {})[metric] = value
    expected = {(float(g), int(s)) for g in grid for s in seeds}
    require(set(cells) == expected, f"sweep cells {sorted(cells)} != grid {sorted(expected)}")
    for key, vals in cells.items():
        require(set(vals) == set(METRICS), f"cell {key}: metrics {sorted(vals)}")
        bad = [m for m in METRICS if not math.isfinite(float(vals[m]))]
        require(not bad, f"cell {key}: non-finite {bad} (the cell failed)")
        test = float(vals["test_rmse"])
        require(test < y_std, f"cell {key}: test RMSE {test:.4g} >= output std {y_std:.4g}")
    return cells


def check_cell_matches(row: dict[str, str], cell) -> None:
    """A serially recomputed cell equals the parallel row bit for bit."""
    require(cell.error == "", f"recomputed cell failed: {cell.error}")
    for m in METRICS:
        require(repr(float(getattr(cell, m))) == row[m],
                f"{m}: serial {getattr(cell, m)!r} != parallel {row[m]}")

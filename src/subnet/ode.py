"""Fixed-step integration of the normalized state derivative (1/tau) * f.

:func:`ode_step` is the one array Euler / classical RK4 update: it integrates
any callable ``f(x, u) -> dx`` under a zero-order-hold input, for the
state-reconstruction oracle and the model alike.  (The synthetic generator
steps its two-state ground truth with its own RK4 loop on two float locals,
which computes the same floats as this function followed by ``np.clip``,
without numpy dispatch on 2-element arrays.)  The model's
MLP derivative enters it through ``mlp_ode_step_cached``, which runs the
reference kernels and keeps every stage's activations so that
``mlp_ode_step_backward`` can differentiate the whole step exactly
(discretize-then-differentiate; no adjoints).  Rollouts without gradients
(free runs, ``simulate_subsection`` and the smoothness probe) do not call
:func:`ode_step`: they step through ``mlp_ode_step_plain`` with a
:func:`fused_step`, which folds the network's biases and bypass and the
solver's stage sums into the matmuls of a whole sample interval.  The two
agree to a few ulps per step, not bit for bit.  With ``cfg=None`` all three
take the discrete-time update ``x+ = f(x, u)`` instead (a dt-mode model).

Only the ratio dt/tau enters the update, which the stage coefficients of
both preserve bit-exactly: halving dt and halving tau produce identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFaultError, check_limits
from .nnmath import Array, MLPCache, MLPParams, mlp_backward_cached, mlp_forward_cached

_METHODS = ("euler", "rk4")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme, sub-steps per sample interval, time constant tau and sample period dt."""

    method: str = field(default="rk4", metadata={"choices": _METHODS})
    substeps: int = field(default=1, metadata={"ge": 1})
    tau: float = field(default=1.0, metadata={"gt": 0})
    dt: float = field(default=1.0, metadata={"gt": 0})

    def __post_init__(self):
        check_limits(self)


def ode_step(f, x, u, cfg: SolverConfig) -> Array:
    """Advance ``x`` by one sample interval dt under a constant (ZOH) input.

    ``f(x, u)`` is the raw state derivative; the integrated field is
    ``(1/tau) f``.  Raises :class:`NumericFaultError` with the sub-step index,
    and for a batch ``(B, n_x)`` the first non-finite row, if the state leaves
    the finite range.
    """
    x = np.asarray(x, dtype=np.float64)
    h = cfg.dt / cfg.substeps
    for i in range(cfg.substeps):
        if cfg.method == "euler":
            x = x + (h / cfg.tau) * np.asarray(f(x, u), dtype=np.float64)
        else:
            q = h / (2.0 * cfg.tau)
            k1 = np.asarray(f(x, u), dtype=np.float64)
            k2 = np.asarray(f(x + q * k1, u), dtype=np.float64)
            k3 = np.asarray(f(x + q * k2, u), dtype=np.float64)
            k4 = np.asarray(f(x + (h / cfg.tau) * k3, u), dtype=np.float64)
            x = x + (h / (6.0 * cfg.tau)) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise state_fault(x, substep=i)
    return x


def state_fault(x: Array, **context) -> NumericFaultError:
    """The error for a non-finite state; a batch also names its first bad ``row``."""
    if x.ndim == 2:
        context["row"] = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
    return NumericFaultError("non-finite state during integration", **context)


# --------------------------------------------------------------------------
# differentiable stepping for an MLP state derivative f([x; u])
# --------------------------------------------------------------------------


def fused_step(f_net: MLPParams, n_x: int, rows: int, cfg: SolverConfig | None):
    """``step(x, u)``: a whole no-gradient update of the ``(rows, n_x)`` state ``x``.

    With a :class:`SolverConfig` the step is :func:`ode_step` of
    ``f = mlp_forward(f_net, [x | u])``, all sub-steps included; with ``None``
    it is the discrete-time update ``x+ = f(x, u)``.  Each bias, the bypass
    and the solver's stage combinations are folded into the matmuls.  Every
    stage ``s`` of a sub-step keeps one buffer row ``[a | x_s | u | 1 | x0]``:
    ``a`` the last hidden layer's output, ``x_s`` the stage's state input and
    ``x0`` the state at the start of the sub-step.  A hidden layer is one
    ``np.dot`` of its input with ``[W_i.T; b_i]`` and ``np.tanh(..., out=)``
    into the next buffer (the first reads the row's ``[x_s | u | 1]``).
    ``f`` of a row is the row times ``M = [W_L.T; bypass; b_L; 0]`` (without
    hidden layers ``[W_L.T + bypass; b_L; 0]``), and ``E`` picks its ``x0``.
    So stage ``s + 1``'s input is one matmul of row ``s`` with
    ``c_s (h/tau) M + E``, written into row ``s + 1``, and the new state one
    matmul of all rows with ``[b_1 (h/tau) M + E; b_2 (h/tau) M; ...]``.
    Every coefficient is built from the one ratio h/tau, so halving dt and
    tau still gives identical floats.  The result sums the products of
    :func:`ode_step` in another order and differs from it by a few ulps.

    ``step`` writes ``u`` once per call, never writes its arguments and
    returns a new array.  It raises :class:`NumericFaultError` as
    :func:`ode_step` does (naming the sub-step in ct mode) when a sub-step
    leaves the finite range.  The matrices are copies: a change to
    ``f_net.values`` after this call does not reach ``step``, so build it
    again for every rollout.
    """
    n_in = f_net.input_dim
    hidden = [np.vstack([w.T, b]) for w, b in zip(f_net.weights[:-1], f_net.biases[:-1])]
    w_out = f_net.weights[-1].T
    bypass = np.zeros((n_in, n_x)) if f_net.bypass is None else f_net.bypass
    x0_rows = np.zeros((n_x, n_x))
    if hidden:
        M = np.vstack([w_out, bypass, f_net.biases[-1], x0_rows])
    else:
        M = np.vstack([w_out + bypass, f_net.biases[-1], x0_rows])
    width = M.shape[0] - n_in - 1 - n_x
    E = np.zeros_like(M)
    E[-n_x:] = np.eye(n_x)
    if cfg is None:
        substeps, stage_mats, out_mat = 1, [], M
    else:
        r = cfg.dt / cfg.substeps / cfg.tau
        c, b = ((), (r,)) if cfg.method == "euler" else (
            (r / 2.0, r / 2.0, r), (r / 6.0, r / 3.0, r / 3.0, r / 6.0))
        substeps, stage_mats = cfg.substeps, [ci * M + E for ci in c]
        out_mat = np.vstack([b[0] * M + E] + [bi * M for bi in b[1:]])
    n_stages, n_row = len(stage_mats) + 1, M.shape[0]
    z = np.zeros((rows, n_stages * n_row))
    stages = z.reshape(rows, n_stages, n_row)
    stages[:, :, width + n_in] = 1.0
    x_slots = [stages[:, s, width:width + n_x] for s in range(n_stages)]
    # (stages, rows, n) views, so that one assignment broadcasts a (rows, n) array
    u_slots = stages[:, :, width + n_x:width + n_in].transpose(1, 0, 2)
    x0_slots = stages[:, :, -n_x:].transpose(1, 0, 2)
    mids = [np.ones((rows, w.shape[1] + 1)) for w in hidden[:-1]]
    layers = [list(zip([stages[:, s, width:width + n_in + 1]] + mids, hidden,
                       [m[:, :-1] for m in mids] + [stages[:, s, :width]]))
              for s in range(n_stages)]
    # np.dot is cheaper to dispatch than np.matmul (same bits) but rejects the
    # strided out= of a buffer with more than one row
    mul = np.dot if rows == 1 else np.matmul
    feeds = list(zip(layers, [stages[:, s] for s in range(n_stages - 1)], stage_mats,
                     x_slots[1:]))
    x_first, last, n_out = x_slots[0], layers[-1], rows * n_x
    dot, tanh = np.dot, np.tanh  # closure cells: cheaper to look up than module attributes

    def step(x: Array, u: Array) -> Array:
        u_slots[...] = u
        for i in range(substeps):
            x_first[...] = x
            x0_slots[...] = x
            for stage_layers, row, mat, x_next in feeds:
                for a, w, out in stage_layers:
                    tanh(dot(a, w), out=out)
                mul(row, mat, out=x_next)
            for a, w, out in last:
                tanh(dot(a, w), out=out)
            x = dot(z, out_mat)
            if np.count_nonzero(np.isfinite(x)) < n_out:  # cheaper than .all()
                raise state_fault(x) if cfg is None else state_fault(x, substep=i)
        return x
    return step


def mlp_ode_step_plain(step, x: Array, u: Array) -> Array:
    """One no-gradient step of a rollout: ``step(x, u)``.

    ``step`` is the rollout's :func:`fused_step`, built once for the
    ``(B, n_x)`` batch ``x``; this wrapper is the boundary that the benchmark
    times, crossed once per sample interval in ct and dt mode alike.
    """
    return step(x, u)


def mlp_ode_step_cached(
    f_net: MLPParams, x: Array, u: Array, cfg: SolverConfig | None
) -> tuple[Array, list[MLPCache]]:
    """Batched :func:`ode_step` for an MLP derivative, caching every stage evaluation.

    ``x`` is ``(B, n_x)`` and ``u`` is ``(B, n_u)``.  The caches come back in
    stage order: one per sub-step for Euler, four for RK4; one for ``cfg=None``,
    the discrete-time update ``x+ = f(x, u)``, which checks finiteness as well.
    """
    caches: list[MLPCache] = []

    def f(x: Array, u: Array) -> Array:
        y, cache = mlp_forward_cached(f_net, np.concatenate([x, u], axis=1))
        caches.append(cache)
        return y
    x = f(x, u) if cfg is None else ode_step(f, x, u, cfg)
    if cfg is None and not np.isfinite(x).all():
        raise state_fault(x)
    return x, caches


def _stage_backward(f_net, cache, g_k, n_x, acc) -> Array:
    """VJP of one stage; returns the gradient w.r.t. the stage's state input."""
    gz = mlp_backward_cached(f_net, cache, g_k, acc)
    return gz[:, :n_x]


def mlp_ode_step_backward(
    f_net: MLPParams, caches: list[MLPCache], g_next: Array, n_x: int,
    cfg: SolverConfig | None, acc: MLPParams,
) -> Array:
    """Reverse-mode pass through one :func:`mlp_ode_step_cached` step (``cfg=None``: dt mode).

    ``g_next`` is dL/d(x after the step); returns dL/d(x before the step).
    Parameter gradients accumulate into the views of ``acc``.
    """
    if cfg is None:
        return _stage_backward(f_net, caches[0], g_next, n_x, acc)
    h = cfg.dt / cfg.substeps
    n_stages = 1 if cfg.method == "euler" else 4
    g = g_next
    for s in range(len(caches) - n_stages, -1, -n_stages):
        if cfg.method == "euler":
            dx1 = _stage_backward(f_net, caches[s], (h / cfg.tau) * g, n_x, acc)
            g = g + dx1
        else:
            c1, c2, c3, c4 = caches[s:s + 4]
            q = h / (2.0 * cfg.tau)
            r = h / (6.0 * cfg.tau)
            gx = g.copy()
            dx4 = _stage_backward(f_net, c4, r * g, n_x, acc)
            gx += dx4
            dx3 = _stage_backward(f_net, c3, 2.0 * r * g + (h / cfg.tau) * dx4, n_x, acc)
            gx += dx3
            dx2 = _stage_backward(f_net, c2, 2.0 * r * g + q * dx3, n_x, acc)
            gx += dx2
            dx1 = _stage_backward(f_net, c1, r * g + q * dx2, n_x, acc)
            gx += dx1
            g = gx
    return g

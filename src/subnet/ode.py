"""Fixed-step integration of the normalized state derivative (1/tau) * f.

:func:`ode_step` is the one array Euler / classical RK4 update: it integrates
any callable ``f(x, u) -> dx`` under a zero-order-hold input, for the
state-reconstruction oracle and the model alike.  (The synthetic generator
steps its two-state ground truth with its own RK4 loop on two float locals,
which computes the same floats as this function followed by ``np.clip``,
without numpy dispatch on 2-element arrays.)  The model's
MLP derivative enters it through ``mlp_ode_step_plain`` (rollouts without
gradients: free runs, ``simulate_subsection`` and the smoothness probe),
which steps the rollout's :func:`~subnet.nnmath.folded_forward` of ``f``,
and ``mlp_ode_step_cached``, which runs the reference kernels and keeps every
stage's activations so that ``mlp_ode_step_backward`` can differentiate the
whole step exactly (discretize-then-differentiate; no adjoints).  The two
agree to a few ulps per step, not bit for bit.

Only the ratio dt/tau enters the update, which the stage coefficients below
preserve bit-exactly: halving dt and halving tau produce identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFaultError
from .nnmath import Array, MLPCache, MLPParams, mlp_backward_cached, mlp_forward_cached

_METHODS = ("euler", "rk4")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme, sub-steps per sample interval, time constant tau and sample period dt."""

    method: str = "rk4"
    substeps: int = 1
    tau: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidArgumentError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.substeps < 1:
            raise InvalidArgumentError("substeps must be >= 1")
        if not (self.tau > 0 and self.dt > 0):
            raise InvalidArgumentError("tau and dt must be positive")


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


def mlp_ode_step_plain(f, x: Array, u: Array, cfg: SolverConfig) -> Array:
    """One no-gradient step of a rollout: :func:`ode_step` of ``f``.

    ``f`` is the rollout's :func:`~subnet.nnmath.folded_forward` of the
    model's derivative network, built once for the ``(B, n_x)`` batch ``x``.
    """
    return ode_step(f, x, u, cfg)


def mlp_ode_step_cached(
    f_net: MLPParams, x: Array, u: Array, cfg: SolverConfig
) -> tuple[Array, list[MLPCache]]:
    """Batched :func:`ode_step` for an MLP derivative, caching every stage evaluation.

    ``x`` is ``(B, n_x)`` and ``u`` is ``(B, n_u)``.  The caches come back in
    stage order: one per sub-step for Euler, four for RK4.
    """
    caches: list[MLPCache] = []

    def f(x: Array, u: Array) -> Array:
        y, cache = mlp_forward_cached(f_net, np.concatenate([x, u], axis=1))
        caches.append(cache)
        return y
    return ode_step(f, x, u, cfg), caches


def _stage_backward(f_net, cache, g_k, n_x, acc) -> Array:
    """VJP of one stage; returns the gradient w.r.t. the stage's state input."""
    gz = mlp_backward_cached(f_net, cache, g_k, acc)
    return gz[:, :n_x]


def mlp_ode_step_backward(
    f_net: MLPParams, caches: list[MLPCache], g_next: Array, n_x: int, cfg: SolverConfig,
    acc: MLPParams,
) -> Array:
    """Reverse-mode pass through one cached ode step.

    ``g_next`` is dL/d(x after the step); returns dL/d(x before the step).
    Parameter gradients accumulate into the views of ``acc``.
    """
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

"""Fixed-step integration of the normalized state derivative (1/tau) * f.

Two layers live here:

* :func:`ode_step` / :func:`rollout` integrate an arbitrary callable
  ``f(x, u) -> dx`` with Euler or classical RK4 under a zero-order-hold
  input.  Used by the synthetic generator and for plain simulation.
* ``mlp_ode_step_cached`` / ``mlp_ode_step_backward`` are the same schemes
  specialized to an MLP state derivative, keeping the stage activations so
  the whole step can be differentiated exactly (discretize-then-differentiate;
  no adjoints).

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
    ``(1/tau) f``.  Raises :class:`NumericFaultError` with the sub-step index
    if the state leaves the finite range.
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
            raise NumericFaultError("non-finite state during integration", substep=i)
    return x


def rollout(f, x0, u_seq, cfg: SolverConfig) -> list[Array]:
    """Apply :func:`ode_step` once per input sample; returns len(u_seq)+1 states."""
    x = np.asarray(x0, dtype=np.float64)
    states = [x]
    for k, u in enumerate(u_seq):
        if not np.isfinite(np.asarray(u, dtype=np.float64)).all():
            raise InvalidArgumentError(f"non-finite input at step {k}")
        try:
            x = ode_step(f, x, u, cfg)
        except NumericFaultError as e:
            raise NumericFaultError("rollout failed", step=k, **e.context) from e
        states.append(x)
    return states


# --------------------------------------------------------------------------
# differentiable stepping for an MLP state derivative f([x; u])
# --------------------------------------------------------------------------

# per sub-step: list of (stage cache, stage upstream coefficient structure)
StepCache = list[list[MLPCache]]


def _f_eval(f_net: MLPParams, x: Array, u: Array) -> tuple[Array, MLPCache]:
    z = np.concatenate([x, u], axis=1)
    return mlp_forward_cached(f_net, z)


def mlp_ode_step_plain(f_net: MLPParams, x: Array, u: Array, cfg: SolverConfig) -> Array:
    """Batched ode_step for an MLP derivative without gradient caches."""
    h = cfg.dt / cfg.substeps
    for _ in range(cfg.substeps):
        if cfg.method == "euler":
            x = x + (h / cfg.tau) * _f_eval(f_net, x, u)[0]
        else:
            q = h / (2.0 * cfg.tau)
            k1 = _f_eval(f_net, x, u)[0]
            k2 = _f_eval(f_net, x + q * k1, u)[0]
            k3 = _f_eval(f_net, x + q * k2, u)[0]
            k4 = _f_eval(f_net, x + (h / cfg.tau) * k3, u)[0]
            x = x + (h / (6.0 * cfg.tau)) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def mlp_ode_step_cached(
    f_net: MLPParams, x: Array, u: Array, cfg: SolverConfig
) -> tuple[Array, StepCache]:
    """Batched ode_step for an MLP derivative, caching every stage evaluation.

    ``x`` is ``(B, n_x)`` and ``u`` is ``(B, n_u)``.
    """
    h = cfg.dt / cfg.substeps
    caches: StepCache = []
    for i in range(cfg.substeps):
        if cfg.method == "euler":
            k1, c1 = _f_eval(f_net, x, u)
            x = x + (h / cfg.tau) * k1
            caches.append([c1])
        else:
            q = h / (2.0 * cfg.tau)
            k1, c1 = _f_eval(f_net, x, u)
            k2, c2 = _f_eval(f_net, x + q * k1, u)
            k3, c3 = _f_eval(f_net, x + q * k2, u)
            k4, c4 = _f_eval(f_net, x + (h / cfg.tau) * k3, u)
            x = x + (h / (6.0 * cfg.tau)) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            caches.append([c1, c2, c3, c4])
        if not np.isfinite(x).all():
            raise NumericFaultError("non-finite state during integration", substep=i)
    return x, caches


def _stage_backward(f_net, cache, g_k, n_x, acc) -> Array:
    """VJP of one stage; returns the gradient w.r.t. the stage's state input."""
    gz = mlp_backward_cached(f_net, cache, g_k, acc)
    return gz[:, :n_x]


def mlp_ode_step_backward(
    f_net: MLPParams, caches: StepCache, g_next: Array, n_x: int, cfg: SolverConfig,
    acc: MLPParams,
) -> Array:
    """Reverse-mode pass through one cached ode step.

    ``g_next`` is dL/d(x after the step); returns dL/d(x before the step).
    Parameter gradients accumulate into the views of ``acc``.
    """
    h = cfg.dt / cfg.substeps
    g = g_next
    for stages in reversed(caches):
        if cfg.method == "euler":
            (c1,) = stages
            dx1 = _stage_backward(f_net, c1, (h / cfg.tau) * g, n_x, acc)
            g = g + dx1
        else:
            c1, c2, c3, c4 = stages
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

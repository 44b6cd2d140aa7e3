"""The subspace-encoder state-space model: a state derivative network f,
an output network h and an encoder network psi that maps a window of past
inputs/outputs to the initial state of a subsection.

All model-internal computation runs on z-scored signals (the model's
``norm`` stats); conversion back to physical units happens only at the
evaluation boundary (:func:`simulate_free_run`).

Encoder window layout (pinned so serialized models are portable): most
recent sample first, channels contiguous within a sample, inputs before
outputs: ``[u_{n-1}, ..., u_{n-n_b}, y_{n-1}, ..., y_{n-n_a}]``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, NormStats, denormalize_y, normalize_dataset
from .errors import InvalidArgumentError, NumericFaultError
from .nnmath import (
    Array,
    FlatParams,
    Layout,
    MLPParams,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
)
from .ode import SolverConfig, mlp_ode_step_backward, mlp_ode_step_cached, mlp_ode_step_plain

_NETS = ("f", "h", "psi")


@dataclass(frozen=True)
class SubnetModel:
    """The three networks plus solver and normalization.  All parameters live in
    one new vector ``values`` (f | h | psi); the networks are views into it."""

    f_net: MLPParams
    h_net: MLPParams
    psi_net: MLPParams
    solver: SolverConfig
    n_x: int
    n_u: int
    n_y: int
    n_a: int
    n_b: int
    norm: NormStats
    mode: str = "ct"
    values: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("ct", "dt"):
            raise InvalidArgumentError("mode must be 'ct' or 'dt'")
        if min(self.n_x, self.n_u, self.n_y) < 1 or min(self.n_a, self.n_b) < 0:
            raise InvalidArgumentError("dimensions must be positive (lags nonnegative)")
        if self.n_a * self.n_y < self.n_x and not (self.n_a == 0 and self.n_b == 0):
            raise InvalidArgumentError(
                f"encoder cannot exist: n_a*n_y = {self.n_a * self.n_y} < n_x = {self.n_x}"
            )
        expect = {
            "f_net": (self.n_x + self.n_u, self.n_x),
            "h_net": (self.n_x, self.n_y),
            "psi_net": (self.n_b * self.n_u + self.n_a * self.n_y, self.n_x),
        }
        for name, (din, dout) in expect.items():
            net: MLPParams = getattr(self, name)
            if (net.input_dim, net.output_dim) != (din, dout):
                raise InvalidArgumentError(
                    f"{name} must map {din} -> {dout}, got {net.input_dim} -> {net.output_dim}"
                )
        if (len(self.norm.u_mean), len(self.norm.y_mean)) != (self.n_u, self.n_y):
            raise InvalidArgumentError("normalization stats do not match channel counts")
        _bind(self, np.concatenate([self.f_net.values, self.h_net.values, self.psi_net.values]))

    @property
    def lag(self) -> int:
        return max(self.n_a, self.n_b)

    @property
    def segments(self) -> dict[str, slice]:
        """Slices of ``values`` holding the f, h and psi networks."""
        nf, nh = self.f_net.n_params, self.h_net.n_params
        return {"f": slice(0, nf), "h": slice(nf, nf + nh), "psi": slice(nf + nh, self.values.size)}

    @cached_property
    def layout(self) -> Layout:
        """Segment names (prefixed 'f.', 'h.', 'psi.') and shapes of ``values``."""
        return tuple((f"{prefix}.{name}", shape)
                     for prefix, net in zip(_NETS, (self.f_net, self.h_net, self.psi_net))
                     for name, shape in net.layout)


def _net_views(m: SubnetModel, values: Array) -> tuple[MLPParams, MLPParams, MLPParams]:
    """``m``'s f, h and psi networks as views into ``values``; no copy, no checks."""
    return tuple(MLPParams.over(values[sl], net.layout)
                 for sl, net in zip(m.segments.values(), (m.f_net, m.h_net, m.psi_net)))


def _bind(m: SubnetModel, values: Array) -> None:
    object.__setattr__(m, "values", values)
    for name, net in zip(_NETS, _net_views(m, values)):
        object.__setattr__(m, f"{name}_net", net)


def init_model(
    n_x: int, n_u: int, n_y: int, n_a: int, n_b: int,
    solver: SolverConfig, norm: NormStats,
    mode: str = "ct", hidden: tuple[int, ...] = (64, 64), seed: int = 0,
) -> SubnetModel:
    """Fresh model with tanh MLPs plus linear bypass for f, h and psi.

    The three networks get independent streams spawned from one seed, so a
    single integer fully determines the initialization.  Degenerate
    encoders (n_a = n_b = 0) cannot be built here; construct the constant
    psi network directly.
    """
    rng_f, rng_h, rng_psi = [np.random.default_rng(s)
                             for s in np.random.SeedSequence(seed).spawn(3)]
    f_net = mlp_init([n_x + n_u, *hidden, n_x], True, rng_f)
    h_net = mlp_init([n_x, *hidden, n_y], True, rng_h)
    psi_net = mlp_init([n_b * n_u + n_a * n_y, *hidden, n_x], True, rng_psi)
    return SubnetModel(f_net, h_net, psi_net, solver, n_x, n_u, n_y, n_a, n_b, norm, mode)


def constant_psi(n_x: int, x0) -> MLPParams:
    """Zero-input encoder whose output is the fixed vector x0 (free initial state)."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n_x,):
        raise InvalidArgumentError(f"x0 must have shape ({n_x},)")
    return MLPParams((np.zeros((n_x, 0)),), (x0.copy(),), None)


# --------------------------------------------------------------------------
# encoder windows
# --------------------------------------------------------------------------


def encoder_window(ds: Dataset, n: int, n_a: int, n_b: int) -> Array:
    """Past-window vector [u_{n-1}..u_{n-n_b}, y_{n-1}..y_{n-n_a}] from raw data."""
    if min(n_a, n_b) < 0:
        raise InvalidArgumentError("window lengths must be nonnegative")
    if not (max(n_a, n_b) <= n <= ds.n):
        raise InvalidArgumentError(
            f"start index {n} outside [{max(n_a, n_b)}, {ds.n}] (window would precede the data)"
        )
    return _windows(ds.u, ds.y, np.array([n]), n_a, n_b)[0]


def _windows(u: Array, y: Array, ns: Array, n_a: int, n_b: int) -> Array:
    """Batched window assembly; ns is an integer array of start indices."""
    parts = []
    if n_b > 0:
        idx = ns[:, None] - np.arange(1, n_b + 1)[None, :]
        parts.append(u[idx].reshape(len(ns), -1))
    if n_a > 0:
        idx = ns[:, None] - np.arange(1, n_a + 1)[None, :]
        parts.append(y[idx].reshape(len(ns), -1))
    if not parts:
        return np.zeros((len(ns), 0))
    return np.concatenate(parts, axis=1)


def encode(m: SubnetModel, window) -> Array:
    """Initial state estimate psi(window); accepts one window or a batch."""
    return mlp_forward(m.psi_net, window)


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsectionResult:
    """One simulated subsection, in normalized units.

    ``states[0]`` is the encoder output; ``outputs[k] = h(states[k])`` for
    k < T, so there is one more state than outputs.
    """

    start: int
    states: Array   # (T+1, n_x)
    outputs: Array  # (T, n_y)


@dataclass(frozen=True)
class EvalTrace:
    """Free-run simulation aligned with measurements, in physical units."""

    start: int
    y_pred: Array   # (M, n_y), denormalized
    y_meas: Array   # (M, n_y), as measured
    states: Array   # (M+1, n_x), normalized model states
    dt: float


def _step_cached(m: SubnetModel, x: Array, u: Array):
    if m.mode == "ct":
        return mlp_ode_step_cached(m.f_net, x, u, m.solver)
    return mlp_forward_cached(m.f_net, np.concatenate([x, u], axis=1))


def _step_plain(m: SubnetModel, x: Array, u: Array) -> Array:
    if m.mode == "ct":
        return mlp_ode_step_plain(m.f_net, x, u, m.solver)
    return mlp_forward_cached(m.f_net, np.concatenate([x, u], axis=1))[0]


def _step_backward(m: SubnetModel, cache, g_next: Array, acc: MLPParams) -> Array:
    if m.mode == "ct":
        return mlp_ode_step_backward(m.f_net, cache, g_next, m.n_x, m.solver, acc)
    return mlp_backward_cached(m.f_net, cache, g_next, acc)[:, :m.n_x]


def _sim_forward_plain(m: SubnetModel, x0: Array, u_steps: Array, ns=None):
    """Cache-free variant of :func:`_sim_forward_cached`; memory O(B*T)."""
    B, T = u_steps.shape[0], u_steps.shape[1]
    states = np.empty((B, T + 1, m.n_x))
    outputs = np.empty((B, T, m.n_y))
    x = x0
    for k in range(T):
        states[:, k] = x
        outputs[:, k] = mlp_forward_cached(m.h_net, x)[0]
        x = _step_plain(m, x, u_steps[:, k])
        if not np.isfinite(x).all():
            bad_rows = np.nonzero(~np.isfinite(x).all(axis=1))[0]
            ctx = {"step": k}
            if ns is not None and bad_rows.size:
                ctx["start"] = int(np.asarray(ns)[bad_rows[0]])
            raise NumericFaultError("non-finite state in subsection rollout", **ctx)
    states[:, T] = x
    return states, outputs


def _sim_forward_cached(m: SubnetModel, x0: Array, u_steps: Array, ns=None):
    """Batched subsection rollout with caches for the reverse pass.

    x0: (B, n_x) initial states; u_steps: (B, T, n_u) normalized inputs.
    Returns (states (B, T+1, n_x), outputs (B, T, n_y), h_caches, step_caches).
    """
    B, T = u_steps.shape[0], u_steps.shape[1]
    states = np.empty((B, T + 1, m.n_x))
    outputs = np.empty((B, T, m.n_y))
    h_caches, step_caches = [], []
    x = x0
    for k in range(T):
        states[:, k] = x
        yk, hc = mlp_forward_cached(m.h_net, x)
        outputs[:, k] = yk
        h_caches.append(hc)
        x, sc = _step_cached(m, x, u_steps[:, k])
        step_caches.append(sc)
        if not np.isfinite(x).all():
            bad_rows = np.nonzero(~np.isfinite(x).all(axis=1))[0]
            ctx = {"step": k}
            if ns is not None and bad_rows.size:
                ctx["start"] = int(np.asarray(ns)[bad_rows[0]])
            raise NumericFaultError("non-finite state in subsection rollout", **ctx)
    states[:, T] = x
    return states, outputs, h_caches, step_caches


def _sim_backward(m: SubnetModel, h_caches, step_caches, g_outputs: Array,
                  f_acc: MLPParams, h_acc: MLPParams) -> Array:
    """Reverse pass; adds the f and h grads into the accumulators, returns dL/dx0."""
    T = g_outputs.shape[1]
    g_x = None
    for k in range(T - 1, -1, -1):
        if g_x is not None:
            g_x = _step_backward(m, step_caches[k], g_x, f_acc)
        g_h = mlp_backward_cached(m.h_net, h_caches[k], g_outputs[:, k], h_acc)
        g_x = g_h if g_x is None else g_x + g_h
    if g_x is None:  # T == 0
        B = 1 if not h_caches else h_caches[0][0].shape[0]
        g_x = np.zeros((B, m.n_x))
    return g_x


def simulate_subsection(m: SubnetModel, ds: Dataset, n: int, T: int) -> SubsectionResult:
    """Simulate one length-T subsection from the encoder-estimated state."""
    if T < 0 or not (m.lag <= n <= ds.n - T):
        raise InvalidArgumentError(f"need {m.lag} <= n <= N-T = {ds.n - T}, got n={n}, T={T}")
    _check_channels(m, ds)
    dsn = normalize_dataset(ds, m.norm)
    win = _windows(dsn.u, dsn.y, np.array([n]), m.n_a, m.n_b)
    x0, _ = mlp_forward_cached(m.psi_net, win)
    u_steps = dsn.u[n:n + T][None, :, :]
    try:
        states, outputs = _sim_forward_plain(m, x0, u_steps, ns=[n])
    except NumericFaultError as e:
        ctx = dict(e.context)
        ctx.setdefault("start", n)
        raise NumericFaultError("subsection simulation failed", **ctx) from e
    return SubsectionResult(n, states[0], outputs[0])


def simulate_free_run(m: SubnetModel, ds: Dataset) -> EvalTrace:
    """One subsection spanning the whole record: n = lag, T = N - lag.

    Outputs come back in physical units next to the measured outputs.
    """
    if ds.n <= m.lag:
        raise InvalidArgumentError(f"dataset too short for encoder lag {m.lag}")
    res = simulate_subsection(m, ds, m.lag, ds.n - m.lag)
    y_pred = denormalize_y(res.outputs, m.norm)
    return EvalTrace(res.start, y_pred, ds.y[m.lag:], res.states, ds.dt)


def dt_step(m: SubnetModel, x, u) -> Array:
    """Discrete-time state update x+ = f(x, u); no integration, no tau."""
    if m.mode != "dt":
        raise InvalidArgumentError("dt_step requires a model in 'dt' mode")
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape[-1] != m.n_x or u.shape[-1] != m.n_u:
        raise InvalidArgumentError("state/input dimensions do not match the model")
    return mlp_forward(m.f_net, np.concatenate([x, u], axis=-1))


def _check_channels(m: SubnetModel, ds: Dataset) -> None:
    if (ds.n_u, ds.n_y) != (m.n_u, m.n_y):
        raise InvalidArgumentError(
            f"dataset channels ({ds.n_u}, {ds.n_y}) do not match model ({m.n_u}, {m.n_y})"
        )


# --------------------------------------------------------------------------
# parameter vector view
# --------------------------------------------------------------------------


def model_flatten(m: SubnetModel) -> FlatParams:
    """Owned copy of the parameter vector (f | h | psi), segment names prefixed."""
    return FlatParams(m.values.copy(), m.layout)


def model_with_values(m: SubnetModel, values: Array) -> SubnetModel:
    """New model with ``m``'s structure over a copy of a flat vector."""
    values = np.array(values, dtype=np.float64)
    if values.shape != m.values.shape:
        raise InvalidArgumentError("flat vector length does not match the model")
    if not np.isfinite(values).all():
        raise InvalidArgumentError("non-finite parameter entries")
    out = copy.copy(m)
    _bind(out, values)
    return out

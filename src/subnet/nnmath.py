"""Dense tanh feedforward networks with exact reverse-mode gradients and Adam.

Everything is plain float64 numpy.  A network's parameters live in one flat
vector (``MLPParams.values``); its weights, biases and bypass are reshaped
views into it, and a gradient accumulator is the same views over a zeroed
vector.  Forward/backward write only into the accumulator.  :func:`adam_step`
updates a vector in place: ``training.train`` updates its own live model that
way and writes no other model.  Functions accept a single input vector
``(n,)`` or a batch ``(B, n)`` and return matching shapes.

Weight convention: layer ``i`` computes ``a @ W_i.T + b_i`` with ``W_i`` of
shape ``(fan_out, fan_in)``.  The optional linear bypass has shape
``(input_dim, output_dim)`` and adds ``x @ bypass`` to the final output.
Flattened layout order is ``W0, b0, W1, b1, ..., bypass``, each ravelled
row-major.

The forward kernel also runs at batch 1 (a free run's encoder), where
numpy's per-call dispatch costs more than the arithmetic.  They compute exactly the
floats of the textbook ``@`` form above, but call ``np.dot`` (cheaper to
dispatch than ``@``, same bits), ``np.add.reduce`` instead of ``sum``, and
apply the bias add, tanh and bypass add in place on the product just
computed.  They never write into their inputs ``x`` and ``gy`` or into a
cache, which the backward pass reads after the forward pass returns.  These
kernels are the reference arithmetic, and training uses only them.

Rollouts without gradients do not call these kernels for the state
derivative: :func:`~subnet.ode.fused_step` folds the same weights, with each
bias, the bypass and the solver's stage sums, into fewer and larger matmuls,
whose outputs differ from the kernels' by a few ulps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericFaultError

Array = np.ndarray
# (name, shape) of each segment of a flat vector, in order
Layout = tuple[tuple[str, tuple[int, ...]], ...]


# --------------------------------------------------------------------------
# parameter containers
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def mlp_layout(layer_sizes: tuple[int, ...], with_bypass: bool) -> Layout:
    """Segments of an MLP's flat vector: W0, b0, W1, b1, ..., bypass."""
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        layout += [(f"W{i}", (fan_out, fan_in)), (f"b{i}", (fan_out,))]
    if with_bypass:
        layout.append(("bypass", (layer_sizes[0], layer_sizes[-1])))
    return tuple(layout)


@dataclass(frozen=True)
class MLPParams:
    """Weights of one tanh MLP, optionally with a linear input->output bypass.

    The constructor checks the arrays, copies them into one new vector
    ``values`` and keeps reshaped views into it.  :meth:`over` builds the
    same views over an existing vector without copying or checking.
    """

    weights: tuple[Array, ...]
    biases: tuple[Array, ...]
    bypass: Array | None = None
    values: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) == 0 or len(self.weights) != len(self.biases):
            raise InvalidArgumentError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise InvalidArgumentError(f"layer {i}: weight/bias shapes do not compose")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise InvalidArgumentError(f"layer {i}: fan_in does not match previous fan_out")
        arrays = [a for wb in zip(self.weights, self.biases) for a in wb]
        if self.bypass is not None:
            if self.bypass.shape != (self.input_dim, self.output_dim):
                raise InvalidArgumentError(
                    f"bypass must be (input_dim, output_dim)=({self.input_dim}, {self.output_dim}),"
                    f" got {self.bypass.shape}"
                )
            arrays.append(self.bypass)
        values = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        if not np.isfinite(values).all():
            raise InvalidArgumentError("non-finite parameter entries")
        self._bind(values, self.layout)

    @classmethod
    def over(cls, values: Array, layout: Layout) -> "MLPParams":
        """Views into ``values`` laid out as ``layout``; no copy, no checks."""
        p = cls.__new__(cls)
        p._bind(values, layout)
        return p

    def _bind(self, values: Array, layout: Layout) -> None:
        segs, off = [], 0
        for _, shape in layout:
            n = math.prod(shape)
            segs.append(values[off:off + n].reshape(shape))
            off += n
        n_layers = len(layout) // 2
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", tuple(segs[0:2 * n_layers:2]))
        object.__setattr__(self, "biases", tuple(segs[1:2 * n_layers:2]))
        object.__setattr__(self, "bypass", segs[-1] if len(layout) % 2 else None)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def layout(self) -> Layout:
        return mlp_layout(tuple(self.layer_sizes), self.bypass is not None)

    @property
    def n_params(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FlatParams:
    """A parameter vector plus its layout (segment names and shapes, in order)."""

    values: Array
    layout: Layout

    def with_values(self, values: Array) -> "FlatParams":
        return FlatParams(np.asarray(values, dtype=np.float64), self.layout)


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def mlp_init(
    layer_sizes: list[int],
    with_bypass: bool,
    rng_seed: int | np.random.Generator,
) -> MLPParams:
    """Xavier-uniform weights, zero biases; deterministic given the seed.

    ``rng_seed`` may be an integer (a fresh PCG64 generator is created) or an
    already-seeded ``numpy`` Generator, so callers can derive several networks
    from one seed sequence.
    """
    if len(layer_sizes) < 2 or any(int(s) < 1 for s in layer_sizes):
        raise InvalidArgumentError(f"layer_sizes must have >= 2 positive entries, got {layer_sizes}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    bypass = None
    if with_bypass:
        n_in, n_out = layer_sizes[0], layer_sizes[-1]
        limit = np.sqrt(6.0 / (n_in + n_out))
        bypass = rng.uniform(-limit, limit, size=(n_in, n_out))
    return MLPParams(tuple(weights), tuple(biases), bypass)


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

# cache layout: (input batch, [tanh outputs per hidden layer])
MLPCache = tuple[Array, list[Array]]


def _as_batch(x, dim: int, what: str) -> tuple[Array, bool]:
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise InvalidArgumentError(f"{what} must have {dim} entries, got shape {np.shape(x)}")
    return a, single


def mlp_forward_cached(p: MLPParams, x: Array) -> tuple[Array, MLPCache]:
    """Batched forward pass keeping the activations needed for backprop."""
    a = x
    hidden = []
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        a = np.dot(a, w.T)
        a += b
        np.tanh(a, out=a)
        hidden.append(a)
    y = np.dot(a, p.weights[-1].T)
    y += p.biases[-1]
    if p.bypass is not None:
        y += np.dot(x, p.bypass)
    return y, (x, hidden)


def mlp_backward_cached(p: MLPParams, cache: MLPCache, gy: Array, acc: MLPParams) -> Array:
    """Reverse pass from a cached forward; adds the parameter grads into ``acc``'s views.

    Returns the gradient with respect to the input batch.  Parameter
    gradients are summed over the batch dimension.
    """
    x, hidden = cache
    acts = [x] + hidden
    g = gy
    for i in range(len(hidden), -1, -1):
        if i < len(hidden):
            d = hidden[i] * hidden[i]
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        w_acc, b_acc = acc.weights[i], acc.biases[i]
        w_acc += np.dot(g.T, acts[i])
        b_acc += np.add.reduce(g, axis=0)
        g = np.dot(g, p.weights[i])
    if p.bypass is not None:
        g_bypass = acc.bypass
        g_bypass += np.dot(x.T, gy)
        g += np.dot(gy, p.bypass.T)
    return g


def mlp_forward(p: MLPParams, x) -> Array:
    """y = W_L tanh(... tanh(W_1 x + b_1) ...) + b_L  (+ bypass^T x)."""
    a, single = _as_batch(x, p.input_dim, "input")
    y, _ = mlp_forward_cached(p, a)
    return y[0] if single else y


def mlp_backward(p: MLPParams, x, upstream_grad) -> tuple[Array, FlatParams]:
    """Exact VJP of :func:`mlp_forward`.

    Returns the gradient of ``upstream_grad . output`` with respect to the
    input and, flattened, with respect to every parameter.
    """
    a, single = _as_batch(x, p.input_dim, "input")
    g, gsingle = _as_batch(upstream_grad, p.output_dim, "upstream_grad")
    if a.shape[0] != g.shape[0]:
        raise InvalidArgumentError("input and upstream_grad batch sizes differ")
    _, cache = mlp_forward_cached(p, a)
    grad = np.zeros_like(p.values)
    gx = mlp_backward_cached(p, cache, g, MLPParams.over(grad, p.layout))
    return (gx[0] if single and gsingle else gx), FlatParams(grad, p.layout)


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment state of the Adam optimizer (bias-corrected form).

    :func:`adam_step` updates ``m``, ``v`` and ``step`` in place.
    """

    m: Array
    v: Array
    step: int
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.m.shape != self.v.shape or self.step < 0:
            raise InvalidArgumentError("moment vectors must match and step must be >= 0")
        if min(self.lr, self.eps) <= 0 or not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InvalidArgumentError("Adam hyperparameters out of range")


def adam_init(n: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(np.zeros(n), np.zeros(n), 0, lr, beta1, beta2, eps)


def adam_step(s: AdamState, theta: Array, grad: Array) -> None:
    """One bias-corrected Adam update of ``theta`` and the state ``s``, in place."""
    if theta.shape != grad.shape or theta.shape != s.m.shape:
        raise InvalidArgumentError("theta/grad/state lengths differ")
    if not np.isfinite(grad).all():
        raise NumericFaultError("non-finite gradient entries",
                                n_bad=int((~np.isfinite(grad)).sum()))
    s.step += 1
    s.m *= s.beta1
    s.m += (1.0 - s.beta1) * grad
    s.v *= s.beta2
    s.v += (1.0 - s.beta2) * grad * grad
    m_hat = s.m / (1.0 - s.beta1 ** s.step)
    v_hat = s.v / (1.0 - s.beta2 ** s.step)
    theta -= s.lr * m_hat / (np.sqrt(v_hat) + s.eps)


# --------------------------------------------------------------------------
# finite differences (testing oracle)
# --------------------------------------------------------------------------


def finite_diff_jacobian(fn, x: Array, step: float) -> Array:
    """Central-difference Jacobian (m, n) of ``fn``, which maps an n-vector to m values.

    Raises :class:`NumericFaultError` naming the coordinate whose column is
    not finite.
    """
    if step <= 0:
        raise InvalidArgumentError("step must be positive")
    cols = []
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        with np.errstate(over="ignore", invalid="ignore"):
            col = (np.asarray(fn(hi), dtype=np.float64) - fn(lo)) / (2.0 * step)
        if not np.isfinite(col).all():
            raise NumericFaultError("non-finite values during finite differences", coordinate=i)
        cols.append(col)
    return np.stack(cols, axis=1)


def finite_diff_gradient(loss_fn, theta: FlatParams, step: float) -> FlatParams:
    """Central-difference gradient of a scalar function of FlatParams."""
    J = finite_diff_jacobian(lambda v: [float(loss_fn(theta.with_values(v)))],
                             theta.values, step)
    return theta.with_values(J[0])

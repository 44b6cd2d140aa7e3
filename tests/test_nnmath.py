import dataclasses

import numpy as np
import pytest

from subnet.errors import InvalidArgumentError, NumericFaultError
from subnet.model import constant_psi
from subnet.nnmath import (
    FlatParams,
    MLPParams,
    adam_init,
    adam_step,
    finite_diff_gradient,
    finite_diff_jacobian,
    mlp_backward,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
)
from subnet.ode import SolverConfig, fused_step, ode_step


def rel_err(a, b, floor=1e-10):
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------- init


def test_init_param_count_with_bypass():
    p = mlp_init([2, 64, 64, 1], True, 0)
    assert p.n_params == 4419  # 4417 MLP + 2 bypass


def test_init_minimal_net_bias_zero():
    p = mlp_init([1, 1], False, 123)
    assert p.n_params == 2
    assert p.biases[0][0] == 0.0


def test_init_same_seed_bit_identical():
    a = mlp_init([3, 8, 2], True, 7)
    b = mlp_init([3, 8, 2], True, 7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.bypass, b.bypass)


def test_init_xavier_bounds():
    p = mlp_init([10, 20, 3], False, 0)
    for w, (fi, fo) in zip(p.weights, [(10, 20), (20, 3)]):
        lim = np.sqrt(6.0 / (fi + fo))
        assert np.abs(w).max() <= lim


@pytest.mark.parametrize("sizes", [[], [4], [3, 0, 2], [3, -1]])
def test_init_rejects_bad_sizes(sizes):
    with pytest.raises(InvalidArgumentError):
        mlp_init(sizes, False, 0)


# ---------------------------------------------------------------- forward


def _zero_net(sizes, with_bypass=True):
    p = mlp_init(sizes, with_bypass, 0)
    return dataclasses.replace(
        p,
        weights=tuple(np.zeros_like(w) for w in p.weights),
        bypass=np.zeros_like(p.bypass) if with_bypass else None,
    )


def test_forward_zero_network():
    p = _zero_net([2, 4, 1])
    assert np.array_equal(mlp_forward(p, np.array([0.7, -0.2])), np.zeros(1))


def test_forward_pure_bypass_identity():
    p = _zero_net([3, 5, 3])
    p = dataclasses.replace(p, bypass=np.eye(3))
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(mlp_forward(p, x), x, rtol=0, atol=0)


def test_forward_tanh_closed_form():
    p = mlp_init([1, 1, 1], False, 0)
    p = dataclasses.replace(p, weights=(np.array([[1.0]]), np.array([[1.0]])),
                            biases=(np.zeros(1), np.zeros(1)))
    out = mlp_forward(p, np.array([0.5]))
    assert abs(out[0] - 0.46211715726000974) < 1e-12


def test_forward_batched_matches_loop():
    # batched and single calls use different BLAS kernels; equal to rounding
    p = mlp_init([3, 6, 2], True, 3)
    xs = np.random.default_rng(0).standard_normal((5, 3))
    batched = mlp_forward(p, xs)
    for i in range(5):
        assert np.allclose(batched[i], mlp_forward(p, xs[i]), rtol=1e-13, atol=1e-15)


def test_forward_dim_mismatch():
    p = mlp_init([3, 4, 2], False, 0)
    with pytest.raises(InvalidArgumentError):
        mlp_forward(p, np.zeros(4))


# ---------------------------------------------------------------- backward


def test_backward_zero_upstream():
    p = mlp_init([2, 5, 2], True, 1)
    gx, gp = mlp_backward(p, np.ones(2), np.zeros(2))
    assert np.array_equal(gx, np.zeros(2))
    assert np.array_equal(gp.values, np.zeros_like(gp.values))


def test_backward_pure_bypass():
    p = _zero_net([3, 4, 2])
    bypass = np.random.default_rng(2).standard_normal((3, 2))
    p = dataclasses.replace(p, bypass=bypass)
    g = np.array([1.5, -0.25])
    gx, _ = mlp_backward(p, np.zeros(3), g)
    assert np.allclose(gx, bypass @ g, rtol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    p = mlp_init([2, 8, 1], True, 7)
    x = rng.standard_normal(2)
    _, grad = mlp_backward(p, x, np.ones(1))

    fd = finite_diff_gradient(
        lambda flat: float(mlp_forward(MLPParams.over(flat.values, flat.layout), x)[0]),
        FlatParams(p.values.copy(), p.layout), 1e-6)
    assert rel_err(grad.values, fd.values).max() <= 1e-5


@pytest.mark.parametrize("sizes,seed", [([3, 5, 2], 0), ([1, 4, 4, 1], 1), ([2, 2], 2)])
def test_backward_fd_various_shapes(sizes, seed):
    rng = np.random.default_rng(seed)
    p = mlp_init(sizes, True, seed)
    x = rng.standard_normal(sizes[0])
    w = rng.standard_normal(sizes[-1])
    gx, grad = mlp_backward(p, x, w)

    fd = finite_diff_gradient(
        lambda flat: float(w @ mlp_forward(MLPParams.over(flat.values, flat.layout), x)),
        FlatParams(p.values.copy(), p.layout), 1e-6)
    assert rel_err(grad.values, fd.values).max() <= 1e-5
    fd_x = np.array([
        (w @ mlp_forward(p, x + 1e-6 * e) - w @ mlp_forward(p, x - 1e-6 * e)) / 2e-6
        for e in np.eye(sizes[0])
    ])
    assert rel_err(gx, fd_x).max() <= 1e-5


# ---------------------------------------------------------------- kernels vs the textbook form


def _textbook_forward(p, x):
    a, hidden = x, []
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        a = np.tanh(a @ w.T + b)
        hidden.append(a)
    y = a @ p.weights[-1].T + p.biases[-1]
    if p.bypass is not None:
        y = y + x @ p.bypass
    return y, hidden


def _textbook_backward(p, x, hidden, gy, acc):
    acts = [x] + hidden
    g = gy
    for i in range(len(hidden), -1, -1):
        if i < len(hidden):
            g = g * (1.0 - hidden[i] * hidden[i])
        w_acc, b_acc = acc.weights[i], acc.biases[i]
        w_acc += g.T @ acts[i]
        b_acc += g.sum(axis=0)
        g = g @ p.weights[i]
    if p.bypass is not None:
        g_bypass = acc.bypass
        g_bypass += x.T @ gy
        g = g + gy @ p.bypass.T
    return g


_KERNEL_NETS = {
    "tanks_f": lambda: mlp_init([3, 64, 64, 2], True, 1),
    "tanks_h": lambda: mlp_init([2, 64, 64, 1], True, 2),
    "psi": lambda: mlp_init([10, 64, 64, 2], True, 3),
    "no_bypass": lambda: mlp_init([3, 8, 2], False, 4),
    "constant_psi": lambda: constant_psi(2, [0.3, -1.1]),
}


@pytest.mark.parametrize("B", [1, 16, 64, 1000])
@pytest.mark.parametrize("net", sorted(_KERNEL_NETS))
def test_kernels_bit_identical_to_textbook_form(net, B):
    # the kernels dispatch differently (np.dot, in-place updates) but must
    # compute the same floats and never write into x, gy or the cache
    p = _KERNEL_NETS[net]()
    rng = np.random.default_rng(B)
    x = rng.standard_normal((B, p.input_dim))
    gy = rng.standard_normal((B, p.output_dim))
    x_in, gy_in = x.copy(), gy.copy()

    y_ref, hidden_ref = _textbook_forward(p, x)
    y, (cx, hidden) = mlp_forward_cached(p, x)
    assert np.array_equal(y, y_ref) and cx is x
    assert len(hidden) == len(hidden_ref)
    assert all(np.array_equal(a, b) for a, b in zip(hidden, hidden_ref))
    assert np.array_equal(x, x_in)

    hidden_in = [a.copy() for a in hidden]
    acc_ref = MLPParams.over(np.zeros_like(p.values), p.layout)
    acc = MLPParams.over(np.zeros_like(p.values), p.layout)
    for _ in range(2):  # the second call accumulates onto the first
        gx_ref = _textbook_backward(p, x, hidden_ref, gy, acc_ref)
        gx = mlp_backward_cached(p, (cx, hidden), gy, acc)
        assert np.array_equal(gx, gx_ref)
        assert np.array_equal(x, x_in) and np.array_equal(gy, gy_in)
        assert all(np.array_equal(a, b) for a, b in zip(hidden, hidden_in))
    assert np.array_equal(acc.values, acc_ref.values)


def _magnitude(p, x):
    """Per output, a bound on the sum of the magnitudes of its terms: the network
    with |W|, |b| and |bypass| on |x| (tanh is odd and increasing)."""
    a = np.abs(x)
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        a = np.tanh(a @ np.abs(w.T) + np.abs(b))
    s = a @ np.abs(p.weights[-1].T) + np.abs(p.biases[-1])
    return s if p.bypass is None else s + np.abs(x) @ np.abs(p.bypass)


_FOLD_NETS = {
    "0_hidden": lambda: mlp_init([3, 2], True, 5),
    "0_hidden_no_bypass": lambda: mlp_init([3, 2], False, 6),
    "1_hidden": lambda: mlp_init([3, 8, 2], True, 7),
    "1_hidden_no_bypass": lambda: mlp_init([3, 8, 2], False, 8),
    "2_hidden": lambda: mlp_init([3, 64, 64, 2], True, 9),
    "2_hidden_no_bypass": lambda: mlp_init([3, 16, 8, 2], False, 10),
    # the bypass-only f of the linear test models: zero weights, no hidden layer
    "bypass_only": lambda: MLPParams((np.zeros((2, 3)),), (np.zeros(2),),
                                     np.array([[0.9, 0.1], [-0.2, 0.8], [0.5, 0.0]])),
}


# ct RK4 with 1 and 3 sub-steps, ct Euler with 4, and dt mode (no solver)
_FOLD_SOLVERS = (SolverConfig("rk4", 1, 0.8, 0.4), SolverConfig("rk4", 3, 0.8, 1.2),
                 SolverConfig("euler", 4, 0.8, 1.6), None)


def _step_magnitude(p, x, u, cfg):
    """Per state entry, a bound on the sum of the magnitudes of the terms one
    fused step adds up: the solver run on |x| and |u| with :func:`_magnitude`."""
    au = np.abs(u)
    if cfg is None:
        return _magnitude(p, np.concatenate([np.abs(x), au], axis=1))
    r = cfg.dt / cfg.substeps / cfg.tau
    c, b = ([], [1.0]) if cfg.method == "euler" else ([0.5, 0.5, 1.0], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    m = np.abs(x)
    for _ in range(cfg.substeps):
        xs, total = m, m
        for s, bs in enumerate(b):
            k = _magnitude(p, np.concatenate([xs, au], axis=1))
            total = total + bs * r * k
            if s < len(c):
                xs = m + c[s] * r * k
        m = total
    return m


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("net", sorted(_FOLD_NETS))
def test_folded_forward_matches_mlp_forward(net, rows):
    # ode.fused_step folds biases, bypass and stage sums into the matmuls of a
    # whole solver step: it sums the products of ode_step over mlp_forward in
    # another order, so every new state lies within 8 ulps of the sum of its
    # terms' magnitudes (2.5 here, 3.1 the most seen over other seeds)
    p = _FOLD_NETS[net]()
    rng = np.random.default_rng(rows)
    for b in p.biases:
        b += rng.uniform(-1.0, 1.0, b.shape)
    f = lambda x, u: mlp_forward(p, np.concatenate([x, u], axis=1))
    for cfg in _FOLD_SOLVERS:
        step = fused_step(p, 2, rows, cfg)
        xs = []
        for _ in range(2):
            x, u = rng.standard_normal((rows, 2)), 3.0 * rng.standard_normal((rows, 1))
            x_in, u_in = x.copy(), u.copy()
            y = step(x, u)
            assert y.shape == (rows, 2)
            ref = f(x, u) if cfg is None else ode_step(f, x, u, cfg)
            bound = 8 * np.finfo(np.float64).eps * _step_magnitude(p, x, u, cfg)
            assert (np.abs(y - ref) <= bound).all(), cfg
            assert np.array_equal(x, x_in) and np.array_equal(u, u_in)
            xs.append((y, y.copy()))
        # a call returns a new array: the first result survives the second call
        (y1, y1_copy), (y2, _) = xs
        assert not np.shares_memory(y1, y2) and np.array_equal(y1, y1_copy)


# ---------------------------------------------------------------- parameter checks


def test_mlpparams_rejects_bad_shapes():
    with pytest.raises(InvalidArgumentError):
        MLPParams((np.zeros((3, 2)), np.zeros((4, 5))), (np.zeros(3), np.zeros(4)))
    with pytest.raises(InvalidArgumentError):
        MLPParams((np.full((2, 2), np.nan),), (np.zeros(2),))


# ---------------------------------------------------------------- adam


def test_adam_zero_grad_is_noop():
    s = adam_init(4)
    theta = mlp_init([3, 1], False, 0).values.copy()
    before = theta.copy()
    adam_step(s, theta, np.zeros(4))
    assert np.array_equal(theta, before)
    assert s.step == 1


def test_adam_first_step_closed_form():
    # fresh state, grad 1: delta = -lr * 1 / (1 + eps)
    theta = np.array([0.5])
    adam_step(adam_init(1), theta, np.array([1.0]))
    delta = theta[0] - 0.5
    assert abs(delta - (-1e-3 / (1 + 1e-8))) < 1e-15


def test_adam_first_step_sign_antisymmetry():
    up, down = np.array([0.0]), np.array([0.0])
    adam_step(adam_init(1), up, np.array([1.0]))
    adam_step(adam_init(1), down, np.array([-1.0]))
    assert up[0] == -down[0]


def test_adam_rejects_nonfinite_grad():
    s = adam_init(2)
    theta = np.array([0.25, -0.5])
    with pytest.raises(NumericFaultError):
        adam_step(s, theta, np.array([1.0, np.nan]))
    # nothing was written before the check
    assert np.array_equal(theta, [0.25, -0.5]) and s.step == 0
    assert not s.m.any() and not s.v.any()


def test_adam_deterministic():
    rng = np.random.default_rng(0)
    start = mlp_init([2, 3], False, 4).values
    g = rng.standard_normal(start.size)
    s1, s2 = adam_init(start.size), adam_init(start.size)
    t1, t2 = start.copy(), start.copy()
    adam_step(s1, t1, g)
    adam_step(s2, t2, g)
    assert np.array_equal(t1, t2)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


def test_adam_in_place_matches_out_of_place_formula():
    # the in-place update keeps every operand and its order: same bits as the textbook form
    rng = np.random.default_rng(1)
    s = adam_init(50, lr=3e-3)
    theta = rng.standard_normal(50)
    ref, m, v = theta.copy(), np.zeros(50), np.zeros(50)
    for t in range(1, 6):
        g = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3, 50)
        adam_step(s, theta, g)
        m = s.beta1 * m + (1.0 - s.beta1) * g
        v = s.beta2 * v + (1.0 - s.beta2) * g * g
        m_hat = m / (1.0 - s.beta1 ** t)
        v_hat = v / (1.0 - s.beta2 ** t)
        ref = ref - s.lr * m_hat / (np.sqrt(v_hat) + s.eps)
        assert np.array_equal(theta, ref)
        assert np.array_equal(s.m, m) and np.array_equal(s.v, v) and s.step == t


# ---------------------------------------------------------------- finite differences


def test_finite_diff_quadratic():
    theta = FlatParams(np.array([3.0, 0.0]), mlp_init([1, 1], False, 0).layout)
    g = finite_diff_gradient(lambda f: 0.5 * float(f.values @ f.values), theta, 1e-6)
    assert np.allclose(g.values, [3.0, 0.0], atol=1e-9)


def test_finite_diff_constant():
    p = mlp_init([1, 1], False, 0)
    theta = FlatParams(p.values.copy(), p.layout)
    g = finite_diff_gradient(lambda f: 1.25, theta, 1e-6)
    assert np.array_equal(g.values, np.zeros(2))


def test_finite_diff_product():
    theta = FlatParams(np.array([2.0, 5.0]), mlp_init([1, 1], False, 0).layout)
    g = finite_diff_gradient(lambda f: float(f.values[0] * f.values[1]), theta, 1e-6)
    assert np.allclose(g.values, [5.0, 2.0], atol=1e-8)


def test_finite_diff_jacobian_linear_map():
    A = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.5]])
    J = finite_diff_jacobian(lambda x: A @ x, np.array([0.3, -1.0, 2.0]), 1e-6)
    assert J.shape == (2, 3)
    assert np.allclose(J, A, atol=1e-9)


def test_finite_diff_jacobian_names_nonfinite_coordinate():
    # only perturbing x[1] downwards reaches the pole of 1 / x[1]
    fn = lambda x: np.array([x[0] + x[2], 1.0 / x[1] if x[1] != 0.0 else np.inf])
    with pytest.raises(NumericFaultError, match="coordinate=1") as info:
        finite_diff_jacobian(fn, np.array([1.0, 1e-6, 2.0]), 1e-6)
    assert info.value.context == {"coordinate": 1}

import dataclasses

import numpy as np
import pytest

from subnet.errors import InvalidArgumentError, NumericFaultError
from subnet.nnmath import (
    MLPParams,
    adam_init,
    adam_step,
    finite_diff_gradient,
    flatten_mlp,
    lipschitz_upper_bound,
    mlp_backward,
    mlp_forward,
    mlp_init,
    unflatten_mlp,
)


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


def test_forward_lipschitz_bound():
    rng = np.random.default_rng(5)
    for seed in range(10):
        p = mlp_init([4, 10, 3], True, seed)
        bound = lipschitz_upper_bound(p)
        x1 = rng.uniform(-2, 2, 4)
        x2 = rng.uniform(-2, 2, 4)
        dy = np.linalg.norm(mlp_forward(p, x1) - mlp_forward(p, x2))
        assert dy <= bound * np.linalg.norm(x1 - x2) + 1e-12


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
        lambda flat: float(mlp_forward(unflatten_mlp(flat), x)[0]),
        flatten_mlp(p), 1e-6)
    assert rel_err(grad.values, fd.values).max() <= 1e-5


@pytest.mark.parametrize("sizes,seed", [([3, 5, 2], 0), ([1, 4, 4, 1], 1), ([2, 2], 2)])
def test_backward_fd_various_shapes(sizes, seed):
    rng = np.random.default_rng(seed)
    p = mlp_init(sizes, True, seed)
    x = rng.standard_normal(sizes[0])
    w = rng.standard_normal(sizes[-1])
    gx, grad = mlp_backward(p, x, w)

    fd = finite_diff_gradient(
        lambda flat: float(w @ mlp_forward(unflatten_mlp(flat), x)),
        flatten_mlp(p), 1e-6)
    assert rel_err(grad.values, fd.values).max() <= 1e-5
    fd_x = np.array([
        (w @ mlp_forward(p, x + 1e-6 * e) - w @ mlp_forward(p, x - 1e-6 * e)) / 2e-6
        for e in np.eye(sizes[0])
    ])
    assert rel_err(gx, fd_x).max() <= 1e-5


# ---------------------------------------------------------------- flatten


@pytest.mark.parametrize("sizes,with_bypass", [([2, 3], False), ([4, 8, 8, 2], True), ([1, 1], True)])
def test_flatten_roundtrip_exact(sizes, with_bypass):
    p = mlp_init(sizes, with_bypass, 9)
    q = unflatten_mlp(flatten_mlp(p))
    for a, b in zip(p.weights, q.weights):
        assert np.array_equal(a, b)
    for a, b in zip(p.biases, q.biases):
        assert np.array_equal(a, b)
    if with_bypass:
        assert np.array_equal(p.bypass, q.bypass)
    else:
        assert q.bypass is None


def test_flat_length_matches_param_count():
    p = mlp_init([2, 64, 64, 1], True, 0)
    assert flatten_mlp(p).values.size == p.n_params


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
    theta = flatten_mlp(mlp_init([1, 1], False, 0)).with_values(np.array([3.0, 0.0]))
    g = finite_diff_gradient(lambda f: 0.5 * float(f.values @ f.values), theta, 1e-6)
    assert np.allclose(g.values, [3.0, 0.0], atol=1e-9)


def test_finite_diff_constant():
    theta = flatten_mlp(mlp_init([1, 1], False, 0))
    g = finite_diff_gradient(lambda f: 1.25, theta, 1e-6)
    assert np.array_equal(g.values, np.zeros(2))


def test_finite_diff_product():
    theta = flatten_mlp(mlp_init([1, 1], False, 0)).with_values(np.array([2.0, 5.0]))
    g = finite_diff_gradient(lambda f: float(f.values[0] * f.values[1]), theta, 1e-6)
    assert np.allclose(g.values, [5.0, 2.0], atol=1e-8)

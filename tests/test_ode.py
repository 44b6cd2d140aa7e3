import numpy as np
import pytest

from subnet.errors import InvalidArgumentError, NumericFaultError
from subnet.nnmath import MLPParams, mlp_forward, mlp_init
from subnet.ode import (
    SolverConfig,
    fused_step,
    mlp_ode_step_backward,
    mlp_ode_step_cached,
    mlp_ode_step_plain,
    ode_step,
)

DECAY = lambda x, u: -x


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SolverConfig("midpoint")
    with pytest.raises(InvalidArgumentError):
        SolverConfig("rk4", 0)
    with pytest.raises(InvalidArgumentError):
        SolverConfig("rk4", 1, -2.0)


def test_rk4_single_step_exponential():
    cfg = SolverConfig("rk4", 1, 1.0, 0.1)
    x = ode_step(DECAY, np.array([1.0]), np.zeros(1), cfg)
    assert x[0] == pytest.approx(0.9048375, abs=1e-12)  # the RK4 polynomial exactly
    assert abs(x[0] - np.exp(-0.1)) <= 1e-7


def test_stationary_field():
    for method in ("euler", "rk4"):
        cfg = SolverConfig(method, 3, 0.37, 2.5)
        x = ode_step(lambda x, u: np.zeros_like(x), np.array([1.0, -2.0]), np.zeros(1), cfg)
        assert np.array_equal(x, np.array([1.0, -2.0]))


def test_euler_single_step_exact():
    cfg = SolverConfig("euler", 1, 1.0, 0.1)
    x = ode_step(DECAY, np.array([1.0]), np.zeros(1), cfg)
    assert x[0] == 0.9


def test_rollout_exponential_decay():
    def end(cfg):
        x = np.array([1.0])
        for _ in range(10):
            x = ode_step(DECAY, x, np.zeros(1), cfg)
        return x

    # single RK4 substep: true global error vs e^-1 is ~3.3e-7
    assert abs(end(SolverConfig("rk4", 1, 1.0, 0.1))[0] - np.exp(-1.0)) <= 4e-7
    # two substeps brings it below 1e-7
    assert abs(end(SolverConfig("rk4", 2, 1.0, 0.1))[0] - np.exp(-1.0)) <= 1e-7


def _decay_error(substeps):
    cfg = SolverConfig("rk4", substeps, 1.0, 0.4)
    return abs(ode_step(DECAY, np.array([1.0]), np.zeros(1), cfg)[0] - np.exp(-0.4))


def test_rk4_order_halving_factor():
    # halving the step of a 4th-order scheme cuts the error ~2^4
    assert 12.0 <= _decay_error(1) / _decay_error(2) <= 20.0


def test_rk4_order_estimate_from_quadrupling():
    # 1 -> 4 substeps spans two halvings; the per-halving factor stays ~16
    ratio = _decay_error(1) / _decay_error(4)
    assert 12.0 <= np.sqrt(ratio) <= 20.0
    order = np.log(ratio) / np.log(4.0)
    assert 3.5 <= order <= 4.5


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_tau_time_equivalence_bitwise(method):
    # only dt/tau enters: double tau over dt == original tau over dt/2
    f = lambda x, u: -1.3 * x + 0.4 * u
    x0, u = np.array([0.7]), np.array([0.3])
    a = ode_step(f, x0, u, SolverConfig(method, 3, 2.0, 0.8))
    b = ode_step(f, x0, u, SolverConfig(method, 3, 1.0, 0.4))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_fused_step_tau_time_equivalence_bitwise(method):
    # the fused step builds every coefficient from h/tau: double tau over dt
    # equals the original tau over dt/2 bit for bit, step after step
    p = mlp_init([3, 8, 2], True, 4)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 1))
    a = fused_step(p, 2, 3, SolverConfig(method, 3, 2.0, 0.8))
    b = fused_step(p, 2, 3, SolverConfig(method, 3, 1.0, 0.4))
    xa = xb = rng.standard_normal((3, 2))
    for _ in range(5):
        xa, xb = a(xa, u), b(xb, u)
        assert np.array_equal(xa, xb)


def test_ode_step_numeric_fault_carries_substep():
    exploder = lambda x, u: x * 1e200
    with pytest.raises(NumericFaultError) as e:
        ode_step(exploder, np.array([1.0]), np.zeros(1), SolverConfig("euler", 4, 1.0, 1.0))
    assert "substep" in str(e.value)
    # a batch also names its first non-finite row
    rows_apart = lambda x, u: x * np.array([[1.0], [1e200], [1e200]])
    with np.errstate(over="ignore"), pytest.raises(NumericFaultError) as e:
        ode_step(rows_apart, np.ones((3, 1)), np.zeros((3, 1)), SolverConfig("euler", 4, 1.0, 1.0))
    assert e.value.context == {"substep": 1, "row": 1}


# -------------------------------------------------------- differentiable path


@pytest.mark.parametrize("method,substeps", [("rk4", 1), ("rk4", 2), ("euler", 3), ("dt", 1)])
def test_mlp_step_gradients_match_fd(method, substeps):
    rng = np.random.default_rng(3)
    f_net = mlp_init([3, 8, 2], True, 11)  # n_x=2, n_u=1
    cfg = None if method == "dt" else SolverConfig(method, substeps, 2.0, 0.5)
    x0 = rng.standard_normal((1, 2))
    us = rng.standard_normal((6, 1, 1))
    w = rng.standard_normal(2)

    def endpoint(values, x_start):
        p = MLPParams.over(values, f_net.layout)
        x = x_start
        for k in range(6):
            x = mlp_ode_step_plain(fused_step(p, 2, 1, cfg), x, us[k])
        return float(w @ x[0])

    x, caches = x0, []
    for k in range(6):
        x, c = mlp_ode_step_cached(f_net, x, us[k], cfg)
        caches.append(c)
    ana = np.zeros_like(f_net.values)
    acc = MLPParams.over(ana, f_net.layout)
    g = w[None, :].copy()
    for k in range(5, -1, -1):
        g = mlp_ode_step_backward(f_net, caches[k], g, 2, cfg, acc)

    base = f_net.values.copy()
    fd = np.zeros_like(base)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += 1e-6
        lo[i] -= 1e-6
        fd[i] = (endpoint(hi, x0) - endpoint(lo, x0)) / 2e-6
    rel = np.abs(ana - fd) / np.maximum(1e-10, np.maximum(np.abs(ana), np.abs(fd)))
    assert rel.max() <= 1e-5

    fd_x = np.zeros(2)
    for i in range(2):
        hi, lo = x0.copy(), x0.copy()
        hi[0, i] += 1e-6
        lo[0, i] -= 1e-6
        fd_x[i] = (endpoint(base, hi) - endpoint(base, lo)) / 2e-6
    rel_x = np.abs(g[0] - fd_x) / np.maximum(1e-10, np.abs(fd_x))
    assert rel_x.max() <= 1e-5


def test_dt_cached_step_is_the_network():
    # without a solver config the cached step is x+ = f([x | u]), one cache per step
    rng = np.random.default_rng(4)
    f_net = mlp_init([3, 8, 2], True, 11)  # n_x=2, n_u=1
    x, u = rng.standard_normal((4, 2)), rng.standard_normal((4, 1))
    y, caches = mlp_ode_step_cached(f_net, x, u, None)
    assert len(caches) == 1
    assert np.array_equal(y, mlp_forward(f_net, np.concatenate([x, u], axis=1)))
    x[2, 0] = np.nan
    with pytest.raises(NumericFaultError) as e:
        mlp_ode_step_cached(f_net, x, u, None)
    assert e.value.context == {"row": 2}


def test_rollout_gradient_long_horizon():
    # T = 64 steps on a contractive random model, endpoint grads vs FD
    rng = np.random.default_rng(8)
    f_net = mlp_init([2, 6, 1], True, 5)  # n_x=1, n_u=1
    cfg = SolverConfig("rk4", 1, 4.0, 0.5)
    x0 = np.array([[0.4]])
    us = 0.5 * rng.standard_normal((64, 1, 1))

    x, caches = x0, []
    for k in range(64):
        x, c = mlp_ode_step_cached(f_net, x, us[k], cfg)
        caches.append(c)
    ana = np.zeros_like(f_net.values)
    acc = MLPParams.over(ana, f_net.layout)
    g = np.array([[1.0]])
    for k in range(63, -1, -1):
        g = mlp_ode_step_backward(f_net, caches[k], g, 1, cfg, acc)

    def endpoint(values):
        p = MLPParams.over(values, f_net.layout)
        xx = x0
        for k in range(64):
            xx = mlp_ode_step_plain(fused_step(p, 1, 1, cfg), xx, us[k])
        return float(xx[0, 0])

    base = f_net.values.copy()
    fd = np.zeros_like(base)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += 1e-6
        lo[i] -= 1e-6
        fd[i] = (endpoint(hi) - endpoint(lo)) / 2e-6
    rel = np.abs(ana - fd) / np.maximum(1e-10, np.maximum(np.abs(ana), np.abs(fd)))
    assert rel.max() <= 1e-5

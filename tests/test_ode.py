import numpy as np
import pytest

from subnet.errors import InvalidArgumentError, NumericFaultError
from subnet.nnmath import MLPParams, flatten_mlp, mlp_init, unflatten_mlp
from subnet.ode import (
    SolverConfig,
    mlp_ode_step_backward,
    mlp_ode_step_cached,
    mlp_ode_step_plain,
    ode_step,
    rollout,
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


def test_rollout_empty_inputs():
    states = rollout(DECAY, np.array([2.0]), [], SolverConfig())
    assert len(states) == 1 and states[0][0] == 2.0


def test_rollout_frozen_field():
    states = rollout(lambda x, u: np.zeros_like(x), np.array([1.5]),
                     [np.zeros(1)] * 5, SolverConfig())
    assert len(states) == 6
    assert all(s[0] == 1.5 for s in states)


def test_rollout_exponential_decay():
    u = [np.zeros(1)] * 10
    # single RK4 substep: true global error vs e^-1 is ~3.3e-7
    end1 = rollout(DECAY, np.array([1.0]), u, SolverConfig("rk4", 1, 1.0, 0.1))[-1]
    assert abs(end1[0] - np.exp(-1.0)) <= 4e-7
    # two substeps brings it below 1e-7
    end2 = rollout(DECAY, np.array([1.0]), u, SolverConfig("rk4", 2, 1.0, 0.1))[-1]
    assert abs(end2[0] - np.exp(-1.0)) <= 1e-7


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


def test_ode_step_numeric_fault_carries_substep():
    exploder = lambda x, u: x * 1e200
    with pytest.raises(NumericFaultError) as e:
        ode_step(exploder, np.array([1.0]), np.zeros(1), SolverConfig("euler", 4, 1.0, 1.0))
    assert "substep" in str(e.value)


def test_rollout_fault_carries_step_index():
    calls = {"n": 0}

    def f(x, u):
        calls["n"] += 1
        return x * (1e30 if calls["n"] > 8 else 1.0)

    with pytest.raises(NumericFaultError) as e:
        rollout(f, np.array([1.0]), [np.zeros(1)] * 20, SolverConfig("euler", 1, 1.0, 1.0))
    assert "step" in e.value.context


def test_rollout_rejects_nonfinite_input():
    with pytest.raises(InvalidArgumentError):
        rollout(DECAY, np.array([1.0]), [np.array([np.inf])], SolverConfig())


# -------------------------------------------------------- differentiable path


@pytest.mark.parametrize("method,substeps", [("rk4", 1), ("rk4", 2), ("euler", 3)])
def test_mlp_step_gradients_match_fd(method, substeps):
    rng = np.random.default_rng(3)
    f_net = mlp_init([3, 8, 2], True, 11)  # n_x=2, n_u=1
    cfg = SolverConfig(method, substeps, 2.0, 0.5)
    x0 = rng.standard_normal((1, 2))
    us = rng.standard_normal((6, 1, 1))
    w = rng.standard_normal(2)

    def endpoint(values, x_start):
        p = unflatten_mlp(flatten_mlp(f_net).with_values(values))
        x = x_start
        for k in range(6):
            x = mlp_ode_step_plain(p, x, us[k], cfg)
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

    base = flatten_mlp(f_net).values
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
        p = unflatten_mlp(flatten_mlp(f_net).with_values(values))
        xx = x0
        for k in range(64):
            xx = mlp_ode_step_plain(p, xx, us[k], cfg)
        return float(xx[0, 0])

    base = flatten_mlp(f_net).values
    fd = np.zeros_like(base)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += 1e-6
        lo[i] -= 1e-6
        fd[i] = (endpoint(hi) - endpoint(lo)) / 2e-6
    rel = np.abs(ana - fd) / np.maximum(1e-10, np.maximum(np.abs(ana), np.abs(fd)))
    assert rel.max() <= 1e-5

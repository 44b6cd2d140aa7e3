import dataclasses
import json
import math

import numpy as np
import pytest

from subnet.data import (
    Dataset,
    NormStats,
    SyntheticConfig,
    fit_normalizer,
    generate_synthetic,
    make_system,
)
from subnet.errors import InvalidArgumentError, NumericFaultError, ParseError
from subnet import model as model_mod
from subnet import ode as ode_mod
from subnet.model import (
    ROW_BLOCK,
    SubnetModel,
    _sim_forward,
    constant_psi,
    dt_step,
    encode,
    encoder_window,
    init_model,
    model_flatten,
    model_with_values,
    simulate_free_run,
    simulate_subsection,
)
from subnet.nnmath import MLPParams, mlp_forward, mlp_init
from subnet.ode import SolverConfig, ode_step
from subnet.serialize import _encode_array, load_model, model_from_dict, model_to_dict, save_model
from subnet.training import TrainConfig, truncated_loss_and_grad

IDENT = NormStats.identity(1, 1)


def _linear_net(n_in, n_out, matrix):
    """Single affine layer with zero weights: output = x @ matrix."""
    return MLPParams((np.zeros((n_out, n_in)),), (np.zeros(n_out),),
                     np.asarray(matrix, dtype=np.float64))


def test_init_model_without_lags_has_constant_zero_encoder():
    m = init_model(2, 1, 1, 0, 0, SolverConfig(), IDENT, hidden=(4,), seed=7)
    lagged = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=7)
    assert m.psi_net.input_dim == 0 and m.lag == 0
    assert np.array_equal(encode(m, np.zeros(0)), np.zeros(2))
    assert np.array_equal(m.values[m.segments["f"]], lagged.values[lagged.segments["f"]])
    assert np.array_equal(m.values[m.segments["h"]], lagged.values[lagged.segments["h"]])


def test_init_model_rejects_negative_seed():
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
        init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=-1)


# ---------------------------------------------------------------- windows


def test_encoder_window_scalar_example():
    ds = Dataset(np.array([[10.0], [11.0], [12.0], [13.0]]),
                 np.array([[20.0], [21.0], [22.0], [23.0]]), 1.0)
    w = encoder_window(ds, 3, 2, 2)
    assert np.array_equal(w, [12.0, 11.0, 22.0, 21.0])


def test_encoder_window_empty():
    ds = Dataset(np.ones((4, 1)), np.ones((4, 1)), 1.0)
    assert encoder_window(ds, 2, 0, 0).shape == (0,)


def test_encoder_window_channel_order():
    # two input channels: sample channels stay contiguous, u block before y block
    ds = Dataset(np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([[9.0], [10.0]]), 1.0)
    w = encoder_window(ds, 1, 1, 1)
    assert np.array_equal(w, [5.0, 6.0, 9.0])


def test_encoder_window_out_of_range():
    ds = Dataset(np.ones((6, 1)), np.ones((6, 1)), 1.0)
    with pytest.raises(InvalidArgumentError):
        encoder_window(ds, 1, 2, 2)
    assert encoder_window(ds, 6, 2, 2).shape == (4,)  # n == N is allowed


# ---------------------------------------------------------------- encode


def test_encode_zero_net():
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=0)
    psi = m.psi_net
    zero_psi = dataclasses.replace(
        psi, weights=tuple(np.zeros_like(w) for w in psi.weights),
        bypass=np.zeros_like(psi.bypass))
    m = dataclasses.replace(m, psi_net=zero_psi)
    assert np.array_equal(encode(m, np.ones(4)), np.zeros(2))


def test_encode_bypass_identity_block():
    block = np.zeros((4, 2))
    block[0, 0] = block[1, 1] = 1.0
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=0)
    m = dataclasses.replace(m, psi_net=_linear_net(4, 2, block))
    w = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.allclose(encode(m, w), [3.0, -1.0], rtol=0, atol=0)


def test_encode_matches_mlp_forward():
    m = init_model(2, 1, 1, 3, 3, SolverConfig(), IDENT, hidden=(8,), seed=5)
    w = np.random.default_rng(0).standard_normal(6)
    assert np.array_equal(encode(m, w), mlp_forward(m.psi_net, w))


def test_encode_length_mismatch():
    m = init_model(2, 1, 1, 3, 3, SolverConfig(), IDENT, hidden=(8,), seed=5)
    with pytest.raises(InvalidArgumentError):
        encode(m, np.ones(5))


# ---------------------------------------------------------------- simulation


def _small_ds(n=30, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)), 0.5)


def test_simulate_subsection_T0():
    ds = _small_ds()
    m = init_model(2, 1, 1, 3, 3, SolverConfig(dt=ds.dt), IDENT, hidden=(4,), seed=2)
    res = simulate_subsection(m, ds, 5, 0)
    assert res.outputs.shape == (0, 1)
    assert res.states.shape == (1, 2)


def test_simulate_subsection_frozen_state():
    ds = _small_ds()
    m = init_model(2, 1, 1, 3, 3, SolverConfig(dt=ds.dt), IDENT, hidden=(4,), seed=2)
    f0 = dataclasses.replace(
        m.f_net, weights=tuple(np.zeros_like(w) for w in m.f_net.weights),
        bypass=np.zeros_like(m.f_net.bypass))
    m = dataclasses.replace(m, f_net=f0)
    res = simulate_subsection(m, ds, 4, 10)
    assert np.array_equal(res.states, np.tile(res.states[0], (11, 1)))
    assert np.array_equal(res.outputs, np.tile(res.outputs[0], (10, 1)))


def test_simulate_subsection_bounds():
    ds = _small_ds()
    m = init_model(2, 1, 1, 3, 3, SolverConfig(dt=ds.dt), IDENT, hidden=(4,), seed=2)
    with pytest.raises(InvalidArgumentError):
        simulate_subsection(m, ds, 2, 5)
    with pytest.raises(InvalidArgumentError):
        simulate_subsection(m, ds, 26, 5)


def _wrap_linear2_truth(cfg: SyntheticConfig, n_lags=2):
    """Exact SubnetModel for the linear2 system: bypass-only f and h plus the
    closed-form linear reconstructor as encoder."""
    system = make_system(cfg)
    p = system.params
    A = np.array([[p["a11"], p["a12"]], [p["a21"], p["a22"]]])
    B = np.array([p["b1"], p["b2"]])
    C = np.array([p["c1"], p["c2"]])

    f_net = _linear_net(3, 2, np.vstack([A.T, B[None, :]]))
    h_net = _linear_net(2, 1, C[:, None])

    # one-sample discrete map of the wrapped solver (it is linear in x and u)
    solver = SolverConfig("rk4", cfg.truth_substeps, 1.0, cfg.dt)
    f = lambda x, u: A @ x + B * u[0]
    Ad = np.stack([ode_step(f, e, np.zeros(1), solver) for e in np.eye(2)], axis=1)
    Bd = ode_step(f, np.zeros(2), np.ones(1), solver)

    Obs = np.stack([C, C @ Ad])             # [y_{n-2}; y_{n-1}] = Obs x_{n-2} + [0; C Bd] u_{n-2}
    Oinv = np.linalg.inv(Obs)
    A2 = Ad @ Ad
    psi = np.zeros((4, 2))
    psi[0] = Bd                               # u_{n-1}
    psi[1] = Ad @ Bd - A2 @ Oinv @ np.array([0.0, C @ Bd])  # u_{n-2}
    psi[2] = A2 @ Oinv[:, 1]                  # y_{n-1}
    psi[3] = A2 @ Oinv[:, 0]                  # y_{n-2}
    psi_net = _linear_net(4, 2, psi)

    return SubnetModel(f_net, h_net, psi_net, solver, 2, 1, 1, n_lags, n_lags,
                       NormStats.identity(1, 1))


def test_generator_round_trip_wrapped_truth():
    # the ground-truth linear2 system wrapped as a model reproduces the
    # generator's recorded outputs from encoder windows alone
    cfg = SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=3,
                          noise_std=0.0, truth_substeps=16)
    ds, trace = generate_synthetic(cfg)
    m = _wrap_linear2_truth(cfg)
    res = simulate_subsection(m, ds, 5, 40)
    err = res.outputs - trace.y_clean[5:45]
    assert float(np.sqrt(np.mean(err ** 2))) <= 1e-6
    assert np.abs(res.states[0] - trace.states[5]).max() <= 1e-9


@pytest.mark.parametrize("entry", ["truncated_loss_and_grad", "simulate_subsection"])
@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_rollout_fault_names_step_and_start(mode, entry):
    ds, _ = generate_synthetic(SyntheticConfig(n_samples=200, seed=0))
    for method in ("euler", "rk4") if mode == "ct" else ("euler",):
        m = init_model(2, 1, 1, 5, 5, SolverConfig(method, 2, 1.0, ds.dt), fit_normalizer(ds),
                       mode=mode, hidden=(8,), seed=0)
        values = m.values.copy()
        values[m.segments["f"]] *= 1e6
        m = model_with_values(m, values)
        start = 10 if entry == "truncated_loss_and_grad" else 50
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericFaultError) as e:
            if entry == "truncated_loss_and_grad":
                truncated_loss_and_grad(m, ds, [10, 50, 90], 100)
            else:
                simulate_subsection(m, ds, 50, 100)
        ctx = e.value.context
        assert ctx["start"] == start and 0 <= ctx["step"] < 100, method
        if mode == "ct":
            assert 0 <= ctx["substep"] < 2
        else:
            assert "substep" not in ctx


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_no_gradient_rollout_fault_names_diverging_row(mode):
    # a batch of three no-gradient rollouts whose second row overflows in its
    # first step: the fault names that row's start index, not the batch's first
    m = init_model(2, 1, 1, 5, 5, SolverConfig("rk4", 2, 1.0, 0.5), IDENT, mode=mode,
                   hidden=(8,), seed=0)
    values = m.values.copy()
    values[m.segments["f"]] *= 1e6
    m = model_with_values(m, values)
    x0 = np.array([[0.0, 0.0], [1e306, -1e306], [0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericFaultError) as e:
        _sim_forward(m, x0, np.zeros((3, 20, 1)), np.array([7, 19, 31]))
    ctx = e.value.context
    assert (ctx["start"], ctx["step"]) == (19, 0)
    if mode == "ct":
        assert ctx["substep"] == 0
    else:
        assert "substep" not in ctx


def test_free_run_perfect_model():
    cfg = SyntheticConfig(system="linear2", n_samples=80, dt=0.5, seed=4,
                          noise_std=0.0, truth_substeps=16)
    ds, _ = generate_synthetic(cfg)
    m = _wrap_linear2_truth(cfg)
    tr = simulate_free_run(m, ds)
    assert tr.y_pred.shape == (78, 1)
    assert float(np.sqrt(np.mean((tr.y_pred - tr.y_meas) ** 2))) <= 1e-6


def test_free_run_counts():
    ds = _small_ds(n=30)
    m = init_model(2, 1, 1, 5, 5, SolverConfig(dt=ds.dt), IDENT, hidden=(4,), seed=0)
    assert simulate_free_run(m, ds).y_pred.shape[0] == 25
    ds6 = _small_ds(n=6)
    assert simulate_free_run(m, ds6).y_pred.shape[0] == 1
    with pytest.raises(InvalidArgumentError):
        simulate_free_run(m, _small_ds(n=5))


def test_free_run_cct_shape_count():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((1024, 1)), rng.standard_normal((1024, 1)), 4.0)
    m = init_model(2, 1, 1, 5, 5, SolverConfig(tau=8.0, dt=4.0), IDENT, hidden=(4,), seed=0)
    assert simulate_free_run(m, ds).y_pred.shape[0] == 1019


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_free_run_sees_weights_updated_in_place(mode):
    # training updates its live model's values in place (Adam), so every free run
    # must use the weights of that moment, as a fresh model over them does
    ds = _small_ds(n=60)
    m = init_model(2, 1, 1, 2, 2, SolverConfig(dt=ds.dt), IDENT, mode=mode, hidden=(8,), seed=4)
    new = m.values + 0.05 * np.random.default_rng(1).standard_normal(m.values.size)
    fresh = model_with_values(m, new)  # built before m runs, so it shares nothing m keeps
    before = simulate_free_run(m, ds)
    m.values[:] = new
    after, ref = simulate_free_run(m, ds), simulate_free_run(fresh, ds)
    assert not np.array_equal(after.states, before.states)
    assert np.array_equal(after.states, ref.states) and np.array_equal(after.y_pred, ref.y_pred)


def _contracting_model(mode):
    """Random 8x8 nets whose f has a contracting linear part, so long rollouts stay bounded."""
    m = init_model(2, 1, 1, 3, 3, SolverConfig("rk4", 2, 2.0, 0.5), IDENT,
                   mode=mode, hidden=(8, 8), seed=3)
    m.f_net.bypass[:2] = -np.eye(2) if mode == "ct" else 0.5 * np.eye(2)
    return m


def _per_step_rollout(m, x0, u_steps):
    """Reference rollout evaluating h at every step, before the state update."""
    B, T = u_steps.shape[:2]
    states, outputs = np.empty((B, T + 1, m.n_x)), np.empty((B, T, m.n_y))
    f = lambda x, u: mlp_forward(m.f_net, np.concatenate([x, u], axis=1))
    x = x0
    for k in range(T):
        states[:, k] = x
        outputs[:, k] = mlp_forward(m.h_net, x)
        x = f(x, u_steps[:, k]) if m.mode == "dt" else ode_step(f, x, u_steps[:, k], m.solver)
    states[:, T] = x
    return states, outputs


@pytest.mark.parametrize("mode, B, T", [("ct", 1, ROW_BLOCK + 37), ("ct", 3, 50),
                                        ("ct", 2, 0), ("dt", 2, 60)])
def test_no_gradient_rollout_matches_per_step_h(monkeypatch, mode, B, T):
    # without caches f is the rollout's folded forward and h runs after the loop on
    # the stacked states, in row blocks: states and outputs agree to a few ulps
    m = _contracting_model(mode)
    rng = np.random.default_rng(B + T)
    x0, u_steps = rng.standard_normal((B, 2)), rng.standard_normal((B, T, 1))
    ref_states, ref_outputs = _per_step_rollout(m, x0, u_steps)

    rows = []
    for ns in (model_mod, ode_mod):
        def spy(net, x, _fwd=ns.mlp_forward_cached):
            rows.append(x.shape[0])
            return _fwd(net, x)
        monkeypatch.setattr(ns, "mlp_forward_cached", spy)
    states, outputs = _sim_forward(m, x0, u_steps, np.arange(B))

    assert np.abs(states - ref_states).max() <= 1e-12 * np.abs(ref_states).max()
    assert outputs.shape == (B, T, 1)
    if T:
        assert np.abs(outputs - ref_outputs).max() <= 1e-12 * ref_outputs.std()
    assert max(rows, default=0) <= ROW_BLOCK
    # only h goes through mlp_forward_cached
    assert len(rows) == math.ceil(B * T / ROW_BLOCK)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_gradient_rollout_evaluates_h_per_step(mode):
    # with caches the rollout keeps the per-step h of the reference, bit for bit,
    # so training arithmetic does not depend on how free runs evaluate h
    m = _contracting_model(mode)
    rng = np.random.default_rng(7)
    x0, u_steps = rng.standard_normal((4, 2)), rng.standard_normal((4, 30, 1))
    ref_states, ref_outputs = _per_step_rollout(m, x0, u_steps)
    caches = []
    states, outputs = _sim_forward(m, x0, u_steps, np.arange(4), caches)
    assert np.array_equal(states, ref_states) and np.array_equal(outputs, ref_outputs)
    assert len(caches) == 30
    assert all(np.array_equal(h_cache[0], states[:, k]) for k, (h_cache, _) in enumerate(caches))


# ---------------------------------------------------------------- dt mode


def test_dt_step_identity_bypass():
    block = np.zeros((3, 2))
    block[0, 0] = block[1, 1] = 1.0
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=0, mode="dt")
    m = dataclasses.replace(m, f_net=_linear_net(3, 2, block))
    x = np.array([0.3, -0.7])
    assert np.allclose(dt_step(m, x, np.array([5.0])), x, rtol=0, atol=0)


def test_dt_step_zero_net():
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=0, mode="dt")
    m = dataclasses.replace(m, f_net=_linear_net(3, 2, np.zeros((3, 2))))
    assert np.array_equal(dt_step(m, np.ones(2), np.ones(1)), np.zeros(2))


def test_dt_step_matches_forward():
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(6,), seed=3, mode="dt")
    x, u = np.array([0.2, 0.4]), np.array([-1.0])
    assert np.array_equal(dt_step(m, x, u), mlp_forward(m.f_net, np.concatenate([x, u])))


def test_dt_step_rejects_ct_model():
    m = init_model(2, 1, 1, 2, 2, SolverConfig(), IDENT, hidden=(4,), seed=0)
    with pytest.raises(InvalidArgumentError):
        dt_step(m, np.ones(2), np.ones(1))


def test_dt_mode_simulation_uses_f_directly():
    ds = _small_ds()
    m = init_model(2, 1, 1, 2, 2, SolverConfig(dt=ds.dt), IDENT, hidden=(6,), seed=3, mode="dt")
    res = simulate_subsection(m, ds, 3, 4)
    x = res.states[0]
    for k in range(4):
        x = dt_step(m, x, ds.u[3 + k])  # identity norm: raw equals normalized
    assert np.allclose(res.states[4], x, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------- invariants


def test_encoder_existence_guard():
    with pytest.raises(InvalidArgumentError, match="encoder cannot exist"):
        init_model(2, 1, 1, 1, 1, SolverConfig(), IDENT, hidden=(4,), seed=0)


def test_degenerate_encoder_allowed_for_equivalence_mode():
    m = SubnetModel(
        mlp_init([3, 4, 2], True, 0), mlp_init([2, 4, 1], True, 1),
        constant_psi(2, np.array([0.1, -0.2])), SolverConfig(), 2, 1, 1, 0, 0, IDENT)
    assert m.lag == 0


def test_dim_validation():
    f, h = mlp_init([3, 4, 2], True, 0), mlp_init([2, 4, 1], True, 1)
    psi = mlp_init([8, 4, 2], True, 2)
    with pytest.raises(InvalidArgumentError):  # psi expects n_a=n_b=2 -> 4 inputs
        SubnetModel(f, h, psi, SolverConfig(), 2, 1, 1, 2, 2, IDENT)


def test_channel_mismatch():
    ds = Dataset(np.ones((20, 2)) + np.arange(20)[:, None], np.ones((20, 1)), 1.0)
    m = init_model(2, 1, 1, 3, 3, SolverConfig(), IDENT, hidden=(4,), seed=0)
    with pytest.raises(InvalidArgumentError):
        simulate_free_run(m, ds)


# ---------------------------------------------------------------- flatten / mask


def test_model_flatten_roundtrip():
    m = init_model(2, 1, 1, 3, 3, SolverConfig(), IDENT, hidden=(8, 8), seed=7)
    flat = model_flatten(m)
    m2 = model_with_values(m, flat.values.copy())
    assert np.array_equal(model_flatten(m2).values, flat.values)


def test_segment_mask_partition():
    # the f | h | psi slices tile the vector, and each one is its network's vector
    m = init_model(2, 1, 1, 3, 3, SolverConfig(), IDENT, hidden=(4,), seed=7)
    seg = m.segments
    assert (seg["f"].start, seg["f"].stop) == (0, m.f_net.n_params)
    assert seg["h"].start == seg["f"].stop and seg["psi"].start == seg["h"].stop
    assert seg["psi"].stop == m.values.size
    for name, net in (("f", m.f_net), ("h", m.h_net), ("psi", m.psi_net)):
        assert np.shares_memory(net.values, m.values[seg[name]])
        assert np.array_equal(net.values, m.values[seg[name]])
    with pytest.raises(InvalidArgumentError):
        TrainConfig(trainable=("f", "g"))


# ---------------------------------------------------------------- serialization


def test_serialization_roundtrip_bit_exact(tmp_path):
    m = init_model(2, 1, 1, 5, 5, SolverConfig("rk4", 1, 7.833, 4.0),
                   NormStats(np.array([0.9]), np.array([0.5]), np.array([3.3]), np.array([1.7])),
                   hidden=(64, 64), seed=0)
    save_model(m, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert np.array_equal(model_flatten(back).values, model_flatten(m).values)
    assert back.solver == m.solver
    assert np.array_equal(back.norm.u_mean, m.norm.u_mean)
    assert (back.n_x, back.n_a, back.n_b, back.mode) == (m.n_x, m.n_a, m.n_b, m.mode)
    # serialize -> parse -> serialize is a fixed point
    d1 = model_to_dict(back)
    assert d1 == model_to_dict(model_from_dict(d1))


def test_serialization_roundtrip_constant_encoder_no_bypass(tmp_path):
    # a zero-input encoder and an h network without bypass load back exactly
    psi = constant_psi(2, np.array([0.3, -1.7]))
    m = SubnetModel(mlp_init([3, 5, 2], True, 1), mlp_init([2, 4, 4, 1], False, 2), psi,
                    SolverConfig(), 2, 1, 1, 0, 0, IDENT)
    save_model(m, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert back.h_net.bypass is None and back.psi_net.bypass is None
    assert back.psi_net.layer_sizes == [0, 2] and back.h_net.layer_sizes == [2, 4, 4, 1]
    assert np.array_equal(back.values, m.values)
    for a, b in zip(back.h_net.weights + back.h_net.biases, m.h_net.weights + m.h_net.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("net,layer_sizes,with_bypass,n_values", [
    ("h", [2, 0, 1], True, 3),       # a zero-width hidden layer, with a blob that fits it
    ("h", [2, 4, 1], "no", 19),      # a string where a bool belongs
    ("f", [3, -4, 2], True, None),   # a negative width
    ("f", [3.0, 4, 2], True, None),  # a non-integer size
    ("psi", [10], True, None),       # fewer than two sizes
])
def test_load_model_rejects_malformed_network_shapes(tmp_path, net, layer_sizes, with_bypass,
                                                     n_values):
    m = init_model(2, 1, 1, 5, 5, SolverConfig(), IDENT, hidden=(4,), seed=0)
    doc = model_to_dict(m)
    doc["networks"][net].update(layer_sizes=layer_sizes, with_bypass=with_bypass)
    if n_values is not None:
        doc["networks"][net]["params_b64"] = _encode_array(np.zeros(n_values))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"networks\\.{net}"):
        load_model(path)


def test_serialization_irrational_values_roundtrip(tmp_path):
    m = init_model(2, 1, 1, 3, 3, SolverConfig(tau=np.pi, dt=1 / 3), IDENT, hidden=(4,), seed=1)
    noisy = model_with_values(m, model_flatten(m).values * np.pi)
    save_model(noisy, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert np.array_equal(model_flatten(back).values, model_flatten(noisy).values)
    assert back.solver.tau == np.pi and back.solver.dt == 1 / 3


def test_load_model_errors(tmp_path):
    with pytest.raises(ParseError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ParseError):
        load_model(wrong)

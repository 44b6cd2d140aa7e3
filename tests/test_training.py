import dataclasses

import numpy as np
import pytest

from subnet.data import Dataset, NormStats, SyntheticConfig, fit_normalizer, generate_synthetic
from subnet.errors import DegenerateDataError, InvalidArgumentError
from subnet.model import (
    SubnetModel,
    constant_psi,
    init_model,
    model_flatten,
    model_with_values,
)
from subnet.nnmath import MLPParams, finite_diff_gradient
from subnet.ode import SolverConfig
from subnet.training import (
    TrainConfig,
    full_sim_loss,
    save_history_csv,
    suggest_tau,
    train,
    truncated_loss_and_grad,
)

IDENT = NormStats.identity(1, 1)


def _linear_net(n_in, n_out, matrix):
    return MLPParams((np.zeros((n_out, n_in)),), (np.zeros(n_out),),
                     np.asarray(matrix, dtype=np.float64))


def _toy(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)), 0.5)


def _toy_model(ds, seed=1, n_a=3, n_b=3, hidden=(8, 8), tau=4.0):
    return init_model(2, 1, 1, n_a, n_b, SolverConfig("rk4", 1, tau, ds.dt),
                      fit_normalizer(ds), hidden=hidden, seed=seed)


# ---------------------------------------------------------------- losses


def test_truncated_loss_perfect_model_zero():
    from tests.test_model import _wrap_linear2_truth

    cfg = SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=3,
                          noise_std=0.0, truth_substeps=16)
    ds, _ = generate_synthetic(cfg)
    m = _wrap_linear2_truth(cfg)
    loss, grad = truncated_loss_and_grad(m, ds, [2, 10, 25], 20)
    assert loss <= 1e-10
    assert np.abs(grad.values).max() <= 1e-5  # tiny residual via solver round-off


def test_truncated_loss_h_zero_recomputation():
    ds = _toy(4)
    m = _toy_model(ds)
    h0 = _linear_net(2, 1, np.zeros((2, 1)))
    m = dataclasses.replace(m, h_net=h0)
    batch, T = [3, 7, 12], 9
    loss, _ = truncated_loss_and_grad(m, ds, batch, T)
    y_norm = (ds.y - m.norm.y_mean) / m.norm.y_std
    expect = np.mean([np.sum(y_norm[n:n + T] ** 2) / T for n in batch])
    assert loss == pytest.approx(expect, rel=1e-12)


def test_truncated_loss_validates_indices():
    ds = _toy()
    m = _toy_model(ds)
    with pytest.raises(InvalidArgumentError):
        truncated_loss_and_grad(m, ds, [2], 10)  # below lag
    with pytest.raises(InvalidArgumentError):
        truncated_loss_and_grad(m, ds, [35], 10)  # runs past the end
    with pytest.raises(InvalidArgumentError):
        truncated_loss_and_grad(m, ds, [], 10)


def test_full_sim_loss_single_sample_h_zero():
    ds = Dataset(np.array([[0.5]]), np.array([[2.0]]), 1.0)
    m = init_model(2, 1, 1, 2, 2, SolverConfig(dt=1.0), IDENT, hidden=(4,), seed=0)
    m = dataclasses.replace(m, h_net=_linear_net(2, 1, np.zeros((2, 1))),
                            psi_net=constant_psi(2, np.zeros(2)), n_a=0, n_b=0)
    loss, _, _ = full_sim_loss(m, ds, np.zeros(2))
    assert loss == 4.0  # ||y_0||^2


def test_full_sim_gradients_match_fd():
    ds = _toy(2, n=8)
    m = init_model(2, 1, 1, 0, 0, SolverConfig("rk4", 1, 2.0, ds.dt), fit_normalizer(ds),
                   hidden=(6,), seed=3) if False else None
    # init_model refuses n_a=n_b=0; build the degenerate encoder directly
    base = init_model(2, 1, 1, 2, 2, SolverConfig("rk4", 1, 2.0, ds.dt),
                      fit_normalizer(ds), hidden=(6,), seed=3)
    m = dataclasses.replace(base, psi_net=constant_psi(2, np.zeros(2)), n_a=0, n_b=0)
    x0 = np.array([0.3, -0.2])
    loss, g_theta, g_x0 = full_sim_loss(m, ds, x0)

    fd_theta = finite_diff_gradient(
        lambda flat: full_sim_loss(model_with_values(m, flat.values), ds, x0)[0],
        model_flatten(m), 1e-6)
    rel = np.abs(g_theta.values - fd_theta.values) / np.maximum(
        1e-10, np.maximum(np.abs(g_theta.values), np.abs(fd_theta.values)))
    assert rel.max() <= 1e-5

    fd_x0 = np.array([
        (full_sim_loss(m, ds, x0 + 1e-6 * e)[0] - full_sim_loss(m, ds, x0 - 1e-6 * e)[0]) / 2e-6
        for e in np.eye(2)])
    assert np.abs(g_x0 - fd_x0).max() <= 1e-6


def _records_key(hist):
    # nan-safe comparison: repr is exact for binary64 and equates nan with nan
    return [(r.update, repr(r.train_loss), repr(r.val_rmse)) for r in hist.records]


def test_pipeline_gradient_all_networks_fd():
    ds = _toy(7, n=44)
    m = _toy_model(ds, seed=5, hidden=(6, 6))
    batch, T = [4, 9], 16
    _, grad = truncated_loss_and_grad(m, ds, batch, T)
    fd = finite_diff_gradient(
        lambda flat: truncated_loss_and_grad(model_with_values(m, flat.values), ds, batch, T)[0],
        model_flatten(m), 1e-6)
    rel = np.abs(grad.values - fd.values) / np.maximum(
        1e-10, np.maximum(np.abs(grad.values), np.abs(fd.values)))
    assert rel.max() <= 1e-5


def test_equivalence_truncated_vs_full():
    # T=N, n_a=n_b=0, encoder pinned to x0: the two losses coincide exactly
    ds = _toy(11, n=64)
    base = init_model(2, 1, 1, 2, 2, SolverConfig("rk4", 1, 3.0, ds.dt),
                      fit_normalizer(ds), hidden=(8, 8), seed=2)
    x0 = np.array([0.4, -0.1])
    m = dataclasses.replace(base, psi_net=constant_psi(2, x0), n_a=0, n_b=0)
    l_trunc, _ = truncated_loss_and_grad(m, ds, [0], 64)
    l_full, _, _ = full_sim_loss(m, ds, x0)
    assert abs(l_trunc - l_full) <= 1e-12 * abs(l_full)


# ---------------------------------------------------------------- train loop


def test_train_zero_updates_returns_m0():
    ds = _toy(1)
    m0 = _toy_model(ds)
    best, hist = train(m0, ds, ds, TrainConfig(T=8, batch_size=4, max_updates=0, seed=0))
    assert np.array_equal(model_flatten(best).values, model_flatten(m0).values)
    assert len(hist.records) == 1 and hist.records[0].update == 0
    assert hist.best_val_rmse == hist.records[0].val_rmse


def test_train_improves_on_linear2():
    cfg = SyntheticConfig(system="linear2", n_samples=200, dt=0.5, seed=6, noise_std=0.02)
    ds, _ = generate_synthetic(cfg)
    val, _ = generate_synthetic(dataclasses.replace(cfg, seed=7))
    m0 = _toy_model(ds, seed=0, hidden=(16, 16), tau=1.0 / suggest_tau(ds))
    tc = TrainConfig(T=16, batch_size=16, max_updates=1500, eval_every=150,
                     patience=10, seed=0)
    best, hist = train(m0, ds, val, tc)
    first = hist.records[0].val_rmse
    assert hist.best_val_rmse < first
    assert hist.best_val_rmse == min(r.val_rmse for r in hist.records)


def test_train_deterministic():
    ds = _toy(3, n=60)
    val = _toy(4, n=40)
    m0 = _toy_model(ds, seed=9, hidden=(6,))
    tc = TrainConfig(T=10, batch_size=8, max_updates=120, eval_every=40, patience=5, seed=5)
    b1, h1 = train(m0, ds, val, tc)
    b2, h2 = train(m0, ds, val, tc)
    assert _records_key(h1) == _records_key(h2)
    assert h1.best_checkpoint == h2.best_checkpoint
    assert np.array_equal(model_flatten(b1).values, model_flatten(b2).values)


def test_train_best_checkpoint_invariants():
    ds = _toy(5, n=60)
    val = _toy(6, n=40)
    m0 = _toy_model(ds, seed=2, hidden=(6,))
    tc = TrainConfig(T=10, batch_size=8, max_updates=200, eval_every=25, patience=100, seed=1)
    best, hist = train(m0, ds, val, tc)
    finite = [r.val_rmse for r in hist.records if np.isfinite(r.val_rmse)]
    assert hist.best_val_rmse == min(finite)
    # running best is non-increasing across evaluations
    running = np.minimum.accumulate([r.val_rmse for r in hist.records])
    assert all(a >= b for a, b in zip(running, running[1:]))
    # the returned model really is the stored checkpoint
    from subnet.training import _val_rmse
    assert _val_rmse(best, val) == pytest.approx(hist.best_val_rmse, rel=1e-12)


def test_train_validates_config_vs_model():
    ds = _toy(1)
    m0 = _toy_model(ds)
    with pytest.raises(InvalidArgumentError):
        train(m0, ds, ds, TrainConfig(mode="dt"))
    with pytest.raises(InvalidArgumentError):  # full loss needs a constant encoder
        train(m0, ds, ds, TrainConfig(loss_target="full"))
    with pytest.raises(InvalidArgumentError):  # infeasible dataset
        train(m0, _toy(1, n=10), ds, TrainConfig(T=30))


def test_train_full_loss_target_runs():
    ds = _toy(12, n=24)
    base = init_model(2, 1, 1, 2, 2, SolverConfig("rk4", 1, 2.0, ds.dt),
                      fit_normalizer(ds), hidden=(6,), seed=4)
    m0 = dataclasses.replace(base, psi_net=constant_psi(2, np.zeros(2)), n_a=0, n_b=0)
    tc = TrainConfig(T=1, batch_size=1, max_updates=60, eval_every=20, patience=50,
                     seed=0, loss_target="full")
    best, hist = train(m0, ds, ds, tc)
    losses = [r.train_loss for r in hist.records if np.isfinite(r.train_loss)]
    assert losses[-1] < losses[0]  # x0 and theta both move


def test_history_csv_roundtrip(tmp_path):
    ds = _toy(1)
    m0 = _toy_model(ds)
    _, hist = train(m0, ds, ds, TrainConfig(T=8, batch_size=4, max_updates=40,
                                            eval_every=20, seed=0))
    save_history_csv(hist, tmp_path / "h.csv")
    rows = (tmp_path / "h.csv").read_text().strip().splitlines()
    assert rows[0] == "update,train_loss,val_rmse"
    assert len(rows) == len(hist.records) + 1
    upd, loss, val = rows[-1].split(",")
    assert int(upd) == hist.records[-1].update
    assert float(val) == hist.records[-1].val_rmse


# ---------------------------------------------------------------- suggest_tau


def test_suggest_tau_sine():
    omega, dt = 2.0, 0.05  # omega*dt = 0.1, well below the aliasing guard
    k = np.arange(4000)
    y = np.sin(omega * k * dt)
    ds = Dataset(np.ones((4000, 1)) + 0.001 * np.cos(k)[:, None], y[:, None], dt)
    rate = suggest_tau(ds)
    assert abs(rate - omega) / omega <= 0.05


def test_suggest_tau_constant_output():
    ds = Dataset(np.random.default_rng(0).standard_normal((50, 1)), np.ones((50, 1)), 1.0)
    with pytest.raises(DegenerateDataError):
        suggest_tau(ds)


def test_suggest_tau_pilot_rotation_fixed_point():
    # pure rotation: ||dx|| == ||x|| at every sample, so RMS(dx)/RMS(x) == 1
    rot = np.zeros((3, 2))
    rot[0, 1] = 1.0
    rot[1, 0] = -1.0  # f(x, u) = [x2, -x1]
    f_net = _linear_net(3, 2, rot)
    h_net = _linear_net(2, 1, np.array([[1.0], [0.0]]))
    psi = constant_psi(2, np.array([1.0, 0.0]))
    m = SubnetModel(f_net, h_net, psi, SolverConfig("rk4", 4, 1.0, 0.05),
                    2, 1, 1, 0, 0, IDENT)
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((300, 1)), rng.standard_normal((300, 1)), 0.05)
    rate = suggest_tau(ds, pilot=m)
    assert abs(rate - 1.0) <= 1e-12


def test_suggest_tau_needs_two_samples():
    ds = Dataset(np.ones((1, 1)), np.ones((1, 1)), 1.0)
    with pytest.raises(InvalidArgumentError):
        suggest_tau(ds)


# ---------------------------------------------------------------- gradient sweep


def _fd_model(mode, method, substeps, n_a, n_b, ds):
    solver = SolverConfig(method, substeps, 1.5, ds.dt)
    if (n_a, n_b) == (0, 0):  # free initial state: constant encoder, zero-size weight
        base = init_model(2, 1, 1, 2, 2, solver, fit_normalizer(ds), mode=mode,
                          hidden=(4,), seed=11)
        return dataclasses.replace(base, psi_net=constant_psi(2, [0.3, -0.4]), n_a=0, n_b=0)
    return init_model(2, 1, 1, n_a, n_b, solver, fit_normalizer(ds), mode=mode,
                      hidden=(4,), seed=11)


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("T", [1, 7])
@pytest.mark.parametrize("lags", [(2, 2), (3, 1), (0, 0)])
@pytest.mark.parametrize("mode,method,substeps", [
    ("ct", "euler", 1), ("ct", "euler", 3), ("ct", "rk4", 1), ("ct", "rk4", 3),
    ("dt", "rk4", 1)])
def test_truncated_gradient_fd_sweep(mode, method, substeps, lags, T):
    ds = _toy(21, n=30)
    m = _fd_model(mode, method, substeps, *lags, ds)
    batch = np.random.default_rng(T).integers(m.lag, ds.n - T + 1, 5)
    _, grad = truncated_loss_and_grad(m, ds, batch, T)
    fd = finite_diff_gradient(
        lambda flat: truncated_loss_and_grad(model_with_values(m, flat.values), ds, batch, T)[0],
        model_flatten(m), 1e-5)  # a smaller step leaves ~1e-10 of rounding in each entry
    assert np.any(grad.values[m.segments["psi"]] != 0.0)  # the encoder takes part
    assert _rel_err(grad.values, fd.values).max() <= 1e-5


def test_full_sim_loss_psi_b0_slot_fd():
    # train's full-loss path writes g_x0 into the psi.b0 view of the gradient; that must
    # be the gradient of the loss with x0 read from the constant encoder
    ds = _toy(22, n=12)
    m = _fd_model("ct", "rk4", 2, 0, 0, ds)
    x0 = m.psi_net.biases[0]
    _, grad, g_x0 = full_sim_loss(m, ds, x0)
    assert not grad.values[m.segments["psi"]].any()  # the encoder itself does not take part
    as_model = model_with_values(m, grad.values)
    as_model.psi_net.biases[0][:] = g_x0
    fd = finite_diff_gradient(
        lambda flat: full_sim_loss(mv := model_with_values(m, flat.values), ds,
                                   mv.psi_net.biases[0])[0],
        model_flatten(m), 1e-5)
    assert np.array_equal(as_model.values[m.segments["psi"]], g_x0)
    assert _rel_err(as_model.values, fd.values).max() <= 1e-5


# ---------------------------------------------------------------- aliasing


def test_train_leaves_m0_unchanged():
    ds, val = _toy(3, n=60), _toy(4, n=40)
    m0 = _toy_model(ds, seed=9, hidden=(6,))
    before = model_flatten(m0).values
    f_w0 = m0.f_net.weights[0].copy()
    best, hist = train(m0, ds, val, TrainConfig(T=10, batch_size=8, max_updates=60,
                                                eval_every=20, seed=5))
    assert np.array_equal(model_flatten(m0).values, before)
    assert np.array_equal(m0.f_net.weights[0], f_w0)
    assert hist.best_update > 0 and not np.array_equal(model_flatten(best).values, before)


def test_flat_vectors_do_not_alias_models():
    m = _toy_model(_toy(5))
    before = model_flatten(m).values
    model_flatten(m).values[:] = 7.0
    assert np.array_equal(m.values, before)
    incoming = before * 0.5
    m2 = model_with_values(m, incoming)
    incoming[:] = 7.0
    assert np.array_equal(m2.values, before * 0.5)
    assert np.array_equal(m2.f_net.weights[0].ravel(), (before * 0.5)[:m2.f_net.weights[0].size])
    assert np.array_equal(m.values, before)


def test_model_with_values_rejects_nonfinite():
    m = _toy_model(_toy(5))
    bad = model_flatten(m).values
    bad[3] = np.inf
    with pytest.raises(InvalidArgumentError):
        model_with_values(m, bad)


def test_train_f_only_keeps_h_and_psi():
    ds, val = _toy(3, n=60), _toy(4, n=40)
    m0 = _toy_model(ds, seed=9, hidden=(6,))
    best, hist = train(m0, ds, val, TrainConfig(T=10, batch_size=8, max_updates=60,
                                                eval_every=20, seed=5, trainable=("f",)))
    assert hist.best_update > 0
    seg = m0.segments
    for name in ("h", "psi"):
        assert np.array_equal(best.values[seg[name]], m0.values[seg[name]])
    assert not np.array_equal(best.values[seg["f"]], m0.values[seg["f"]])

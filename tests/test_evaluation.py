import dataclasses

import numpy as np
import pytest

from subnet.data import (
    Dataset,
    NormStats,
    SyntheticConfig,
    SyntheticSystem,
    fit_normalizer,
    generate_synthetic,
    make_system,
)
from subnet.errors import (
    DegenerateDataError,
    InvalidArgumentError,
    NoSolutionError,
    ObservabilityError,
)
from subnet.evaluation import (
    ProbeResult,
    SweepCell,
    evaluate_model,
    nrmse,
    reconstruct_oracle,
    rmse,
    run_cell,
    save_probe_csv,
    save_sweep_csv,
    smoothness_probe,
    tau_sweep,
    verify_theorem2,
)
from subnet.model import SubnetModel, constant_psi, init_model
from subnet.nnmath import MLPParams
from subnet.ode import SolverConfig
from subnet.training import TrainConfig, train

IDENT = NormStats.identity(1, 1)


def _linear_net(n_in, n_out, matrix):
    return MLPParams((np.zeros((n_out, n_in)),), (np.zeros(n_out),),
                     np.asarray(matrix, dtype=np.float64))


# ---------------------------------------------------------------- rmse / nrmse


def test_rmse_zero_on_equal():
    y = np.random.default_rng(0).standard_normal((10, 2))
    assert rmse(y, y.copy()) == 0.0


def test_rmse_unit_case():
    assert rmse(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0


def test_rmse_hand_computation():
    got = rmse(np.array([1.0, 2.0, 3.0]), np.array([1.1, 1.9, 3.2]))
    assert got == pytest.approx(np.sqrt(0.06 / 3), rel=1e-12)


def test_rmse_permutation_invariant():
    rng = np.random.default_rng(1)
    y, yh = rng.standard_normal(20), rng.standard_normal(20)
    perm = rng.permutation(20)
    assert rmse(y, yh) == pytest.approx(rmse(y[perm], yh[perm]), rel=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(InvalidArgumentError):
        rmse(np.zeros(3), np.zeros(4))


def test_nrmse_scales_by_std():
    rng = np.random.default_rng(2)
    y = 5.0 * rng.standard_normal(500)
    yh = y + 1.0
    assert nrmse(y, yh) == pytest.approx(1.0 / y.std(), rel=1e-12)
    with pytest.raises(DegenerateDataError):
        nrmse(np.ones(5), np.zeros(5))


# ---------------------------------------------------------------- state rms


def _frozen_model(x_const):
    f_net = _linear_net(3, 2, np.zeros((3, 2)))
    h_net = _linear_net(2, 1, np.array([[1.0], [0.0]]))
    return SubnetModel(f_net, h_net, constant_psi(2, np.asarray(x_const)),
                       SolverConfig(dt=1.0), 2, 1, 1, 0, 0, IDENT)


def test_state_rms_zero_model():
    ds = Dataset(np.random.default_rng(0).standard_normal((30, 1)),
                 np.random.default_rng(1).standard_normal((30, 1)), 1.0)
    report = evaluate_model(_frozen_model([0.0, 0.0]), ds)
    assert report.rms_x == 0.0 and report.rms_f == 0.0


def test_state_rms_constant_ones():
    ds = Dataset(np.random.default_rng(0).standard_normal((30, 1)),
                 np.random.default_rng(1).standard_normal((30, 1)), 1.0)
    assert evaluate_model(_frozen_model([1.0, 1.0]), ds).rms_x == pytest.approx(1.0, rel=1e-12)


def test_state_rms_matches_recomputation():
    from subnet.model import simulate_free_run
    from subnet.nnmath import mlp_forward

    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((40, 1)), rng.standard_normal((40, 1)), 0.5)
    m = init_model(2, 1, 1, 3, 3, SolverConfig("rk4", 1, 5.0, 0.5), IDENT, hidden=(6,), seed=2)
    report = evaluate_model(m, ds)
    rms_x, rms_f = report.rms_x, report.rms_f
    tr = simulate_free_run(m, ds)
    x = tr.states[:-1]
    fv = mlp_forward(m.f_net, np.concatenate([x, ds.u[3:]], axis=1))
    assert rms_x == pytest.approx(float(np.sqrt(np.mean(x * x))), rel=1e-12)
    assert rms_f == pytest.approx(float(np.sqrt(np.mean(fv * fv))), rel=1e-12)


# ---------------------------------------------------------------- normalization identity


def test_theorem2_constant_state():
    report = verify_theorem2(np.full(50, 3.0), np.random.default_rng(0).standard_normal(50))
    assert report.gamma == 3.0
    assert report.rms_x_tilde == pytest.approx(1.0, abs=1e-12)


def test_theorem2_sine_exact_derivative():
    k = np.arange(2000) / 10.0
    report = verify_theorem2(2.0 * np.sin(k), 2.0 * np.cos(k) / 10.0 * 10.0)
    assert report.rms_x_tilde == pytest.approx(1.0, abs=1e-12)
    assert report.rms_f_tilde == pytest.approx(1.0, abs=1e-12)


def test_theorem2_zero_state_rejected():
    with pytest.raises(DegenerateDataError):
        verify_theorem2(np.zeros(10), np.ones(10))
    with pytest.raises(DegenerateDataError):
        verify_theorem2(np.ones(10), np.zeros(10))


def test_theorem2_random_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-3, 3)
        x = scale * rng.standard_normal((n, d))
        dx = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, d))
        rep = verify_theorem2(x, dx)
        assert abs(rep.rms_x_tilde - 1.0) <= 1e-9
        assert abs(rep.rms_f_tilde - 1.0) <= 1e-9


# ---------------------------------------------------------------- smoothness probe


def test_probe_dead_parameters():
    # h == 0 and zero targets: the loss is flat to first order everywhere
    f_net = _linear_net(3, 2, np.zeros((3, 2)))
    h_net = MLPParams((np.zeros((4, 2)), np.zeros((1, 4))), (np.zeros(4), np.zeros(1)),
                      np.zeros((2, 1)))
    m = SubnetModel(f_net, h_net, constant_psi(2, np.zeros(2)),
                    SolverConfig(dt=1.0), 2, 1, 1, 0, 0, IDENT)
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((40, 1)), np.zeros((40, 1)), 1.0)
    res = smoothness_probe(m, ds, [4, 8], n_probes=16, eps=1e-4, seed=0)
    assert all(r.l_hat <= 1e-3 for r in res)
    assert all(r.n_failed == 0 for r in res)


def test_probe_scalar_growth_in_T():
    # x+ = a x with a > 1 (dt mode): endpoint sensitivity grows with T
    a = 1.06
    f_net = _linear_net(2, 1, np.array([[a], [0.0]]))
    h_net = _linear_net(1, 1, np.array([[1.0]]))
    m = SubnetModel(f_net, h_net, constant_psi(1, np.array([1.0])),
                    SolverConfig(dt=1.0), 1, 1, 1, 0, 0, IDENT, mode="dt")
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((150, 1)), np.zeros((150, 1)), 1.0)
    res = smoothness_probe(m, ds, [8, 64], n_probes=24, eps=1e-5, seed=3)
    assert res[1].l_hat > res[0].l_hat


def test_probe_rejects_bad_args(toy_model, toy_dataset):
    with pytest.raises(InvalidArgumentError):
        smoothness_probe(toy_model, toy_dataset, [4], n_probes=0, eps=1e-4)
    with pytest.raises(InvalidArgumentError):
        smoothness_probe(toy_model, toy_dataset, [4], n_probes=4, eps=0.0)


def test_probe_csv(tmp_path):
    save_probe_csv([(3, [ProbeResult(8, 1.5, 0), ProbeResult(32, 4.0, 1)]),
                    (None, [ProbeResult(8, 2.5, 2)])], tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_text().splitlines()
    assert text[0] == "setting,seed,metric,value"
    assert text[1:] == ["8,3,l_hat,1.5", "8,3,n_failed,0", "32,3,l_hat,4.0", "32,3,n_failed,1",
                        "8,,l_hat,2.5", "8,,n_failed,2"]


# ---------------------------------------------------------------- reconstruction oracle


def test_reconstruct_scalar_linear_closed_form():
    # continuous system whose one-sample map is exactly x -> 0.9 x, y = x
    dt = 0.5
    lam = np.log(0.9) / dt
    sys1 = SyntheticSystem("lin1", 1, 1, 1,
                           lambda x, u: lam * x, lambda x: x.copy(),
                           np.array([1.0]))
    # y_{n-1} = 2.0 known; the oracle must return 0.9 * 2.0
    u = np.zeros((4, 1))
    y = np.array([[1.0], [2.0], [1.8], [1.62]])
    ds = Dataset(u, y, dt)
    x_hat = reconstruct_oracle(sys1, ds, 2, 1, substeps=16, state_box=(-3.0, 3.0))
    assert x_hat[0] == pytest.approx(0.9 * 2.0, abs=1e-6)


def test_reconstruct_tanks_noiseless():
    # interior excitation: windows touching the hard clamp are not invertible
    cfg = SyntheticConfig(system="cascaded_tanks", n_samples=120, dt=4.0, seed=5,
                          noise_std=0.0, truth_substeps=32,
                          params={"input_offset": 0.7, "input_scale": 0.25,
                                  "x01": 2.0, "x02": 3.0})
    ds, trace = generate_synthetic(cfg)
    system = make_system(cfg)
    for n in (20, 60, 100):
        x_hat = reconstruct_oracle(system, ds, n, 3, substeps=32, state_box=(0.0, 10.0))
        assert np.linalg.norm(x_hat - trace.states[n]) <= 1e-3


def test_reconstruct_observability_violation():
    cfg = SyntheticConfig(system="cascaded_tanks", n_samples=50, seed=0)
    ds, _ = generate_synthetic(cfg)
    system = make_system(cfg)
    with pytest.raises(ObservabilityError):
        reconstruct_oracle(system, ds, 10, 1)  # z*n_y = 1 < n_x = 2


def test_reconstruct_no_solution():
    bad = SyntheticSystem("nan", 1, 1, 1,
                          lambda x, u: np.array([np.inf]), lambda x: x.copy(),
                          np.array([0.0]))
    ds = Dataset(np.zeros((5, 1)), np.ones((5, 1)), 1.0)
    with pytest.raises(NoSolutionError):
        reconstruct_oracle(bad, ds, 3, 1)


def test_reconstruct_validates_args():
    cfg = SyntheticConfig(system="linear2", n_samples=20, seed=0)
    ds, _ = generate_synthetic(cfg)
    system = make_system(cfg)
    with pytest.raises(InvalidArgumentError):
        reconstruct_oracle(system, ds, 1, 3)  # window precedes the data
    with pytest.raises(InvalidArgumentError):
        reconstruct_oracle(system, ds, 5, 0)


# ---------------------------------------------------------------- sweep


def _tiny_splits():
    cfg = SyntheticConfig(system="linear2", n_samples=120, dt=0.5, seed=0, noise_std=0.05)
    train_ds, _ = generate_synthetic(cfg)
    val_ds, _ = generate_synthetic(dataclasses.replace(cfg, seed=1))
    test_ds, _ = generate_synthetic(dataclasses.replace(cfg, seed=2))
    return train_ds, val_ds, test_ds


def test_tau_sweep_single_cell_equals_plain_run():
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=120, eval_every=40, patience=20, seed=0)
    cells = tau_sweep(train_ds, val_ds, test_ds, [0.25], [3], tc, 2, 2, 2, hidden=(6,))
    assert len(cells) == 1
    direct = run_cell(train_ds, val_ds, test_ds, 0.25, 3, tc, 2, 2, 2, hidden=(6,))
    assert cells[0] == direct  # bitwise reproducible cell


def test_tau_sweep_dt_mode_equals_hand_built_cell():
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=60, eval_every=20, patience=20, seed=0)
    [cell] = tau_sweep(train_ds, val_ds, test_ds, [0.25], [3], tc, 2, 2, 2, hidden=(6,),
                       method="euler", substeps=2, mode="dt")
    solver = SolverConfig("euler", 2, train_ds.dt / 0.25, train_ds.dt)
    m0 = init_model(2, 1, 1, 2, 2, solver, fit_normalizer(train_ds), mode="dt",
                    hidden=(6,), seed=3)
    best, hist = train(m0, train_ds, val_ds, dataclasses.replace(tc, seed=3))
    assert best.mode == "dt"
    report = evaluate_model(best, test_ds)
    assert cell == SweepCell(0.25, 3, report.rms_x, report.rms_f, report.rmse,
                             hist.best_val_rmse)


def test_tau_sweep_accepts_generators():
    # a grid that re-read a generator of seeds once per ratio would drop cells
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=20, eval_every=10, patience=20, seed=0)
    cells = tau_sweep(train_ds, val_ds, test_ds, (r for r in [0.25, 0.5]), (s for s in [0, 1]),
                      tc, 2, 2, 2, hidden=(6,))
    assert [(c.dt_over_tau, c.seed) for c in cells] == [(0.25, 0), (0.25, 1), (0.5, 0), (0.5, 1)]
    assert cells == tau_sweep(train_ds, val_ds, test_ds, [0.25, 0.5], [0, 1], tc, 2, 2, 2,
                              hidden=(6,))


def test_tau_sweep_runs_cells_ratio_major_through_map():
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=20, eval_every=10, patience=20, seed=0)
    calls = []

    def recording_map(fn, ratios, seeds):
        ratios, seeds = list(ratios), list(seeds)
        calls.append(list(zip(ratios, seeds)))
        return map(fn, ratios, seeds)

    cells = tau_sweep(train_ds, val_ds, test_ds, [0.25, 0.5], [3, 1], tc, 2, 2, 2,
                      hidden=(6,), map=recording_map)
    assert calls == [[(0.25, 3), (0.25, 1), (0.5, 3), (0.5, 1)]]
    assert cells == tau_sweep(train_ds, val_ds, test_ds, [0.25, 0.5], [3, 1], tc, 2, 2, 2,
                              hidden=(6,))


def test_tau_sweep_failures_become_nan_rows():
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=20, eval_every=10, patience=20, seed=0)
    # n_a * n_y < n_x makes the model constructor fail inside the cell
    cells = tau_sweep(train_ds, val_ds, test_ds, [0.25], [0], tc, 3, 2, 2, hidden=(6,))
    assert len(cells) == 1
    assert np.isnan(cells[0].test_rmse) and cells[0].error != ""


def test_tau_sweep_negative_seed_is_a_failed_cell():
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=20, eval_every=10, patience=20, seed=0)
    [cell] = tau_sweep(train_ds, val_ds, test_ds, [0.25], [-1], tc, 2, 2, 2, hidden=(6,))
    assert cell.seed == -1 and np.isnan(cell.test_rmse)
    assert "seed must be >= 0, got -1" in cell.error


def test_run_cell_fails_when_validation_never_finite():
    # at twice the suggested dt/tau this model free-runs to overflow on the validation
    # record, so no checkpoint ever had a finite validation RMSE
    train_ds, val_ds, test_ds = [
        generate_synthetic(SyntheticConfig(n_samples=512, noise_std=0.19, seed=s))[0]
        for s in (0, 1, 2)]
    tc = TrainConfig(T=30, batch_size=64, max_updates=0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        cell = run_cell(train_ds, val_ds, test_ds, 0.9022, 0, tc, 2, 5, 5, hidden=(16, 16),
                        method="euler", substeps=4)
    assert np.isnan(cell.val_rmse) and np.isnan(cell.test_rmse)
    assert np.isnan(cell.rms_x) and np.isnan(cell.rms_f)
    assert "validation" in cell.error


def test_sweep_csv_tidy(tmp_path):
    train_ds, val_ds, test_ds = _tiny_splits()
    tc = TrainConfig(T=8, batch_size=8, max_updates=40, eval_every=20, patience=20, seed=0)
    cells = tau_sweep(train_ds, val_ds, test_ds, [0.2, 2.0], [0], tc, 2, 2, 2, hidden=(6,))
    save_sweep_csv(cells, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "setting,seed,metric,value"
    assert len(lines) == 1 + 4 * len(cells)  # four metrics per cell


def test_evaluate_model_report_fields(toy_model, toy_dataset):
    rep = evaluate_model(toy_model, toy_dataset)
    assert rep.n_samples == toy_dataset.n - toy_model.lag
    assert rep.rmse >= 0 and rep.nrmse >= 0
    assert rep.trace.y_pred.shape == rep.trace.y_meas.shape

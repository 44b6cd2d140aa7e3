"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The heavy system-identification criteria (5, 6)
train real models and dominate the runtime.
"""

import dataclasses
import json

import numpy as np

from subnet.cli import main
from subnet.data import (
    Dataset,
    NormStats,
    SyntheticConfig,
    fit_normalizer,
    generate_synthetic,
    make_system,
    valid_start_indices,
)
from subnet.errors import ObservabilityError
from subnet.evaluation import (
    reconstruct_oracle,
    rmse,
    smoothness_probe,
    tau_sweep,
    verify_theorem2,
)
from subnet.model import (
    SubnetModel,
    constant_psi,
    encode,
    init_model,
    model_flatten,
    model_with_values,
    simulate_free_run,
)
from subnet.nnmath import MLPParams, finite_diff_gradient
from subnet.ode import SolverConfig, ode_step
from subnet.training import (
    TrainConfig,
    full_sim_loss,
    suggest_tau,
    train,
    truncated_loss_and_grad,
)

IDENT = NormStats.identity(1, 1)


def _report(cid: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def _linear_net(n_in, n_out, matrix):
    return MLPParams((np.zeros((n_out, n_in)),), (np.zeros(n_out),),
                     np.asarray(matrix, dtype=np.float64))


# -----------------------------------------------------------------------
# 1. full-pipeline gradient vs central finite differences
# -----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((70, 1)), rng.standard_normal((70, 1)), 0.5)
    m = init_model(2, 1, 1, 5, 5, SolverConfig("rk4", 1, 4.0, ds.dt),
                   fit_normalizer(ds), hidden=(8, 8), seed=3)
    batch, T = [5, 17, 30], 30
    _, grad = truncated_loss_and_grad(m, ds, batch, T)
    fd = finite_diff_gradient(
        lambda flat: truncated_loss_and_grad(model_with_values(m, flat.values),
                                             ds, batch, T)[0],
        model_flatten(m), 1e-6)
    rel = np.abs(grad.values - fd.values) / np.maximum(
        1e-10, np.maximum(np.abs(grad.values), np.abs(fd.values)))
    _report("criterion 1 (gradient correctness)", float(rel.max()) <= 1e-5,
            f"max relative error {rel.max():.3g} over {grad.values.size} coordinates "
            f"(encoder -> T=30 RK4 rollout -> output -> loss)")


# -----------------------------------------------------------------------
# 2. RK4 order check
# -----------------------------------------------------------------------


def test_criterion_2_rk4_order():
    decay = lambda x, u: -x

    def err(substeps):
        cfg = SolverConfig("rk4", substeps, 1.0, 0.4)
        return abs(ode_step(decay, np.array([1.0]), np.zeros(1), cfg)[0] - np.exp(-0.4))

    raw = err(1) / err(4)
    # substeps 1 -> 4 is two step-halvings of a 4th-order scheme, so the raw
    # ratio is ~16^2; the per-halving factor sqrt(raw) is what the [12, 20]
    # band (nominal 16 = 2^4) describes.
    per_halving = float(np.sqrt(raw))
    ok = 12.0 <= per_halving <= 20.0
    _report("criterion 2 (RK4 order)", ok,
            f"error ratio substeps 1 vs 4 = {raw:.1f}, per-halving factor "
            f"{per_halving:.2f} in [12, 20] (measured order {np.log2(per_halving):.2f})")


# -----------------------------------------------------------------------
# 3. state/state-derivative scaling identity
# -----------------------------------------------------------------------


def test_criterion_3_normalization_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
        x = 10.0 ** rng.uniform(-4, 4) * rng.standard_normal((n, d))
        dx = 10.0 ** rng.uniform(-4, 4) * rng.standard_normal((n, d))
        rep = verify_theorem2(x, dx)
        worst = max(worst, abs(rep.rms_x_tilde - 1.0), abs(rep.rms_f_tilde - 1.0))
    _report("criterion 3 (normalization identity)", worst <= 1e-9,
            f"max |RMS - 1| = {worst:.3g} over 100 random trajectories")


# -----------------------------------------------------------------------
# 4. truncated loss recovers the full simulation loss
# -----------------------------------------------------------------------


def test_criterion_4_loss_equivalence():
    rng = np.random.default_rng(7)
    ds = Dataset(rng.standard_normal((64, 1)), rng.standard_normal((64, 1)), 0.25)
    base = init_model(2, 1, 1, 2, 2, SolverConfig("rk4", 1, 2.0, ds.dt),
                      fit_normalizer(ds), hidden=(8, 8), seed=11)
    x0 = rng.standard_normal(2)
    m = dataclasses.replace(base, psi_net=constant_psi(2, x0), n_a=0, n_b=0)
    l_trunc, _ = truncated_loss_and_grad(m, ds, [0], 64)
    l_full, _, _ = full_sim_loss(m, ds, x0)
    rel = abs(l_trunc - l_full) / abs(l_full)
    _report("criterion 4 (loss equivalence)", rel <= 1e-12,
            f"T=N=64, n_a=n_b=0, fixed x0: relative difference {rel:.3g}")


# -----------------------------------------------------------------------
# 5 & 6. synthetic identification and the effect of tau
# -----------------------------------------------------------------------


def test_criterion_5_synthetic_identification(tanks_bundle):
    train_ds, val_ds, test_ds = (tanks_bundle[k] for k in ("train", "val", "test"))
    floor_rmse = tanks_bundle["floor_rmse"]
    rate = suggest_tau(train_ds)
    m0 = init_model(2, 1, 1, 5, 5, SolverConfig("rk4", 1, 1.0 / rate, train_ds.dt),
                    fit_normalizer(train_ds), hidden=(64, 64), seed=0)
    cfg = TrainConfig(T=30, batch_size=64, max_updates=15_000, eval_every=250,
                      patience=20, seed=0)
    best, hist = train(m0, train_ds, val_ds, cfg)
    trace = simulate_free_run(best, test_ds)
    test_rmse = rmse(trace.y_meas, trace.y_pred)
    test_nrmse = test_rmse / test_ds.y.std()
    floor_nrmse = floor_rmse / test_ds.y.std()
    ok = test_nrmse <= 0.30 and test_nrmse <= 1.5 * floor_nrmse
    _report("criterion 5 (synthetic identification)", ok,
            f"test NRMSE {test_nrmse:.4f} (<= 0.30) and {test_nrmse / floor_nrmse:.2f}x "
            f"the noise-floor NRMSE {floor_nrmse:.4f} (<= 1.5x); "
            f"{hist.n_updates} updates, dt/tau = {train_ds.dt * rate:.3f}")


def test_criterion_6_tau_matters(tanks_bundle):
    train_ds, val_ds, test_ds = (tanks_bundle[k] for k in ("train", "val", "test"))
    rate = suggest_tau(train_ds)
    cfg = TrainConfig(T=30, batch_size=64, max_updates=4_000, eval_every=250,
                      patience=12, seed=0)
    cells = tau_sweep(train_ds, val_ds, test_ds,
                      [train_ds.dt * rate, train_ds.dt],  # suggested tau vs tau = 1 s
                      [0, 1, 2], cfg, 2, 5, 5, hidden=(64, 64))
    med = {}
    for ratio in (train_ds.dt * rate, train_ds.dt):
        vals = [c.test_rmse for c in cells if c.dt_over_tau == ratio]
        med[ratio] = float(np.median(vals))  # NaN rows count as failures
    m_sugg, m_tau1 = med[train_ds.dt * rate], med[train_ds.dt]
    ok = np.isfinite(m_sugg) and (not np.isfinite(m_tau1) or m_sugg <= 0.5 * m_tau1)
    _report("criterion 6 (tau matters)", ok,
            f"median test RMSE over 3 seeds: {m_sugg:.4f} at suggested dt/tau="
            f"{train_ds.dt * rate:.3f} vs {m_tau1:.4f} at tau=1 s "
            f"(need <= 0.5x)")


# -----------------------------------------------------------------------
# 7. loss smoothness degrades with subsection length
# -----------------------------------------------------------------------


def _expansive_model(seed: int) -> SubnetModel:
    """Random model whose dynamics expand ~22% per sample step."""
    m = init_model(2, 1, 1, 2, 2, SolverConfig("rk4", 1, 1.0, 0.5), IDENT,
                   hidden=(8, 8), seed=seed)
    f = m.f_net
    shrunk = dataclasses.replace(
        f, weights=tuple(0.1 * w for w in f.weights),
        biases=tuple(0.1 * b for b in f.biases),
        bypass=np.vstack([0.4 * np.eye(2), 0.05 * np.ones((1, 2))]))
    return dataclasses.replace(m, f_net=shrunk)


def test_criterion_7_smoothness_trend():
    rng = np.random.default_rng(123)
    ds = Dataset(rng.standard_normal((256, 1)), 0.5 * rng.standard_normal((256, 1)), 0.5)
    T_values = [8, 32, 128]
    l_hats = {T: [] for T in T_values}
    for seed in range(5):
        res = smoothness_probe(_expansive_model(seed), ds, T_values,
                               n_probes=32, eps=1e-4, seed=seed)
        for r in res:
            l_hats[r.T].append(r.l_hat)
    medians = [float(np.median(l_hats[T])) for T in T_values]
    ok = medians[0] < medians[1] < medians[2]
    _report("criterion 7 (smoothness trend)", ok,
            f"median L_hat strictly increasing over T=8/32/128: "
            f"{medians[0]:.3g} < {medians[1]:.3g} < {medians[2]:.3g}")


# -----------------------------------------------------------------------
# 8. reconstruction oracle and the encoder as its approximation
# -----------------------------------------------------------------------


def _wrap_linear2_dt(cfg: SyntheticConfig, n_lags: int, psi_seed: int) -> SubnetModel:
    """linear2 ground truth as a dt-mode model (its one-sample map is linear),
    with a fresh trainable encoder network."""
    system = make_system(cfg)
    p = system.params
    A = np.array([[p["a11"], p["a12"]], [p["a21"], p["a22"]]])
    B = np.array([p["b1"], p["b2"]])
    C = np.array([p["c1"], p["c2"]])
    solver = SolverConfig("rk4", cfg.truth_substeps, 1.0, cfg.dt)
    f = lambda x, u: A @ x + B * u[0]
    Ad = np.stack([ode_step(f, e, np.zeros(1), solver) for e in np.eye(2)], axis=1)
    Bd = ode_step(f, np.zeros(2), np.ones(1), solver)
    f_net = _linear_net(3, 2, np.vstack([Ad.T, Bd[None, :]]))
    h_net = _linear_net(2, 1, C[:, None])
    from subnet.nnmath import mlp_init
    psi_net = mlp_init([n_lags * 2, 32, 32, 2], True, psi_seed)
    return SubnetModel(f_net, h_net, psi_net, solver, 2, 1, 1, n_lags, n_lags,
                       NormStats.identity(1, 1), mode="dt")


def test_criterion_8_reconstruction_oracle():
    # (a) noiseless observable tanks: the oracle recovers the true state.
    # Excitation keeps the states strictly inside the overflow box: windows
    # that sit on the hard clamp are not reconstructible by construction.
    cfg_t = SyntheticConfig(system="cascaded_tanks", n_samples=120, dt=4.0, seed=5,
                            noise_std=0.0, truth_substeps=32,
                            params={"input_offset": 0.7, "input_scale": 0.25,
                                    "x01": 2.0, "x02": 3.0})
    ds_t, trace_t = generate_synthetic(cfg_t)
    assert trace_t.states.min() > 0.05 and trace_t.states.max() < 9.5
    system_t = make_system(cfg_t)
    errs = [np.linalg.norm(reconstruct_oracle(system_t, ds_t, n, 3, substeps=32,
                                              state_box=(0.0, 10.0)) - trace_t.states[n])
            for n in range(5, 120, 10)]
    oracle_ok = max(errs) <= 1e-3

    # (b) too-short window is rejected
    try:
        reconstruct_oracle(system_t, ds_t, 10, 1)
        guard_ok = False
    except ObservabilityError:
        guard_ok = True

    # (c) a trained encoder approximates the regression solution at 10 dB SNR
    clean, _ = generate_synthetic(SyntheticConfig(system="linear2", n_samples=600,
                                                  dt=0.5, seed=20, truth_substeps=16))
    sigma = clean.y.std() / np.sqrt(10.0)
    cfg_l = SyntheticConfig(system="linear2", n_samples=600, dt=0.5, seed=20,
                            noise_std=float(sigma), truth_substeps=16)
    train_l, _ = generate_synthetic(cfg_l)
    val_l, _ = generate_synthetic(dataclasses.replace(cfg_l, seed=21))
    test_l, trace_l = generate_synthetic(dataclasses.replace(cfg_l, seed=22))
    z = 3
    m0 = _wrap_linear2_dt(cfg_l, n_lags=z, psi_seed=0)
    tc = TrainConfig(T=20, batch_size=32, max_updates=4000, eval_every=400,
                     patience=999, seed=0, trainable=("psi",))
    m_best, _ = train(m0, train_l, val_l, tc)

    system_l = make_system(cfg_l)
    ns = np.arange(z + 2, test_l.n, 24)
    enc_errs, gn_errs = [], []
    from subnet.model import encoder_window
    for n in ns:
        w = encoder_window(test_l, int(n), z, z)
        enc_errs.append(np.linalg.norm(encode(m_best, w) - trace_l.states[n]) ** 2)
        x_gn = reconstruct_oracle(system_l, test_l, int(n), z, substeps=16,
                                  state_box=(-3.0, 3.0))
        gn_errs.append(np.linalg.norm(x_gn - trace_l.states[n]) ** 2)
    enc_rms = float(np.sqrt(np.mean(enc_errs)))
    gn_rms = float(np.sqrt(np.mean(gn_errs)))
    enc_ok = enc_rms <= 3.0 * gn_rms

    ok = oracle_ok and guard_ok and enc_ok
    _report("criterion 8 (reconstructability oracle)", ok,
            f"noiseless state error {max(errs):.2e} (<= 1e-3); observability guard "
            f"{'raised' if guard_ok else 'MISSING'}; encoder RMS error {enc_rms:.4f} vs "
            f"oracle {gn_rms:.4f} at 10 dB ({enc_rms / gn_rms:.2f}x <= 3x over {len(ns)} points)")


# -----------------------------------------------------------------------
# 9. subsection index bookkeeping
# -----------------------------------------------------------------------


def test_criterion_9_index_bookkeeping():
    idx = valid_start_indices(1024, 30, 5, 5)
    fixed_ok = len(idx) == 990 and idx[0] == 5 and idx[-1] == 994
    rng = np.random.default_rng(2024)
    prop_ok = True
    for _ in range(1000):
        n_a, n_b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        T = int(rng.integers(1, 64))
        N = T + max(n_a, n_b) + int(rng.integers(0, 200))
        got = valid_start_indices(N, T, n_a, n_b)
        brute = [n for n in range(N + 1) if max(n_a, n_b) <= n <= N - T]
        if not np.array_equal(got, brute) or len(got) != N - T - max(n_a, n_b) + 1:
            prop_ok = False
            break
    _report("criterion 9 (index bookkeeping)", fixed_ok and prop_ok,
            f"(1024, 30, 5, 5) -> count {len(idx)}, bounds [{idx[0]}, {idx[-1]}]; "
            f"1000 random tuples vs enumeration: {'all match' if prop_ok else 'MISMATCH'}")


# -----------------------------------------------------------------------
# 10. bit-identical reruns
# -----------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "command": "generate", "out": str(tmp_path / "data"), "seed": 1,
        "synthetic": {"system": "linear2", "n_samples": 150, "dt": 0.5, "noise_std": 0.05},
    }))
    assert main(["generate", "--config", str(gen_cfg)]) == 0
    run_cfg = tmp_path / "train.json"
    run_cfg.write_text(json.dumps({
        "command": "train", "seed": 0,
        "data": {"train_path": str(tmp_path / "data" / "dataset.csv"), "dt": 0.5},
        "model": {"n_x": 2, "n_a": 2, "n_b": 2, "hidden": [8, 8]},
        "train": {"T": 8, "batch_size": 8, "max_updates": 200, "eval_every": 50,
                  "patience": 20},
    }))
    outs = []
    for run_dir in ("run_a", "run_b"):
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / run_dir)]) == 0
        outs.append(tmp_path / run_dir)
    same_model = (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
    same_hist = (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    _report("criterion 10 (determinism)", same_model and same_hist,
            f"two identical runs: model.json {'identical' if same_model else 'DIFFER'}, "
            f"history.csv {'identical' if same_hist else 'DIFFER'}")

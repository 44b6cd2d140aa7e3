import numpy as np
import pytest

from subnet.data import (
    BatchSampler,
    Dataset,
    SyntheticConfig,
    fit_normalizer,
    generate_input,
    generate_synthetic,
    load_csv,
    make_system,
    normalize_dataset,
    open_artifact,
    save_csv,
    save_truth_csv,
    slice_dataset,
    valid_start_indices,
    write_csv,
)
from subnet.errors import (
    DegenerateDataError,
    GenerationError,
    InvalidArgumentError,
    ParseError,
)
from subnet.ode import SolverConfig, ode_step

# ---------------------------------------------------------------- dataset / csv


def test_dataset_invariants():
    with pytest.raises(InvalidArgumentError):
        Dataset(np.zeros((3, 1)), np.zeros((4, 1)), 1.0)
    with pytest.raises(InvalidArgumentError):
        Dataset(np.zeros((3, 1)), np.full((3, 1), np.nan), 1.0)
    with pytest.raises(InvalidArgumentError):
        Dataset(np.zeros((3, 1)), np.zeros((3, 1)), 0.0)


def test_dataset_arrays_readonly():
    ds = Dataset(np.zeros((3, 1)), np.zeros((3, 1)), 1.0)
    with pytest.raises(ValueError):
        ds.u[0, 0] = 1.0


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("u0,y0\n1,4\n2,5\n3,6\n")
    ds = load_csv(p, 1, 1, 0.5)
    assert ds.n == 3 and ds.dt == 0.5
    assert np.array_equal(ds.u[:, 0], [1, 2, 3])
    assert np.array_equal(ds.y[:, 0], [4, 5, 6])


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("u0,y0\n")
    with pytest.raises(ParseError):
        load_csv(p, 1, 1, 1.0)


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("u0,z0\n1,2\n")
    with pytest.raises(ParseError, match="y0"):
        load_csv(p, 1, 1, 1.0)


def test_load_csv_bad_cell_reports_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("u0,y0\n1,2\n1,oops\n")
    with pytest.raises(ParseError, match=r"row 3.*y0"):
        load_csv(p, 1, 1, 1.0)


def test_load_csv_comments_crlf_extra_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"# generated\r\nu0,y0,extra\r\n1,2,9\r\n3,4,9\r\n")
    ds = load_csv(p, 1, 1, 1.0)
    assert ds.n == 2 and ds.y[1, 0] == 4.0


def test_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((20, 2)), rng.standard_normal((20, 1)), 0.01, "rt")
    save_csv(ds, tmp_path / "rt.csv")
    back = load_csv(tmp_path / "rt.csv", 2, 1, 0.01)
    assert np.array_equal(ds.u, back.u)
    assert np.array_equal(ds.y, back.y)


def test_write_csv_repr_floats_lf_exact(tmp_path):
    x = 0.1 + 0.2  # needs all 17 significant digits
    rows = [[1, x, np.float64(-1e-300), "a"], [2, float("nan"), np.float64(1) / 3, "b c"]]
    write_csv(tmp_path / "w.csv", ["i", "f", "g", "s"], rows)
    raw = (tmp_path / "w.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    assert b"np.float64(" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "i,f,g,s"
    assert lines[1].split(",") == ["1", repr(x), repr(-1e-300), "a"]
    i, f, g, s_ = lines[2].split(",")
    assert (i, f, s_) == ("2", "nan", "b c") and float(g) == np.float64(1) / 3


def test_open_artifact_writes_a_new_file(tmp_path):
    # an artifact is unlinked and created again, never truncated in place
    path, fresh = tmp_path / "a.csv", tmp_path / "fresh.csv"
    write_csv(fresh, ["a", "b"], [[1, 0.1], [2, -0.1]])
    write_csv(path, ["a", "b"], [[1, 123456.789]])
    old = path.read_bytes()
    (tmp_path / "hard").hardlink_to(path)
    write_csv(path, ["a", "b"], [[1, 0.1], [2, -0.1]])
    assert path.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "hard").read_bytes() == old  # the other link keeps the old file

    target = tmp_path / "target.json"
    target.write_text("kept", encoding="utf-8")
    (tmp_path / "link.json").symlink_to(target)
    with open_artifact(tmp_path / "link.json") as fh:
        fh.write("new\n")
    assert not (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "link.json").read_bytes() == b"new\n"
    assert target.read_text(encoding="utf-8") == "kept"


def test_slice_dataset():
    ds = Dataset(np.arange(10.0)[:, None], np.arange(10.0)[:, None], 1.0)
    head = slice_dataset(ds, 0, 6)
    tail = slice_dataset(ds, 6, 10)
    assert head.n == 6 and tail.n == 4 and tail.u[0, 0] == 6.0


# ---------------------------------------------------------------- normalization


def test_fit_normalizer_hand_case():
    ds = Dataset(np.array([[1.0], [3.0], [1.0], [3.0]]), np.array([[1.0], [3.0], [1.0], [3.0]]), 1.0)
    st = fit_normalizer(ds)
    assert st.u_mean[0] == 2.0 and st.u_std[0] == 1.0
    assert st.y_mean[0] == 2.0 and st.y_std[0] == 1.0


def test_normalizer_idempotent():
    rng = np.random.default_rng(1)
    ds = Dataset(3 + 2 * rng.standard_normal((500, 1)), -1 + 0.5 * rng.standard_normal((500, 1)), 1.0)
    dsn = normalize_dataset(ds, fit_normalizer(ds))
    st2 = fit_normalizer(dsn)
    assert abs(st2.u_mean[0]) < 1e-12 and abs(st2.u_std[0] - 1.0) < 1e-12
    assert abs(st2.y_mean[0]) < 1e-12 and abs(st2.y_std[0] - 1.0) < 1e-12


def test_normalizer_stats_match_recomputation():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((200, 3)), rng.standard_normal((200, 2)), 1.0)
    st = fit_normalizer(ds)
    dsn = normalize_dataset(ds, st)
    assert np.abs(dsn.u.mean(axis=0)).max() < 1e-9
    assert np.abs(dsn.u.std(axis=0) - 1).max() < 1e-9
    assert np.abs(dsn.y.std(axis=0) - 1).max() < 1e-9


def test_normalize_denormalize_identity():
    rng = np.random.default_rng(3)
    ds = Dataset(5 * rng.standard_normal((100, 1)), 7 * rng.standard_normal((100, 2)) + 3, 1.0)
    st = fit_normalizer(ds)
    dsn = normalize_dataset(ds, st)
    back = dsn.y * st.y_std + st.y_mean
    assert np.abs((back - ds.y) / np.maximum(1e-30, np.abs(ds.y))).max() < 1e-12


def test_zero_variance_channel_named():
    ds = Dataset(np.ones((5, 1)), np.arange(5.0)[:, None], 1.0)
    with pytest.raises(DegenerateDataError, match=r"u\[0\]"):
        fit_normalizer(ds)


# ---------------------------------------------------------------- indices


def test_valid_start_indices_cct_shape():
    idx = valid_start_indices(1024, 30, 5, 5)
    assert idx[0] == 5 and idx[-1] == 994 and len(idx) == 990


def test_valid_start_indices_full_recovery_case():
    idx = valid_start_indices(64, 64, 0, 0)
    assert np.array_equal(idx, [0])


def test_valid_start_indices_boundary():
    idx = valid_start_indices(35, 30, 5, 2)
    assert np.array_equal(idx, [5])


def test_valid_start_indices_infeasible():
    with pytest.raises(InvalidArgumentError):
        valid_start_indices(34, 30, 5, 5)


def test_valid_start_indices_count_formula_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n_a, n_b = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        T = int(rng.integers(1, 50))
        N = T + max(n_a, n_b) + int(rng.integers(0, 100))
        idx = valid_start_indices(N, T, n_a, n_b)
        brute = [n for n in range(N + 1) if n >= max(n_a, n_b) and n <= N - T]
        assert np.array_equal(idx, brute)
        assert len(idx) == N - T - max(n_a, n_b) + 1


# ---------------------------------------------------------------- batching


def test_sample_batch_full_permutation():
    idx = np.arange(7)
    got = BatchSampler(idx, 10, np.random.default_rng(0)).sample_batch()
    assert sorted(got.tolist()) == list(range(7))


def test_sample_batch_deterministic():
    idx = np.arange(100)
    a = BatchSampler(idx, 16, np.random.default_rng(5))
    b = BatchSampler(idx, 16, np.random.default_rng(5))
    for _ in range(8):  # across an epoch boundary
        assert np.array_equal(a.sample_batch(), b.sample_batch())


def test_epoch_covers_every_index_once():
    idx = np.arange(50) + 7
    s = BatchSampler(idx, 8, np.random.default_rng(3))
    seen = []
    while len(seen) < 50:
        seen += s.sample_batch().tolist()
    assert sorted(seen) == sorted(idx.tolist())  # exactly one epoch, no repeats


def test_sampler_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        BatchSampler([], 4, np.random.default_rng(0))
    with pytest.raises(InvalidArgumentError):
        BatchSampler([1, 2], 0, np.random.default_rng(0))


# ---------------------------------------------------------------- synthetic


def test_tanks_zero_input_states_stay_zero():
    cfg = SyntheticConfig(
        system="cascaded_tanks", n_samples=200, dt=4.0, seed=0, noise_std=0.05,
        params={"input_offset": 0.0, "input_scale": 0.0, "x01": 0.0, "x02": 0.0},
    )
    ds, trace = generate_synthetic(cfg)
    assert np.abs(trace.states).max() == 0.0
    assert np.array_equal(trace.y_clean, np.zeros_like(trace.y_clean))
    # outputs are pure noise with the configured std (loose MC band)
    assert 0.03 < ds.y.std() < 0.07


def test_linear2_exponential_decay():
    cfg = SyntheticConfig(
        system="linear2", n_samples=50, dt=0.1, seed=0, noise_std=0.0, truth_substeps=10,
        params={"a11": -1.0, "a12": 0.0, "a21": 0.0, "a22": -1.0,
                "b1": 0.0, "b2": 0.0, "c1": 1.0, "c2": 0.0,
                "x01": 1.0, "x02": 0.0, "input_offset": 0.0, "input_scale": 0.0},
    )
    _, trace = generate_synthetic(cfg)
    expected = np.exp(-np.arange(50) * 0.1)
    assert np.abs(trace.y_clean[:, 0] - expected).max() <= 1e-7


def test_noise_monte_carlo_std():
    cfg = SyntheticConfig(system="linear2", n_samples=10_000, dt=0.5, seed=4, noise_std=0.1)
    ds, trace = generate_synthetic(cfg)
    resid = ds.y - trace.y_clean
    assert 0.097 <= resid.std() <= 0.103


def test_tanks_clamping_invariant_aggressive_input():
    cfg = SyntheticConfig(
        system="cascaded_tanks", n_samples=400, dt=4.0, seed=7,
        params={"input_offset": 2.0, "input_scale": 1.5},
    )
    _, trace = generate_synthetic(cfg)
    assert trace.states.min() >= 0.0
    assert trace.states.max() <= 10.0
    assert (trace.states >= 9.999).any()  # the overflow clamp actually engages


def test_generation_deterministic():
    cfg = SyntheticConfig(seed=9, noise_std=0.1)
    a, ta = generate_synthetic(cfg)
    b, tb = generate_synthetic(cfg)
    assert np.array_equal(a.y, b.y) and np.array_equal(ta.states, tb.states)


def test_truth_csv_reloads_as_dataset(tmp_path):
    cfg = SyntheticConfig(n_samples=100, seed=0, noise_std=0.1)
    ds, trace = generate_synthetic(cfg)
    save_truth_csv(ds, trace, tmp_path / "truth.csv")
    back = load_csv(tmp_path / "truth.csv", 1, 1, 4.0)
    assert np.array_equal(back.u, ds.u) and np.array_equal(back.y, ds.y)


def test_synthetic_config_validation():
    with pytest.raises(InvalidArgumentError):
        SyntheticConfig(system="pendulum")
    with pytest.raises(InvalidArgumentError):
        SyntheticConfig(noise_std=-1.0)
    with pytest.raises(InvalidArgumentError):
        SyntheticConfig(truth_substeps=5)


@pytest.mark.parametrize("system, params, match", [
    ("cascaded_tanks", {"k_1": 0.9}, "'k_1'"),
    ("cascaded_tanks", {"a11": 0.5}, "'a11'"),  # a linear2 name
    ("linear2", {"k1": 0.5}, "'k1'"),
    ("cascaded_tanks", {"k1": float("inf")}, "'k1'.*finite"),
    ("linear2", {"b2": float("nan")}, "'b2'.*finite"),
])
def test_synthetic_config_rejects_bad_params(system, params, match):
    with pytest.raises(InvalidArgumentError, match=match):
        SyntheticConfig(system=system, params=params)


@pytest.mark.parametrize("params, where", [
    ({"k4": 1e308, "input_offset": 2.0}, "sample 1, substep 0"),
    # the lower tank overflows to +inf, which a clamp to [0, 10] would hide
    ({"k2": -1e308, "x02": 5.0}, "sample 1, substep 0"),
    ({"k4": 1e307, "input_offset": 0.0, "input_scale": 1.0}, "sample 49, substep 0"),
])
def test_generation_fault_names_sample_and_substep(params, where):
    with pytest.raises(GenerationError, match=where):
        generate_synthetic(SyntheticConfig(n_samples=100, params=params))


def _reference_generate(cfg):
    """The array algorithm: ode_step on numpy fields, np.clip after every sub-step."""
    system = make_system(cfg)
    p = system.params
    if cfg.system == "cascaded_tanks":
        def f(x, u):
            r1, r2 = np.sqrt(max(x[0], 0.0)), np.sqrt(max(x[1], 0.0))
            return np.array([-p["k1"] * r1 + p["k4"] * u[0], p["k1"] * r1 - p["k2"] * r2])
    else:
        A = np.array([[p["a11"], p["a12"]], [p["a21"], p["a22"]]])
        B = np.array([p["b1"], p["b2"]])

        def f(x, u):
            return A @ x + B * u[0]

    input_rng, noise_rng = [np.random.default_rng(s)
                            for s in np.random.SeedSequence(cfg.seed).spawn(2)]
    u = generate_input(cfg, system, input_rng)
    sub = SolverConfig("rk4", 1, 1.0, cfg.dt / cfg.truth_substeps)
    x = system.x0.astype(np.float64)
    states = np.empty((cfg.n_samples, system.n_x))
    for k in range(cfg.n_samples):
        states[k] = x
        for _ in range(cfg.truth_substeps if k < cfg.n_samples - 1 else 0):
            x = ode_step(f, x, u[k], sub)
            if system.clamp is not None:
                x = np.clip(x, *system.clamp)
    y_clean = np.stack([system.h(s) for s in states])
    y = y_clean + noise_rng.standard_normal(y_clean.shape) * cfg.noise_std
    return u, y, states, y_clean


def _generated(cfg):
    ds, trace = generate_synthetic(cfg)
    return ds.u, ds.y, trace.states, trace.y_clean


@pytest.mark.parametrize("cfg", [
    SyntheticConfig(n_samples=60, seed=1, noise_std=0.1),
    SyntheticConfig(n_samples=60, seed=2, input_kind="random_steps"),
    SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=3, noise_std=0.1),
    SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=4, truth_substeps=10),
    SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=5, input_kind="random_steps"),
    SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=6, input_kind="random_steps",
                    truth_substeps=10),
    # negative-zero initial states: max(v, 0.0), the clamp and the products keep -0.0
    SyntheticConfig(n_samples=60, seed=8, params={"x01": -0.0, "x02": -0.0,
                                                  "input_offset": 0.0, "input_scale": 0.0}),
    SyntheticConfig(n_samples=60, seed=9, params={"x01": -0.0, "x02": -0.0}),
    SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=10, params={"x01": -0.0}),
    # k1 < 0 and k4 = -0.0 keep the upper tank at -0.0 through every sub-step and clamp
    SyntheticConfig(n_samples=60, seed=11, params={"x01": -0.0, "k1": -0.5, "k4": -0.0,
                                                   "input_scale": 0.0}),
], ids=["tanks", "tanks-steps", "linear2", "linear2-sub10", "linear2-steps",
        "linear2-steps-sub10", "tanks-negzero-zero-input", "tanks-negzero", "linear2-negzero",
        "tanks-negzero-through-clamp"])
def test_generator_bit_equal_to_array_reference(cfg):
    # tobytes, not array_equal: -0.0 == 0.0, but the sign bit must match too
    for got, want in zip(_generated(cfg), _reference_generate(cfg)):
        assert got.tobytes() == want.tobytes()


def test_generator_bit_equal_to_array_reference_through_both_clamps():
    cfg = SyntheticConfig(n_samples=60, seed=0, params={"input_offset": 2.0, "input_scale": 1.5})
    got = _generated(cfg)
    for g, want in zip(got, _reference_generate(cfg)):
        assert g.tobytes() == want.tobytes()
    states = got[2]
    assert (states[1:] == 0.0).any() and (states == 10.0).any()


def test_linear2_outputs_bit_equal_to_per_row_dot():
    # with c2 != 0 a whole-record ``states @ C`` rounds some rows differently from C @ x
    cfg = SyntheticConfig(system="linear2", n_samples=400, dt=0.5, seed=12,
                          params={"c1": 0.3, "c2": 1.7})
    _, trace = generate_synthetic(cfg)
    C = np.array([0.3, 1.7])
    want = np.array([[C @ x] for x in trace.states])
    assert trace.y_clean.tobytes() == want.tobytes()


def test_generator_linear2_general_matrix_close_to_array_reference():
    # A @ x goes through BLAS, which may round the two products differently
    # from the explicit scalar sum: equal to within a few ulps, not bit for bit
    cfg = SyntheticConfig(system="linear2", n_samples=60, dt=0.5, seed=7, noise_std=0.1,
                          params={"a11": -0.7, "a12": 1.3, "b1": 0.4})
    got, want = _generated(cfg), _reference_generate(cfg)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert np.allclose(g, w, rtol=0.0, atol=1e-14)

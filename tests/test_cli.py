import hashlib
import json

import numpy as np
import pytest

from subnet.cli import RunConfig, _write_metrics, main, parse_config, run
from subnet.data import load_csv
from subnet.errors import ConfigError
from subnet.serialize import load_model


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1))
    return p


def _gen(tmp_path, subdir, seed, n=140, noise=0.05):
    out = tmp_path / subdir
    cfg = _write(tmp_path, f"gen_{subdir}.json", {
        "command": "generate",
        "out": str(out),
        "synthetic": {"system": "linear2", "n_samples": n, "dt": 0.5,
                      "seed": seed, "noise_std": noise},
    })
    assert main(["generate", "--config", str(cfg)]) == 0
    return out / "dataset.csv"


TRAIN_SECTION = {"T": 8, "batch_size": 8, "max_updates": 150, "eval_every": 50, "patience": 20}
MODEL_SECTION = {"n_x": 2, "n_a": 2, "n_b": 2, "hidden": [6, 6]}


# ---------------------------------------------------------------- parse_config


def test_parse_minimal_fills_defaults(tmp_path):
    train_csv = _gen(tmp_path, "d0", seed=0)
    cfg = parse_config(_write(tmp_path, "c.json", {
        "command": "train",
        "data": {"train_path": str(train_csv), "dt": 0.5},
        "model": {"n_x": 2, "n_a": 5, "n_b": 5},
        "train": {"T": 30},
    }))
    assert cfg.solver.method == "rk4" and cfg.solver.substeps == 1
    assert cfg.solver.tau == "auto"
    assert cfg.train.lr == 1e-3 and cfg.train.beta1 == 0.9  # Adam defaults
    assert cfg.train.batch_size == 64 and cfg.model.hidden == [64, 64]


def test_parse_unknown_key_named(tmp_path):
    p = _write(tmp_path, "c.json", {"command": "train", "model": {"n_x": 2, "n_A": 5}})
    with pytest.raises(ConfigError, match="n_A.*unknown key"):
        parse_config(p)


def test_parse_type_mismatch_has_path(tmp_path):
    p = _write(tmp_path, "c.json", {"command": "train", "train": {"T": "thirty"}})
    with pytest.raises(ConfigError, match="train.T"):
        parse_config(p)


def test_parse_rejects_unknown_format_version(tmp_path):
    p = _write(tmp_path, "c.json", {"format_version": 2, "command": "generate"})
    with pytest.raises(ConfigError, match="format_version"):
        parse_config(p)


@pytest.mark.parametrize("section, key", [("data", "dt"), ("train", "lr")])
def test_parse_rejects_infinity(tmp_path, section, key):
    # json.dumps writes inf as Infinity, which Python's json reads back
    doc = {"command": "train", "model": {"n_x": 2}, "data": {"dt": 0.5}, "train": {}}
    doc[section][key] = float("inf")
    with pytest.raises(ConfigError, match=f"{section}.{key}: Input should be a finite number"):
        parse_config(_write(tmp_path, "c.json", doc))


def test_parse_missing_referenced_path(tmp_path):
    p = _write(tmp_path, "c.json", {
        "command": "train",
        "data": {"train_path": str(tmp_path / "nope.csv"), "dt": 1.0},
        "model": {"n_x": 2},
    })
    with pytest.raises(ConfigError, match="nope.csv"):
        parse_config(p)


def test_parse_rejects_bad_command(tmp_path):
    p = _write(tmp_path, "c.json", {"command": "destroy"})
    with pytest.raises(ConfigError):
        parse_config(p)


# ---------------------------------------------------------------- commands


def test_generate_writes_loadable_csvs(tmp_path):
    out = tmp_path / "gen"
    cfg = _write(tmp_path, "g.json", {
        "command": "generate", "out": str(out), "seed": 3,
        "synthetic": {"system": "cascaded_tanks", "n_samples": 64, "dt": 4.0,
                      "noise_std": 0.1},
    })
    assert main(["generate", "--config", str(cfg)]) == 0
    ds = load_csv(out / "dataset.csv", 1, 1, 4.0)
    truth = load_csv(out / "truth.csv", 1, 1, 4.0)
    assert ds.n == 64 and np.array_equal(ds.y, truth.y)
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["synthetic"]["seed"] == 3  # resolved from the top-level seed


@pytest.mark.parametrize("params, key", [
    ({"k_1": 0.9}, "'k_1'"),
    ({"k1": float("inf")}, "synthetic.params.k1"),  # written as JSON Infinity
])
def test_generate_rejects_bad_params(tmp_path, capsys, params, key):
    out = tmp_path / "gen"
    cfg = _write(tmp_path, "g.json", {
        "command": "generate", "out": str(out),
        "synthetic": {"system": "cascaded_tanks", "n_samples": 64, "params": params},
    })
    assert main(["generate", "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_train_eval_end_to_end(tmp_path):
    train_csv = _gen(tmp_path, "tr", seed=0)
    val_csv = _gen(tmp_path, "va", seed=1)
    test_csv = _gen(tmp_path, "te", seed=2)
    out = tmp_path / "run"
    cfg = _write(tmp_path, "t.json", {
        "command": "train", "out": str(out), "seed": 0,
        "data": {"train_path": str(train_csv), "val_path": str(val_csv),
                 "test_path": str(test_csv), "dt": 0.5},
        "model": MODEL_SECTION,
        "train": TRAIN_SECTION,
    })
    assert main(["train", "--config", str(cfg)]) == 0
    m = load_model(out / "model.json")
    assert m.n_x == 2
    hist = (out / "history.csv").read_text().splitlines()
    assert hist[0] == "update,train_loss,val_rmse" and len(hist) > 2
    metrics = dict(line.split(",", 1) for line in (out / "metrics.csv").read_text().splitlines()[1:])
    assert "test_rmse" in metrics and "best_val_rmse" in metrics

    # evaluate the trained model through the CLI
    out_eval = tmp_path / "eval"
    cfg_e = _write(tmp_path, "e.json", {
        "command": "eval", "out": str(out_eval),
        "data": {"test_path": str(test_csv), "dt": 0.5},
        "eval": {"model_path": str(out / "model.json")},
    })
    assert main(["eval", "--config", str(cfg_e)]) == 0
    assert (out_eval / "trace.csv").exists()
    got = dict(line.split(",", 1) for line in (out_eval / "metrics.csv").read_text().splitlines()[1:])
    assert float(got["rmse"]) == float(metrics["test_rmse"])  # same model, same data


def test_effective_config_reparse_identity(tmp_path):
    train_csv = _gen(tmp_path, "rp", seed=0)
    out = tmp_path / "run"
    cfg_path = _write(tmp_path, "t.json", {
        "command": "train", "out": str(out),
        "data": {"train_path": str(train_csv), "dt": 0.5},
        "model": MODEL_SECTION,
        "train": TRAIN_SECTION,
    })
    assert main(["train", "--config", str(cfg_path)]) == 0
    echo = parse_config(out / "effective_config.json")
    assert isinstance(echo.solver.tau, float)  # 'auto' resolved to a number
    # re-running from the echo reproduces the artifacts bit for bit
    out2 = tmp_path / "run2"
    assert main(["train", "--config", str(out / "effective_config.json"),
                 "--out", str(out2)]) == 0
    assert (out / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    assert (out / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    echo2 = parse_config(out2 / "effective_config.json")
    assert echo2.model_dump(exclude={"out"}) == echo.model_dump(exclude={"out"})


def test_cli_subcommand_config_mismatch(tmp_path):
    train_csv = _gen(tmp_path, "mm", seed=0)
    cfg = _write(tmp_path, "t.json", {
        "command": "train",
        "data": {"train_path": str(train_csv), "dt": 0.5},
        "model": MODEL_SECTION,
    })
    assert main(["eval", "--config", str(cfg)]) == 1


def test_cli_does_not_mutate_inputs(tmp_path):
    train_csv = _gen(tmp_path, "nm", seed=0)
    before = hashlib.sha256(train_csv.read_bytes()).hexdigest()
    out = tmp_path / "run"
    cfg = _write(tmp_path, "t.json", {
        "command": "train", "out": str(out),
        "data": {"train_path": str(train_csv), "dt": 0.5},
        "model": MODEL_SECTION, "train": TRAIN_SECTION,
    })
    assert main(["train", "--config", str(cfg)]) == 0
    assert hashlib.sha256(train_csv.read_bytes()).hexdigest() == before


def test_ensemble_best_le_mean(tmp_path):
    train_csv = _gen(tmp_path, "en", seed=0)
    test_csv = _gen(tmp_path, "en2", seed=2)
    out = tmp_path / "ens"
    cfg = _write(tmp_path, "en.json", {
        "command": "ensemble", "out": str(out),
        "data": {"train_path": str(train_csv), "test_path": str(test_csv), "dt": 0.5},
        "model": MODEL_SECTION, "train": TRAIN_SECTION,
        "ensemble": {"seeds": [0, 1, 2]},
    })
    assert main(["ensemble", "--config", str(cfg)]) == 0
    metrics = dict(line.split(",", 1) for line in (out / "metrics.csv").read_text().splitlines()[1:])
    assert float(metrics["best_test_rmse"]) <= float(metrics["mean_test_rmse"])
    rows = (out / "ensemble.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 seeds


def test_sweep_command_writes_tidy_csv(tmp_path):
    train_csv = _gen(tmp_path, "sw", seed=0)
    test_csv = _gen(tmp_path, "sw2", seed=2)
    out = tmp_path / "sweep"
    cfg = _write(tmp_path, "sw.json", {
        "command": "sweep-tau", "out": str(out),
        "data": {"train_path": str(train_csv), "test_path": str(test_csv), "dt": 0.5},
        "model": MODEL_SECTION, "train": TRAIN_SECTION,
        "sweep": {"dt_over_tau": [0.1, 1.0], "seeds": [0]},
    })
    assert main(["sweep-tau", "--config", str(cfg)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "setting,seed,metric,value" and len(lines) == 9


def test_reconstruct_command(tmp_path):
    out = tmp_path / "rec"
    cfg = _write(tmp_path, "rc.json", {
        "command": "reconstruct", "out": str(out), "seed": 5,
        "synthetic": {"system": "linear2", "n_samples": 40, "dt": 0.5, "noise_std": 0.0,
                      "truth_substeps": 16},
        "reconstruct": {"z": 3, "n_points": 5, "state_box": [-3.0, 3.0]},
    })
    assert main(["reconstruct", "--config", str(cfg)]) == 0
    metrics = dict(line.split(",", 1) for line in (out / "metrics.csv").read_text().splitlines()[1:])
    assert float(metrics["rms_state_error"]) <= 1e-4


def test_probe_command(tmp_path):
    train_csv = _gen(tmp_path, "pb", seed=0)
    out = tmp_path / "probe"
    cfg = _write(tmp_path, "pb.json", {
        "command": "probe-smoothness", "out": str(out),
        "data": {"train_path": str(train_csv), "dt": 0.5},
        "model": MODEL_SECTION,
        "probe": {"T_values": [4, 16], "n_probes": 4, "eps": 1e-4, "seeds": [0]},
    })
    assert main(["probe-smoothness", "--config", str(cfg)]) == 0
    lines = (out / "probe.csv").read_text().splitlines()
    assert lines[0] == "setting,seed,metric,value" and len(lines) == 5


def test_train_without_lags_full_loss_baseline(tmp_path):
    # n_a = n_b = 0 builds a constant encoder: the free x0 of the full-sequence loss
    train_csv = _gen(tmp_path, "fl", seed=0)
    for target in ("full", "truncated"):
        out = tmp_path / target
        cfg = _write(tmp_path, f"{target}.json", {
            "command": "train", "out": str(out),
            "data": {"train_path": str(train_csv), "dt": 0.5},
            "model": {**MODEL_SECTION, "n_a": 0, "n_b": 0},
            "train": {**TRAIN_SECTION, "loss_target": target, "max_updates": 20},
        })
        assert main(["train", "--config", str(cfg)]) == 0
        m = load_model(out / "model.json")
        assert (m.n_a, m.n_b) == (0, 0) and m.psi_net.layer_sizes == [0, 2]


@pytest.mark.parametrize("doc, argv, key", [
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-1"], "seed"),
    ({}, ["--threads", "0"], "threads"),
    ({"sweep": {"seeds": [0, -2]}}, [], "sweep.seeds.1"),
])
def test_bad_seed_or_threads_rejected_before_running(tmp_path, capsys, doc, argv, key):
    out = tmp_path / "run"
    cfg = _write(tmp_path, "s.json", {
        "command": "generate", "out": str(out),
        "synthetic": {"system": "linear2", "n_samples": 20, "dt": 0.5}, **doc,
    })
    assert main(["generate", "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key}:" in err
    assert not (out / "effective_config.json").exists()


def test_write_metrics_numpy_floats_as_plain_repr(tmp_path):
    _write_metrics(tmp_path / "m.csv", {"a": np.float64(0.1) + 0.2, "n": 3, "s": "x"})
    assert (tmp_path / "m.csv").read_text() == f"metric,value\na,{0.1 + 0.2!r}\nn,3\ns,x\n"


def test_run_requires_out(tmp_path):
    cfg = RunConfig(command="generate", synthetic={"n_samples": 10})
    with pytest.raises(ConfigError, match="output directory"):
        run(cfg)


def test_threads_flag_parallel_matches_serial(tmp_path):
    # both commands run their cells through one sweep driver, in a worker pool with --threads
    train_csv = _gen(tmp_path, "th", seed=0)
    test_csv = _gen(tmp_path, "th2", seed=2)
    commands = (("ensemble", {"ensemble": {"seeds": [0, 1]}}, "ensemble.csv"),
                ("sweep-tau", {"sweep": {"dt_over_tau": [0.1, 1.0], "seeds": [0, 1]}}, "sweep.csv"))
    for command, section, csv_name in commands:
        outs = {}
        for label, extra in (("serial", []), ("parallel", ["--threads", "2"])):
            out = tmp_path / command / label
            cfg = _write(tmp_path, f"{command}-{label}.json", {
                "command": command, "out": str(out),
                "data": {"train_path": str(train_csv), "test_path": str(test_csv), "dt": 0.5},
                "model": MODEL_SECTION, "train": TRAIN_SECTION, **section,
            })
            assert main([command, "--config", str(cfg)] + extra) == 0
            outs[label] = (out / csv_name).read_text()
        assert outs["serial"] == outs["parallel"]
        assert len(outs["serial"].splitlines()) > 1

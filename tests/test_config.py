"""Config defaults and limits have one home: the library dataclasses state them
in their field metadata, and the CLI's train, synthetic and solver sections are
derived from those fields."""

import dataclasses
import json
import math

import pytest

from subnet.cli import SolverSection, SyntheticSection, TrainSection, parse_config
from subnet.data import SyntheticConfig
from subnet.errors import ConfigError, InvalidArgumentError
from subnet.ode import SolverConfig
from subnet.training import TrainConfig

# dataclass, JSON section, JSON keys that differ from the field names, fields the JSON leaves out
SECTIONS = (
    (TrainConfig, "train", {}, {"seed", "trainable"}),
    (SyntheticConfig, "synthetic", {"input_kind": "input"}, set()),
    (SolverConfig, "solver", {}, {"dt"}),
)


def _outside(f: dataclasses.Field, limit: str):
    """A value just outside the limit ``limit`` of the field ``f``."""
    bound = f.metadata[limit]
    if limit == "choices":
        return "nope"
    if limit != "ge":  # gt and lt exclude the bound itself
        return bound
    return bound - 1 if isinstance(f.default, int) else math.nextafter(bound, -math.inf)


BOUNDED = [pytest.param(dc, section, keys.get(f.name, f.name), f.name in omit, f, limit,
                        id=f"{section}.{f.name}-{limit}")
           for dc, section, keys, omit in SECTIONS
           for f in dataclasses.fields(dc) for limit in f.metadata]


def test_every_section_has_bounded_fields():
    assert {p.values[1] for p in BOUNDED} == {"train", "synthetic", "solver"}
    assert len(BOUNDED) == 25


@pytest.mark.parametrize("dc, section, key, omitted, f, limit", BOUNDED)
def test_limit_is_checked_by_library_and_cli(tmp_path, dc, section, key, omitted, f, limit):
    value = _outside(f, limit)
    with pytest.raises(InvalidArgumentError, match=rf"^{f.name} must be .*got {value!r}"):
        dc(**{f.name: value})
    dc(**{f.name: f.default})  # the default lies inside
    if omitted:
        return
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"command": "generate", section: {key: value}}))
    with pytest.raises(ConfigError, match=rf"{section}\.{key}\b"):
        parse_config(p)


@pytest.mark.parametrize("section, echo", [
    (TrainSection, '{"T": 30, "batch_size": 64, "max_updates": 50000, "eval_every": 100, '
                   '"patience": 20, "lr": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08, '
                   '"clip_norm": 10.0, "loss_target": "truncated"}'),
    (SyntheticSection, '{"system": "cascaded_tanks", "n_samples": 1024, "dt": 4.0, '
                       '"input": "multisine", "seed": null, "noise_std": 0.0, '
                       '"truth_substeps": 32, "params": {}}'),
    (SolverSection, '{"method": "rk4", "substeps": 1, "tau": "auto"}'),
])
def test_derived_section_keys_and_defaults_are_pinned(section, echo):
    # effective_config.json echoes these sections in this key order
    assert json.dumps(section().model_dump(mode="json")) == echo


@pytest.mark.parametrize("tau", [0, -1])
def test_parse_rejects_nonpositive_tau(tmp_path, tau):
    # the state-derivative normalization divides f by tau
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"command": "train", "solver": {"tau": tau}}))
    with pytest.raises(ConfigError, match=r"solver\.tau"):
        parse_config(p)


@pytest.mark.parametrize("hidden", [[0], [-4, 3], [8, 0]])
def test_parse_rejects_nonpositive_hidden_width(tmp_path, hidden):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"command": "train", "model": {"n_x": 2, "hidden": hidden}}))
    bad = next(i for i, w in enumerate(hidden) if w < 1)
    with pytest.raises(ConfigError, match=rf"model\.hidden\.{bad}:"):
        parse_config(p)


def test_parse_accepts_linear_networks(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"command": "train", "model": {"n_x": 2, "hidden": []}}))
    assert parse_config(p).model.hidden == []

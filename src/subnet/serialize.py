"""Model persistence: one self-describing JSON document per model.

Encoding (pinned for portability):
* each network is stored as ``layer_sizes``, ``with_bypass`` and its flat
  parameter vector in the documented layout order (W0, b0, W1, b1, ...,
  bypass, row-major), base64 of little-endian IEEE754 float64 bytes;
* scalar floats and the normalization vectors are plain JSON numbers
  written with Python's shortest round-trip representation, which is exact
  for binary64.

Round-trips are therefore bit-exact.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .data import NormStats, open_artifact
from .errors import ParseError
from .model import SubnetModel
from .nnmath import MLPParams, mlp_layout
from .ode import SolverConfig

FORMAT_VERSION = 1


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(s: str, n: int) -> np.ndarray:
    raw = base64.b64decode(s.encode("ascii"))
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if a.size != n:
        raise ParseError(f"parameter blob has {a.size} values, expected {n}")
    return a


def _net_to_dict(p: MLPParams) -> dict:
    return {
        "layer_sizes": p.layer_sizes,
        "with_bypass": p.bypass is not None,
        "params_b64": _encode_array(p.values),
    }


def _net_from_dict(name: str, d: dict) -> MLPParams:
    sizes, with_bypass = d["layer_sizes"], d["with_bypass"]
    # the input size may be 0 (a constant encoder); every layer needs a unit
    if not (isinstance(sizes, list) and len(sizes) >= 2
            and all(type(s) is int for s in sizes) and sizes[0] >= 0 and min(sizes[1:]) >= 1
            and isinstance(with_bypass, bool)):
        raise ParseError(
            f"networks.{name}: need layer_sizes of >= 2 integers (input >= 0, others >= 1) "
            f"and a bool with_bypass, got {sizes!r} and {with_bypass!r}")
    layout = mlp_layout(tuple(sizes), with_bypass)
    n = sum(math.prod(s) for _, s in layout)
    p = MLPParams.over(_decode_array(d["params_b64"], n), layout)
    return MLPParams(p.weights, p.biases, p.bypass)


def model_to_dict(m: SubnetModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n_x": m.n_x, "n_u": m.n_u, "n_y": m.n_y, "n_a": m.n_a, "n_b": m.n_b,
        "mode": m.mode,
        "solver": {
            "method": m.solver.method,
            "substeps": m.solver.substeps,
            "tau": m.solver.tau,
            "dt": m.solver.dt,
        },
        "norm": {
            "u_mean": m.norm.u_mean.tolist(), "u_std": m.norm.u_std.tolist(),
            "y_mean": m.norm.y_mean.tolist(), "y_std": m.norm.y_std.tolist(),
        },
        "networks": {
            "f": _net_to_dict(m.f_net),
            "h": _net_to_dict(m.h_net),
            "psi": _net_to_dict(m.psi_net),
        },
    }


def model_from_dict(d: dict) -> SubnetModel:
    try:
        if d["format_version"] != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {d['format_version']!r}")
        solver = SolverConfig(**d["solver"])
        norm = NormStats(np.array(d["norm"]["u_mean"]), np.array(d["norm"]["u_std"]),
                         np.array(d["norm"]["y_mean"]), np.array(d["norm"]["y_std"]))
        nets = {k: _net_from_dict(k, v) for k, v in d["networks"].items()}
        return SubnetModel(nets["f"], nets["h"], nets["psi"], solver,
                           d["n_x"], d["n_u"], d["n_y"], d["n_a"], d["n_b"],
                           norm, d["mode"])
    except KeyError as e:
        raise ParseError(f"model document missing key {e}") from e
    except (TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"malformed model document: {e}") from e


def model_to_json(m: SubnetModel) -> str:
    return json.dumps(model_to_dict(m), indent=2)


def save_model(m: SubnetModel, path) -> None:
    with open_artifact(path) as fh:
        fh.write(model_to_json(m) + "\n")


def load_model(path) -> SubnetModel:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e
    return model_from_dict(doc)

"""Datasets: CSV ingestion, normalization, subsection indices, batching,
and synthetic benchmark generation with known ground truth.

CSV contract: UTF-8, header row naming the channels ``u0,...,u{n_u-1},
y0,...,y{n_y-1}`` (extra columns are ignored so truth exports re-load as
plain datasets), decimal-point floats, LF or CRLF line endings, lines
starting with ``#`` skipped.  Floats are written with ``repr`` so a
save/load round-trip is value-exact.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    GenerationError,
    InvalidArgumentError,
    ParseError,
    check_limits,
)

Array = np.ndarray


# --------------------------------------------------------------------------
# core containers
# --------------------------------------------------------------------------


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Sampled input/output record with a fixed sample period (seconds)."""

    u: Array
    y: Array
    dt: float
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "u", _readonly(np.atleast_2d(self.u).T if np.ndim(self.u) == 1 else self.u))
        object.__setattr__(self, "y", _readonly(np.atleast_2d(self.y).T if np.ndim(self.y) == 1 else self.y))
        if self.u.ndim != 2 or self.y.ndim != 2 or self.u.shape[0] != self.y.shape[0]:
            raise InvalidArgumentError("u and y must be (N, n_u) and (N, n_y) with equal N")
        if self.u.shape[0] < 1:
            raise InvalidArgumentError("dataset must contain at least one sample")
        if not (np.isfinite(self.u).all() and np.isfinite(self.y).all()):
            raise InvalidArgumentError("dataset contains non-finite entries")
        if not self.dt > 0:
            raise InvalidArgumentError("dt must be positive")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def n_u(self) -> int:
        return self.u.shape[1]

    @property
    def n_y(self) -> int:
        return self.y.shape[1]


def slice_dataset(ds: Dataset, start: int, stop: int) -> Dataset:
    """Contiguous sub-record; used for validation splits."""
    if not (0 <= start < stop <= ds.n):
        raise InvalidArgumentError(f"invalid slice [{start}, {stop}) for N={ds.n}")
    return Dataset(ds.u[start:stop].copy(), ds.y[start:stop].copy(), ds.dt,
                   f"{ds.name}[{start}:{stop}]")


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean and (population) standard deviation of u and y."""

    u_mean: Array
    u_std: Array
    y_mean: Array
    y_std: Array

    def __post_init__(self):
        for label in ("u_mean", "u_std", "y_mean", "y_std"):
            object.__setattr__(self, label, _readonly(np.atleast_1d(getattr(self, label))))
        if (self.u_std <= 0).any() or (self.y_std <= 0).any():
            raise InvalidArgumentError("all standard deviations must be positive")

    @staticmethod
    def identity(n_u: int, n_y: int) -> "NormStats":
        """No-op normalization (mean 0, std 1); handy for wrapped ground truth."""
        return NormStats(np.zeros(n_u), np.ones(n_u), np.zeros(n_y), np.ones(n_y))


def fit_normalizer(ds: Dataset) -> NormStats:
    """Per-channel z-score statistics; rejects zero-variance channels."""
    u_std = ds.u.std(axis=0)
    y_std = ds.y.std(axis=0)
    for kind, std in (("u", u_std), ("y", y_std)):
        for c, s in enumerate(std):
            if s == 0.0:
                raise DegenerateDataError(f"channel {kind}[{c}] has zero variance")
    return NormStats(ds.u.mean(axis=0), u_std, ds.y.mean(axis=0), y_std)


def normalize_dataset(ds: Dataset, stats: NormStats) -> Dataset:
    return Dataset((ds.u - stats.u_mean) / stats.u_std,
                   (ds.y - stats.y_mean) / stats.y_std, ds.dt, ds.name)


def denormalize_y(y_norm: Array, stats: NormStats) -> Array:
    return y_norm * stats.y_std + stats.y_mean


# --------------------------------------------------------------------------
# CSV input/output
# --------------------------------------------------------------------------


def _column_names(n_u: int, n_y: int) -> list[str]:
    return [f"u{i}" for i in range(n_u)] + [f"y{i}" for i in range(n_y)]


def load_csv(path, n_u: int, n_y: int, dt: float) -> Dataset:
    """Read a dataset; parse failures report the offending row and column."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file does not exist")
    required = _column_names(n_u, n_y)
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        try:
            cols = [header.index(name) for name in required]
        except ValueError as e:
            missing = [name for name in required if name not in header]
            raise ParseError(f"{path}: missing columns {missing}") from e
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            vals = []
            for name, c in zip(required, cols):
                if c >= len(row):
                    raise ParseError(f"{path}: row {r}: missing value in column {name!r}")
                try:
                    vals.append(float(row[c]))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {r}, column {name!r}: not a number: {row[c]!r}"
                    ) from None
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(arr[:, :n_u], arr[:, n_u:], dt, name=path.stem)


def open_artifact(path):
    """Open ``path`` as a new UTF-8 text file for an artifact (no newline translation).

    An existing file is unlinked first rather than truncated: truncating a
    file that still has unflushed blocks can stall for a filesystem flush
    (tens of ms per file on ext4 with delayed allocation).  That flush is
    ext4's ``auto_da_alloc`` crash protection, and a newly created file does
    not get it: if the machine crashes or loses power before the new file's
    data reach the disk, the artifact can be left empty, with its old
    content already gone.  Also, a symlink at ``path`` is replaced by a
    regular file, and other hard links to the old file keep the old content.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def write_csv(path, header: list[str], rows) -> None:
    """Write one CSV artifact: UTF-8, LF line ends, ``repr`` floats.

    Every float cell (``np.float64`` included) is written as
    ``repr(float(v))``, the shortest text that reads back to the same float;
    other cells are written as they are.
    """
    with open_artifact(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def save_csv(ds: Dataset, path) -> None:
    write_csv(path, _column_names(ds.n_u, ds.n_y), np.hstack([ds.u, ds.y]).tolist())


# --------------------------------------------------------------------------
# subsection bookkeeping and batching
# --------------------------------------------------------------------------


def valid_start_indices(N: int, T: int, n_a: int, n_b: int) -> Array:
    """All legal subsection starts: max(n_a, n_b) ... N - T inclusive."""
    if min(N, T) < 0 or min(n_a, n_b) < 0:
        raise InvalidArgumentError("N, T, n_a, n_b must be nonnegative")
    lag = max(n_a, n_b)
    if N < T + lag:
        raise InvalidArgumentError(f"N={N} too small for T={T} with encoder lag {lag}")
    return np.arange(lag, N - T + 1, dtype=np.int64)


class BatchSampler:
    """Uniform batches without replacement: one shuffled epoch consumed in chunks.

    The final chunk of an epoch may be short; the next call reshuffles.
    Deterministic given the generator's seed.
    """

    def __init__(self, indices, batch_size: int, rng: np.random.Generator):
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indices.size == 0:
            raise InvalidArgumentError("indices must be nonempty")
        if batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.rng = rng
        self._perm = np.empty(0, dtype=np.int64)
        self._pos = 0

    def sample_batch(self) -> Array:
        if self._pos >= self._perm.size:
            self._perm = self.rng.permutation(self.indices)
            self._pos = 0
        out = self._perm[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return out


# --------------------------------------------------------------------------
# synthetic benchmarks
# --------------------------------------------------------------------------


TANKS_DEFAULTS = {
    "k1": 0.5, "k2": 0.4, "k4": 1.0, "x_max": 10.0,
    "x01": 0.0, "x02": 0.0,
    "input_offset": 0.9, "input_scale": 0.5,
}

LINEAR2_DEFAULTS = {
    "a11": 0.0, "a12": 1.0, "a21": -0.25, "a22": -0.3,
    "b1": 0.0, "b2": 1.0, "c1": 1.0, "c2": 0.0,
    "x01": 0.0, "x02": 0.0,
    "input_offset": 0.0, "input_scale": 1.0,
}

_SYSTEMS = {"cascaded_tanks": TANKS_DEFAULTS, "linear2": LINEAR2_DEFAULTS}
_INPUTS = ("multisine", "random_steps")


@dataclass(frozen=True)
class SyntheticConfig:
    """Recipe for one synthetic record (system, excitation, noise, solver grain)."""

    system: str = field(default="cascaded_tanks", metadata={"choices": tuple(_SYSTEMS)})
    n_samples: int = field(default=1024, metadata={"ge": 2})
    dt: float = field(default=4.0, metadata={"gt": 0})
    input_kind: str = field(default="multisine", metadata={"choices": _INPUTS})
    seed: int = field(default=0, metadata={"ge": 0})
    noise_std: float = field(default=0.0, metadata={"ge": 0})
    truth_substeps: int = field(default=32, metadata={"ge": 10})
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_limits(self)
        defaults = _SYSTEMS[self.system]
        for key, value in self.params.items():
            if key not in defaults:
                raise InvalidArgumentError(
                    f"unknown {self.system} parameter {key!r}; known: {sorted(defaults)}")
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InvalidArgumentError(
                    f"parameter {key!r} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SyntheticSystem:
    """Ground-truth dynamics in raw units: dx/dt = f(x, u), y = h(x).

    Both systems have two states and one input.  ``f`` is written on plain
    floats: it takes any indexable ``x`` and ``u`` (a tuple, a list or a 1-D
    array) and returns a tuple of ``n_x`` floats, so the generator's scalar
    loop and the array-based reconstruction oracle share one definition of
    the physics.  ``h`` maps states ``(..., n_x)`` to outputs ``(..., n_y)``.
    """

    name: str
    n_x: int
    n_u: int
    n_y: int
    f: callable
    h: callable
    x0: Array
    clamp: tuple[float, float] | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TruthTrace:
    """Noiseless ground truth recorded alongside a generated dataset."""

    states: Array   # (N, n_x) at the sample instants
    y_clean: Array  # (N, n_y)


def make_system(cfg: SyntheticConfig) -> SyntheticSystem:
    p = {**_SYSTEMS[cfg.system], **cfg.params}
    x0 = np.array([p["x01"], p["x02"]])
    if cfg.system == "cascaded_tanks":
        k1, k2, k4 = p["k1"], p["k2"], p["k4"]

        def f(x, u):
            # ``0.0 if 0.0 > v else v`` is ``max(v, 0.0)`` to the bit (-0.0 and NaN
            # included) without the builtin call
            v0, v1 = x[0], x[1]
            r1 = math.sqrt(0.0 if 0.0 > v0 else v0)
            r2 = math.sqrt(0.0 if 0.0 > v1 else v1)
            return (-k1 * r1 + k4 * u[0], k1 * r1 - k2 * r2)

        return SyntheticSystem("cascaded_tanks", 2, 1, 1, f, lambda x: x[..., 1:], x0,
                               clamp=(0.0, p["x_max"]), params=p)

    a11, a12, a21, a22 = p["a11"], p["a12"], p["a21"], p["a22"]
    b1, b2 = p["b1"], p["b2"]
    C = np.array([p["c1"], p["c2"]])

    def f(x, u):
        return (a11 * x[0] + a12 * x[1] + b1 * u[0],
                a21 * x[0] + a22 * x[1] + b2 * u[0])

    # a stack of (1, 2) @ (2,) products rounds each row as ``C @ x`` does; ``x @ C`` does not
    return SyntheticSystem("linear2", 2, 1, 1, f, lambda x: x[..., None, :] @ C, x0,
                           params=p)


def _multisine(n: int, dt: float, rng: np.random.Generator, n_sines: int = 20) -> Array:
    """Unit-std multisine over the [0, 0.3/dt] Hz band with random phases."""
    f_max = 0.3 / dt
    freqs = f_max * np.arange(1, n_sines + 1) / n_sines
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_sines)
    t = np.arange(n) * dt
    sig = np.cos(2.0 * np.pi * freqs[None, :] * t[:, None] + phases[None, :]).sum(axis=1)
    return sig / sig.std()

def _random_steps(n: int, rng: np.random.Generator) -> Array:
    """Piecewise-constant levels in [-1, 1], hold 5..20 samples; unit-ish scale."""
    sig = np.empty(n)
    k = 0
    while k < n:
        hold = int(rng.integers(5, 21))
        sig[k:k + hold] = rng.uniform(-1.0, 1.0)
        k += hold
    return sig


def generate_input(cfg: SyntheticConfig, system: SyntheticSystem,
                   rng: np.random.Generator) -> Array:
    base = (_multisine(cfg.n_samples, cfg.dt, rng) if cfg.input_kind == "multisine"
            else _random_steps(cfg.n_samples, rng))
    p = system.params
    return (p["input_offset"] + p["input_scale"] * base)[:, None]


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, TruthTrace]:
    """Integrate the chosen system under a seeded excitation and add output noise.

    Integration is classical RK4 on plain floats (tau = 1), with
    ``truth_substeps`` sub-intervals of ``dt / truth_substeps`` per sample
    under ZOH input; tank states are clamped to the overflow box after every
    sub-interval.  The loop keeps the two states in two float locals and
    calls ``f((x0, x1), u_k)``; its stage sums and clamp do the IEEE
    operations of ``ode.ode_step`` followed by ``np.clip`` in the same order,
    so they round alike, signed zeros included.  Raises
    :class:`GenerationError` naming the sample and sub-step when a state
    becomes non-finite (checked before the clamp), and the sample when a
    state grows past 1e9.
    """
    system = make_system(cfg)
    input_rng, noise_rng = [np.random.default_rng(s)
                            for s in np.random.SeedSequence(cfg.seed).spawn(2)]
    u = generate_input(cfg, system, input_rng)

    f, isfinite = system.f, math.isfinite
    lo, hi = system.clamp if system.clamp is not None else (None, None)
    h = cfg.dt / cfg.truth_substeps
    q, r = h / 2.0, h / 6.0
    x0, x1 = (float(v) for v in system.x0)
    states = np.empty((cfg.n_samples, system.n_x))
    for k in range(cfg.n_samples):
        states[k] = (x0, x1)
        if k == cfg.n_samples - 1:
            break
        uk = u[k].tolist()
        for i in range(cfg.truth_substeps):
            a0, a1 = f((x0, x1), uk)
            b0, b1 = f((x0 + q * a0, x1 + q * a1), uk)
            c0, c1 = f((x0 + q * b0, x1 + q * b1), uk)
            d0, d1 = f((x0 + h * c0, x1 + h * c1), uk)
            x0 = x0 + r * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            x1 = x1 + r * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            if not (isfinite(x0) and isfinite(x1)):
                raise GenerationError(f"non-finite state at sample {k + 1}, substep {i}")
            if lo is not None:  # min(max(v, lo), hi), as np.clip, to the bit
                x0 = lo if lo > x0 else x0
                x0 = hi if hi < x0 else x0
                x1 = lo if lo > x1 else x1
                x1 = hi if hi < x1 else x1
        if abs(x0) > 1e9 or abs(x1) > 1e9:
            raise GenerationError(f"trajectory diverged at sample {k + 1}")

    y_clean = system.h(states)
    noise = noise_rng.standard_normal(y_clean.shape) * cfg.noise_std
    ds = Dataset(u, y_clean + noise, cfg.dt, name=f"{cfg.system}-seed{cfg.seed}")
    return ds, TruthTrace(_readonly(states), _readonly(y_clean))


def save_truth_csv(ds: Dataset, trace: TruthTrace, path) -> None:
    """Dataset CSV plus x0,x1,... state columns and y_clean0,... columns."""
    n_x = trace.states.shape[1]
    header = (_column_names(ds.n_u, ds.n_y) + [f"x{i}" for i in range(n_x)]
              + [f"y_clean{j}" for j in range(ds.n_y)])
    write_csv(path, header, np.hstack([ds.u, ds.y, trace.states, trace.y_clean]).tolist())

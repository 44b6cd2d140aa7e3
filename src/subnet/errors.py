"""Exception hierarchy shared by all subnet modules, and the check of config field limits."""

import dataclasses
import operator


class SubnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SubnetError, ValueError):
    """Caller passed inconsistent shapes, indices or options."""


class NumericFaultError(SubnetError, ArithmeticError):
    """A computation produced non-finite values.

    ``context`` carries whatever location information the failing layer
    had (sub-step index, rollout step, subsection start index, ...).
    """

    def __init__(self, message: str, **context):
        if context:
            message = f"{message} ({', '.join(f'{k}={v}' for k, v in context.items())})"
        super().__init__(message)
        self.context = context


class DegenerateDataError(SubnetError, ValueError):
    """Data violates a statistical precondition (zero variance, zero RMS)."""


class ParseError(SubnetError, ValueError):
    """A file could not be parsed; message includes row/column location."""


class GenerationError(SubnetError, RuntimeError):
    """Synthetic data generation produced an unusable trajectory."""


class ObservabilityError(SubnetError, ValueError):
    """State reconstruction requested with too few outputs (z*n_y < n_x)."""


class NoSolutionError(SubnetError, RuntimeError):
    """An iterative solver failed to converge from every starting point."""


class ConfigError(SubnetError, ValueError):
    """A run configuration file is malformed or references missing paths."""


_LIMITS = {"choices": (lambda v, c: v in c, "one of"), "ge": (operator.ge, ">="),
           "gt": (operator.gt, ">"), "lt": (operator.lt, "<")}


def check_limits(obj) -> None:
    """Raise :class:`InvalidArgumentError` naming the first dataclass field of ``obj``
    outside its metadata's ``choices``, ``ge``, ``gt`` or ``lt`` (``None`` passes if annotated)."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None and "None" in str(f.type):
            continue
        for key, bound in f.metadata.items():
            holds, text = _LIMITS[key]
            if not holds(value, bound):
                raise InvalidArgumentError(f"{f.name} must be {text} {bound}, got {value!r}")

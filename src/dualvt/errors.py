"""Exception taxonomy shared across the library and mapped to CLI exit codes,
and the number tests that the configuration checks share."""

import dataclasses
import math
import numbers


class DualVtError(Exception):
    """Base class for all library errors."""


class ConfigError(DualVtError):
    """Invalid user-supplied configuration (CLI exit code 2)."""


class ShapeMismatch(DualVtError):
    """Tensor shapes inconsistent with the declared geometry."""


class IndexOutOfRange(DualVtError):
    """Lookup-table index outside the bounds of the supplied tensors."""


class BadMagic(DualVtError):
    """Tensor/table file does not start with the expected magic bytes."""


class TruncatedPayload(DualVtError):
    """File payload shorter than the header declares."""


class NonFiniteValue(DualVtError):
    """NaN or Inf encountered where finite values are required."""


class RankOverflow(DualVtError):
    """Tensor rank exceeds the supported maximum of 8."""


class EmptyShape(DualVtError):
    """Requested tensor shape has no elements."""


class InvalidCount(DualVtError):
    """A count parameter is below its legal minimum."""


def is_a(value, kind) -> bool:
    """isinstance for numbers read from JSON: numpy scalars pass, booleans never do."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """math.isfinite, False also for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_field_types(obj) -> None:
    """Raise a ConfigError naming the first `int` field of a dataclass that holds no
    integer or `float` field that holds no finite real number (booleans never pass).
    The kind is the annotation: a class, or its name under postponed annotations."""
    for field in dataclasses.fields(obj):
        kind, value = getattr(field.type, "__name__", field.type), getattr(obj, field.name)
        if kind == "int" and not is_a(value, numbers.Integral):
            raise ConfigError(f"{field.name} must be an integer, got {value!r}")
        if kind == "float" and not (is_a(value, numbers.Real) and is_finite(value)):
            raise ConfigError(f"{field.name} must be a finite real number, got {value!r}")

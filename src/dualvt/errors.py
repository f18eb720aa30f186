"""Exception taxonomy shared across the library and mapped to CLI exit codes,
and the number tests that the configuration checks share."""

import math


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

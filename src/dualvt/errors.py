"""Exception taxonomy shared across the library and mapped to CLI exit codes,
and what every spec block shares: one JSON encoder (`SpecBlock.to_json`), one
JSON decoder (`from_json`) and one field check (`check_field_types`)."""

import dataclasses
import math
import numbers
import re
import reprlib


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


def is_a(value, kind) -> bool:
    """isinstance for numbers read from JSON: numpy scalars pass, booleans never do."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """math.isfinite, False also for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _misfits(value, shape, at=""):
    """Yield (index, entry) where nested lists or ndarrays `value` leave `shape`
    or hold no finite real number, the outer index first."""
    if hasattr(value, "tolist"):  # an ndarray or a numpy number
        value = value.tolist()
    if shape and isinstance(value, (list, tuple)) and len(value) == shape[0]:
        for i, item in enumerate(value):
            yield from _misfits(item, shape[1:], f"{at}[{i}]")
    elif shape or not (is_a(value, numbers.Real) and is_finite(value)):
        yield at, value


class SpecBlock:
    """Base of the spec dataclasses, whose JSON form follows their declaration."""

    def to_json(self) -> dict:
        """Every declared field in declaration order: a block by this same rule,
        a tuple or ndarray as a list, a numpy number as a JSON number."""
        return {field.name: _plain(getattr(self, field.name))
                for field in dataclasses.fields(self)}


def _plain(value):
    if isinstance(value, SpecBlock):
        return value.to_json()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value.tolist() if hasattr(value, "tolist") else value


def check_field_types(obj) -> None:
    """Raise a ConfigError naming the first field of a dataclass that holds no
    integer for an `int` annotation (a class, or its name under postponed
    annotations), no finite real number for a `float` one (booleans never pass),
    under ``metadata={"shape": ...}`` no list or ndarray of such numbers, or
    under ``metadata={"items": cls}`` no tuple of `cls` objects."""
    for field in dataclasses.fields(obj):
        kind, value = getattr(field.type, "__name__", field.type), getattr(obj, field.name)
        if kind == "int" and not is_a(value, numbers.Integral):
            raise ConfigError(f"{field.name} must be an integer, got {value!r}")
        if kind == "float" and not (is_a(value, numbers.Real) and is_finite(value)):
            raise ConfigError(f"{field.name} must be a finite real number, got {value!r}")
        items = field.metadata.get("items")
        if items and not (isinstance(value, tuple) and all(isinstance(v, items) for v in value)):
            raise ConfigError(f"{field.name} must be a tuple of {items.__name__} objects, "
                              f"got {reprlib.repr(value)}")
        shape = field.metadata.get("shape")
        for at, entry in _misfits(value, shape) if shape is not None else ():
            owner = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", type(obj).__name__).lower()
            raise ConfigError(f"{owner} {field.name} must be finite real numbers of shape "
                              f"{shape}, got {reprlib.repr(entry)} at {field.name}{at}")


def from_json(cls, doc):
    """``cls(**doc)`` for a dataclass `cls` and a JSON object `doc` that holds
    exactly its fields, a field declared with ``metadata={"items": item}`` as a
    list of `item` objects decoded by this same rule; else a ConfigError names
    the first problem: no object, then a missing field in declaration order,
    then an undeclared key, then a field of items that is no list."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    names = [field.name for field in dataclasses.fields(cls)]
    problems = [f"is missing key {name!r}" for name in names if name not in doc]
    problems += [f"has unknown key {key!r}" for key in doc if key not in names]
    if problems:
        raise ConfigError(f"{cls.__name__} {problems[0]}")
    fields = {}
    for field in dataclasses.fields(cls):
        items, value = field.metadata.get("items"), doc[field.name]
        if items and not isinstance(value, list):
            raise ConfigError(f"{field.name} must be a list of {items.__name__} objects, "
                              f"got {reprlib.repr(value)}")
        fields[field.name] = tuple(from_json(items, item) for item in value) if items else value
    return cls(**fields)

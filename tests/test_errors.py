import dataclasses

import numpy as np
import pytest

from dualvt.errors import ConfigError, check_field_types
from dualvt.geometry import BevGridSpec, CameraRig
from dualvt.sampling import DepthBinSpec
from dualvt.synth import SceneSpec

RIG = CameraRig(intrinsics=np.array([[10.0, 0, 2], [0, 10.0, 2], [0, 0, 1]]),
                extrinsics=np.eye(4), feat_w=4, feat_h=4)
SPECS = [SceneSpec(), BevGridSpec(), DepthBinSpec(), RIG]
REFUSED = {"int": [True, 1.5, "1"], "float": [True, "1", float("nan"), float("inf")]}


def declared(field):
    """A field's declared kind: its annotation's text, or the class's name."""
    return field.type if isinstance(field.type, str) else field.type.__name__


CASES = [(spec, f.name, bad) for spec in SPECS for f in dataclasses.fields(spec)
         for bad in REFUSED.get(declared(f), ())]


def test_every_field_is_checked_or_not_a_number():
    """A numeric field declared any other way (``int | None``, ``np.float64``)
    would escape the check: every field is an int, a float or a container."""
    kinds = {declared(f) for spec in SPECS for f in dataclasses.fields(spec)}
    assert kinds == {"int", "float", "tuple", "np.ndarray"}


@pytest.mark.parametrize("spec, name, bad", CASES,
                         ids=[f"{type(s).__name__}-{n}-{b!r}" for s, n, b in CASES])
def test_field_of_another_type_names_the_field(spec, name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        dataclasses.replace(spec, **{name: bad})


@dataclasses.dataclass
class Plain:
    """Annotated with the classes themselves: this module has no
    ``from __future__ import annotations``."""

    count: int = 1
    size: float = 1.0


@pytest.mark.parametrize("name, bad", [("count", True), ("count", 2.0), ("size", np.nan),
                                       ("size", 10**400), ("size", np.True_)])
def test_class_annotations_are_read(name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        check_field_types(Plain(**{name: bad}))


def test_numpy_numbers_and_integers_for_reals_pass():
    check_field_types(Plain(count=np.int64(3), size=np.float32(0.5)))
    check_field_types(Plain(count=np.uint8(0), size=-7))

import dataclasses
import json

import numpy as np
import pytest

from dualvt.errors import ConfigError, check_field_types, from_json
from dualvt.geometry import BevGridSpec, CameraRig
from dualvt.sampling import DepthBinSpec
from dualvt.synth import Box, SceneSpec

RIG = CameraRig(intrinsics=np.array([[10.0, 0, 2], [0, 10.0, 2], [0, 0, 1]]),
                extrinsics=np.eye(4), feat_w=4, feat_h=4)
BOX = Box(center=(1.5, -2, 0.5), size=(4, 2.0, 1.5))
SPECS = [SceneSpec(), BevGridSpec(), DepthBinSpec(), RIG, BOX]
REFUSED = {"int": [True, 1.5, "1"], "float": [True, "1", float("nan"), float("inf")]}


def declared(field):
    """A field's declared kind: its annotation's text, or the class's name."""
    return field.type if isinstance(field.type, str) else field.type.__name__


CASES = [(spec, f.name, bad) for spec in SPECS for f in dataclasses.fields(spec)
         for bad in REFUSED.get(declared(f), ())]


def test_every_field_is_checked_or_not_a_number():
    """A numeric field declared any other way (``int | None``, ``np.float64``)
    would escape the check: every field is an int, a float or a container, and
    every container but the boxes, which declare their items instead, has a shape."""
    kinds = {declared(f) for spec in SPECS for f in dataclasses.fields(spec)}
    assert kinds == {"int", "float", "tuple", "np.ndarray"}
    unshaped = {f"{type(spec).__name__}.{f.name}" for spec in SPECS
                for f in dataclasses.fields(spec)
                if declared(f) in ("tuple", "np.ndarray") and "shape" not in f.metadata}
    assert unshaped == {"SceneSpec.boxes"}


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


@dataclasses.dataclass
class Shaped:
    matrix: np.ndarray = dataclasses.field(metadata={"shape": (2, 3)})


def with_entry(value, at=(1, 2)):
    """A good 2x3 list of lists with `value` at `at`."""
    rows = [[1, 2.5, -3], [0, 5, 6e300]]
    rows[at[0]][at[1]] = value
    return rows


SHAPE_MESSAGE = r"^shaped matrix must be finite real numbers of shape \(2, 3\), got "
MISFITS = [
    (with_entry(True), r"True at matrix\[1\]\[2\]"),
    (with_entry("10", at=(0, 1)), r"'10' at matrix\[0\]\[1\]"),
    (with_entry(float("nan")), r"nan at matrix\[1\]\[2\]"),
    (with_entry(-float("inf"), at=(0, 0)), r"-inf at matrix\[0\]\[0\]"),
    (with_entry(10**400), r"1000.* at matrix\[1\]\[2\]"),
    (with_entry(None), r"None at matrix\[1\]\[2\]"),
    ([[1, 2, 3]], r"\[\[1, 2, 3\]\] at matrix$"),
    ([[1, 2, 3], [4, 5]], r"\[4, 5\] at matrix\[1\]$"),
    ([[1, 2, 3], [4, 5, 6, 7]], r"\[4, 5, 6, 7\] at matrix\[1\]$"),
    ([[1, 2, 3], 4], r"4 at matrix\[1\]$"),
    ([[1, 2, 3], [4, [5], 6]], r"\[5\] at matrix\[1\]\[1\]$"),
    ([list(range(10**5)), [4, 5, 6]], r"\[0, 1, 2, 3, 4, 5, \.\.\.\] at matrix\[0\]$"),
    ("abcdef", r"'abcdef' at matrix$"),
    (5.0, r"5.0 at matrix$"),
    (np.zeros(6), r"\[0.0, 0.0, 0.0, 0.0, 0.0, 0.0\] at matrix$"),
    (np.zeros((3, 2)), r"\[\[0.0, 0.0\], \[0.0, 0.0\], \[0.0, 0.0\]\] at matrix$"),
    (np.array(with_entry(np.nan)), r"nan at matrix\[1\]\[2\]"),
    (np.array(with_entry(np.inf)), r"inf at matrix\[1\]\[2\]"),
    (np.ones((2, 3), dtype=bool), r"True at matrix\[0\]\[0\]"),
    (np.array(with_entry("10"), dtype=object), r"'10' at matrix\[1\]\[2\]"),
    (np.array(with_entry(True), dtype=object), r"True at matrix\[1\]\[2\]"),
    (np.array(with_entry(10**400), dtype=object), r"1000.* at matrix\[1\]\[2\]"),
    (np.array(with_entry(1 + 2j)), r"\(1\+0j\) at matrix\[0\]\[0\]"),
]
MISFIT_IDS = ["list-true", "list-str", "list-nan", "list-neg-inf", "list-huge-int", "list-none",
              "list-short", "list-ragged-short", "list-ragged-long", "list-row-scalar",
              "list-too-deep", "list-long-row", "str", "scalar", "array-flat",
              "array-transposed", "array-nan", "array-inf", "array-bool", "array-str",
              "array-true", "array-huge-int", "array-complex"]


@pytest.mark.parametrize("value, entry", MISFITS, ids=MISFIT_IDS)
def test_shape_check_names_the_field_and_the_first_bad_entry(value, entry):
    with pytest.raises(ConfigError, match=SHAPE_MESSAGE + entry) as e:
        check_field_types(Shaped(value))
    assert "\n" not in str(e.value)


@pytest.mark.parametrize("value", [
    with_entry(np.float32(0.5)), with_entry(np.int64(-4)), with_entry(np.uint8(7)),
    tuple(tuple(row) for row in with_entry(2**70)), np.arange(6.0).reshape(2, 3),
    np.arange(6, dtype=np.int32).reshape(2, 3), [np.array([1.0, 2, 3]), (4, 5, 6)],
], ids=["float32", "int64", "uint8", "tuples", "float-array", "int-array", "mixed"])
def test_shape_check_accepts_real_numbers_of_any_kind(value):
    check_field_types(Shaped(value))


GRID = BevGridSpec().to_json()


@pytest.mark.parametrize("cls, doc, message", [
    (BevGridSpec, 5, "^BevGridSpec must be a JSON object, got int$"),
    (BevGridSpec, [GRID], "^BevGridSpec must be a JSON object, got list$"),
    (Box, None, "^Box must be a JSON object, got NoneType$"),
    (BevGridSpec, {k: v for k, v in GRID.items() if k not in ("x_min", "x_max")},
     "^BevGridSpec is missing key 'x_min'$"),
    (BevGridSpec, {"nx": 4, "ny": 4, "bogus": 1}, "^BevGridSpec is missing key 'x_min'$"),
    (BevGridSpec, {k: v for k, v in GRID.items() if k != "ny"},
     "^BevGridSpec is missing key 'ny'$"),
    (SceneSpec, {k: v for k, v in SceneSpec().to_json().items() if k != "hfov_deg"},
     "^SceneSpec is missing key 'hfov_deg'$"),
    (BevGridSpec, {**GRID, "bogus": 1, "other": 2}, "^BevGridSpec has unknown key 'bogus'$"),
    (BevGridSpec, {**GRID, "NX": 4}, "^BevGridSpec has unknown key 'NX'$"),
    (SceneSpec, {**SceneSpec().to_json(), "boxes": 5},
     "^boxes must be a list of Box objects, got 5$"),
    (SceneSpec, {**SceneSpec().to_json(), "boxes": [BOX.to_json(), [1, 2]]},
     "^Box must be a JSON object, got list$"),
], ids=["int", "list", "null", "first-missing", "missing-before-unknown", "last-missing",
        "defaulted-missing", "unknown", "unknown-case", "boxes-not-a-list", "box-not-an-object"])
def test_decoder_names_the_first_problem(cls, doc, message):
    with pytest.raises(ConfigError, match=message):
        from_json(cls, doc)


NUMPY_BOX = Box(center=(np.float32(0.1), np.float64(-2), np.int64(3)), size=(1, 2.5, 3))


@pytest.mark.parametrize("spec", [
    BOX, BevGridSpec(), DepthBinSpec(d_min=0, d_max=3, step=0.25),
    dataclasses.replace(RIG, feat_w=5, feat_h=2), SceneSpec(boxes=(BOX, NUMPY_BOX)),
    NUMPY_BOX, SceneSpec(seed=np.int64(3)), BevGridSpec(x_min=np.float64(-8), nx=np.int32(4)),
], ids=["box", "grid", "dspec", "rig", "scene-with-boxes", "box-numpy", "scene-numpy-seed",
        "grid-numpy"])
def test_to_json_round_trips_through_the_decoder(spec):
    """to_json writes exactly the fields the decoder wants, a numpy number as a
    JSON number, and nothing is lost on the way."""
    doc = json.loads(json.dumps(spec.to_json()))
    back = from_json(type(spec), doc)
    assert back.to_json() == doc == spec.to_json()
    for field in dataclasses.fields(spec):
        got, want = getattr(back, field.name), getattr(spec, field.name)
        want = want.item() if isinstance(want, np.generic) else want
        assert type(got) is type(want), field.name
    assert getattr(back, "intrinsics", np.zeros(1)).dtype == np.float64


@pytest.mark.parametrize("boxes", [(5,), (BOX, {"center": [0, 0, 0], "size": [1, 1, 1]}), 5,
                                   [BOX]], ids=["int", "dict", "not-a-tuple", "list"])
def test_scene_spec_refuses_boxes_that_are_not_box_objects(boxes):
    with pytest.raises(ConfigError, match="^boxes must be a tuple of Box objects"):
        SceneSpec(boxes=boxes)


@pytest.mark.parametrize("doc, kind", [(5, "int"), ([], "list"), (None, "NoneType")])
def test_scene_spec_from_json_refuses_a_non_object(doc, kind):
    with pytest.raises(ConfigError, match=f"^SceneSpec must be a JSON object, got {kind}$"):
        from_json(SceneSpec, doc)

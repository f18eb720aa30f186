"""Every spec block's JSON form is derived from its declaration, in one place.

`errors.SpecBlock.to_json` encodes and `errors.from_json` decodes all five
spec blocks, field by field as each dataclass declares them. A hand-written
copy of either in a block would have to restate its keys, and could drift
from the declaration and from the other copy.  This guard parses the
package and refuses any other definition of `to_json` or `from_json`.
"""

import ast
from pathlib import Path

import pytest

import dualvt
from dualvt.errors import SpecBlock
from dualvt.geometry import BevGridSpec, CameraRig
from dualvt.sampling import DepthBinSpec
from dualvt.synth import Box, SceneSpec

CODEC = {"to_json", "from_json"}
ALLOWED = {"errors.py:SpecBlock.to_json", "errors.py:from_json"}


def codec_definitions(source: str, module: str = "<snippet>") -> set:
    """'module:Class.name' or 'module:name' for every to_json or from_json
    defined at module level or in a class body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            found |= {f"{module}:{prefix}{d.name}" for d in node.body
                      if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and d.name in CODEC}
    return found


def test_one_encoder_and_one_decoder():
    package = Path(dualvt.__file__).parent
    found = set().union(*(codec_definitions(path.read_text(), path.name)
                          for path in sorted(package.glob("*.py"))))
    assert found == ALLOWED


@pytest.mark.parametrize("block", [Box, SceneSpec, CameraRig, BevGridSpec, DepthBinSpec])
def test_spec_blocks_share_the_encoder(block):
    assert issubclass(block, SpecBlock)


@pytest.mark.parametrize("snippet", [
    "class Box:\n    def to_json(self):\n        return {}",
    "class Spec:\n    @classmethod\n    def from_json(cls, doc):\n        return cls(**doc)",
    "def to_json(block):\n    return {}",
    "class Outer:\n    class Inner:\n        def from_json(self):\n            pass",
])
def test_guard_catches_every_copy(snippet):
    assert codec_definitions(snippet) != set()

"""The height stream projects through `geometry.project_points` alone.

The table build and its table-free oracle `ht_transform_naive` must give
a point the same coordinates, bit for bit.  They do because both call the
one projection function: the build compacts the points it projects, not
the code path.  A second projection in `height_stream.py` would have to
read a rig's matrices, so this guard parses the module and refuses any
read of `extrinsics` or `intrinsics`, as an attribute or as a name string.
"""

import ast
from pathlib import Path

import pytest

from dualvt import height_stream

MATRICES = {"extrinsics", "intrinsics"}


def matrix_reads(source: str) -> set:
    """'line:name' for every attribute or string constant that names a rig matrix."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in MATRICES:
            found.add(f"{node.lineno}:{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in MATRICES:
            found.add(f"{node.lineno}:{node.value}")
    return found


def test_height_stream_reads_no_rig_matrix():
    assert matrix_reads(Path(height_stream.__file__).read_text()) == set()


@pytest.mark.parametrize("snippet", [
    "T = rig.extrinsics",
    "K = cam.intrinsics[0, 0]",
    "T = getattr(rig, 'extrinsics')",
    "def f(rig):\n    return rig.intrinsics @ rig.extrinsics[:3]",
])
def test_guard_catches_every_read(snippet):
    assert matrix_reads(snippet) != set()

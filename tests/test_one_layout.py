"""The voxel layout has one home: `dualvt.tables`.

A table's entries name voxels, and both directions of the voxel↔pixel
relation follow from the table's sizes: `IndexTable.feat_idx` takes each
entry's voxel to its feature pixel, and `IndexTable.masked_survivors`
takes each masked-in pixel to its voxels through the table's voxel index,
whose key format only `tables` writes and reads.  The scatter only sums
what it is given.  A second copy of the relation in `scatter.py` would
have to read a table size or the index, so this guard parses the module
and refuses any name, attribute, argument or name string `n_bins`,
`feat_h`, `feat_w`, `camera_pixels` or `voxel_index`.
"""

import ast
from pathlib import Path

import pytest

from dualvt import scatter

LAYOUT = {"n_bins", "feat_h", "feat_w", "camera_pixels", "voxel_index"}


def layout_reads(source: str) -> set:
    """'line:name' for every name, attribute, argument, keyword or string
    constant that names a piece of the voxel layout."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.arg if isinstance(node, (ast.arg, ast.keyword))
                else node.value if isinstance(node, ast.Constant) else None)
        if name in LAYOUT:
            found.add(f"{node.lineno}:{name}")
    return found


def test_scatter_reads_no_voxel_layout():
    assert layout_reads(Path(scatter.__file__).read_text()) == set()


@pytest.mark.parametrize("snippet", [
    "n_bins = depth_w.size // mask_w.size",
    "pixels = table.feat_h * table.feat_w",
    "def f(keys, camera_pixels):\n    return keys, camera_pixels",
    "keys = table.voxel_index",
    "keys = voxel_index(depth_idx)",
    "keys = getattr(table, 'voxel_index')",
    "weighted_scatter(*args, n_bins=3)",
    "def f(feat_w=1):\n    pass",
])
def test_guard_catches_every_read(snippet):
    assert layout_reads(snippet) != set()

import struct

import numpy as np
import pytest

from dualvt.errors import ConfigError, IndexOutOfRange
from dualvt.height_stream import precompute_ht_table
from dualvt.tables import HT_MAGIC, IndexTable, read_table, write_table

HEADER_BYTES = 40


def tiny_table(cells, feat_idx=None, depth_idx=None):
    cells = np.asarray(cells, dtype=np.int64)
    zeros = np.zeros_like(cells)
    return IndexTable(
        magic=HT_MAGIC, ny=2, nx=2, n_cams=2, feat_h=1, feat_w=2, n_bins=3,
        cells=cells,
        feat_idx=zeros if feat_idx is None else np.asarray(feat_idx, dtype=np.int64),
        depth_idx=zeros if depth_idx is None else np.asarray(depth_idx, dtype=np.int64),
    )


def test_unsorted_cells_rejected():
    tiny_table([0, 2, 2, 3])
    with pytest.raises(IndexOutOfRange):
        tiny_table([0, 2, 1, 3])


def test_indices_bounded_by_all_cameras():
    # 2 cameras of 1x2 pixels and 3 bins: 4 feature pixels, 12 depth cells
    tiny_table([0, 1], feat_idx=[3, 0], depth_idx=[11, 0])
    with pytest.raises(IndexOutOfRange):
        tiny_table([0, 1], feat_idx=[4, 0])
    with pytest.raises(IndexOutOfRange):
        tiny_table([0, 1], depth_idx=[12, 0])


def test_file_layout(tmp_path, small_bundle):
    bundle, heights = small_bundle
    table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    path = tmp_path / "t.htlt"
    write_table(table, path)
    raw = path.read_bytes()
    assert raw[4] == 2
    assert len(raw) == HEADER_BYTES + 4 * (table.n_cells + 1) + 8 * table.n_entries
    offsets = np.frombuffer(raw, "<u4", table.n_cells + 1, HEADER_BYTES)
    assert np.array_equal(np.diff(offsets), np.bincount(table.cells, minlength=table.n_cells))
    records = np.frombuffer(raw, "<u4", offset=HEADER_BYTES + offsets.nbytes).reshape(-1, 2)
    assert np.array_equal(records[:, 0], table.feat_idx)
    assert np.array_equal(records[:, 1], table.depth_idx)


def corrupt_offsets(path, edit):
    raw = bytearray(path.read_bytes())
    n_cells = int(np.prod(struct.unpack_from("<2I", raw, 8)))
    offsets = np.frombuffer(raw, "<u4", n_cells + 1, HEADER_BYTES).copy()
    edit(offsets)
    raw[HEADER_BYTES:HEADER_BYTES + offsets.nbytes] = offsets.tobytes()
    path.write_bytes(bytes(raw))


def set_first(o):
    o[0] = 1


def swap_inner(o):
    o[1], o[2] = 3, 2


def set_last(o):
    o[-1] -= 1


@pytest.mark.parametrize("edit", [set_first, swap_inner, set_last],
                         ids=["start-not-0", "decreasing", "end-not-n_entries"])
def test_bad_offsets_rejected(tmp_path, edit):
    path = tmp_path / "t.htlt"
    write_table(tiny_table([0, 1, 1, 3]), path)
    read_table(path, HT_MAGIC)
    corrupt_offsets(path, edit)
    with pytest.raises(IndexOutOfRange, match="offsets"):
        read_table(path, HT_MAGIC)


def test_version_1_refused(tmp_path):
    path = tmp_path / "old.htlt"
    header = struct.pack("<4sB3s6IQ", HT_MAGIC, 1, b"\0" * 3, 2, 2, 2, 1, 2, 3, 1)
    path.write_bytes(header + struct.pack("<4I", 0, 0, 0, 0))
    with pytest.raises(ConfigError, match="version 1.*precompute again"):
        read_table(path, HT_MAGIC)

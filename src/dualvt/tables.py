"""Precomputed index tables mapping BEV cells to feature/depth indices.

This module owns the one record layout both streams share, the order
of entries within a cell, and the binding of a table to the geometry it
was built from.  An entry is a target BEV cell, an index into all
cameras' feature pixels stacked camera-major, and an index into their
depth volumes stacked the same way.  `build_table` takes each camera's
entries in its stream's emission order and sorts them by cell with one
stable sort, so every cell owns one contiguous run that goes camera by
camera and, within a camera, in emission order.  The binary form
stores the table's `geometry_fingerprint` and heights, then the runs as
per-cell offsets:

    4 bytes  magic ("HTLT" or "LSPT")
    1 byte   version = 3
    3 bytes  reserved, zero
    6 * u32  little-endian: ny, nx, n_cams, feat_h, feat_w, n_bins
    1 * u64  n_entries
    32 bytes geometry fingerprint (SHA-256 digest)
    1 * u32  n_heights (0 for the lift table)
    n_heights * f8  little-endian heights, meters
    (ny*nx + 1) * u32  offsets: cell c owns entries [offsets[c], offsets[c+1])
    n_entries * 2 * u32  records (feat_index, depth_index)

In memory a table is this layout: `IndexTable` holds the u32 offsets and
(n_entries, 2) records, as read-only views of the bytes read by `read_table`.
So `build_table` refuses a depth volume or an entry count above 2**32 - 1.

Version 1 files (a cell and a camera column per entry) and version 2
files (no fingerprint, no heights) are refused.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic, ConfigError, IndexOutOfRange, NonFiniteValue, ShapeMismatch, TruncatedPayload,
)

HT_MAGIC = b"HTLT"
LSS_MAGIC = b"LSPT"
_HEADER = struct.Struct("<4sB3s6IQ32sI")


@dataclass(frozen=True)
class IndexTable:
    """Scatter-sum table as stored (u32 cell offsets and records), plus the geometry it
    was built for: its sizes, its heights (none for the lift table) and their fingerprint."""

    magic: bytes
    ny: int
    nx: int
    n_cams: int
    feat_h: int
    feat_w: int
    n_bins: int
    offsets: np.ndarray
    records: np.ndarray
    heights: tuple
    geometry_sha256: bytes

    def __post_init__(self):
        o, n = self.offsets, self.records.shape[0]
        if o.dtype != "<u4" or self.records.dtype != "<u4" or self.records.shape != (n, 2):
            raise IndexOutOfRange("table offsets and (n, 2) records must be little-endian u32")
        if o.shape != (self.n_cells + 1,) or o[0] != 0 or o[-1] != n or np.any(o[1:] < o[:-1]):
            raise IndexOutOfRange(f"cell offsets do not run from 0 up to {n}")
        if n:
            pixels = self.n_cams * self.feat_h * self.feat_w
            if self.feat_idx.max() >= pixels:
                raise IndexOutOfRange("feature index out of range")
            if self.depth_idx.max() >= self.n_bins * pixels:
                raise IndexOutOfRange("depth index out of range")

    @property
    def feat_idx(self) -> np.ndarray:
        return self.records[:, 0]

    @property
    def depth_idx(self) -> np.ndarray:
        return self.records[:, 1]

    @property
    def n_entries(self) -> int:
        return int(self.records.shape[0])

    @property
    def n_cells(self) -> int:
        return self.ny * self.nx


def geometry_fingerprint(rigs, grid, dspec, heights) -> bytes:
    """SHA-256 of everything a table is a function of: every rig's intrinsics,
    extrinsics and feature size, in camera order; the grid's extents and cell
    counts; the depth bins; and the heights."""
    h = hashlib.sha256()
    for rig in rigs:
        h.update(np.asarray(rig.intrinsics, dtype="<f8").tobytes())
        h.update(np.asarray(rig.extrinsics, dtype="<f8").tobytes())
        h.update(np.array([rig.feat_w, rig.feat_h], dtype="<i8").tobytes())
    h.update(np.array([grid.x_min, grid.x_max, grid.y_min, grid.y_max,
                       dspec.d_min, dspec.d_max, dspec.step], dtype="<f8").tobytes())
    h.update(np.array([grid.nx, grid.ny], dtype="<i8").tobytes())
    h.update(np.asarray(heights, dtype="<f8").tobytes())
    return h.digest()


def build_table(magic: bytes, grid, rigs, dspec, heights, per_cam) -> IndexTable:
    """Stack per-camera entries, sort them by cell and fingerprint the geometry.

    per_cam yields one (cells, feat_idx, depth_idx) triple per rig, in rig
    order, with indices into that camera's own feature map and depth
    volume and entries in the stream's emission order.  The indices are
    shifted to the camera-stacked layout and one stable sort by cell
    orders the entries by (cell, camera, emission order).  heights are the
    z values the table was built for, empty for the lift table.  Sizes that
    u32 cannot index raise ConfigError, the geometry's before per_cam is read.
    """
    n_cams, feat_h, feat_w = len(rigs), rigs[0].feat_h, rigs[0].feat_w
    pixels = feat_h * feat_w
    limit = np.iinfo("<u4").max
    if n_cams * dspec.n_bins * pixels > limit:
        raise ConfigError(f"{n_cams} cameras x {dspec.n_bins} depth bins x {feat_h}x{feat_w} "
                          f"pixels exceed the table's u32 index limit {limit}")
    per_cam = list(per_cam)
    n = sum(len(c) for c, _, _ in per_cam)
    if n > limit:
        raise ConfigError(f"{n} table entries exceed the table's u32 limit {limit}")
    cells = np.empty(n, dtype=np.min_scalar_type(grid.n_cells - 1))
    unsorted = np.empty((n, 2), dtype="<u4")
    start = 0
    for cam, (cell, fi, di) in enumerate(per_cam):
        run = slice(start, start + len(cell))
        cells[run] = cell
        # in range by the limit check: an in-camera index plus its camera's shift
        np.add(fi, cam * pixels, out=unsorted[run, 0], casting="unsafe")
        np.add(di, cam * dspec.n_bins * pixels, out=unsorted[run, 1], casting="unsafe")
        start = run.stop
    del per_cam  # the emitted int64 columns are not needed through the sort
    offsets = np.zeros(grid.n_cells + 1, dtype="<u4")
    np.cumsum(np.bincount(cells, minlength=grid.n_cells), out=offsets[1:])
    # a stable sort's permutation is unique; on a key of 16 bits or less numpy radix-sorts
    order = np.argsort(cells, kind="stable")
    return IndexTable(
        magic=magic, ny=grid.ny, nx=grid.nx, n_cams=n_cams,
        feat_h=feat_h, feat_w=feat_w, n_bins=dspec.n_bins,
        offsets=offsets, records=unsorted.take(order, axis=0),
        heights=tuple(heights), geometry_sha256=geometry_fingerprint(rigs, grid, dspec, heights),
    )


def write_table(table: IndexTable, path) -> None:
    header = _HEADER.pack(
        table.magic, 3, b"\x00" * 3,
        table.ny, table.nx, table.n_cams,
        table.feat_h, table.feat_w, table.n_bins,
        table.n_entries, table.geometry_sha256, len(table.heights),
    )
    # write the arrays from their own buffers: joining them into one bytes
    # object would hold two more copies of the table at the peak
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.asarray(table.heights, dtype="<f8").data)
        f.write(np.ascontiguousarray(table.offsets).data)
        f.write(np.ascontiguousarray(table.records).data)


def read_table(path, expect_magic: bytes) -> IndexTable:
    raw = Path(path).read_bytes()
    # magic and version first: an older, shorter header must still read as old
    if raw[:4] != expect_magic:
        raise BadMagic(f"{path}: expected {expect_magic!r}, got {raw[:4]!r}")
    if len(raw) > 4 and raw[4] != 3:
        raise ConfigError(f"{path}: table format version {raw[4]}, this dualvt reads "
                          "version 3; run precompute again")
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than header")
    (magic, _, _, ny, nx, n_cams, feat_h, feat_w, n_bins, n_entries,
     digest, n_heights) = _HEADER.unpack_from(raw)
    n_cells = ny * nx
    expected = _HEADER.size + n_heights * 8 + (n_cells + 1) * 4 + n_entries * 8
    if len(raw) != expected:
        raise TruncatedPayload(f"{path}: {len(raw)} bytes, expected {expected}")
    heights = np.frombuffer(raw, "<f8", count=n_heights, offset=_HEADER.size)
    offsets = np.frombuffer(raw, "<u4", count=n_cells + 1, offset=_HEADER.size + heights.nbytes)
    records = np.frombuffer(raw, "<u4", offset=expected - 8 * n_entries).reshape(-1, 2)
    try:
        return IndexTable(
            magic=magic, ny=ny, nx=nx, n_cams=n_cams,
            feat_h=feat_h, feat_w=feat_w, n_bins=n_bins,
            offsets=offsets, records=records,
            heights=tuple(heights.tolist()), geometry_sha256=digest,
        )
    except IndexOutOfRange as e:
        raise IndexOutOfRange(f"{path}: {e}") from None


def stack_camera_tensors(per_cam) -> np.ndarray:
    """Stack per-camera (C, H, W) tensors into (C, n_cams*H*W): a view of
    (n_cams*H*W, C) memory, whose rows the scatter gathers without a copy."""
    arrs = [np.asarray(a) for a in per_cam]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise IndexOutOfRange("camera tensors have differing shapes")
    return np.concatenate([a.reshape(shape[0], -1).T for a in arrs]).T


def stack_frame(feats, depths, masks, *tables):
    """(feats, depth_w, mask_w) for `weighted_scatter`, checked against every table."""
    keys = {(t.n_cams, t.feat_h, t.feat_w, t.n_bins, t.ny, t.nx) for t in tables}
    if len(keys) > 1:
        raise ShapeMismatch(f"the tables were built for different geometries: {sorted(keys)}")
    check_camera_tensors(feats, depths, masks, *next(iter(keys))[:4])
    depth_w = np.concatenate([d.ravel() for d in depths])
    return stack_camera_tensors(feats), depth_w, stack_camera_tensors(masks)[0]


def check_camera_tensors(feats, depths, masks, n_cams, feat_h, feat_w, n_bins) -> None:
    """Input check shared by both streams: per-camera shapes, camera count, finiteness.

    Finite inputs are the precondition of the scatter's zero-weight skip
    (``0 * inf`` is NaN, a skipped entry is not), so NaN or Inf anywhere
    raises NonFiniteValue.
    """
    if not (len(feats) == len(depths) == len(masks)):
        raise ShapeMismatch("per-camera tensor lists have different lengths")
    if len(feats) != n_cams:
        raise ShapeMismatch(f"{len(feats)} cameras, geometry has {n_cams}")
    for f, d, m in zip(feats, depths, masks):
        if f.shape[1:] != (feat_h, feat_w):
            raise ShapeMismatch(f"feature shape {f.shape} != (*, {feat_h}, {feat_w})")
        if d.shape != (n_bins, feat_h, feat_w):
            raise ShapeMismatch(f"depth shape {d.shape} != ({n_bins}, {feat_h}, {feat_w})")
        if m.shape != (1, feat_h, feat_w):
            raise ShapeMismatch(f"mask shape {m.shape} != (1, {feat_h}, {feat_w})")
    for name, arrs in (("feature", feats), ("depth", depths), ("mask", masks)):
        if not all(np.isfinite(a).all() for a in arrs):
            raise NonFiniteValue(f"{name} tensor has NaN or Inf values")

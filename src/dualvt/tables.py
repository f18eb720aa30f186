"""Precomputed index tables mapping BEV cells to feature/depth indices.

Both streams share one record layout: per entry a target BEV cell, a
camera id, a flat (v, u) index into the camera's feature map, and a flat
(k, v, u) index into its depth volume.  Entries are sorted by cell (then
camera, then a stream-specific key), so each cell owns one contiguous
run.  The binary form is:

    4 bytes  magic ("HTLT" or "LSPT")
    1 byte   version = 1
    3 bytes  reserved, zero
    6 * u32  little-endian: ny, nx, n_cams, feat_h, feat_w, n_bins
    1 * u64  n_entries
    n_entries * 4 * u32  records (bev_cell, cam, feat_index, depth_index)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagic, IndexOutOfRange, NonFiniteValue, ShapeMismatch, TruncatedPayload

HT_MAGIC = b"HTLT"
LSS_MAGIC = b"LSPT"
_HEADER = struct.Struct("<4sB3s6IQ")


@dataclass(frozen=True)
class IndexTable:
    """Sorted scatter-sum table plus the geometry it was built for."""

    magic: bytes
    ny: int
    nx: int
    n_cams: int
    feat_h: int
    feat_w: int
    n_bins: int
    cells: np.ndarray
    cams: np.ndarray
    feat_idx: np.ndarray
    depth_idx: np.ndarray

    def __post_init__(self):
        n = self.cells.shape[0]
        for name in ("cams", "feat_idx", "depth_idx"):
            if getattr(self, name).shape != (n,):
                raise IndexOutOfRange("table column lengths disagree")
        if n:
            if self.cells.min() < 0 or self.cells.max() >= self.ny * self.nx:
                raise IndexOutOfRange("bev cell index out of range")
            if self.cams.min() < 0 or self.cams.max() >= self.n_cams:
                raise IndexOutOfRange("camera index out of range")
            if self.feat_idx.min() < 0 or self.feat_idx.max() >= self.feat_h * self.feat_w:
                raise IndexOutOfRange("feature index out of range")
            if self.depth_idx.min() < 0 or (
                self.depth_idx.max() >= self.n_bins * self.feat_h * self.feat_w
            ):
                raise IndexOutOfRange("depth index out of range")

    @property
    def n_entries(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n_cells(self) -> int:
        return self.ny * self.nx

    def global_feat_idx(self) -> np.ndarray:
        """Index into all cameras' feature pixels stacked camera-major."""
        return self.cams * (self.feat_h * self.feat_w) + self.feat_idx

    def global_depth_idx(self) -> np.ndarray:
        return self.cams * (self.n_bins * self.feat_h * self.feat_w) + self.depth_idx

    def per_cell_counts(self) -> np.ndarray:
        return np.bincount(self.cells, minlength=self.n_cells)


def write_table(table: IndexTable, path) -> None:
    header = _HEADER.pack(
        table.magic, 1, b"\x00" * 3,
        table.ny, table.nx, table.n_cams,
        table.feat_h, table.feat_w, table.n_bins,
        table.n_entries,
    )
    records = np.empty((table.n_entries, 4), dtype="<u4")
    records[:, 0] = table.cells
    records[:, 1] = table.cams
    records[:, 2] = table.feat_idx
    records[:, 3] = table.depth_idx
    # write the records from their own buffer: joining them into one bytes
    # object would hold two more copies of the table at the peak
    with open(path, "wb") as f:
        f.write(header)
        f.write(records.data)


def read_table(path, expect_magic: bytes) -> IndexTable:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than header")
    magic, version, _, ny, nx, n_cams, feat_h, feat_w, n_bins, n_entries = (
        _HEADER.unpack_from(raw)
    )
    if magic != expect_magic:
        raise BadMagic(f"{path}: expected {expect_magic!r}, got {magic!r}")
    if version != 1:
        raise BadMagic(f"{path}: unsupported version {version}")
    expected = _HEADER.size + n_entries * 16
    if len(raw) != expected:
        raise TruncatedPayload(f"{path}: {len(raw)} bytes, expected {expected}")
    records = np.frombuffer(raw, dtype="<u4", offset=_HEADER.size).reshape(-1, 4)
    return IndexTable(
        magic=magic, ny=ny, nx=nx, n_cams=n_cams,
        feat_h=feat_h, feat_w=feat_w, n_bins=n_bins,
        cells=records[:, 0].astype(np.int64),
        cams=records[:, 1].astype(np.int64),
        feat_idx=records[:, 2].astype(np.int64),
        depth_idx=records[:, 3].astype(np.int64),
    )


def stack_camera_tensors(per_cam) -> np.ndarray:
    """Stack per-camera (C, H, W) tensors into (C, n_cams*H*W)."""
    arrs = [np.asarray(a) for a in per_cam]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise IndexOutOfRange("camera tensors have differing shapes")
    return np.concatenate([a.reshape(shape[0], -1) for a in arrs], axis=1)


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

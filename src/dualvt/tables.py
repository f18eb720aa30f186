"""Precomputed index tables mapping BEV cells to feature/depth indices.

This module owns the one entry layout both streams share, the order
of entries within a cell, the binding of a table to the geometry it
was built from, and the frame a table is applied to: three camera-first
arrays, features (n_cams, feat_h, feat_w, C) float32, depths (n_cams,
n_bins, feat_h, feat_w) and masks (n_cams, feat_h, feat_w), checked by
`check_frame`.  An entry is a target BEV cell and a voxel: a flat index
into the depths.  The voxel names its feature pixel, as a lifted frustum
point takes its feature from the pixel it was lifted from: with
P = feat_h*feat_w pixels a camera, voxel d's pixel is
``(d // (n_bins*P))*P + d % P``, a row of the features' (n_cams*P, C)
memory.  So `stack_frame` hands the scatter views of the frame's arrays.
The streams emit each camera's (cell, voxel) pairs in their emission
order.  `build_table` packs each entry into one unique u64 key (its cell,
its position in that order, its camera-stacked voxel) and sorts the keys
in place, so every cell owns one contiguous run that goes camera by
camera and, within a camera, in emission order: the order of one stable
sort by cell.
The binary form stores the table's `geometry_fingerprint` and heights, which
`IndexTable.check_built_for` compares with a scene's geometry, then the
runs as per-cell offsets, then a checksum:

    4 bytes  magic ("HTLT" or "LSPT")
    1 byte   version = 4
    3 bytes  reserved, zero
    6 * u32  little-endian: ny, nx, n_cams, feat_h, feat_w, n_bins
    1 * u64  n_entries
    32 bytes geometry fingerprint (SHA-256 digest)
    1 * u32  n_heights (0 for the lift table)
    n_heights * f8  little-endian heights, meters
    (ny*nx + 1) * u32  offsets: cell c owns entries [offsets[c], offsets[c+1])
    n_entries * u32  voxels (depth_index)
    1 * u32  CRC-32 (zlib) of every byte before it, header included

`read_table` checks the checksum before it builds anything, so any
single-bit flip, and any burst of up to 32 bits, is refused.  Corruption
is the threat it meets, not an adversary.  One pass costs about 0.2 ms
(height table, 0.95 MB) and 0.4 ms (lift table, 1.76 MB) at the desk scale.

In memory a table is this layout: `IndexTable` holds the u32 offsets and
voxels as read-only views of the bytes read by `read_table`.  So
`build_table` refuses a depth volume or an entry count above 2**32 - 1,
and entries whose key does not fit in 64 bits (a 128x128 grid and the
desk's 473,088 voxels leave 31 bits, for up to 2**31 entries).
Two columns are derived in memory, never written to the file, and with
them this module holds both directions of the voxel/pixel relation: the
feature pixels (`IndexTable.feat_idx`, u32, 4 bytes an entry), the first
time they are read, and the voxel index (`IndexTable.voxel_index`, the
entries grouped by voxel), on the second apply to a frame with a zero
mask, from which `IndexTable.masked_survivors` walks the voxels of each
masked-in pixel; `read_table` derives neither.

Version 1 files (a cell and a camera column per entry), version 2 files
(no fingerprint, no heights) and version 3 files (a stored feature
column, no checksum) are refused.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic, ConfigError, IndexOutOfRange, NonFiniteValue, ShapeMismatch, TruncatedPayload,
)
from .scatter import CHUNK_ENTRIES

HT_MAGIC = b"HTLT"
LSS_MAGIC = b"LSPT"
_HEADER = struct.Struct("<4sB3s6IQ32sI")
_VERSION = 4
_CRC = struct.Struct("<I")
_U32_MAX = np.iinfo("<u4").max


@dataclass(frozen=True)
class IndexTable:
    """Scatter-sum table as stored (u32 cell offsets and voxels), plus the geometry it
    was built for: its sizes, its heights (none for the lift table) and their fingerprint."""

    magic: bytes
    ny: int
    nx: int
    n_cams: int
    feat_h: int
    feat_w: int
    n_bins: int
    offsets: np.ndarray
    depth_idx: np.ndarray
    heights: tuple
    geometry_sha256: bytes

    def __post_init__(self):
        o, d = self.offsets, self.depth_idx
        volume = self.n_cams * self.n_bins * self.feat_h * self.feat_w
        if o.dtype != "<u4" or d.dtype != "<u4" or d.ndim != 1 or volume > _U32_MAX:
            raise IndexOutOfRange("table offsets and voxels must be little-endian u32, "
                                  "and its depth volumes indexable in u32")
        if (o.shape != (self.n_cells + 1,) or o[0] != 0 or o[-1] != d.size
                or np.any(o[1:] < o[:-1])):
            raise IndexOutOfRange(f"cell offsets do not run from 0 up to {d.size}")
        # in range, every voxel's derived feature pixel is in range too
        if d.size and d.max() >= volume:
            raise IndexOutOfRange("depth index out of range")

    @cached_property
    def feat_idx(self) -> np.ndarray:
        """Each entry's feature pixel, derived in u32 from its voxel the first time
        it is read, kept on the table, never written to its file."""
        # voxel d is (camera * n_bins + bin) * P + pixel, its feature pixel camera * P +
        # pixel, so d less (d // P - camera) * P; numpy divides by a scalar fast, % is slow
        d, pixels = self.depth_idx, np.uint32(self.feat_h * self.feat_w)
        fi = d // pixels
        fi -= d // (pixels * np.uint32(self.n_bins))
        fi *= pixels
        return np.subtract(d, fi, out=fi)

    @cached_property
    def voxel_index(self) -> np.ndarray:
        """The entries grouped by voxel: the sorted unique u64 keys
        ``(voxel << bits(N - 1)) | position``, so any sort algorithm gives the
        same bytes, and a voxel's positions, ascending, are its keys' low bits.
        Built in memory the first time it is read, in place (one shifted copy of
        the voxels, the positions ORed in `CHUNK_ENTRIES` at a time, one
        in-place sort), kept on the table, never written to its file: 8 bytes
        per entry."""
        n = self.depth_idx.size
        keys = np.left_shift(self.depth_idx, max(n - 1, 0).bit_length(), dtype="<u8")
        for s in range(0, n, CHUNK_ENTRIES):
            keys[s:s + CHUNK_ENTRIES] |= np.arange(s, min(s + CHUNK_ENTRIES, n), dtype="<u8")
        keys.sort()
        return keys

    def masked_survivors(self, depth_w, mask_w):
        """The ascending positions of the entries whose voxel has a nonzero depth
        and lies on a pixel of nonzero mask, `weighted_scatter`'s candidates on a
        frame with a zero mask: those voxels' runs of `voxel_index`.  None on
        the table's first such frame, whose masked-in entries the scatter then
        tests in entry order, at about the cost of the index's sort: so a table
        applied once, as by the CLI, never builds the index."""
        seen = vars(self)  # the instance dict, where `cached_property` keeps its values
        if "voxel_index" not in seen and not seen.get("masked_frame_seen"):
            seen["masked_frame_seen"] = True
            return None
        keys, P, n_bins = self.voxel_index, self.feat_h * self.feat_w, self.n_bins
        # pixel i of camera c, feature pixel c * P + i, has voxels (c * n_bins + bin) * P + i
        pixels = mask_w.nonzero()[0]
        first_bin = pixels + pixels // P * ((n_bins - 1) * P)
        voxels = first_bin[:, None] + np.arange(0, n_bins * P, P)
        shift = max(keys.size - 1, 0).bit_length()
        low = np.uint64((1 << shift) - 1)
        # each voxel's first key, u64 needles: numpy would copy the keys to compare others
        voxels = np.sort(voxels[depth_w.take(voxels) != 0]).astype("<u8") << np.uint64(shift)
        first = np.searchsorted(keys, voxels)
        counts = np.searchsorted(keys, voxels | low, side="right") - first
        # every voxel's run of keys, in one gather; unique positions, so any sort
        # gives the same array
        at = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
        return np.sort(keys[at] & low).astype(np.intp)

    def check_stream(self, magic: bytes) -> None:
        """Refuse, with a ConfigError naming both magics, a table of another stream."""
        if self.magic != magic:
            raise ConfigError(f"a {self.magic.decode()} table cannot be applied as a "
                              f"{magic.decode()} table")

    def check_built_for(self, rigs, grid, dspec) -> None:
        """Refuse, with a ConfigError naming the table, a table whose header sizes
        differ from those of the scene's rigs, grid and depth bins, or whose
        fingerprint is not theirs with the table's own heights."""
        name = self.magic.decode()
        scene = {"ny": grid.ny, "nx": grid.nx, "n_cams": len(rigs),
                 "feat_h": rigs[0].feat_h, "feat_w": rigs[0].feat_w, "n_bins": dspec.n_bins}
        for key, value in scene.items():
            if getattr(self, key) != value:
                raise ConfigError(f"{name} table has {key}={getattr(self, key)}, "
                                  f"scene has {value}")
        if self.geometry_sha256 != geometry_fingerprint(rigs, grid, dspec, self.heights):
            raise ConfigError(f"{name} table was built for another geometry (geometry "
                              "fingerprint differs); rebuild it with precompute")

    @property
    def n_entries(self) -> int:
        return int(self.depth_idx.size)

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

    per_cam yields one (cells, depth_idx) pair per rig, in rig order: cells of
    `cell_dtype(grid)` and u32 voxels of that camera's own depth volume, in the
    stream's emission order.  Each entry becomes one unique u64 key, its cell,
    then its stacked position, then its voxel shifted to the camera-stacked
    layout; one in-place sort of the keys orders the entries by (cell, camera,
    emission order), the order of a stable sort by cell, and the voxels are
    the sorted keys' low bits.  heights are the z values the table was
    built for, empty for the lift table.  No rigs, rigs of differing
    feature sizes and sizes that u32 cannot index raise ConfigError, the
    geometry's before per_cam is read, and so do keys that 64 bits cannot
    hold.  Memory: the keys, 8 bytes an entry, beside the per-camera
    columns not yet written into them, then the u32 voxels.
    """
    if not rigs:
        raise ConfigError("a table needs at least one rig, got none")
    n_cams, feat_h, feat_w = len(rigs), rigs[0].feat_h, rigs[0].feat_w
    volume = dspec.n_bins * feat_h * feat_w
    if any((rig.feat_h, rig.feat_w) != (feat_h, feat_w) for rig in rigs):
        raise ConfigError(f"rigs differ in feature size: a table takes one size for all "
                          f"{n_cams} cameras, {feat_h}x{feat_w} first")
    if n_cams * volume > _U32_MAX:
        raise ConfigError(f"{n_cams} cameras x {dspec.n_bins} depth bins x {feat_h}x{feat_w} "
                          f"pixels exceed the table's u32 index limit {_U32_MAX}")
    per_cam = list(per_cam)
    n = sum(len(c) for c, _ in per_cam)
    if n > _U32_MAX:
        raise ConfigError(f"{n} table entries exceed the table's u32 limit {_U32_MAX}")
    voxel_bits = (n_cams * volume - 1).bit_length()
    order_bits = voxel_bits + max(n - 1, 0).bit_length()
    if (grid.n_cells - 1).bit_length() + order_bits > 64:
        raise ConfigError(f"{n} table entries over {grid.n_cells} cells exceed the "
                          "table's 64-bit sort key")
    keys = np.empty(n, dtype="<u8")
    start = 0
    for cam in range(n_cams):
        cell, voxel = per_cam[cam]
        per_cam[cam] = None  # each camera's columns go once its keys are written
        run = keys[start:start + len(cell)]
        run[:] = cell
        run <<= np.uint64(order_bits - voxel_bits)
        run |= np.arange(start, start + len(cell), dtype="<u8")
        run <<= np.uint64(voxel_bits)
        # in range by the limit check: an in-camera voxel plus its camera's shift
        run |= voxel
        run += np.uint64(cam * volume)
        start += len(cell)
    keys.sort()  # unique keys: any sort algorithm gives the same order
    offsets = np.empty(grid.n_cells + 1, dtype="<u4")
    offsets[0], offsets[-1] = 0, n
    offsets[1:-1] = np.searchsorted(
        keys, np.arange(1, grid.n_cells, dtype="<u8") << np.uint64(order_bits))
    depth_idx = np.empty(n, dtype="<u4")
    np.bitwise_and(keys, np.uint64((1 << voxel_bits) - 1), out=depth_idx, casting="unsafe")
    return IndexTable(
        magic=magic, ny=grid.ny, nx=grid.nx, n_cams=n_cams,
        feat_h=feat_h, feat_w=feat_w, n_bins=dspec.n_bins,
        offsets=offsets, depth_idx=depth_idx,
        heights=tuple(heights), geometry_sha256=geometry_fingerprint(rigs, grid, dspec, heights),
    )


def cell_dtype(grid) -> np.dtype:
    """The smallest unsigned dtype that holds every cell of `grid`: u16 at the
    desk scale.  The streams emit their cells in it."""
    return np.min_scalar_type(grid.n_cells - 1)


def write_table(table: IndexTable, path) -> None:
    header = _HEADER.pack(
        table.magic, _VERSION, b"\x00" * 3,
        table.ny, table.nx, table.n_cams,
        table.feat_h, table.feat_w, table.n_bins,
        table.n_entries, table.geometry_sha256, len(table.heights),
    )
    # write the arrays from their own buffers: joining them into one bytes
    # object would hold two more copies of the table at the peak
    crc = 0
    with open(path, "wb") as f:
        for part in (header, np.asarray(table.heights, dtype="<f8").data,
                     np.ascontiguousarray(table.offsets).data,
                     np.ascontiguousarray(table.depth_idx).data):
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(_CRC.pack(crc))


def read_table(path, expect_magic: bytes) -> IndexTable:
    raw = Path(path).read_bytes()
    # magic and version first: an older, shorter header must still read as old
    if raw[:4] != expect_magic:
        raise BadMagic(f"{path}: expected {expect_magic!r}, got {raw[:4]!r}")
    if len(raw) > 4 and raw[4] != _VERSION:
        raise ConfigError(f"{path}: table format version {raw[4]}, this dualvt reads "
                          f"version {_VERSION}; run precompute again")
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than header")
    (magic, _, _, ny, nx, n_cams, feat_h, feat_w, n_bins, n_entries,
     digest, n_heights) = _HEADER.unpack_from(raw)
    n_cells = ny * nx
    body = _HEADER.size + n_heights * 8 + (n_cells + 1) * 4 + n_entries * 4
    if len(raw) != body + _CRC.size:
        raise TruncatedPayload(f"{path}: {len(raw)} bytes, expected {body + _CRC.size}")
    # a memoryview: slicing the bytes would copy the whole table
    if zlib.crc32(memoryview(raw)[:body]) != _CRC.unpack_from(raw, body)[0]:
        raise ConfigError(f"{path}: table checksum does not match its bytes (the file is "
                          "damaged); run precompute again")
    heights = np.frombuffer(raw, "<f8", count=n_heights, offset=_HEADER.size)
    offsets = np.frombuffer(raw, "<u4", count=n_cells + 1, offset=_HEADER.size + heights.nbytes)
    depth_idx = np.frombuffer(raw, "<u4", count=n_entries, offset=body - 4 * n_entries)
    try:
        return IndexTable(
            magic=magic, ny=ny, nx=nx, n_cams=n_cams,
            feat_h=feat_h, feat_w=feat_w, n_bins=n_bins,
            offsets=offsets, depth_idx=depth_idx,
            heights=tuple(heights.tolist()), geometry_sha256=digest,
        )
    except IndexOutOfRange as e:
        raise IndexOutOfRange(f"{path}: {e}") from None


def stack_camera_tensors(per_cam) -> np.ndarray:
    """The camera-first array of one kind of a frame's tensors: an array as it
    is, uncopied; a sequence of per-camera arrays of one shape stacked into one.
    A ragged sequence raises ShapeMismatch."""
    if isinstance(per_cam, np.ndarray):
        return per_cam
    try:
        return np.stack(per_cam)
    except ValueError as e:
        raise ShapeMismatch(f"per-camera tensors do not stack: {e}") from None


def stack_frame(feats, depths, masks, *tables):
    """(feats, depth_w, mask_w) for `weighted_scatter`, checked against every table
    (`check_frame`): views of the frame's arrays, which copy nothing, the (C, P)
    feature pixels as a view of their (P, C) memory, the depths and masks flat."""
    keys = {(t.n_cams, t.feat_h, t.feat_w, t.n_bins, t.ny, t.nx) for t in tables}
    if len(keys) > 1:
        raise ShapeMismatch(f"the tables were built for different geometries: {sorted(keys)}")
    feats, depths, masks = check_frame(feats, depths, masks, *next(iter(keys))[:4])
    return feats.reshape(masks.size, -1).T, depths.reshape(-1), masks.reshape(-1)


def check_frame(feats, depths, masks, n_cams, feat_h, feat_w, n_bins):
    """A frame's three camera-first arrays (`stack_camera_tensors`), checked for
    both streams, their oracles and the scene loader: features (n_cams, feat_h,
    feat_w, C) of any C, depths (n_cams, n_bins, feat_h, feat_w), masks (n_cams,
    feat_h, feat_w), shapes first; then NaN or Inf anywhere raises
    NonFiniteValue, since finite inputs are the precondition of the scatter's
    zero-weight skip (``0 * inf`` is NaN, a skipped entry is not)."""
    frame = tuple(map(stack_camera_tensors, (feats, depths, masks)))
    wants = ((n_cams, feat_h, feat_w, *frame[0].shape[-1:]), (n_cams, n_bins, feat_h, feat_w),
             (n_cams, feat_h, feat_w))
    names = ("feature", "depth", "mask")
    for name, a, want in zip(names, frame, wants):
        if a.shape != want:
            raise ShapeMismatch(f"{name} shape {a.shape} != {want}")
    for name, a in zip(names, frame):
        if not np.isfinite(a).all():
            raise NonFiniteValue(f"{name} tensor has NaN or Inf values")
    return frame

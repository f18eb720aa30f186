"""3D-to-2D stream: BEV-anchored multi-height point sampling.

Each BEV cell spawns one 3D point per height; points are projected into
every camera and weighted by the depth distribution (projection
probability) and the instance mask (image probability).  The accelerated
path rounds all coordinates so the indices become input-independent and
can be precomputed into a scatter-sum lookup table.  The reference path
samples every point directly: the depth x mask x feature product at the
nearest voxel (a table-free check of the table path), or that product
interpolated trilinearly as one volume.

The BEV occupancy probability is deliberately NOT applied here; the
fusion stage applies it exactly once to the fused feature.
"""

from __future__ import annotations

import numpy as np

from .geometry import BevGridSpec, HeightSet, bev_cell_centers, project_points
from .nnops import WorkerPool
from .sampling import DepthBinSpec, depth_to_coord, trilinear_product
from .scatter import support_grid, weighted_scatter
from .tables import HT_MAGIC, IndexTable, build_table, cell_dtype, check_frame, stack_frame
from .tables import stack_camera_tensors  # noqa: F401, a wrap site of perfbench's tracer

INTERP = "interp"
ROUND = "round"

# c + 0.5 of -(0.5 - 2**-54), the one c > -0.5 that round_half_away sends to -1
_HALF_ROUNDS_UP = 2.0 ** -54


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (fixed tie rule)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _anchor_points(grid: BevGridSpec, heights: HeightSet):
    """Every (cell, height) anchor point as an (x, y, z) triple that broadcasts
    to (n_heights, n_cells): cell-center rows x and y, a column of heights z."""
    centers = bev_cell_centers(grid).reshape(-1, 2).T.astype(np.float64)
    return centers[:1], centers[1:], np.asarray(heights.z_values, dtype=np.float64)[:, None]


def precompute_ht_table(
    rigs, grid: BevGridSpec, heights: HeightSet, dspec: DepthBinSpec
) -> IndexTable:
    """Build the lookup table; a pure function of the geometry (empty is legal).

    Every valid rounded (cell, camera, height) correspondence becomes one
    entry.  Each camera emits its entries in (cell, height) order, so the
    table runs by cell, then camera, then height index.  A point is kept
    where it lies in front of the camera and its pixel and bin coordinates
    round half away from zero into the map and the bin range: each test
    is one add and two compares on the sum the rounding takes
    (`_round_into`), and the kept sums give the entry's u32 voxel.

    Every height is projected only for the candidate cells of
    `_reachable_cells`, found from the first and last heights alone.  A
    cell's anchors lie on one vertical segment.  Its depth is monotone
    along it, also as computed, so the segment reaches in front of the
    camera iff an end does.  A segment wholly in front images to the
    segment between its ends' images, so the ends' bounding box holds
    every height's (u, v), and its one-pixel slack is far larger than any
    float64 rounding.  A segment that crosses the camera plane is always a
    candidate.  The candidates' columns go through the same elementwise
    `project_points`, so every kept point has the bits of projecting them all.
    """
    x, y, z = _anchor_points(grid, heights)
    dtype = cell_dtype(grid)

    def emit(rig):
        W, H = rig.feat_w, rig.feat_h
        cand = _reachable_cells(x, y, z, rig)
        # candidates as a column, heights as a row: flat, the points run in
        # (cell, height) order
        u, v, d, keep = project_points(x[0, cand, None], y[0, cand, None], z.T, rig)
        keep &= _round_into(u, W)
        keep &= _round_into(v, H)
        pts = np.flatnonzero(keep)
        k = depth_to_coord(d.take(pts), dspec)
        in_bins = _round_into(k, dspec.n_bins)
        pts = pts[in_bins]
        # (k * H + v) * W + u of the rounded coordinates, each int(c + 0.5)
        voxel = k[in_bins].astype("<u4")
        voxel *= np.uint32(H)
        voxel += v.take(pts).astype("<u4")
        voxel *= np.uint32(W)
        voxel += u.take(pts).astype("<u4")
        return cand.take(pts // z.size).astype(dtype), voxel

    return build_table(HT_MAGIC, grid, rigs, dspec, heights.z_values, map(emit, rigs))


def _round_into(c, n):
    """Where round_half_away(c) lies in [0, n - 1]; c becomes c + 0.5, in
    place, and there int(c + 0.5) is round_half_away(c).

    round_half_away(c) is sign(c) * floor(|c| + 0.5).  For c >= 0 that is
    floor(c + 0.5), below n exactly when c + 0.5 is.  For c < 0 it is -0.0
    when |c| + 0.5 < 1 as computed, else at most -1: so for every c > -0.5
    but -(0.5 - 2**-54), whose |c| + 0.5 rounds up to 1.  On [-1, -0.25]
    the sum c + 0.5 is exact (Sterbenz), below it negative, above it over
    0.25, so c + 0.5 > 2**-54 keeps just these c, where int(c + 0.5) is 0.
    NaN and infinities are never kept."""
    c += 0.5
    return (c > _HALF_ROUNDS_UP) & (c < n)


def _reachable_cells(x, y, z, rig) -> np.ndarray:
    """The ascending cells whose anchor segment, heights z[0] to z[-1], can
    reach the window (-1, W) x (-1, H), which holds every point that rounds
    into the map: it crosses the camera plane, or it lies wholly in front
    and its end rows' bounding box comes within one pixel of the window
    (see `precompute_ht_table`)."""
    if z.size == 0:
        return np.empty(0, dtype=np.intp)
    u, v, _, valid = project_points(x, y, z[[0, -1]], rig)
    near = valid[0] & valid[1]
    for c, n in ((u, rig.feat_w), (v, rig.feat_h)):
        near &= (np.maximum(c[0], c[1]) > -2) & (np.minimum(c[0], c[1]) < n + 1)
    return np.flatnonzero(near | (valid[0] != valid[1]))


def ht_transform_fast(feats, depths, masks, table: IndexTable, threads: int = 1) -> np.ndarray:
    """Scatter-sum over the precomputed table: `ht_apply`'s support as a (C, ny, nx)
    float32 grid (`scatter.support_grid`)."""
    frame = stack_frame(feats, depths, masks, table)
    with WorkerPool(threads) as workers:
        return support_grid(*ht_apply(frame, table, workers), table.ny, table.nx)


def ht_apply(frame, table: IndexTable, workers=None):
    """The table applied to a stacked frame (`tables.stack_frame`): the
    support (cells, sums) of `weighted_scatter`, its rows split over
    `workers` (a `nnops.WorkerPool` or None).  A table of the other stream
    raises ConfigError."""
    table.check_stream(HT_MAGIC)
    return weighted_scatter(*frame, table.offsets, table.feat_idx, table.depth_idx,
                            workers, table.masked_survivors)


def ht_transform_naive(
    feats, depths, masks,
    rigs, grid: BevGridSpec, heights: HeightSet, dspec: DepthBinSpec,
    mode: str = INTERP,
) -> np.ndarray:
    """Reference path computing the projection sums without a lookup table.

    One loop over cameras and, inside it, heights: every cell's anchor
    point at that height is projected into the camera and sampled there.
    ROUND takes ``(depth * mask) * feature`` at the nearest voxel (halves
    away from zero, points outside the feature map or the bin range
    dropped).  INTERP interpolates the same product field trilinearly
    (`sampling.trilinear_product`, one walk over the eight (depth bin, v, u)
    corners), so depth and mask always meet at one pixel.  Each sample's
    contribution goes to its cell with one row update.  A cell
    occurs at most once per (camera, height), so the loop nesting alone
    gives every cell its additions in (camera, height) order from +0.0,
    the order of the table's entries: ROUND equals ht_transform_fast
    bitwise without using the table, its builder or the scatter.
    """
    if mode not in (ROUND, INTERP):
        raise ValueError(f"unknown sampler mode {mode!r}")
    feats, depths, masks = check_frame(feats, depths, masks, len(rigs), rigs[0].feat_h,
                                       rigs[0].feat_w, dspec.n_bins)
    sample = _nearest_samples if mode == ROUND else _interp_samples
    # the table build's points and projection, so the coordinates are its bits
    points = _anchor_points(grid, heights)
    C = feats.shape[-1]
    acc = np.zeros((grid.n_cells, C), dtype=np.float64)
    for feat, depth, mask, rig in zip(feats, depths, masks, rigs):
        u, v, d, valid = project_points(*points, rig)
        for h in range(len(heights)):
            rows, contrib = sample(feat, depth, mask, u[h], v[h], d[h], valid[h], dspec)
            acc[rows] += contrib
    return acc.T.reshape(C, grid.ny, grid.nx).astype(np.float32)


def _nearest_samples(feat, depth, mask, u, v, d, valid, dspec):
    """Rows of the in-range points and their (n, C) float64 contributions
    (depth * mask) * feature, at the nearest voxel."""
    n_bins, H, W = depth.shape
    j = round_half_away(u)
    i = round_half_away(v)
    k = round_half_away(depth_to_coord(d, dspec))
    rows = np.flatnonzero(
        valid & (j >= 0) & (j < W) & (i >= 0) & (i < H) & (k >= 0) & (k < n_bins)
    )
    j, i, k = (a[rows].astype(np.int64) for a in (j, i, k))
    w = depth[k, i, j].astype(np.float64) * mask[i, j].astype(np.float64)
    return rows, w[:, None] * feat[i, j]


def _interp_samples(feat, depth, mask, u, v, d, valid, dspec):
    """As _nearest_samples, for every point in front of the camera, interpolated."""
    rows = np.flatnonzero(valid)
    return rows, trilinear_product(feat, depth, mask, u[rows], v[rows], d[rows], dspec)

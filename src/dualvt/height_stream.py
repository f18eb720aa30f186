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
from .sampling import DepthBinSpec, depth_to_coord, trilinear_product
from .scatter import support_grid, weighted_scatter
from .tables import HT_MAGIC, IndexTable, build_table, check_camera_tensors, stack_frame
from .tables import stack_camera_tensors  # noqa: F401, a wrap site of perfbench's tracer

INTERP = "interp"
ROUND = "round"


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
    table runs by cell, then camera, then height index.  Only points in
    front of the camera and within one pixel of its map are rounded:
    rounding moves a coordinate by at most 0.5, so no kept point is culled.

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
    nz = len(heights)

    def emit(rig):
        W, H = rig.feat_w, rig.feat_h
        cand = _reachable_cells(x, y, z, rig)
        # candidates as a column, heights as a row: flat, the points run in
        # (cell, height) order
        u, v, d, valid = project_points(x[0, cand, None], y[0, cand, None], z.T, rig)
        pts = np.flatnonzero(valid & (u > -1) & (u < W) & (v > -1) & (v < H))
        cell = cand[pts // nz]  # ascending, so still (cell, height) order
        ui, vi = round_half_away(u.take(pts)), round_half_away(v.take(pts))
        k = round_half_away(depth_to_coord(d.take(pts), dspec))
        keep = (
            (ui >= 0) & (ui <= W - 1) & (vi >= 0) & (vi <= H - 1)
            & (k >= 0) & (k <= dspec.n_bins - 1)
        )
        ui, vi, kk = (a[keep].astype(np.int64) for a in (ui, vi, k))
        return cell[keep], (kk * H + vi) * W + ui

    return build_table(HT_MAGIC, grid, rigs, dspec, heights.z_values, map(emit, rigs))


def _reachable_cells(x, y, z, rig) -> np.ndarray:
    """The ascending cells whose anchor segment, heights z[0] to z[-1], can
    reach the cull's window (-1, W) x (-1, H): it crosses the camera plane,
    or it lies wholly in front and its end rows' bounding box comes within
    one pixel of the window (see `precompute_ht_table`)."""
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
    return support_grid(*ht_apply(frame, table, threads), table.ny, table.nx)


def ht_apply(frame, table: IndexTable, threads: int = 1):
    """The table applied to a stacked frame (`tables.stack_frame`): the
    support (cells, sums) of `weighted_scatter`."""
    return weighted_scatter(*frame, table.offsets, table.feat_idx, table.depth_idx,
                            threads=threads, by_pixel=table.pixel_index)


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
    rig0 = rigs[0]
    check_camera_tensors(
        feats, depths, masks, len(rigs), rig0.feat_h, rig0.feat_w, dspec.n_bins
    )
    sample = _nearest_samples if mode == ROUND else _interp_samples
    # the table build's points and projection, so the coordinates are its bits
    points = _anchor_points(grid, heights)
    C = feats[0].shape[0]
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
    w = depth[k, i, j].astype(np.float64) * mask[0, i, j].astype(np.float64)
    return rows, w[:, None] * feat[:, i, j].T


def _interp_samples(feat, depth, mask, u, v, d, valid, dspec):
    """As _nearest_samples, for every point in front of the camera, interpolated."""
    rows = np.flatnonzero(valid)
    return rows, trilinear_product(feat, depth, mask, u[rows], v[rows], d[rows], dspec)

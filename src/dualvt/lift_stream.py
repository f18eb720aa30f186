"""2D-to-3D stream: lift-splat style frustum pooling.

Every feature pixel is lifted to one 3D point per depth bin (at the bin
center); points landing inside the BEV grid are pooled into their cell,
weighted by the depth distribution and the instance mask.
Unlike the multi-height stream, the per-cell entry count is dynamic: it
depends on how the lifted frustum intersects the grid.

The BEV occupancy probability is applied later, in the fusion stage.
"""

from __future__ import annotations

import numpy as np

from .geometry import BevGridSpec, back_project
from .sampling import DepthBinSpec
from .scatter import support_grid, weighted_scatter
from .tables import (
    LSS_MAGIC, IndexTable, build_table, cell_dtype, check_camera_tensors, check_finite,
    stack_frame,
)
from .tables import stack_camera_tensors  # noqa: F401, a wrap site of perfbench's tracer


def lift_frustum(cam, dspec: DepthBinSpec):
    """Lift every (pixel, depth-bin) pair of one camera into the ego frame.

    Returns the ego (x, y) arrays, each (n_bins, feat_h, feat_w), fresh:
    entry [k, v, u] is pixel (u, v) lifted to the center of bin k by
    `geometry.back_project`, with no BLAS call.  The table needs no z, so
    none is computed.
    """
    return back_project(cam, dspec.bin_center(np.arange(dspec.n_bins))[:, None, None],
                        axes=(0, 1))


def precompute_lss_table(rigs, grid: BevGridSpec, dspec: DepthBinSpec) -> IndexTable:
    """Assign in-grid frustum points to cells; half-open cells [min, max).

    Each camera emits its entries in ascending depth index, so the table
    runs by cell, then camera, then depth index.  A point's depth index is
    its flat position in the frustum, (k * feat_h + v) * feat_w + u.
    """
    dtype = cell_dtype(grid)

    def emit(rig):
        qx, qy = lift_frustum(rig, dspec)
        # the cell coordinates (x - x_min) / cell_w, in place
        qx -= grid.x_min
        qx /= grid.cell_w
        qy -= grid.y_min
        qy /= grid.cell_h
        inside = (qx >= 0) & (qx < grid.nx) & (qy >= 0) & (qy < grid.ny)
        di = np.flatnonzero(inside)
        # floor(q) lies in [0, n) exactly when q does, and there it equals int(q)
        cells = qy.take(di).astype(dtype)
        cells *= dtype.type(grid.nx)
        cells += qx.take(di).astype(dtype)
        return cells, di.astype("<u4")

    return build_table(LSS_MAGIC, grid, rigs, dspec, (), map(emit, rigs))


def lss_pool(feats, depths, masks, table: IndexTable, threads: int = 1) -> np.ndarray:
    """Weighted scatter-sum pooling: `lss_apply`'s support as a (C, ny, nx)
    float32 grid (`scatter.support_grid`)."""
    frame = stack_frame(feats, depths, masks, table)
    return support_grid(*lss_apply(frame, table, threads), table.ny, table.nx)


def lss_apply(frame, table: IndexTable, threads: int = 1):
    """The table applied to a stacked frame (`tables.stack_frame`): the
    support (cells, sums) of `weighted_scatter`."""
    return weighted_scatter(*frame, table.offsets, table.feat_idx, table.depth_idx,
                            threads=threads, by_voxel=table.reused_voxel_index)


def lss_pool_reference(
    feats, depths, masks, rigs, grid: BevGridSpec, dspec: DepthBinSpec
) -> np.ndarray:
    """Table-free oracle, one (camera, depth bin) at a time: the bin's pixels
    are lifted with back_project's expressions (the rigid inverse, sums left
    to right) and located by the same division, so each lands in the
    table's cell.  One ``np.add.at`` per bin adds them in pixel order from
    +0.0 in float64; cameras, then bins, run in the table's within-cell
    order (camera, depth index), so the result must match lss_pool bitwise.
    The inputs are checked as the table path checks them.
    """
    rig0 = rigs[0]
    check_camera_tensors(feats, depths, masks, len(rigs), rig0.feat_h, rig0.feat_w, dspec.n_bins)
    check_finite(feats, depths, masks)
    C = feats[0].shape[0]
    acc = np.zeros((grid.n_cells, C), dtype=np.float64)
    for feat, depth, mask, rig in zip(feats, depths, masks, rigs):
        K, R, t = rig.intrinsics, rig.extrinsics[:3, :3], rig.extrinsics[:3, 3]
        # rigid inverse: ego = R^T cam - R^T t
        t_inv = [R[0, i] * t[0] + R[1, i] * t[1] + R[2, i] * t[2] for i in range(2)]
        W, H = rig.feat_w, rig.feat_h
        u, v = np.arange(W), np.arange(H)[:, None]
        feat = feat.reshape(C, -1).T.astype(np.float64)  # (H*W, C), exact
        mask = mask.ravel().astype(np.float64)
        for k in range(dspec.n_bins):
            d = dspec.d_min + (k + 0.5) * dspec.step
            xc = (u - K[0, 2]) / K[0, 0] * d
            yc = (v - K[1, 2]) / K[1, 1] * d
            px = xc * R[0, 0] + yc * R[1, 0] + d * R[2, 0] - t_inv[0]
            py = xc * R[0, 1] + yc * R[1, 1] + d * R[2, 1] - t_inv[1]
            ix = np.floor((px - grid.x_min) / grid.cell_w).ravel()
            iy = np.floor((py - grid.y_min) / grid.cell_h).ravel()
            pix = np.flatnonzero((ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny))
            w = depth[k].ravel()[pix].astype(np.float64) * mask[pix]
            cells = iy[pix].astype(np.int64) * grid.nx + ix[pix].astype(np.int64)
            np.add.at(acc, cells, w[:, None] * feat[pix])
    return acc.T.reshape(C, grid.ny, grid.nx).astype(np.float32)

"""2D-to-3D stream: lift-splat style frustum pooling.

Every feature pixel is lifted to one 3D point per depth bin (at the bin
center); points landing inside the BEV grid are pooled into their cell,
weighted by the depth distribution and the instance mask.
Unlike the multi-height stream, the per-cell record count is dynamic: it
depends on how the lifted frustum intersects the grid.

The BEV occupancy probability is applied later, in the fusion stage.
"""

from __future__ import annotations

import numpy as np

from .geometry import BevGridSpec
from .sampling import DepthBinSpec
from .scatter import weighted_scatter
from .tables import LSS_MAGIC, IndexTable, build_table, check_camera_tensors, stack_camera_tensors


def lift_frustum(cam, dspec: DepthBinSpec):
    """Lift every (pixel, depth-bin) pair of one camera into the ego frame.

    Returns the ego (x, y, z) arrays, each (n_bins, feat_h, feat_w): entry
    [k, v, u] is pixel (u, v) lifted to the center of bin k.  The inverse
    extrinsics are the rigid inverse (R^T, -R^T t) and every coordinate is
    a fixed-order elementwise sum, so no BLAS call picks the bits.
    """
    K, R, t = cam.intrinsics, cam.extrinsics[:3, :3], cam.extrinsics[:3, 3]
    d = dspec.bin_center(np.arange(dspec.n_bins))[:, None, None]
    x_cam = (np.arange(cam.feat_w) - K[0, 2]) / K[0, 0] * d
    y_cam = (np.arange(cam.feat_h)[:, None] - K[1, 2]) / K[1, 1] * d
    return tuple(
        x_cam * R[0, i] + y_cam * R[1, i] + d * R[2, i]
        - (R[0, i] * t[0] + R[1, i] * t[1] + R[2, i] * t[2])
        for i in range(3)
    )


def precompute_lss_table(rigs, grid: BevGridSpec, dspec: DepthBinSpec) -> IndexTable:
    """Assign in-grid frustum points to cells; half-open cells [min, max).

    Each camera emits its entries in ascending depth index, so the table
    runs by cell, then camera, then depth index.  A point's depth index is
    its flat position in the frustum, (k * feat_h + v) * feat_w + u.
    """
    def emit(rig):
        x, y, _ = lift_frustum(rig, dspec)
        # floor(q) lies in [0, n) exactly when q does, and there it equals int(q)
        qx = ((x - grid.x_min) / grid.cell_w).ravel()
        qy = ((y - grid.y_min) / grid.cell_h).ravel()
        di = np.flatnonzero((qx >= 0) & (qx < grid.nx) & (qy >= 0) & (qy < grid.ny))
        cells = qy[di].astype(np.int64) * grid.nx + qx[di].astype(np.int64)
        return cells, di % (rig.feat_h * rig.feat_w), di

    return build_table(LSS_MAGIC, grid, rigs, dspec, (), map(emit, rigs))


def lss_pool(feats, depths, masks, table: IndexTable, threads: int = 1) -> np.ndarray:
    """Weighted scatter-sum pooling; returns (C, ny, nx) float32.

    The result is a channel-major view of cell-major memory: the scatter
    sums (ny*nx, C) rows, so the strides are (4, nx*C*4, C*4) and each
    cell's C channels are adjacent.  Reading it one cell at a time is
    cheap; a walk over one channel's plane is a strided one.
    """
    check_camera_tensors(
        feats, depths, masks, table.n_cams, table.feat_h, table.feat_w, table.n_bins
    )
    feat_stack = stack_camera_tensors(feats)
    depth_flat = np.concatenate([d.ravel() for d in depths])
    mask_flat = stack_camera_tensors(masks)[0]
    acc = weighted_scatter(feat_stack, depth_flat, mask_flat, table.offsets,
                           table.feat_idx, table.depth_idx, threads=threads)
    C = feat_stack.shape[0]
    return acc.T.reshape(C, table.ny, table.nx).astype(np.float32)


def lss_pool_reference(
    feats, depths, masks, rigs, grid: BevGridSpec, dspec: DepthBinSpec
) -> np.ndarray:
    """Table-free oracle: per-point loop that lifts, locates, accumulates.

    Each point is lifted with scalar arithmetic in the order lift_frustum
    uses (the rigid inverse, sums left to right) and located by the same
    division, so it lands in the table's cell.  Records are ordered (cell,
    cam, depth index) as in the table, and the accumulation is a sequential
    float64 loop, so the result must match lss_pool bitwise.
    """
    records = []
    for cam_pos, rig in enumerate(rigs):
        K, R, t = rig.intrinsics, rig.extrinsics[:3, :3], rig.extrinsics[:3, 3]
        # rigid inverse: ego = R^T cam - R^T t
        t_inv = [R[0, i] * t[0] + R[1, i] * t[1] + R[2, i] * t[2] for i in range(2)]
        W, H = rig.feat_w, rig.feat_h
        for k in range(dspec.n_bins):
            d = dspec.d_min + (k + 0.5) * dspec.step
            for v in range(H):
                for u in range(W):
                    xc = (u - K[0, 2]) / K[0, 0] * d
                    yc = (v - K[1, 2]) / K[1, 1] * d
                    px = xc * R[0, 0] + yc * R[1, 0] + d * R[2, 0] - t_inv[0]
                    py = xc * R[0, 1] + yc * R[1, 1] + d * R[2, 1] - t_inv[1]
                    ix = int(np.floor((px - grid.x_min) / grid.cell_w))
                    iy = int(np.floor((py - grid.y_min) / grid.cell_h))
                    if 0 <= ix < grid.nx and 0 <= iy < grid.ny:
                        fi = v * W + u
                        di = k * (H * W) + fi
                        records.append((iy * grid.nx + ix, cam_pos, di, fi))
    records.sort()

    C = feats[0].shape[0]
    acc = np.zeros((grid.n_cells, C), dtype=np.float64)
    for cell, cam, di, fi in records:
        w = np.float64(depths[cam].ravel()[di]) * np.float64(masks[cam].ravel()[fi])
        acc[cell] += w * feats[cam].reshape(C, -1)[:, fi].astype(np.float64)
    return acc.T.reshape(C, grid.ny, grid.nx).astype(np.float32)

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

    Returns (u, v, k, points) where points is (feat_h*feat_w*n_bins, 3),
    ordered bin-major then row-major over pixels.
    """
    H, W, nb = cam.feat_h, cam.feat_w, dspec.n_bins
    k, v, u = np.meshgrid(
        np.arange(nb), np.arange(H), np.arange(W), indexing="ij"
    )
    k = k.ravel()
    v = v.ravel()
    u = u.ravel()
    d = dspec.bin_center(k)

    K = cam.intrinsics
    x_cam = (u - K[0, 2]) / K[0, 0] * d
    y_cam = (v - K[1, 2]) / K[1, 1] * d
    cam_pts = np.stack([x_cam, y_cam, d], axis=1)
    T_inv = np.linalg.inv(cam.extrinsics)
    pts = cam_pts @ T_inv[:3, :3].T + T_inv[:3, 3]
    return u, v, k, pts


def precompute_lss_table(rigs, grid: BevGridSpec, dspec: DepthBinSpec) -> IndexTable:
    """Assign in-grid frustum points to cells; half-open cells [min, max).

    Each camera emits its entries in ascending depth index, so the table
    runs by cell, then camera, then depth index.
    """
    def emit(rig):
        u, v, k, pts = lift_frustum(rig, dspec)
        ix = np.floor((pts[:, 0] - grid.x_min) / grid.cell_w).astype(np.int64)
        iy = np.floor((pts[:, 1] - grid.y_min) / grid.cell_h).astype(np.int64)
        keep = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)
        fi = v[keep] * rig.feat_w + u[keep]
        return iy[keep] * grid.nx + ix[keep], fi, k[keep] * (rig.feat_h * rig.feat_w) + fi

    return build_table(LSS_MAGIC, grid, rigs, dspec, (), map(emit, rigs))


def lss_pool(feats, depths, masks, table: IndexTable, threads: int = 1) -> np.ndarray:
    """Weighted scatter-sum pooling; returns (C, ny, nx) float32."""
    check_camera_tensors(
        feats, depths, masks, table.n_cams, table.feat_h, table.feat_w, table.n_bins
    )
    feat_stack = stack_camera_tensors(feats)
    depth_flat = np.concatenate([d.ravel() for d in depths])
    mask_flat = stack_camera_tensors(masks)[0]
    acc = weighted_scatter(
        feat_stack, depth_flat, mask_flat,
        table.cells, table.feat_idx, table.depth_idx,
        table.n_cells, threads=threads,
    )
    C = feat_stack.shape[0]
    return acc.T.reshape(C, table.ny, table.nx).astype(np.float32)


def lss_pool_reference(
    feats, depths, masks, rigs, grid: BevGridSpec, dspec: DepthBinSpec
) -> np.ndarray:
    """Table-free oracle: per-point loop that lifts, locates, accumulates.

    Records are ordered (cell, cam, depth index) as in the table, and the
    accumulation is a sequential float64 loop, so the result must match
    lss_pool bitwise.
    """
    records = []
    inv_cw = 1.0 / grid.cell_w
    inv_ch = 1.0 / grid.cell_h
    for cam_pos, rig in enumerate(rigs):
        K = rig.intrinsics
        T_inv = np.linalg.inv(rig.extrinsics)
        R, t = T_inv[:3, :3], T_inv[:3, 3]
        W, H = rig.feat_w, rig.feat_h
        for k in range(dspec.n_bins):
            d = dspec.d_min + (k + 0.5) * dspec.step
            for v in range(H):
                for u in range(W):
                    cam_pt = np.array(
                        [(u - K[0, 2]) / K[0, 0] * d, (v - K[1, 2]) / K[1, 1] * d, d]
                    )
                    p = R @ cam_pt + t
                    ix = int(np.floor((p[0] - grid.x_min) * inv_cw))
                    iy = int(np.floor((p[1] - grid.y_min) * inv_ch))
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

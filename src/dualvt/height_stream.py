"""3D-to-2D stream: BEV-anchored multi-height point sampling.

Each BEV cell spawns one 3D point per height; points are projected into
every camera and weighted by the depth distribution (projection
probability) and the instance mask (image probability).  The reference
path samples with interpolating samplers; the accelerated path rounds
all coordinates so the indices become input-independent and can be
precomputed into a scatter-sum lookup table.

The BEV occupancy probability is deliberately NOT applied here; the
fusion stage applies it exactly once to the fused feature.
"""

from __future__ import annotations

import numpy as np

from .geometry import BevGridSpec, HeightSet, bev_cell_centers, project_points
from .sampling import (
    DepthBinSpec,
    bilinear_sample_2d_many,
    depth_to_coord,
    trilinear_sample_3d_many,
)
from .scatter import weighted_scatter
from .tables import HT_MAGIC, IndexTable, check_camera_tensors, stack_camera_tensors

INTERP = "interp"
ROUND = "round"


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (fixed tie rule)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _correspondences(rigs, grid: BevGridSpec, heights: HeightSet, dspec: DepthBinSpec):
    """All valid rounded (cell, cam, height) -> (feat_idx, depth_idx) records,
    sorted by cell, then camera, then height index."""
    centers = bev_cell_centers(grid).reshape(-1, 2).astype(np.float64)
    n_cells = centers.shape[0]
    nz = len(heights)
    cell_ids = np.repeat(np.arange(n_cells, dtype=np.int64), nz)
    h_ids = np.tile(np.arange(nz, dtype=np.int64), n_cells)
    pts = np.empty((n_cells * nz, 3), dtype=np.float64)
    pts[:, :2] = np.repeat(centers, nz, axis=0)
    pts[:, 2] = np.asarray(heights.z_values)[h_ids]

    # camera index = position in the rig list (cam_id is informational)
    cols = {k: [] for k in ("cell", "cam", "h", "fi", "di")}
    for cam_pos, rig in enumerate(rigs):
        u, v, d, valid = project_points(pts, rig)
        ui = round_half_away(u)
        vi = round_half_away(v)
        k = round_half_away(depth_to_coord(d, dspec))
        keep = (
            valid
            & (ui >= 0) & (ui <= rig.feat_w - 1)
            & (vi >= 0) & (vi <= rig.feat_h - 1)
            & (k >= 0) & (k <= dspec.n_bins - 1)
        )
        ui = ui[keep].astype(np.int64)
        vi = vi[keep].astype(np.int64)
        kk = k[keep].astype(np.int64)
        cols["cell"].append(cell_ids[keep])
        cols["cam"].append(np.full(ui.shape[0], cam_pos, dtype=np.int64))
        cols["h"].append(h_ids[keep])
        cols["fi"].append(vi * rig.feat_w + ui)
        cols["di"].append((kk * rig.feat_h + vi) * rig.feat_w + ui)

    cat = {k: np.concatenate(v) if v else np.empty(0, np.int64) for k, v in cols.items()}
    order = np.lexsort((cat["h"], cat["cam"], cat["cell"]))
    return {k: v[order] for k, v in cat.items()}


def precompute_ht_table(
    rigs, grid: BevGridSpec, heights: HeightSet, dspec: DepthBinSpec
) -> IndexTable:
    """Build the lookup table; a pure function of the geometry (empty is legal)."""
    rec = _correspondences(rigs, grid, heights, dspec)
    rig0 = rigs[0]
    return IndexTable(
        magic=HT_MAGIC,
        ny=grid.ny, nx=grid.nx, n_cams=len(rigs),
        feat_h=rig0.feat_h, feat_w=rig0.feat_w, n_bins=dspec.n_bins,
        cells=rec["cell"], cams=rec["cam"],
        feat_idx=rec["fi"], depth_idx=rec["di"],
    )


def ht_transform_fast(feats, depths, masks, table: IndexTable, threads: int = 1) -> np.ndarray:
    """Scatter-sum over the precomputed table; returns (C, ny, nx) float32."""
    check_camera_tensors(
        feats, depths, masks, table.n_cams, table.feat_h, table.feat_w, table.n_bins
    )
    feat_stack = stack_camera_tensors(feats)
    depth_flat = np.concatenate([d.ravel() for d in depths])
    mask_flat = stack_camera_tensors(masks)[0]
    acc = weighted_scatter(
        feat_stack, depth_flat, mask_flat,
        table.cells, table.global_feat_idx(), table.global_depth_idx(),
        table.n_cells, threads=threads,
    )
    C = feat_stack.shape[0]
    return acc.T.reshape(C, table.ny, table.nx).astype(np.float32)


def ht_transform_naive(
    feats, depths, masks,
    rigs, grid: BevGridSpec, heights: HeightSet, dspec: DepthBinSpec,
    mode: str = INTERP,
) -> np.ndarray:
    """Reference path computing the projection sums without a lookup table.

    ROUND mode re-derives the rounded correspondences on the fly and
    accumulates them in the table order, matching ht_transform_fast
    bitwise.  INTERP mode uses the bilinear/trilinear samplers instead
    of rounding.
    """
    rig0 = rigs[0]
    check_camera_tensors(
        feats, depths, masks, len(rigs), rig0.feat_h, rig0.feat_w, dspec.n_bins
    )
    if mode == ROUND:
        rec = _correspondences(rigs, grid, heights, dspec)
        feat_stack = stack_camera_tensors(feats)
        depth_flat = np.concatenate([d.ravel() for d in depths])
        mask_flat = stack_camera_tensors(masks)[0]
        hw = rig0.feat_h * rig0.feat_w
        acc = weighted_scatter(
            feat_stack, depth_flat, mask_flat,
            rec["cell"],
            rec["cam"] * hw + rec["fi"],
            rec["cam"] * (dspec.n_bins * hw) + rec["di"],
            grid.n_cells,
        )
        C = feat_stack.shape[0]
        return acc.T.reshape(C, grid.ny, grid.nx).astype(np.float32)
    if mode != INTERP:
        raise ValueError(f"unknown sampler mode {mode!r}")

    centers = bev_cell_centers(grid).reshape(-1, 2).astype(np.float64)
    n_cells = centers.shape[0]
    C = feats[0].shape[0]
    acc = np.zeros((n_cells, C), dtype=np.float64)
    pts = np.empty((n_cells, 3), dtype=np.float64)
    pts[:, :2] = centers
    for cam_i, rig in enumerate(rigs):
        feat = feats[cam_i]
        depth = depths[cam_i]
        mask = masks[cam_i]
        for z in heights.z_values:
            pts[:, 2] = z
            u, v, d, valid = project_points(pts, rig)
            if not valid.any():
                continue
            uu, vv, dd = u[valid], v[valid], d[valid]
            d_s = trilinear_sample_3d_many(depth, uu, vv, dd, dspec)
            m_s = bilinear_sample_2d_many(mask, uu, vv)[:, 0]
            i_s = bilinear_sample_2d_many(feat, uu, vv)
            np.add.at(acc, np.nonzero(valid)[0], (d_s * m_s)[:, None] * i_s)
    return acc.T.reshape(C, grid.ny, grid.nx).astype(np.float32)

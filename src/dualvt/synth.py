"""Deterministic synthetic scenes: rigs, features, depth maps, masks, GT.

Stands in for a learned backbone + scene network: axis-aligned boxes are
ray-cast from a surround rig; hit pixels get the box's feature signature
plus noise, a foreground mask of 1, and a depth distribution sharply
peaked at the hit distance.  Miss pixels get background noise, mask 0,
and a uniform depth distribution.  Everything derives from one seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeMismatch, SpecBlock, check_field_types, from_json
from .geometry import BevGridSpec, CameraRig, back_project, bev_cell_centers
from .report import l2
from .rng import Rng
from .sampling import DepthBinSpec
from .tensors import parse_manifest, tensor_read, tensor_write

FEATURE_NOISE = 0.05
# a ring rig is built, written and read one camera at a time
MAX_CAMERAS = 256


@dataclass(frozen=True)
class Box(SpecBlock):
    """Axis-aligned box: center (x, y, z) and size (length, width, height), meters."""

    center: tuple = field(metadata={"shape": (3,)})
    size: tuple = field(metadata={"shape": (3,)})

    def __post_init__(self):
        check_field_types(self)
        for name in ("center", "size"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if min(self.size) <= 0:
            raise ConfigError(f"box size must be positive, got {self.size!r}")

    def footprint_contains(self, x, y):
        cx, cy, _ = self.center
        lx, ly, _ = self.size
        return (np.abs(x - cx) <= lx / 2) & (np.abs(y - cy) <= ly / 2)


@dataclass(frozen=True)
class SceneSpec(SpecBlock):
    seed: int = 0
    n_cameras: int = 6
    feat_w: int = 44
    feat_h: int = 16
    channels: int = 64
    boxes: tuple = field(default=(), metadata={"items": Box})
    kappa: float = 4.0  # depth concentration; kernel half-width = step / kappa
    cam_height: float = 1.5
    hfov_deg: float = 70.0

    def __post_init__(self):
        check_field_types(self)
        if not 1 <= self.n_cameras <= MAX_CAMERAS:
            raise ConfigError(f"n_cameras must be in [1, {MAX_CAMERAS}], got {self.n_cameras!r}")
        for name in ("feat_w", "feat_h", "channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0 < self.hfov_deg < 180:
            raise ConfigError(f"hfov_deg must be in (0, 180), got {self.hfov_deg!r}")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")


def standard_scene_spec(seed: int = 5) -> SceneSpec:
    """The pinned 3-box scene used by fixtures and the ablation checks."""
    return SceneSpec(
        seed=seed,
        boxes=(
            Box(center=(12.0, 2.0, 0.75), size=(4.0, 2.0, 1.5)),
            Box(center=(-15.0, 9.0, 1.0), size=(6.0, 3.0, 2.0)),
            Box(center=(6.0, -20.0, 0.6), size=(3.0, 3.0, 1.2)),
        ),
    )


def random_scene_spec(seed: int, **overrides) -> SceneSpec:
    """A reproducible random scene: 2-5 boxes scattered around the ego."""
    rng = Rng(seed ^ 0x5CE17E)
    n_boxes = 2 + int(rng.integers((1,), 4)[0])
    boxes = []
    for _ in range(n_boxes):
        r = float(rng.uniform((1,), 8.0, 40.0)[0])
        ang = float(rng.uniform((1,), -np.pi, np.pi)[0])
        size = tuple(float(s) for s in rng.uniform((3,), 2.0, 6.0))
        h = min(float(size[2]), 2.5)
        boxes.append(
            Box(center=(r * np.cos(ang), r * np.sin(ang), h / 2), size=(size[0], size[1], h))
        )
    return SceneSpec(seed=seed, boxes=tuple(boxes), **overrides)


@dataclass
class SceneBundle:
    rigs: list
    feats: list
    depths: list
    masks: list
    gt_bev: np.ndarray
    spec: SceneSpec
    grid: BevGridSpec
    dspec: DepthBinSpec


def make_ring_rigs(spec: SceneSpec) -> list:
    """Surround rig: n cameras at the ego center, evenly spaced yaw."""
    W, H = spec.feat_w, spec.feat_h
    fx = (W / 2) / np.tan(np.radians(spec.hfov_deg) / 2)
    K = np.array([[fx, 0.0, (W - 1) / 2], [0.0, fx, (H - 1) / 2], [0.0, 0.0, 1.0]])
    rigs = []
    for i in range(spec.n_cameras):
        yaw = 2 * np.pi * i / spec.n_cameras
        c, s = np.cos(yaw), np.sin(yaw)
        # rows: camera right, down, forward in ego coordinates
        R = np.array([[s, -c, 0.0], [0.0, 0.0, -1.0], [c, s, 0.0]])
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = 0.0 - spec.cam_height * R[:, 2]  # -R (0, 0, h), +0.0 where it is zero
        rigs.append(CameraRig(intrinsics=K, extrinsics=T, feat_w=W, feat_h=H, cam_id=i))
    return rigs


def _ray_cast(rig: CameraRig, boxes, eps: float = 1e-6):
    """Nearest-hit depth per pixel: (hit mask (H, W), depth, box index)."""
    H, W = rig.feat_h, rig.feat_w
    origin = np.stack(back_project(rig, 0.0), axis=-1)
    dirs = np.stack(back_project(rig, 1.0), axis=-1) - origin  # camera depth at t is t

    best_t = np.full((H, W), np.inf)
    best_box = np.full((H, W), -1, dtype=np.int64)
    for bi, box in enumerate(boxes):
        lo = np.asarray(box.center) - np.asarray(box.size) / 2
        hi = np.asarray(box.center) + np.asarray(box.size) / 2
        # a ray parallel to a slab gets infinite bounds of one sign outside it
        # (a miss) and of both signs inside; only a ray starting on one of its
        # planes gets 0/0, a NaN the nanmax/nanmin below skip, as inside
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        t_enter = np.nanmax(np.minimum(t1, t2), axis=-1)
        t_exit = np.nanmin(np.maximum(t1, t2), axis=-1)
        hit = (t_exit >= t_enter) & (t_enter > eps)
        closer = hit & (t_enter < best_t)
        best_t[closer] = t_enter[closer]
        best_box[closer] = bi
    hit = best_box >= 0
    return hit, np.where(hit, best_t, 0.0), best_box


def _triangular_depth_mass(t: np.ndarray, dspec: DepthBinSpec, kappa: float):
    """Per-bin mass of a triangular kernel at depth t; (n_bins, ...) float32.

    Uses the kernel's CDF over bin edges, so the mass is exact and the
    distribution is identically zero away from the peak.
    """
    hw = dspec.step / kappa
    edges = dspec.d_min + np.arange(dspec.n_bins + 1) * dspec.step

    x = (edges.reshape((-1,) + (1,) * t.ndim) - t) / hw  # normalized offset
    cdf = np.where(
        x <= -1, 0.0,
        np.where(
            x <= 0, 0.5 * (1 + x) ** 2,
            np.where(x <= 1, 1 - 0.5 * (1 - x) ** 2, 1.0),
        ),
    )
    mass = np.diff(cdf, axis=0)
    total = mass.sum(axis=0)
    # peak entirely outside the bin range: all mass into the nearest bin
    degenerate = total <= 0
    if np.any(degenerate):
        k = np.clip(
            np.floor((t - dspec.d_min) / dspec.step).astype(np.int64),
            0, dspec.n_bins - 1,
        )
        onehot = (np.arange(dspec.n_bins).reshape((-1,) + (1,) * t.ndim) == k)
        mass = np.where(degenerate, onehot.astype(float), mass)
        total = mass.sum(axis=0)
    return (mass / total).astype(np.float32)


def footprint_to_bev_mask(boxes, grid: BevGridSpec) -> np.ndarray:
    """(1, ny, nx) binary mask of cells whose center lies in any box footprint."""
    centers = bev_cell_centers(grid)
    occ = np.zeros((grid.ny, grid.nx), dtype=bool)
    for box in boxes:
        occ |= box.footprint_contains(centers[:, :, 0], centers[:, :, 1])
    return occ[None].astype(np.float32)


def generate_scene(spec: SceneSpec, grid: BevGridSpec, dspec: DepthBinSpec) -> SceneBundle:
    """Build the full bundle; bitwise-reproducible from (spec, grid, dspec)
    under any BLAS, as no step makes a BLAS call (trig is the platform libm's)."""
    rigs = make_ring_rigs(spec)
    root = Rng(spec.seed)

    signatures = []
    for bi in range(len(spec.boxes)):
        raw = root.child(1000 + bi).uniform((spec.channels,), -1.0, 1.0)
        signatures.append((raw / l2(raw)).astype(np.float32))

    feats, depths, masks = [], [], []
    for cam_i, rig in enumerate(rigs):
        cam_rng = root.child(cam_i)
        hit, t, box_idx = _ray_cast(rig, spec.boxes)
        H, W = rig.feat_h, rig.feat_w

        noise = cam_rng.uniform((spec.channels, H, W), -FEATURE_NOISE, FEATURE_NOISE)
        feat = noise.copy()
        if spec.boxes:
            sig = np.stack(signatures)[np.clip(box_idx, 0, None)]  # (H, W, C)
            feat = np.where(hit[None], sig.transpose(2, 0, 1) + noise, noise)
        feats.append(feat.astype(np.float32))

        depth = np.full((dspec.n_bins, H, W), 1.0 / dspec.n_bins, dtype=np.float32)
        if hit.any():
            peaked = _triangular_depth_mass(t, dspec, spec.kappa)
            depth = np.where(hit[None], peaked, depth)
        depths.append(depth)
        masks.append(hit[None].astype(np.float32))

    return SceneBundle(
        rigs=rigs, feats=feats, depths=depths, masks=masks,
        gt_bev=footprint_to_bev_mask(spec.boxes, grid),
        spec=spec, grid=grid, dspec=dspec,
    )


def save_bundle(bundle: SceneBundle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cameras = []
    for i, rig in enumerate(bundle.rigs):
        entry = {"rig": rig.to_json()}
        for kind, arr in (
            ("feat", bundle.feats[i]), ("depth", bundle.depths[i]), ("mask", bundle.masks[i])
        ):
            fname = f"cam{i}_{kind}.btsr"
            tensor_write(arr, directory / fname)
            entry[kind] = fname
        cameras.append(entry)
    tensor_write(bundle.gt_bev, directory / "gt_bev.btsr")
    manifest = {
        "spec": bundle.spec.to_json(),
        "grid": bundle.grid.to_json(),
        "dspec": bundle.dspec.to_json(),
        "cameras": cameras,
        "gt_bev": "gt_bev.btsr",
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_bundle(directory) -> SceneBundle:
    directory = Path(directory)

    def parse(manifest):
        cams = manifest["cameras"]
        return (from_json(SceneSpec, manifest["spec"]), from_json(BevGridSpec, manifest["grid"]),
                from_json(DepthBinSpec, manifest["dspec"]),
                [from_json(CameraRig, cam["rig"]) for cam in cams],
                [[directory / cam[kind] for cam in cams] for kind in ("feat", "depth", "mask")],
                directory / manifest["gt_bev"])

    spec, grid, dspec, rigs, files, gt_bev = parse_manifest(directory / "manifest.json", parse)
    feats, depths, masks = ([tensor_read(path) for path in paths] for paths in files)
    gt = tensor_read(gt_bev)
    if gt.shape != (1, grid.ny, grid.nx):
        raise ShapeMismatch(f"{gt_bev} has shape {gt.shape}, the grid needs "
                            f"{(1, grid.ny, grid.nx)}")
    return SceneBundle(rigs=rigs, feats=feats, depths=depths, masks=masks,
                       gt_bev=gt, spec=spec, grid=grid, dspec=dspec)

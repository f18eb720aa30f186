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
from .tables import check_frame
from .tensors import parse_manifest, tensor_read, tensor_write

FEATURE_NOISE = 0.05
# a ring rig's cameras are built, ray-cast and drawn one Python loop step each
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


def read_scene_spec(path) -> tuple:
    """(spec, grid, dspec) from a scene spec file: a JSON object of scene fields,
    each left out taking its default, and optional `grid` and `dspec` blocks,
    each left out taking its defaults.  Any problem is a ConfigError naming
    the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read scene spec {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"scene spec {path} is not a JSON object")
    blocks = {}
    for key, cls in (("grid", BevGridSpec), ("dspec", DepthBinSpec)):
        try:
            blocks[key] = from_json(cls, doc.pop(key)) if key in doc else cls()
        except ConfigError as e:
            raise ConfigError(f"scene spec {path}: {key!r} block: {e}") from None
    try:
        # a scene field left out of a spec file takes its default; a manifest holds them all
        spec = from_json(SceneSpec, {**SceneSpec().to_json(), **doc})
    except ConfigError as e:
        raise ConfigError(f"scene spec {path}: {e}") from None
    return spec, blocks["grid"], blocks["dspec"]


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
    """One scene's frame, camera-first (`tables.check_frame`), with its rigs and GT."""

    rigs: list
    feats: np.ndarray  # (n_cams, feat_h, feat_w, channels) float32
    depths: np.ndarray  # (n_cams, n_bins, feat_h, feat_w) float32
    masks: np.ndarray  # (n_cams, feat_h, feat_w) float32
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
        rigs.append(CameraRig(intrinsics=K, extrinsics=T, feat_w=W, feat_h=H))
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

    H, W = spec.feat_h, spec.feat_w
    feats = np.empty((len(rigs), H, W, spec.channels), dtype=np.float32)
    depths = np.full((len(rigs), dspec.n_bins, H, W), 1.0 / dspec.n_bins, dtype=np.float32)
    masks = np.empty((len(rigs), H, W), dtype=np.float32)
    for cam_i, rig in enumerate(rigs):
        hit, t, box_idx = _ray_cast(rig, spec.boxes)
        # the noise is drawn channel-first, the order that fixes the stream's bits
        feat = root.child(cam_i).uniform((spec.channels, H, W), -FEATURE_NOISE,
                                         FEATURE_NOISE).transpose(1, 2, 0)
        if spec.boxes:
            sig = np.stack(signatures)[np.clip(box_idx, 0, None)]  # (H, W, C)
            feat = np.where(hit[..., None], sig + feat, feat)
        feats[cam_i] = feat
        if hit.any():
            depths[cam_i] = np.where(hit, _triangular_depth_mass(t, dspec, spec.kappa),
                                     depths[cam_i])
        masks[cam_i] = hit

    return SceneBundle(
        rigs=rigs, feats=feats, depths=depths, masks=masks,
        gt_bev=footprint_to_bev_mask(spec.boxes, grid),
        spec=spec, grid=grid, dspec=dspec,
    )


def save_bundle(bundle: SceneBundle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind in ("feats", "depths", "masks", "gt_bev"):  # one file each, all cameras in one
        tensor_write(getattr(bundle, kind), directory / f"{kind}.btsr")
    manifest = {
        "spec": bundle.spec.to_json(),
        "grid": bundle.grid.to_json(),
        "dspec": bundle.dspec.to_json(),
        "rigs": [rig.to_json() for rig in bundle.rigs],
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_bundle(directory) -> SceneBundle:
    """Read a scene directory, its tensors checked against its manifest: the
    frame by `check_frame` and the spec's channel count, the GT by the grid.
    There must be the spec's n_cameras rigs, each of the spec's feature size.
    A manifest that lists its rigs under "cameras", the layout before
    "rigs", is refused."""
    directory = Path(directory)

    def parse(manifest):
        if "cameras" in manifest:
            raise ConfigError("its rigs are under 'cameras', an older scene layout; "
                              "run synth again")
        spec = from_json(SceneSpec, manifest["spec"])
        rigs = [from_json(CameraRig, rig) for rig in manifest["rigs"]]
        if len(rigs) != spec.n_cameras:
            raise ConfigError(f"{len(rigs)} rigs, the spec's n_cameras is {spec.n_cameras}")
        for i, rig in enumerate(rigs):
            if (rig.feat_h, rig.feat_w) != (spec.feat_h, spec.feat_w):
                raise ConfigError(f"camera {i}'s rig feat_h x feat_w {rig.feat_h}x{rig.feat_w} "
                                  f"differs from the spec's {spec.feat_h}x{spec.feat_w}")
        return (spec, from_json(BevGridSpec, manifest["grid"]),
                from_json(DepthBinSpec, manifest["dspec"]), rigs)

    spec, grid, dspec, rigs = parse_manifest(directory / "manifest.json", parse)
    feats, depths, masks, gt = (tensor_read(directory / f"{kind}.btsr")
                               for kind in ("feats", "depths", "masks", "gt_bev"))
    try:
        check_frame(feats, depths, masks, len(rigs), spec.feat_h, spec.feat_w, dspec.n_bins)
    except ShapeMismatch as e:
        raise ShapeMismatch(f"scene {directory}: {e}") from None
    for name, got, want in (("feats", feats.shape, (*feats.shape[:3], spec.channels)),
                            ("gt_bev", gt.shape, (1, grid.ny, grid.nx))):
        if got != want:
            raise ShapeMismatch(f"{directory / name}.btsr has shape {got}, the manifest "
                                f"needs {want}")
    return SceneBundle(rigs=rigs, feats=feats, depths=depths, masks=masks,
                       gt_bev=gt, spec=spec, grid=grid, dspec=dspec)

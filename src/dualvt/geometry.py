"""Pinhole camera model, BEV grid, and height sampling.

Conventions (fixed across the whole library):
  * ego frame: x forward, y left, z up, meters
  * camera frame: z forward (optical axis), x right, y down
  * extrinsics T map ego coordinates to camera coordinates
  * intrinsics K are expressed in feature-map pixel units, pixel centers
    at integer coordinates
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SpecBlock, check_field_types

BEHIND_EPS = 1e-6

FULL_HEIGHT_RANGE = (-5.0, 3.0)
# "uniform:N" heights: each is one Python step in HeightSet and in the height
# oracle's loop, and ~17k entries of the desk height table (220,620 at 13)
MAX_HEIGHTS = 1024


@dataclass(frozen=True)
class CameraRig(SpecBlock):
    """One camera: intrinsics K (3x3), extrinsics T (4x4, ego -> camera)
    and feature-map extents."""

    intrinsics: np.ndarray = field(metadata={"shape": (3, 3)})
    extrinsics: np.ndarray = field(metadata={"shape": (4, 4)})
    feat_w: int
    feat_h: int

    def __post_init__(self):
        check_field_types(self)
        K = np.asarray(self.intrinsics, dtype=np.float64)
        T = np.asarray(self.extrinsics, dtype=np.float64)
        if not (K[0, 0] > 0 and K[1, 1] > 0):
            raise ConfigError(f"camera fx and fy must be positive, got {K[0, 0]} and {K[1, 1]}")
        if K[2, 2] != 1.0 or K[2, 0] != 0.0 or K[2, 1] != 0.0:
            raise ConfigError("last intrinsics row must be [0, 0, 1]")
        R = T[:3, :3]
        # R R^T as an elementwise sum: no BLAS call anywhere in the table build
        if not np.allclose((R[:, None] * R).sum(axis=2), np.eye(3), atol=1e-5):
            raise ConfigError("extrinsics rotation block is not orthonormal")
        if not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]):
            raise ConfigError("last extrinsics row must be [0, 0, 0, 1]")
        if self.feat_w < 1 or self.feat_h < 1:
            raise ConfigError("feature extents must be positive")
        object.__setattr__(self, "intrinsics", K)
        object.__setattr__(self, "extrinsics", T)


@dataclass(frozen=True)
class BevGridSpec(SpecBlock):
    """Axis-aligned BEV grid; cell (i, j) spans x index i, y index j."""

    x_min: float = -51.2
    x_max: float = 51.2
    y_min: float = -51.2
    y_max: float = 51.2
    nx: int = 128
    ny: int = 128

    def __post_init__(self):
        check_field_types(self)
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("grid cell counts must be >= 1")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigError("grid extents must be nonempty")
        for name in ("cell_w", "cell_h"):  # finite extents can still be too far apart
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"grid {name} must be finite and positive, "
                                  f"got {getattr(self, name)}")

    @property
    def cell_w(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def cell_h(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class HeightSet:
    """Ordered heights (meters, ego z) at which BEV anchor points are placed."""

    z_values: tuple

    def __post_init__(self):
        z = tuple(float(v) for v in self.z_values)
        if any(b <= a for a, b in zip(z, z[1:])):
            raise ConfigError("heights must be strictly increasing")
        lo, hi = FULL_HEIGHT_RANGE
        if z and (z[0] < lo or z[-1] > hi):
            raise ConfigError(f"heights must lie within [{lo}, {hi}]")
        object.__setattr__(self, "z_values", z)

    def __len__(self) -> int:
        return len(self.z_values)


def make_height_samples(spec: str = "multires") -> HeightSet:
    """Height sampling set over [-5, 3] m, from the text of `precompute --heights`.

    "multires": the 13 heights -5, -4, -3, then -2 to 2 m by 0.5 m (the
    region of interest), then 3.  "uniform:N": 2 <= N <= `MAX_HEIGHTS` evenly
    spaced values including both endpoints, N read by ``int()`` and checked
    before any array is built.  Other text raises a one-line ConfigError.
    """
    if spec == "multires":
        return HeightSet((-5.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
    if not spec.startswith("uniform:"):
        raise ConfigError(f"heights must be 'multires' or 'uniform:N', got {spec!r}")
    try:
        n = int(spec.split(":", 1)[1])
    except ValueError as e:
        raise ConfigError(f"bad heights {spec!r}: {e}") from None
    if not 2 <= n <= MAX_HEIGHTS:
        raise ConfigError(f"bad heights {spec!r}: uniform height sampling needs "
                          f"2 <= N <= {MAX_HEIGHTS}")
    return HeightSet(tuple(np.linspace(FULL_HEIGHT_RANGE[0], FULL_HEIGHT_RANGE[1], n)))


def project_points(x, y, z, cam: CameraRig):
    """Project ego points with fixed-order elementwise arithmetic (no BLAS).

    x, y and z are the ego coordinates, arrays that broadcast together.
    Camera coordinate i is ``x*T[i,0] + y*T[i,1] + z*T[i,2] + T[i,3]``,
    summed left to right, so its bits do not depend on the BLAS, and a term
    that broadcasting shares (a cell's x and y) is computed once.  Returns
    (u, v, d, valid); u/v/d are only meaningful where valid (camera-frame
    depth > BEHIND_EPS).
    """
    T, K = cam.extrinsics, cam.intrinsics
    qx, qy, qz = (x * T[i, 0] + y * T[i, 1] + z * T[i, 2] + T[i, 3] for i in range(3))
    valid = qz > BEHIND_EPS
    safe_z = np.where(valid, qz, 1.0)
    u = K[0, 0] * qx / safe_z + K[0, 2]
    v = K[1, 1] * qy / safe_z + K[1, 2]
    return u, v, qz, valid


def back_project(cam: CameraRig, d, axes=(0, 1, 2)):
    """The ego coordinates `axes` (0 for x, 1 for y, 2 for z) of every pixel
    at camera depth `d`, a float or an array that broadcasts before
    (feat_h, feat_w): the rigid inverse (R^T, -R^T t) as fixed-order
    elementwise sums, so no BLAS picks the bits.  Each is a fresh array."""
    K, R, t = cam.intrinsics, cam.extrinsics[:3, :3], cam.extrinsics[:3, 3]
    x_cam = (np.arange(cam.feat_w) - K[0, 2]) / K[0, 0] * d
    y_cam = (np.arange(cam.feat_h)[:, None] - K[1, 2]) / K[1, 1] * d
    coords = []
    for i in axes:
        # x_cam R[0, i] + y_cam R[1, i] + d R[2, i] - (R^T t)[i], left to right, in place
        c = np.add(x_cam * R[0, i], y_cam * R[1, i])
        c += d * R[2, i]
        c -= R[0, i] * t[0] + R[1, i] * t[1] + R[2, i] * t[2]
        coords.append(c)
    return tuple(coords)


def bev_cell_centers(spec: BevGridSpec) -> np.ndarray:
    """(ny, nx, 2) array of cell-center (x, y) coordinates."""
    xs = spec.x_min + (np.arange(spec.nx) + 0.5) * spec.cell_w
    ys = spec.y_min + (np.arange(spec.ny) + 0.5) * spec.cell_h
    centers = np.empty((spec.ny, spec.nx, 2), dtype=np.float32)
    centers[:, :, 0] = xs[None, :]
    centers[:, :, 1] = ys[:, None]
    return centers

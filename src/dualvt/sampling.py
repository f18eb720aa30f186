"""Bilinear sampling over feature maps and trilinear sampling over depth volumes.

Coordinates are unnormalized feature-pixel coordinates with pixel centers
at integers: pixel (row i, col j) sits at (u=j, v=i).  Out-of-range
samples use zero padding, so a query fully outside [-1, W] x [-1, H]
returns zeros and border queries blend with implicit zero neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class DepthBinSpec:
    """Uniform depth binning; bin k covers [d_min + k*step, d_min + (k+1)*step)."""

    d_min: float = 2.0
    d_max: float = 58.0
    step: float = 0.5

    def __post_init__(self):
        if not self.d_min >= 0:  # a bin behind the camera
            raise ConfigError(f"depth d_min must be at least 0, got {self.d_min!r}")
        if self.step <= 0:
            raise ConfigError("depth step must be positive")
        n = (self.d_max - self.d_min) / self.step
        if n < 1 or abs(n - round(n)) > 1e-9:
            raise ConfigError("depth range must be a positive whole number of bins")

    @property
    def n_bins(self) -> int:
        return int(round((self.d_max - self.d_min) / self.step))

    def bin_center(self, k) -> np.ndarray:
        return self.d_min + (np.asarray(k, dtype=np.float64) + 0.5) * self.step

    def to_json(self) -> dict:
        return {"d_min": self.d_min, "d_max": self.d_max, "step": self.step}

    @classmethod
    def from_json(cls, doc: dict) -> "DepthBinSpec":
        return cls(d_min=doc["d_min"], d_max=doc["d_max"], step=doc["step"])


def depth_to_coord(d, spec: DepthBinSpec) -> np.ndarray:
    """Continuous bin coordinate; bin centers sit at integers 0..n_bins-1."""
    return (np.asarray(d, dtype=np.float64) - spec.d_min) / spec.step - 0.5


def bilinear_sample_2d_many(feat: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) at N points; returns (N, C) float64."""
    C, H, W = feat.shape
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    j0 = np.floor(u).astype(np.int64)
    i0 = np.floor(v).astype(np.int64)
    fu = u - j0
    fv = v - i0

    out = np.zeros((u.shape[0], C), dtype=np.float64)
    flat = feat.reshape(C, -1).T.astype(np.float64)  # (H*W, C)
    for di, dj, w in (
        (0, 0, (1 - fv) * (1 - fu)),
        (0, 1, (1 - fv) * fu),
        (1, 0, fv * (1 - fu)),
        (1, 1, fv * fu),
    ):
        ii = i0 + di
        jj = j0 + dj
        ok = (ii >= 0) & (ii < H) & (jj >= 0) & (jj < W)
        idx = np.where(ok, ii * W + jj, 0)
        out += (w * ok)[:, None] * flat[idx]
    return out


def trilinear_sample_3d_many(
    depth: np.ndarray, u: np.ndarray, v: np.ndarray, d: np.ndarray, spec: DepthBinSpec
) -> np.ndarray:
    """Sample a (C_D, H, W) depth volume at N (u, v, depth-in-meters) points.

    Linear along the bin axis between the two bilinear slices, zero
    padded outside the bin range.  Returns (N,) float64.
    """
    n_bins, H, W = depth.shape
    c = depth_to_coord(d, spec)
    k0 = np.floor(c).astype(np.int64)
    fk = c - k0

    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    j0 = np.floor(u).astype(np.int64)
    i0 = np.floor(v).astype(np.int64)
    fu = u - j0
    fv = v - i0

    flat = depth.reshape(-1).astype(np.float64)
    out = np.zeros(u.shape[0], dtype=np.float64)
    for dk, di, dj, w in (
        (0, 0, 0, (1 - fk) * (1 - fv) * (1 - fu)),
        (0, 0, 1, (1 - fk) * (1 - fv) * fu),
        (0, 1, 0, (1 - fk) * fv * (1 - fu)),
        (0, 1, 1, (1 - fk) * fv * fu),
        (1, 0, 0, fk * (1 - fv) * (1 - fu)),
        (1, 0, 1, fk * (1 - fv) * fu),
        (1, 1, 0, fk * fv * (1 - fu)),
        (1, 1, 1, fk * fv * fu),
    ):
        kk = k0 + dk
        ii = i0 + di
        jj = j0 + dj
        ok = (kk >= 0) & (kk < n_bins) & (ii >= 0) & (ii < H) & (jj >= 0) & (jj < W)
        idx = np.where(ok, (kk * H + ii) * W + jj, 0)
        out += w * ok * flat[idx]
    return out

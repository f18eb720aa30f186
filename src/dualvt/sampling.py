"""Depth binning, and the one interpolating sampler: depth x mask x feature
interpolated trilinearly as one volume.

Coordinates are unnormalized feature-pixel coordinates with pixel centers
at integers: pixel (row i, col j) sits at (u=j, v=i).  Voxel (k, i, j) of
the product volume holds depth[k, i, j] * mask[0, i, j] * feat[:, i, j],
the value the rounded height table takes at its nearest voxel.

The sampler walks a point's eight (depth bin, v, u) corners in float64,
in lexicographic 0/1 order, the last axis fastest.  A corner's weight is
its per-axis factors (1 - frac, or frac for the upper corner) multiplied
left to right, and it adds ((weight * depth) * mask) * feature to the
point's sum, from +0.0, with mask and feature read at the corner's pixel.
A corner whose coefficient ``(weight * depth) * mask`` is zero is skipped:
with a finite feature its term is ±0.0, which moves no bit of a sum
started at +0.0.  Out-of-range samples use zero padding: a corner outside
the volume reads a one-cell zero border, so a point fully outside the
feature map sums to exactly +0.0, and one fully outside the bin range
does so for finite masks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpecBlock, check_field_types


@dataclass(frozen=True)
class DepthBinSpec(SpecBlock):
    """Uniform depth binning; bin k covers [d_min + k*step, d_min + (k+1)*step)."""

    d_min: float = 2.0
    d_max: float = 58.0
    step: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        if self.d_min < 0:  # a bin behind the camera
            raise ConfigError(f"depth d_min must be at least 0, got {self.d_min!r}")
        if self.step <= 0:
            raise ConfigError("depth step must be positive")
        n = (self.d_max - self.d_min) / self.step  # inf when step is too small to count
        if not (1 <= n < math.inf and abs(n - round(n)) <= 1e-9):
            raise ConfigError(f"depth step must cut the range into a positive whole number "
                              f"of bins, got {n!r} bins of step {self.step!r}")

    @property
    def n_bins(self) -> int:
        return int(round((self.d_max - self.d_min) / self.step))

    def bin_center(self, k) -> np.ndarray:
        return self.d_min + (np.asarray(k, dtype=np.float64) + 0.5) * self.step


def depth_to_coord(d, spec: DepthBinSpec) -> np.ndarray:
    """Continuous bin coordinate; bin centers sit at integers 0..n_bins-1."""
    return (np.asarray(d, dtype=np.float64) - spec.d_min) / spec.step - 0.5


def _corners(shape, *coords):
    """Yield (flat index, weight) per interpolation corner of the points at
    `coords`, one float64 array per axis of `shape`, in the order and with
    the weights the module docstring states; the indices address the map
    padded with one zero cell on each side of every axis."""
    axes = []  # per axis: (padded index, factor) of its lower and upper corner
    for c, n in zip(coords, shape):
        lo = np.floor(c).astype(np.int64)
        frac = c - lo
        axes.append([(np.clip(i, -1, n) + 1, f) for i, f in ((lo, 1 - frac), (lo + 1, frac))])
    padded = tuple(n + 2 for n in shape)
    for corner in itertools.product(*axes):
        at, factors = zip(*corner)
        yield np.ravel_multi_index(at, padded), functools.reduce(operator.mul, factors)


def trilinear_product(
    feat: np.ndarray, depth: np.ndarray, mask: np.ndarray,
    u: np.ndarray, v: np.ndarray, d: np.ndarray, spec: DepthBinSpec,
) -> np.ndarray:
    """Sample depth x mask x feature at N points, float64 arrays u, v and d
    (depth in meters), of a (C, H, W) feature map, its (n_bins, H, W) depth
    volume and (1, H, W) mask; returns (N, C) float64."""
    shape, C = depth.shape, feat.shape[0]
    plane = (shape[1] + 2) * (shape[2] + 2)  # a padded voxel index modulo this: its pixel
    depth = np.pad(depth, 1).reshape(-1).astype(np.float64)
    mask = np.pad(mask[0], 1).reshape(-1).astype(np.float64)
    feat = np.pad(feat, ((0, 0), (1, 1), (1, 1))).reshape(C, -1).T.astype(np.float64)
    out = np.zeros((len(u), C), dtype=np.float64)
    for idx, w in _corners(shape, depth_to_coord(d, spec), v, u):
        pix = idx % plane
        coef = (w * depth[idx]) * mask[pix]
        live = np.flatnonzero(coef)  # a zero coefficient adds ±0.0, which moves no bit
        out[live] += coef[live, None] * feat[pix[live]]
    return out

"""Fusing the two BEV streams and predicting the occupancy probability.

The two stream features are blended by a channel-attention affinity
(convex combination per channel and position).  A small two-stream head
(local convolutional path plus a global mean/max spatial path) predicts
the per-cell occupancy probability, which multiplies the fused feature
exactly once to yield the final output.

The fusion head computes only where the BEV has input.  Its per-position
layers (the 1x1 ``caf.reduce``, the local bottleneck, the add, the
sigmoid and the blend) run on the *support*, the cells where some input
of either stream is not bit-for-bit +0.0 (so -0.0 and NaN are input),
plus one *background* column: every other cell has the same all-+0.0
input, so it gets that column's results.  The columns are packed into a
grid-wide ``(2C, rows, nx)`` image, so ``conv2d`` keeps walking row
blocks of the grid's width, and each result is expanded to the grid with
one ``np.take``.  The global pool sees the expanded grid.  The packed
``dgemm`` shapes are not the full grid's; the golden head digests, taken
from full-grid code on a masked and on a ``disable-M`` run, pin them as
giving the same bits (see ``dualvt.nnops`` for the arithmetic contract).
The occupancy head runs on the full grid: its 3x3 and 7x7 convolutions
reach across cells, and their zero padding makes border cells differ
from the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .height_stream import ht_transform_fast
from .lift_stream import lss_pool
from .nnops import (
    WeightBundle,
    channel_stats,
    conv2d,
    global_avg_pool,
    relu,
    sigmoid,
)

# smallest float32 interval strictly inside (0, 1); sigmoid outputs are
# clamped here so the open-interval bound survives float32 saturation
_P_LO = np.float32(1e-7)
_P_HI = np.nextafter(np.float32(1.0), np.float32(0.0))


@dataclass(frozen=True)
class ProbNetConfig:
    """Occupancy head: local conv stream (3x3 reduce, residual block with a
    channel gate, 1x1 logit) plus a global mean/max 7x7 stream."""

    channels: int
    reduce_ratio: int = 4
    gate_ratio: int = 4

    def __post_init__(self):
        if self.channels % self.reduce_ratio:
            raise ConfigError("reduce ratio must divide the channel count")

    @property
    def reduced(self) -> int:
        return self.channels // self.reduce_ratio

    def layer_shapes(self) -> dict:
        c, cr = self.channels, self.reduced
        cg = max(cr // self.gate_ratio, 1)
        return {
            "prob.local.reduce": (cr, c, 3, 3),
            "prob.local.res1": (cr, cr, 3, 3),
            "prob.local.res2": (cr, cr, 3, 3),
            "prob.local.gate.squeeze": (cg, cr, 1, 1),
            "prob.local.gate.expand": (cr, cg, 1, 1),
            "prob.local.out": (1, cr, 1, 1),
            "prob.global.conv": (1, 2, 7, 7),
        }


def default_weight_shapes(channels: int) -> dict:
    """Every layer of both heads.  The CAF head concatenates the streams,
    reduces them back to `channels` and squeezes its two bottlenecks by 4,
    which the occupancy head's reduce ratio makes exact."""
    c, cb = channels, channels // 4
    shapes = ProbNetConfig(channels).layer_shapes()
    shapes.update({
        "caf.reduce": (c, 2 * c, 1, 1),
        "caf.local.squeeze": (cb, c, 1, 1),
        "caf.local.expand": (c, cb, 1, 1),
        "caf.global.squeeze": (cb, c, 1, 1),
        "caf.global.expand": (c, cb, 1, 1),
    })
    return shapes


def make_seeded_weights(seed: int, channels: int) -> WeightBundle:
    return WeightBundle.seeded(seed, default_weight_shapes(channels))


def _bottleneck(z: np.ndarray, weights: WeightBundle, prefix: str) -> np.ndarray:
    return conv2d(relu(conv2d(z, weights[f"{prefix}.squeeze"])), weights[f"{prefix}.expand"])


def caf_fuse(f_lss, f_ht, weights: WeightBundle, force_affinity: float | None = None):
    """Blend the float32 streams; returns (fused, affinity).  A forced
    affinity skips the head.

    Packed column 0 is the background, column 1 + k is ``support[k]``;
    a blended background is ``a*0 + (1-a)*0``, +0.0 for any affinity in
    [0, 1].  One body serves masked, dense and forced-affinity inputs.
    """
    if f_lss.shape != f_ht.shape:
        raise ShapeMismatch(f"stream shapes differ: {f_lss.shape} vs {f_ht.shape}")
    if f_lss.dtype != np.float32 or f_ht.dtype != np.float32:
        raise ShapeMismatch(f"streams must be float32, got {f_lss.dtype} and {f_ht.dtype}")
    c, ny, nx = f_lss.shape
    # (ny*nx, C) rows, one per cell: views of the streams' cell-major memory
    lss_rows, ht_rows = (f.transpose(1, 2, 0).reshape(-1, c) for f in (f_lss, f_ht))
    # bit tests, so -0.0 and NaN are support too
    support = np.flatnonzero(
        lss_rows.view(np.uint32).any(axis=1) | ht_rows.view(np.uint32).any(axis=1)
    )
    n = support.size
    # column 0 is the background; the columns after the support pad a row
    packed = np.zeros((2 * c, (n // nx + 1) * nx), dtype=np.float32)
    for k in range(0, n, nx):  # a grid row of cells at a time: the transpose stays in cache
        cells = support[k:k + nx]
        packed[:c, 1 + k:1 + k + cells.size] = np.take(lss_rows, cells, axis=0).T
        packed[c:, 1 + k:1 + k + cells.size] = np.take(ht_rows, cells, axis=0).T
    packed = packed.reshape(2 * c, -1, nx)
    where = np.zeros(ny * nx, dtype=np.intp)
    where[support] = np.arange(1, n + 1)

    def expand(x):
        return np.take(x.reshape(c, -1), where, axis=1).reshape(c, ny, nx)

    if force_affinity is None:
        z = conv2d(packed, weights["caf.reduce"])
        local = _bottleneck(z, weights, "caf.local")
        global_ = _bottleneck(global_avg_pool(expand(z)), weights, "caf.global")
        affinity = sigmoid(local + global_)  # broadcast global over the columns
    else:
        affinity = np.full((c,) + packed.shape[1:], force_affinity, dtype=np.float32)
    fused = affinity * packed[:c] + (1.0 - affinity) * packed[c:]
    return expand(fused), expand(affinity)


def bev_probability(f_channel, weights: WeightBundle, cfg: ProbNetConfig) -> np.ndarray:
    """(1, ny, nx) occupancy probability, strictly inside (0, 1)."""
    if f_channel.shape[0] != cfg.channels:
        raise ShapeMismatch(
            f"{f_channel.shape[0]} channels, config expects {cfg.channels}"
        )
    h = conv2d(f_channel, weights["prob.local.reduce"])
    r = conv2d(relu(conv2d(h, weights["prob.local.res1"])), weights["prob.local.res2"])
    h = h + r
    gate = sigmoid(_bottleneck(global_avg_pool(h), weights, "prob.local.gate"))
    local_logits = conv2d(h * gate, weights["prob.local.out"])
    global_logits = conv2d(channel_stats(f_channel), weights["prob.global.conv"])
    p = sigmoid(local_logits + global_logits)
    return np.clip(p, _P_LO, _P_HI)


def assemble_final(f_channel: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Apply the occupancy probability to the fused feature."""
    if p.shape != (1,) + f_channel.shape[1:]:
        raise ShapeMismatch(f"probability shape {p.shape} does not match {f_channel.shape}")
    return (p * f_channel).astype(np.float32)


@dataclass
class PipelineResult:
    """Final feature plus per-stage diagnostics for inspection/comparison."""

    f_final: np.ndarray
    p_bev: np.ndarray
    f_ht: np.ndarray
    f_lss: np.ndarray
    f_channel: np.ndarray
    affinity: np.ndarray


def apply_ablations(depths, masks, disable_mask: bool, uniform_depth: bool):
    """The input ablations: `disable_mask` replaces the instance masks with
    ones, `uniform_depth` flattens the depth distributions.  Returns
    (depths, masks); the caller's lists are not changed."""
    if disable_mask:
        masks = [np.ones_like(m) for m in masks]
    if uniform_depth:
        depths = [np.full_like(d, 1.0 / d.shape[0]) for d in depths]
    return depths, masks


def run_pipeline(
    feats, depths, masks,
    ht_table, lss_table,
    weights: WeightBundle,
    threads: int = 1,
    force_affinity: float | None = None,
    disable_mask: bool = False,
    uniform_depth: bool = False,
) -> PipelineResult:
    """Full forward pass: both streams, fusion, probability, final feature.

    Ablation switches: `disable_mask` and `uniform_depth` as in
    `apply_ablations`, and `force_affinity` pins the fusion affinity to a
    constant (1.0 yields a pure lift-stream pipeline).
    """
    depths, masks = apply_ablations(depths, masks, disable_mask, uniform_depth)

    f_ht = ht_transform_fast(feats, depths, masks, ht_table, threads=threads)
    f_lss = lss_pool(feats, depths, masks, lss_table, threads=threads)
    return fuse_and_finalize(f_lss, f_ht, weights, force_affinity=force_affinity)


def fuse_and_finalize(
    f_lss, f_ht, weights: WeightBundle, force_affinity: float | None = None
) -> PipelineResult:
    """Fusion tail of the pipeline, shared by the fast and reference front ends."""
    cfg = ProbNetConfig(f_ht.shape[0])
    fused, affinity = caf_fuse(f_lss, f_ht, weights, force_affinity)
    p = bev_probability(fused, weights, cfg)
    return PipelineResult(
        f_final=assemble_final(fused, p),
        p_bev=p, f_ht=f_ht, f_lss=f_lss, f_channel=fused, affinity=affinity,
    )

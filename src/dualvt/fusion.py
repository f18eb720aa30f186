"""Fusing the two BEV streams and predicting the occupancy probability.

The two stream features are blended by a channel-attention affinity
(convex combination per channel and position).  A small two-stream head
(local convolutional path plus a global mean/max spatial path) predicts
the per-cell occupancy probability, which multiplies the fused feature
exactly once to yield the final output.
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
class CafConfig:
    """Channel-attention fusion: concat -> 1x1 reduce -> local + global
    bottleneck branches -> sigmoid affinity."""

    channels: int
    ratio: int = 4

    def __post_init__(self):
        if self.channels % self.ratio:
            raise ConfigError("bottleneck ratio must divide the channel count")

    def layer_shapes(self) -> dict:
        c, r = self.channels, self.ratio
        return {
            "caf.reduce": (c, 2 * c, 1, 1),
            "caf.local.squeeze": (c // r, c, 1, 1),
            "caf.local.expand": (c, c // r, 1, 1),
            "caf.global.squeeze": (c // r, c, 1, 1),
            "caf.global.expand": (c, c // r, 1, 1),
        }


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
    shapes = CafConfig(channels).layer_shapes()
    shapes.update(ProbNetConfig(channels).layer_shapes())
    return shapes


def make_seeded_weights(seed: int, channels: int) -> WeightBundle:
    return WeightBundle.seeded(seed, default_weight_shapes(channels))


def _bottleneck(z: np.ndarray, weights: WeightBundle, prefix: str) -> np.ndarray:
    return conv2d(relu(conv2d(z, weights[f"{prefix}.squeeze"])), weights[f"{prefix}.expand"])


def caf_fuse(
    f_lss, f_ht, weights: WeightBundle, cfg: CafConfig, force_affinity: float | None = None
):
    """Blend the streams; returns (fused, affinity).  A forced affinity skips the head."""
    if f_lss.shape != f_ht.shape:
        raise ShapeMismatch(f"stream shapes differ: {f_lss.shape} vs {f_ht.shape}")
    if f_lss.shape[0] != cfg.channels:
        raise ShapeMismatch(f"{f_lss.shape[0]} channels, config expects {cfg.channels}")
    if force_affinity is None:
        z = conv2d(np.concatenate([f_lss, f_ht], axis=0), weights["caf.reduce"])
        local = _bottleneck(z, weights, "caf.local")
        global_ = _bottleneck(global_avg_pool(z), weights, "caf.global")
        affinity = sigmoid(local + global_)  # broadcast global over H, W
    else:
        affinity = np.full(f_lss.shape, force_affinity, dtype=np.float32)
    fused = affinity * f_lss + (1.0 - affinity) * f_ht
    return fused.astype(np.float32), affinity


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
    channels = f_ht.shape[0]
    fused, affinity = caf_fuse(f_lss, f_ht, weights, CafConfig(channels), force_affinity)
    p = bev_probability(fused, weights, ProbNetConfig(channels))
    return PipelineResult(
        f_final=assemble_final(fused, p),
        p_bev=p, f_ht=f_ht, f_lss=f_lss, f_channel=fused, affinity=affinity,
    )

"""Fusing the two BEV streams and predicting the occupancy probability.

The two stream features are blended by a channel-attention affinity
(convex combination per channel and position).  A small two-stream head
(local convolutional path plus a global mean/max spatial path) predicts
the per-cell occupancy probability, which multiplies the fused feature
exactly once to yield the final output.

Both heads compute only where the BEV has input, on one packed image
(``_ActiveCells``): flat column 0 is the *background*, the value of
every cell off a set of cells, column 1 + k is the set's k-th cell, and
rows are ``nx`` wide, so ``conv2d`` keeps walking row blocks of the
grid's width.  A result is expanded to the grid only for a global pool
and once per output field.  The packed ``dgemm`` shapes are not the
full grid's; the golden head digests, taken from full-grid code on a
masked and on a ``disable-M`` run, pin them as giving the same bits
(see ``dualvt.nnops`` for the arithmetic contract).

The fusion head packs both streams on the *support*.  ``run_pipeline``
takes it from the scatter (the cells with an entry of nonzero weight),
the grid front ends from the grids (the cells where some input is not
bit-for-bit +0.0, so -0.0 and NaN are input).  A support cell whose
inputs are +0.0 computes the background's bits, so both agree.  Off the
support ``F_channel`` is +0.0 and ``P`` lies in (0, 1), so ``F = P *
F_channel`` is taken on the image too.

The occupancy head runs each layer on its own *active set*, the cells
whose value can differ from the layer's background: its input's set
grown by the kernel's reach, plus a border band where the zero padding
differs from that background (``_active_cells``).  A k x k layer runs
its float32 windows at its active cells through ``conv2d`` as a 1x1
layer with the kernel flattened in ``conv2d``'s ``(c_in, i, j)`` order,
so each output sums the full grid's products.  A gathered window costs
2-9x more per cell than ``conv2d``'s row-block slices, so the head packs
only while its largest set is at most ``_PACKED_MAX_SHARE`` of the grid
(masked desk frames 7-9%, ``disable-M`` 95-98%).  The golden digests pin
both paths, and a packed frame whose reach meets the border.
"""


from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch
# ht_transform_fast and lss_pool: wrap sites of perfbench's tracer, not called here
from .height_stream import ht_apply, ht_transform_fast  # noqa: F401
from .lift_stream import lss_apply, lss_pool  # noqa: F401
from .nnops import (
    Conv2dWeights,
    WeightBundle,
    channel_stats,
    conv2d,
    global_avg_pool,
    relu,
    sigmoid,
)
from .scatter import support_grid
from .tables import stack_frame

# smallest float32 interval strictly inside (0, 1); sigmoid outputs are
# clamped here so the open-interval bound survives float32 saturation
_P_LO = np.float32(1e-7)
_P_HI = np.nextafter(np.float32(1.0), np.float32(0.0))


# Largest share of the grid the occupancy head computes as packed active
# cells: packed over the whole 128x128 grid, the 3x3 reduce took 26-32 ms
# against conv2d's 12-14 ms, res1 6.5-8 against 3.5-4 and the 7x7 14 against 1.5.
_PACKED_MAX_SHARE = 0.25

# Largest share of the grid whose columns `_ActiveCells.expand` writes one
# by one, at ~0.5 us a 64-channel column; one np.take costs ~1 ms at any size.
_WRITE_MAX_SHARE = 1 / 8


@dataclass(frozen=True)
class ProbNetConfig:
    """Occupancy head: local conv stream (3x3 reduce, residual block with a
    channel gate, 1x1 logit) plus a global mean/max 7x7 stream."""

    channels: int

    def __post_init__(self):
        # the reduce and the gate squeeze by 4
        if self.channels % 4:
            raise ConfigError("reduce ratio must divide the channel count")

    def layer_shapes(self) -> dict:
        c, cr = self.channels, self.channels // 4
        cg = max(cr // 4, 1)
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


def _has_input(x: np.ndarray, axis: int) -> np.ndarray:
    """Per cell, whether some channel of float32 `x` (channels on `axis`)
    is not bit-for-bit +0.0: a u32 test, so -0.0 and NaN count as input."""
    return x.view(np.uint32).any(axis=axis)


def _bottleneck(z: np.ndarray, weights: WeightBundle, prefix: str) -> np.ndarray:
    return conv2d(relu(conv2d(z, weights[f"{prefix}.squeeze"])), weights[f"{prefix}.expand"])


def _stream_support(f_lss, f_ht) -> np.ndarray:
    """Check the float32 stream grids; the (ny, nx) cells where either has input."""
    if f_lss.shape != f_ht.shape:
        raise ShapeMismatch(f"stream shapes differ: {f_lss.shape} vs {f_ht.shape}")
    if f_lss.dtype != np.float32 or f_ht.dtype != np.float32:
        raise ShapeMismatch(f"streams must be float32, got {f_lss.dtype} and {f_ht.dtype}")
    return _has_input(f_lss, axis=0) | _has_input(f_ht, axis=0)


def caf_fuse(f_lss, f_ht, weights: WeightBundle, force_affinity: float | None = None):
    """Blend the float32 stream grids; returns the (fused, affinity) grids."""
    cells = _ActiveCells({"input": _stream_support(f_lss, f_ht)})
    fused, affinity = _caf(cells, cells.pack(f_lss, f_ht), weights, force_affinity)
    return cells.expand(fused, "input"), cells.expand(affinity, "input")


def _caf(cells, packed, weights: WeightBundle, force_affinity: float | None):
    """The CAF head on the packed (2C, rows, nx) image, lift stream first: the packed
    (fused, affinity).  A forced affinity skips the head.  The fused background,
    ``a*0 + (1-a)*0``, is +0.0 for any affinity in [0, 1]."""
    c = packed.shape[0] // 2
    if force_affinity is None:
        z = conv2d(packed, weights["caf.reduce"])
        local = _bottleneck(z, weights, "caf.local")
        global_ = _bottleneck(global_avg_pool(cells.expand(z, "input")), weights, "caf.global")
        affinity = sigmoid(local + global_)  # broadcast global over the columns
    else:
        affinity = np.full((c,) + packed.shape[1:], force_affinity, dtype=np.float32)
    return affinity * packed[:c] + (1.0 - affinity) * packed[c:], affinity


def _reach(cells: np.ndarray, w: Conv2dWeights, padding_differs: bool) -> np.ndarray:
    """The cells where layer `w`'s output can differ from its background:
    those within the kernel's reach of `cells`, where its input can, or
    of the zero padding when that zero differs from the input's background."""
    ry, rx = w.kernel.shape[2] // 2, w.kernel.shape[3] // 2
    ny, nx = cells.shape
    padded = np.pad(cells, ((ry, ry), (rx, rx)), constant_values=padding_differs)
    rows = np.logical_or.reduce([padded[i:i + ny] for i in range(2 * ry + 1)])
    return np.logical_or.reduce([rows[:, j:j + nx] for j in range(2 * rx + 1)])


class _FullGrid:
    """The occupancy head's layers on every cell of the grid."""

    def pack(self, x):
        return x

    def conv(self, x, w, src, dst):
        return conv2d(x, w)

    def move(self, x, src, dst):
        return x

    def expand(self, x, src):
        return x


class _ActiveCells:
    """The one packed image of both heads (module docstring): the fusion
    head's support, and the occupancy head's layers on their active sets.

    A value on set `name` is a (C, rows, nx) image: flat column 0 is the
    background, the value of every cell outside the set, column 1 + k is
    ``cells[name][k]``, and the columns after those pad the last row.
    """

    def __init__(self, sets: dict):
        self.shape = sets["input"].shape
        self.cells = {name: np.flatnonzero(m) for name, m in sets.items()}
        self.where = {}  # each cell's column in a set's image
        for name, cells in self.cells.items():
            self.where[name] = np.zeros(sets[name].size, dtype=np.intp)
            self.where[name][cells] = np.arange(1, cells.size + 1)

    def _columns(self, name: str) -> int:
        nx = self.shape[1]
        return -(-(self.cells[name].size + 1) // nx) * nx

    def _take(self, x2d, idx):
        return np.take(x2d, idx, axis=1).reshape(-1, idx.shape[-1] // self.shape[1], self.shape[1])

    def pack(self, *grids):
        """The (C, ny, nx) `grids`, +0.0 off the input set, stacked by channel
        on the input set.  A grid row of cells at a time, by fancy index, reads
        cell-major memory in cache; `np.take` would copy a strided grid first."""
        cells, nx = self.cells["input"], self.shape[1]
        flat = [x.reshape(x.shape[0], -1) for x in grids]
        out = np.zeros((sum(map(len, flat)), self._columns("input")), dtype=flat[0].dtype)
        parts = np.split(out, np.cumsum([len(f) for f in flat])[:-1])
        for k in range(0, cells.size, nx):
            row = cells[k:k + nx]
            for part, f in zip(parts, flat):
                part[:, 1 + k:1 + k + row.size] = f[:, row]
        return out.reshape(out.shape[0], -1, nx)

    def conv(self, x, w: Conv2dWeights, src: str, dst: str):
        """Layer `w` from set `src` to set `dst`, as a 1x1 layer on the
        gathered windows."""
        c_out, c_in, kh, kw = w.kernel.shape
        ry, rx = kh // 2, kw // 2
        ny, nx = self.shape
        n_src = self.cells[src].size
        # the zero padding is one more column, after the source's own
        x2d = np.concatenate(
            [x.reshape(c_in, -1)[:, :1 + n_src], np.zeros((c_in, 1), dtype=x.dtype)], axis=1
        )
        where = np.pad(self.where[src].reshape(ny, nx), ((ry, ry), (rx, rx)),
                       constant_values=n_src + 1)
        ys, xs = np.divmod(self.cells[dst], nx)
        di, dj = np.divmod(np.arange(kh * kw), kw)
        # the background's window is all column 0, the source's background
        idx = np.zeros((kh * kw, self._columns(dst)), dtype=np.intp)
        idx[:, 1:1 + ys.size] = where[ys + di[:, None], xs + dj[:, None]]
        windows = self._take(x2d, idx)  # rows in conv2d's (c_in, i, j) order
        return conv2d(windows, Conv2dWeights(w.kernel.reshape(c_out, -1, 1, 1), w.bias))

    def move(self, x, src: str, dst: str):
        """A value on set `src` onto the larger set `dst`."""
        idx = np.zeros(self._columns(dst), dtype=np.intp)
        idx[1:1 + self.cells[dst].size] = self.where[src][self.cells[dst]]
        return self._take(x.reshape(x.shape[0], -1), idx)

    def expand(self, x, src: str):
        """A value on set `src` onto the whole grid, C-contiguous.  A set of
        at most `_WRITE_MAX_SHARE` of the grid writes its columns over the
        background; a larger one is one `np.take` through the where map."""
        x2d, cells, where = x.reshape(x.shape[0], -1), self.cells[src], self.where[src]
        if cells.size > _WRITE_MAX_SHARE * where.size:
            out = np.take(x2d, where, axis=1)
        else:
            out = np.empty((x2d.shape[0], where.size), dtype=x.dtype)
            out[:] = x2d[:, :1]
            out[:, cells] = x2d[:, 1:1 + cells.size]
        return out.reshape((x.shape[0],) + self.shape)


def _active_cells(f_channel: np.ndarray, weights: WeightBundle):
    """The occupancy head's active sets, or the full grid when the largest
    would hold more than `_PACKED_MAX_SHARE` of it."""
    support = _has_input(f_channel, axis=0)
    limit = _PACKED_MAX_SHARE * support.size
    if np.count_nonzero(support) > limit:  # a dense frame pays for no dilation
        return _FullGrid()

    # f_channel and its channel stats are +0.0 off the support, as the padding is
    reduce = _reach(support, weights["prob.local.reduce"], padding_differs=False)
    global_ = _reach(support, weights["prob.global.conv"], padding_differs=False)
    # off their sets, res1's and res2's inputs are constants (the reduce's
    # bias, and what res1 makes of it), which the padding breaks at the edge
    res1 = _reach(reduce, weights["prob.local.res1"], padding_differs=True)
    # the add, the gate, `out`, the sigmoid and the clip run on res2's set
    out = _reach(res1, weights["prob.local.res2"], padding_differs=True) | global_
    if np.count_nonzero(out) > limit:
        return _FullGrid()
    return _ActiveCells(
        {"input": support, "reduce": reduce, "res1": res1, "global": global_, "out": out}
    )


def bev_probability(f_channel, weights: WeightBundle, cfg: ProbNetConfig) -> np.ndarray:
    """(1, ny, nx) occupancy probability, strictly inside (0, 1)."""
    if f_channel.shape[0] != cfg.channels:
        raise ShapeMismatch(f"{f_channel.shape[0]} channels, config expects {cfg.channels}")
    if f_channel.dtype != np.float32:
        raise ShapeMismatch(f"F_channel must be float32, got {f_channel.dtype}")
    # channel_stats' float32 mean sums in an order set by the memory layout
    f_channel = np.ascontiguousarray(f_channel)
    cells = _active_cells(f_channel, weights)
    x = cells.pack(f_channel)
    h = cells.conv(x, weights["prob.local.reduce"], "input", "reduce")
    t = relu(cells.conv(h, weights["prob.local.res1"], "reduce", "res1"))
    h = cells.move(h, "reduce", "out") + cells.conv(t, weights["prob.local.res2"], "res1", "out")
    gate = sigmoid(_bottleneck(global_avg_pool(cells.expand(h, "out")), weights, "prob.local.gate"))
    local_logits = conv2d(h * gate, weights["prob.local.out"])
    global_logits = cells.conv(channel_stats(x), weights["prob.global.conv"], "input", "global")
    p = sigmoid(local_logits + cells.move(global_logits, "global", "out"))
    return cells.expand(np.clip(p, _P_LO, _P_HI), "out")


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
    The frame is stacked once, and the heads start from the streams' supports.

    Ablation switches: `disable_mask` and `uniform_depth` as in
    `apply_ablations`, and `force_affinity` pins the fusion affinity to a
    constant (1.0 yields a pure lift-stream pipeline).
    """
    depths, masks = apply_ablations(depths, masks, disable_mask, uniform_depth)
    frame = stack_frame(feats, depths, masks, ht_table, lss_table)
    ny, nx = ht_table.ny, ht_table.nx
    support = np.zeros(ny * nx, dtype=bool)
    grids = []
    for apply, table in ((ht_apply, ht_table), (lss_apply, lss_table)):
        cells, sums = apply(frame, table, threads)
        support[cells] = True
        grids.append(support_grid(cells, sums, ny, nx))
    del frame, cells, sums  # only the grids live on through the heads
    f_ht, f_lss = grids
    return _finalize(f_lss, f_ht, support.reshape(ny, nx), weights, force_affinity)


def fuse_and_finalize(
    f_lss, f_ht, weights: WeightBundle, force_affinity: float | None = None
) -> PipelineResult:
    """The heads from the two stream grids, for front ends that make grids."""
    return _finalize(f_lss, f_ht, _stream_support(f_lss, f_ht), weights, force_affinity)


def _finalize(f_lss, f_ht, support, weights, force_affinity) -> PipelineResult:
    """The heads' one tail.  `support` holds every cell where a stream grid is
    not bit-for-bit +0.0; its other cells run as the background."""
    cfg = ProbNetConfig(f_ht.shape[0])  # a channel count the heads refuse fails first
    cells = _ActiveCells({"input": support})
    fused, affinity = _caf(cells, cells.pack(f_lss, f_ht), weights, force_affinity)
    f_channel = cells.expand(fused, "input")
    p = bev_probability(f_channel, weights, cfg)
    return PipelineResult(
        f_final=cells.expand(assemble_final(fused, cells.pack(p)), "input"),
        p_bev=p, f_ht=f_ht, f_lss=f_lss, f_channel=f_channel,
        affinity=cells.expand(affinity, "input"),
    )

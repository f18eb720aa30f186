"""Fusing the two BEV streams and predicting the occupancy probability.

The two stream features are blended by a channel-attention affinity
(convex combination per channel and position).  A small two-stream head
(local convolutional path plus a global mean/max spatial path) predicts
the per-cell occupancy probability, which multiplies the fused feature
exactly once to yield the final output.

Both heads compute only where the BEV has input, on one packed image
(``_ActiveCells``): its first flat columns are the *border image*, the
values of the cells off a set of cells, column ``n_border + k`` is the
set's k-th cell, and rows are ``nx`` wide, so ``conv2d`` keeps walking
row blocks of the grid's width.  A result is expanded to the grid only
for a global pool and once per output field.  The packed ``dgemm``
shapes are not the full grid's; the golden head digests, taken from
full-grid code on a masked and on a ``disable-M`` run, pin them as
giving the same bits (see ``dualvt.nnops`` for the arithmetic contract).

``heads`` is their one entry.  The fusion head packs both streams on
the *support* it is given, which ``run_pipeline`` takes from the scatter
(the cells with an entry of nonzero weight).  Its border image is one
column, the *background*: a support cell whose inputs are +0.0 computes
the background's bits, so any larger support gives the same bits.  Off
the support ``F_channel`` is +0.0, so the occupancy head is given the
same support, and ``P`` lies in (0, 1), so ``F = P * F_channel`` is
taken on the image too.

The occupancy head runs each layer's windows on its own *window set*,
the cells whose value can differ from the layer's background: its
input's set grown by the kernel's reach (`_active_cells`).  Off the
support, `res1`'s and `res2`'s inputs are constants that the zero
padding breaks near the grid's edge, so a value off its set depends only
on the cell's distance to each edge, up to the two layers' total reach
r.  Its border image is a grid of at most (2r + 1) x (2r + 1) cells, and
a cell off the set reads its *twin* there, the cell at the same distance
(0 to r) from each edge, whose window holds the same inputs.  A k x k
layer gathers its float32 windows at the border image's cells, over the
border image with zero padding, and at its window cells, through its
input's columns, and runs them through one ``conv2d`` call as a 1x1
layer with the kernel flattened in ``conv2d``'s ``(c_in, i, j)`` order,
so each output sums the full grid's products.  A gathered window costs
2-9x more per cell than ``conv2d``'s row-block slices, so the head packs
only while its largest window set is at most ``_PACKED_MAX_SHARE`` of
the grid (masked desk frames 1-3%, ``disable-M`` 95-98%).  The golden
digests pin both paths, and a packed frame whose reach meets the border.

An output that is +0.0 off its set (``F_channel``, ``F``) is expanded
into zeroed pages, which only its cells touch, and the affinity grid is
the CAF pool's, which nothing reads after the pool.
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
    one_blas_thread,
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


def default_weight_shapes(channels: int) -> dict:
    """Every layer of both heads.  The occupancy head has a local conv stream
    (3x3 reduce, residual block with a channel gate, 1x1 logit) and a global
    mean/max 7x7 stream.  The CAF head concatenates the streams, reduces them
    back to `channels` and squeezes its two bottlenecks.  The occupancy reduce
    and the CAF squeezes divide the channel count by 4, which must be exact."""
    if channels % 4:
        raise ConfigError("reduce ratio must divide the channel count")
    c, cr = channels, channels // 4
    cg = max(cr // 4, 1)
    return {
        "prob.local.reduce": (cr, c, 3, 3),
        "prob.local.res1": (cr, cr, 3, 3),
        "prob.local.res2": (cr, cr, 3, 3),
        "prob.local.gate.squeeze": (cg, cr, 1, 1),
        "prob.local.gate.expand": (cr, cg, 1, 1),
        "prob.local.out": (1, cr, 1, 1),
        "prob.global.conv": (1, 2, 7, 7),
        "caf.reduce": (c, 2 * c, 1, 1),
        "caf.local.squeeze": (cr, c, 1, 1),
        "caf.local.expand": (c, cr, 1, 1),
        "caf.global.squeeze": (cr, c, 1, 1),
        "caf.global.expand": (c, cr, 1, 1),
    }


def make_seeded_weights(seed: int, channels: int) -> WeightBundle:
    return WeightBundle.seeded(seed, default_weight_shapes(channels))


def _bottleneck(z: np.ndarray, weights: WeightBundle, prefix: str) -> np.ndarray:
    return conv2d(relu(conv2d(z, weights[f"{prefix}.squeeze"])), weights[f"{prefix}.expand"])


def caf_fuse(cells, packed, weights: WeightBundle, force_affinity: float | None):
    """The CAF head on the packed (2C, rows, nx) image, lift stream first: the packed
    fused feature and the affinity grid.  A forced affinity skips the head.  The
    fused background, ``a*0 + (1-a)*0``, is +0.0 for any affinity in [0, 1]."""
    c = packed.shape[0] // 2
    if force_affinity is None:
        z = conv2d(packed, weights["caf.reduce"])
        pooled = cells.expand(z, "input")
        logits = _bottleneck(z, weights, "caf.local")
        del z  # the pool's grid lives on as the affinity's, so free what can be
        logits += _bottleneck(global_avg_pool(pooled), weights, "caf.global")  # over columns
        affinity = sigmoid(logits)
        del logits
        grid = cells.expand(affinity, "input", out=pooled)  # the pool is done with it
    else:
        affinity = np.full((c,) + packed.shape[1:], force_affinity, dtype=np.float32)
        grid = cells.expand(affinity, "input")
    fused = affinity * packed[:c]
    fused += (1.0 - affinity) * packed[c:]  # float32 either way: the same rounding
    return fused, grid


def _radius(w: Conv2dWeights) -> tuple:
    """Layer `w`'s reach in rows and columns."""
    return w.kernel.shape[2] // 2, w.kernel.shape[3] // 2


def _reach(cells: np.ndarray, w: Conv2dWeights) -> np.ndarray:
    """The cells within layer `w`'s reach of `cells`: where its output can
    differ from its background when its input can only at `cells`."""
    ry, rx = _radius(w)
    ny, nx = cells.shape
    padded = np.pad(cells, ((ry, ry), (rx, rx)))
    rows = np.logical_or.reduce([padded[i:i + ny] for i in range(2 * ry + 1)])
    return np.logical_or.reduce([rows[:, j:j + nx] for j in range(2 * rx + 1)])


def _twin_axis(n: int, r: int) -> np.ndarray:
    """Each index of an n-cell axis onto its twin on the min(n, 2r + 1)-cell
    axis of the border image: the same distance to each edge, up to r."""
    if n <= 2 * r + 1:
        return np.arange(n)
    m = np.full(n, r)
    m[:r] = np.arange(r)
    m[n - r:] = np.arange(r + 1, 2 * r + 1)
    return m


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

    A value on set `name` is a (C, rows, nx) image.  Its first `n_border`
    flat columns are the *border image*, the values off the set on a grid
    of `border_shape` cells, each cell off the set reading its twin there
    (`_twin_axis` of `reach` on each axis); column ``n_border + k`` is
    ``cells[name][k]``, and the columns after those pad the last row.  At
    ``reach=(0, 0)`` the border image is one column, the background.
    """

    def __init__(self, sets: dict, reach: tuple = (0, 0)):
        self.shape = ny, nx = sets["input"].shape
        self.twin = _twin_axis(ny, reach[0]), _twin_axis(nx, reach[1])
        self.border_shape = min(ny, 2 * reach[0] + 1), min(nx, 2 * reach[1] + 1)
        self.n_border = int(np.prod(self.border_shape))
        twin_column = (self.twin[0][:, None] * self.border_shape[1] + self.twin[1]).ravel()
        self.cells, self.where = {}, {}
        for name, m in sets.items():
            self.cells[name] = np.flatnonzero(m)
            # each cell's column in the set's image: its twin's, or its own
            self.where[name] = twin_column.copy()
            self.where[name][self.cells[name]] = np.arange(self.cells[name].size) + self.n_border

    def _columns(self, name: str) -> int:
        """The image's flat columns for set `name`."""
        nx = self.shape[1]
        return -(-(self.n_border + self.cells[name].size) // nx) * nx

    def _take(self, x2d, idx):
        return np.take(x2d, idx, axis=1).reshape(-1, idx.shape[-1] // self.shape[1], self.shape[1])

    def pack(self, *grids):
        """The (C, ny, nx) `grids`, +0.0 off the input set, stacked by channel
        on the input set.  A grid row of cells at a time, by fancy index, reads
        cell-major memory in cache; `np.take` would copy a strided grid first."""
        cells, b, nx = self.cells["input"], self.n_border, self.shape[1]
        flat = [x.reshape(x.shape[0], -1) for x in grids]
        out = np.zeros((sum(map(len, flat)), self._columns("input")), dtype=flat[0].dtype)
        parts = np.split(out, np.cumsum([len(f) for f in flat])[:-1])
        for k in range(0, cells.size, nx):
            row = cells[k:k + nx]
            for part, f in zip(parts, flat):
                part[:, b + k:b + k + row.size] = f[:, row]
        return out.reshape(out.shape[0], -1, nx)

    def conv(self, x, w: Conv2dWeights, src: str, dst: str):
        """Layer `w` from set `src` to set `dst`, as one 1x1 layer on the
        gathered windows: the border image's over the border image, and
        `dst`'s cells' through `src`'s where map."""
        c_out, c_in, kh, kw = w.kernel.shape
        if len(x) != c_in:  # as conv2d would, before the windows hide the count
            raise ShapeMismatch(f"input has {len(x)} channels, kernel expects {c_in}")
        ry, rx = kh // 2, kw // 2
        b = self.n_border
        zero = b + self.cells[src].size  # the zero padding is one more column
        x2d = np.concatenate([x.reshape(c_in, -1)[:, :zero], np.zeros((c_in, 1), dtype=x.dtype)],
                             axis=1)
        di, dj = np.divmod(np.arange(kh * kw), kw)

        def windows(where, cells):  # each of `cells`' window columns, flat on `where`
            ys, xs = np.divmod(cells, where.shape[1])
            padded = np.pad(where, ((ry, ry), (rx, rx)), constant_values=zero)
            return padded[ys + di[:, None], xs + dj[:, None]]

        idx = np.zeros((kh * kw, self._columns(dst)), dtype=np.intp)
        idx[:, :b] = windows(np.arange(b).reshape(self.border_shape), np.arange(b))
        idx[:, b:b + self.cells[dst].size] = windows(self.where[src].reshape(self.shape),
                                                     self.cells[dst])
        gathered = self._take(x2d, idx)  # rows in conv2d's (c_in, i, j) order
        return conv2d(gathered, Conv2dWeights(w.kernel.reshape(c_out, -1, 1, 1), w.bias))

    def move(self, x, src: str, dst: str):
        """A value on set `src` onto the larger set `dst`, border image and all."""
        b = self.n_border
        idx = np.zeros(self._columns(dst), dtype=np.intp)
        idx[:b] = np.arange(b)
        idx[b:b + self.cells[dst].size] = self.where[src][self.cells[dst]]
        return self._take(x.reshape(x.shape[0], -1), idx)

    def expand(self, x, src: str, out=None):
        """A value on set `src` onto the whole grid, C-contiguous, written into
        `out` when given (a C-contiguous grid of that shape).  A set of at most
        `_WRITE_MAX_SHARE` of the grid writes its columns over the border image,
        taken along x and then along y; a fresh grid whose border image is
        bit-for-bit +0.0 starts as zeroed pages, so only the pages holding a
        cell are touched.  A larger set is one `np.take` through the where map."""
        x2d, cells, where = x.reshape(x.shape[0], -1), self.cells[src], self.where[src]
        c, b = x2d.shape[0], self.n_border
        grid = None if out is None else out.reshape((c,) + self.shape)
        # mode "raise" would write through a temporary copy of `out`
        if cells.size > _WRITE_MAX_SHARE * where.size:
            return np.take(x2d, where.reshape(self.shape), axis=1, out=grid, mode="clip")
        if grid is None and not np.ascontiguousarray(x2d[:, :b]).view(np.uint8).any():
            grid = np.zeros((c,) + self.shape, dtype=x.dtype)
        else:
            rows = np.take(x2d[:, :b].reshape((c,) + self.border_shape), self.twin[1], axis=2)
            grid = np.take(rows, self.twin[0], axis=1, out=grid, mode="clip")
        grid.reshape(c, -1)[:, cells] = x2d[:, b:b + cells.size]
        return grid


def _active_cells(support: np.ndarray, weights: WeightBundle):
    """The occupancy head's active sets, grown from the (ny, nx) `support`, or
    the full grid when the windows of one would cover more than
    `_PACKED_MAX_SHARE` of it."""
    limit = _PACKED_MAX_SHARE * support.size
    if np.count_nonzero(support) > limit:  # a dense frame pays for no dilation
        return _FullGrid()

    # f_channel and its channel stats are +0.0 off the support, as the padding is
    w1, w2 = weights["prob.local.res1"], weights["prob.local.res2"]
    reduce = _reach(support, weights["prob.local.reduce"])
    global_ = _reach(support, weights["prob.global.conv"])
    res1 = _reach(reduce, w1)
    # the add, the gate, `out`, the sigmoid and the clip run on res2's set
    out = _reach(res1, w2) | global_
    if np.count_nonzero(out) > limit:
        return _FullGrid()
    # off those sets, res1's and res2's inputs are constants (the reduce's
    # bias, and what res1 makes of it), which the zero padding breaks within
    # their reach of the edge: the border image holds them, each at its twin
    (y1, x1), (y2, x2) = _radius(w1), _radius(w2)
    return _ActiveCells(
        {"input": support, "reduce": reduce, "res1": res1, "global": global_, "out": out},
        reach=(y1 + y2, x1 + x2),
    )


def bev_probability(f_channel, weights: WeightBundle, support: np.ndarray) -> np.ndarray:
    """(1, ny, nx) occupancy probability, strictly inside (0, 1).

    `support` is an (ny, nx) bool mask, and `f_channel` must be bit-for-bit
    +0.0 at every cell off it.  Any larger support gives the same bits: a
    support cell whose input is +0.0 computes the background's.  The reduce
    refuses a channel count the weights do not take."""
    if f_channel.dtype != np.float32:
        raise ShapeMismatch(f"F_channel must be float32, got {f_channel.dtype}")
    if support.shape != f_channel.shape[1:]:
        raise ShapeMismatch(f"support shape {support.shape} does not match {f_channel.shape}")
    # channel_stats' float32 mean sums in an order set by the memory layout
    f_channel = np.ascontiguousarray(f_channel)
    cells = _active_cells(support, weights)
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
    return heads(f_lss, f_ht, support.reshape(ny, nx), weights, force_affinity)


def heads(f_lss, f_ht, support, weights: WeightBundle,
          force_affinity: float | None = None) -> PipelineResult:
    """Both heads on the (C, ny, nx) float32 stream grids, lift stream first.
    `support` is an (ny, nx) bool mask, and both grids must be bit-for-bit
    +0.0 at every cell off it; any larger support gives the same bits.  The
    checks read no grid data.  The BLAS runs one thread (`one_blas_thread`)."""
    if f_lss.shape != f_ht.shape:
        raise ShapeMismatch(f"stream shapes differ: {f_lss.shape} vs {f_ht.shape}")
    if f_lss.dtype != np.float32 or f_ht.dtype != np.float32:
        raise ShapeMismatch(f"streams must be float32, got {f_lss.dtype} and {f_ht.dtype}")
    if support.shape != f_lss.shape[1:]:
        raise ShapeMismatch(f"support shape {support.shape} does not match {f_lss.shape}")
    cells = _ActiveCells({"input": support})
    # the heads are called by module name, where perfbench's tracer wraps them
    with one_blas_thread():  # the heads' GEMMs run on the calling thread
        fused, affinity = caf_fuse(cells, cells.pack(f_lss, f_ht), weights, force_affinity)
        f_channel = cells.expand(fused, "input")
        p = bev_probability(f_channel, weights, support)
    return PipelineResult(
        f_final=cells.expand(assemble_final(fused, cells.pack(p)), "input"),
        p_bev=p, f_ht=f_ht, f_lss=f_lss, f_channel=f_channel, affinity=affinity,
    )

import itertools
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualvt.fusion
from conftest import exact_mean, exact_support
from dualvt.errors import ConfigError, ShapeMismatch
from dualvt.fusion import (
    _PACKED_MAX_SHARE,
    _WRITE_MAX_SHARE,
    _ActiveCells,
    _active_cells,
    _reach,
    assemble_final,
    bev_probability,
    caf_fuse,
    default_weight_shapes,
    heads,
    make_seeded_weights,
    run_pipeline,
)
from dualvt import nnops
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import ht_apply, ht_transform_fast, precompute_ht_table
from dualvt.lift_stream import lss_apply, lss_pool, precompute_lss_table
from dualvt.nnops import (
    Conv2dWeights,
    WeightBundle,
    conv2d,
    relu,
    sigmoid,
)
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, random_scene_spec
from dualvt.tables import stack_frame

C = 8
SHAPE = (C, 12, 10)


def streams(seed=0):
    rng = Rng(seed)
    return rng.uniform(SHAPE, -1.0, 1.0), rng.uniform(SHAPE, -1.0, 1.0)


# the support of `streams()`, which hold input at every cell
EVERYWHERE = np.ones(SHAPE[1:], dtype=bool)


def support_of(cells, ny, nx):
    """The (ny, nx) support of the flat `cells` that a test gave input."""
    support = np.zeros(ny * nx, dtype=bool)
    support[cells] = True
    return support.reshape(ny, nx)


def fuse(f_lss, f_ht, w, force_affinity=None, support=EVERYWHERE):
    """The (F_channel, affinity) grids of `heads`."""
    res = heads(f_lss, f_ht, support, w, force_affinity)
    return res.f_channel, res.affinity


def probability(f_channel, w, support):
    """`bev_probability` on the plan that `heads` builds from `support`."""
    return bev_probability(f_channel, w, _active_cells(support, w))


def weights(seed=11):
    return make_seeded_weights(seed, C)


def zero_weights():
    layers = {
        name: Conv2dWeights(
            kernel=np.zeros(shape, dtype=np.float32),
            bias=np.zeros(shape[0], dtype=np.float32),
        )
        for name, shape in default_weight_shapes(C).items()
    }
    return WeightBundle(layers)


class TestCafFuse:
    """The fusion head (`caf_fuse`), through `heads`."""

    def test_affinity_strictly_inside_unit_interval(self):
        f_lss, f_ht = streams()
        _, affinity = fuse(f_lss, f_ht, weights())
        assert np.all(affinity > 0.0)
        assert np.all(affinity < 1.0)

    def test_convex_combination_bounds(self):
        f_lss, f_ht = streams()
        fused, _ = fuse(f_lss, f_ht, weights())
        lo = np.minimum(f_lss, f_ht)
        hi = np.maximum(f_lss, f_ht)
        assert np.all(fused >= lo - 1e-6)
        assert np.all(fused <= hi + 1e-6)

    def test_equal_streams_are_fixed_point(self):
        f, _ = streams()
        fused, _ = fuse(f, f.copy(), weights())
        assert fused == pytest.approx(f, abs=1e-6)

    def test_zero_weights_give_even_blend(self):
        f_lss, f_ht = streams()
        fused, affinity = fuse(f_lss, f_ht, zero_weights())
        assert np.all(affinity == 0.5)
        assert fused == pytest.approx(0.5 * (f_lss + f_ht), abs=1e-6)

    def test_swap_symmetry_at_even_blend(self):
        f_lss, f_ht = streams()
        a, _ = fuse(f_lss, f_ht, zero_weights())
        b, _ = fuse(f_ht, f_lss, zero_weights())
        assert a == pytest.approx(b, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        f_lss, f_ht = streams()
        with pytest.raises(ShapeMismatch):
            fuse(f_lss[:, :5], f_ht, weights())

    def test_streams_must_be_float32(self):
        """`heads` refuses either stream, before the packing would cast a
        float64 height stream to the lift stream's float32 unnoticed."""
        f_lss, f_ht = streams()
        with pytest.raises(ShapeMismatch, match="streams must be float32"):
            fuse(f_lss.astype(np.float64), f_ht, weights())
        with pytest.raises(ShapeMismatch, match="streams must be float32"):
            fuse(f_lss, f_ht.astype(np.float64), weights())

    def test_support_must_match_the_grid(self):
        f_lss, f_ht = streams()
        with pytest.raises(ShapeMismatch, match="support shape"):
            heads(f_lss, f_ht, EVERYWHERE[:, :-1], weights())


def grid_pool(x):
    """(C, 1, 1): the exact mean of each channel of a (C, ny, nx) grid, rounded once."""
    return exact_mean(x.reshape(x.shape[0], -1))[:, None, None]


def grid_stats(x):
    """(2, ny, nx): each cell's exact mean over channels, rounded once, and its max."""
    mean = exact_mean(x.reshape(x.shape[0], -1).T).reshape(x.shape[1:])
    return np.stack([mean, x.max(axis=0)])


def full_grid_caf(f_lss, f_ht, w, force_affinity=None):
    """Reference: the CAF head with every layer on every cell of the grid, and
    its pool the exact mean."""
    def bottleneck(x, prefix):
        return conv2d(relu(conv2d(x, w[f"{prefix}.squeeze"])), w[f"{prefix}.expand"])

    if force_affinity is None:
        z = conv2d(np.concatenate([f_lss, f_ht], axis=0), w["caf.reduce"])
        affinity = sigmoid(bottleneck(z, "caf.local") + bottleneck(grid_pool(z), "caf.global"))
    else:
        affinity = np.full(f_lss.shape, force_affinity, dtype=np.float32)
    fused = affinity * f_lss + (1.0 - affinity) * f_ht
    return fused.astype(np.float32), affinity


def support_cells(kind, n_cells, nx, seed):
    """Flat indices of the cells that get an input, for one support kind."""
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "one":
        return np.array([seed % n_cells])
    if kind == "full":
        return np.arange(n_cells)
    if kind == "row":  # with the background column, exactly one packed row
        return np.sort(np.argsort(Rng(seed).uniform((n_cells,)))[: nx - 1])
    return np.flatnonzero(Rng(seed).uniform((n_cells,)) < 0.4)


def cell_major_streams(ny, nx, cells, seed, neg_zero_cell):
    """Two (C, ny, nx) streams laid out as the stream transforms return them:
    channel-major views of (ny*nx, C) cell-major memory.  Inputs on
    `cells` only; a quarter of those entries are -0.0, and with
    `neg_zero_cell` the first cell holds -0.0 in every channel of both."""
    rng = Rng(seed)
    out = []
    for _ in range(2):
        rows = np.zeros((ny * nx, C), dtype=np.float32)
        if len(cells):
            vals = rng.uniform((len(cells), C), -1.0, 1.0)
            vals[rng.uniform((len(cells), C)) < 0.25] = -0.0
            rows[cells] = vals
            if neg_zero_cell:
                rows[cells[0]] = -0.0
        out.append(rows.T.reshape(C, ny, nx))
    return out


class TestCafPacking:
    """`caf_fuse` runs its per-position layers on the support that `heads`
    is given plus one background column; the full-grid formula is the
    oracle, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        ny=st.integers(1, 6), nx=st.integers(1, 9),
        kind=st.sampled_from(["empty", "one", "full", "row", "random"]),
        seed=st.integers(0, 2**16), neg_zero_cell=st.booleans(),
        contiguous=st.booleans(), force=st.sampled_from([None, 0.0, 0.3, 1.0]),
    )
    @example(ny=3, nx=5, kind="row", seed=1, neg_zero_cell=True, contiguous=False, force=None)
    @example(ny=3, nx=5, kind="random", seed=2, neg_zero_cell=True, contiguous=False, force=None)
    @example(ny=3, nx=5, kind="random", seed=2, neg_zero_cell=True, contiguous=False, force=0.0)
    @example(ny=3, nx=5, kind="random", seed=2, neg_zero_cell=True, contiguous=False, force=1.0)
    @example(ny=2, nx=4, kind="one", seed=5, neg_zero_cell=True, contiguous=True, force=0.3)
    @example(ny=4, nx=4, kind="full", seed=3, neg_zero_cell=False, contiguous=False, force=None)
    @example(ny=4, nx=4, kind="empty", seed=3, neg_zero_cell=False, contiguous=True, force=None)
    def test_bitwise_equal_to_full_grid(
        self, ny, nx, kind, seed, neg_zero_cell, contiguous, force
    ):
        cells = support_cells(kind, ny * nx, nx, seed)
        f_lss, f_ht = cell_major_streams(ny, nx, cells, seed + 1, neg_zero_cell)
        if contiguous:
            f_lss, f_ht = np.ascontiguousarray(f_lss), np.ascontiguousarray(f_ht)
        w = make_seeded_weights(seed % 4, C)
        fused, affinity = fuse(f_lss, f_ht, w, force, support_of(cells, ny, nx))
        ref_fused, ref_affinity = full_grid_caf(f_lss, f_ht, w, force)
        for got, ref in ((fused, ref_fused), (affinity, ref_affinity)):
            assert got.shape == ref.shape and got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_negative_zero_cell_is_support(self):
        """A cell holding -0.0 in both streams blends to -0.0, not to the
        background's +0.0."""
        f_lss, f_ht = cell_major_streams(3, 4, np.array([5]), 0, neg_zero_cell=True)
        fused, _ = fuse(f_lss, f_ht, weights(), support=support_of([5], 3, 4))
        assert np.all(np.signbit(fused[:, 1, 1]))
        assert not np.any(np.signbit(np.delete(fused.reshape(C, -1), 5, axis=1)))


def packer_grid(c, ny, nx, seed, cell_major):
    """A (c, ny, nx) float32 grid in which a quarter of the entries are
    -0.0 and an eighth are NaNs of two payloads, C-contiguous or as a
    view of (ny*nx, c) cell-major memory, as the streams return it."""
    rng = Rng(seed)
    bits = rng.uniform((ny * nx, c), -1.0, 1.0).view(np.uint32)
    draw = rng.uniform((ny * nx, c))
    bits[draw < 0.25] = 0x80000000
    bits[(draw >= 0.25) & (draw < 0.3125)] = 0x7FC00001
    bits[(draw >= 0.3125) & (draw < 0.375)] = 0xFFC12345
    grid = bits.view(np.float32).T.reshape(c, ny, nx)
    return grid if cell_major else np.ascontiguousarray(grid)


class TestActiveCellsPack:
    """`_ActiveCells.pack`, the one packer of both heads, bit for bit
    against the packed image written out cell by cell: the grids'
    channels stacked in order, column 0 the one-column border image
    (+0.0), cell k of the input set in column 1 + k, and `nx`-wide rows up
    to the last one that holds a cell."""

    NY, NX = 4, 7

    @staticmethod
    def reference(mask, *grids):
        nx = mask.shape[1]
        stacked = np.concatenate([g.reshape(g.shape[0], -1) for g in grids])
        cells = np.flatnonzero(mask)
        rows = cells.size // nx + 1
        out = np.zeros((stacked.shape[0], rows * nx), dtype=np.float32)
        for k, cell in enumerate(cells):
            out[:, 1 + k] = stacked[:, cell]
        return out.reshape(stacked.shape[0], rows, nx)

    @pytest.mark.parametrize("n", [0, 1, NX - 1, NX, 2 * NX - 1, NY * NX],
                             ids=["empty", "one", "nx-1", "nx", "2nx-1", "full"])
    @pytest.mark.parametrize("cell_major", [(False, False), (True, True), (False, True),
                                            (True, False)],
                             ids=["contiguous", "cell-major", "mixed", "mixed-swapped"])
    def test_bitwise_equal_to_cell_by_cell_reference(self, n, cell_major):
        ny, nx = self.NY, self.NX
        mask = np.zeros(ny * nx, dtype=bool)
        mask[np.argsort(Rng(n).uniform((ny * nx,)))[:n]] = True
        mask = mask.reshape(ny, nx)
        # channel counts that differ, so each grid's rows land apart; the
        # grids hold values off the set too, which the image must leave out
        a, b = (packer_grid(c, ny, nx, c, cm) for c, cm in zip((3, 5), cell_major))
        got = _ActiveCells({"input": mask}).pack(a, b)
        ref = self.reference(mask, a, b)
        assert got.shape == ref.shape and got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def twin_reference(n, r):
    """Each index of an n-cell axis onto the index of a min(n, 2r + 1)-cell
    axis at the same distance to each edge, counted up to r, by search."""
    m = min(n, 2 * r + 1)

    def distances(i, n):
        return min(i, r), min(n - 1 - i, r)

    return np.array([next(j for j in range(m) if distances(j, m) == distances(i, n))
                     for i in range(n)])


def expand_case(shape, reach, size, background):
    """(cells, x, the expanded reference, mask): a 3-channel value on an input
    set of `size` cells of a `shape` grid at `reach`, its border image all
    `background` or, for a "value" background, columns that all differ."""
    ny, nx = shape
    write_max = int(_WRITE_MAX_SHARE * ny * nx)
    n = {"empty": 0, "one": 1, "write-max": write_max, "take-min": write_max + 1,
         "full": ny * nx}[size]
    mask = np.zeros(ny * nx, dtype=bool)
    mask[np.argsort(Rng(n).uniform((ny * nx,)))[:n]] = True
    cells = _ActiveCells({"input": mask.reshape(ny, nx)}, reach)
    ty, tx = twin_reference(ny, reach[0]), twin_reference(nx, reach[1])
    b = (ty.max() + 1) * (tx.max() + 1)
    x = packer_grid(3, -(-(b + n) // nx), nx, n, cell_major=False)
    border = np.full(b, background, dtype=np.float32)
    if background:  # every column of the border image differs
        border += np.arange(b)
    x.reshape(3, -1)[:, :b] = border
    ref = x.reshape(3, -1)[:, (ty[:, None] * (tx.max() + 1) + tx).ravel()]
    ref[:, np.flatnonzero(mask)] = x.reshape(3, -1)[:, b:b + n]
    return cells, x, ref.reshape(3, ny, nx), mask


SIZES = ["empty", "one", "write-max", "take-min", "full"]
BACKGROUNDS = pytest.mark.parametrize("background", [0.0, -0.0, 0.75],
                                      ids=["positive-zero", "negative-zero", "value"])


class TestActiveCellsExpand:
    """`_ActiveCells.expand` writes a value into a fresh grid in one of three
    layouts.  A set of at most `_WRITE_MAX_SHARE` of the grid whose border
    image is bit-for-bit +0.0 is written by `support_grid`, cell-major; one
    whose border image is one column has it broadcast and its columns
    written over it, C-contiguous.  Every other value is one `np.take`
    through the where map, C-contiguous.  Every cell off the set reads its
    twin's column of the border image: the cell at the same distance to
    each edge, up to the reach."""

    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_twin_axis_matches_the_distance_search(self, n, r):
        assert np.array_equal(dualvt.fusion._twin_axis(n, r), twin_reference(n, r))

    @pytest.mark.parametrize("size", SIZES)
    @BACKGROUNDS
    def test_expand_gives_cells_their_twins(self, size, background):
        """On 8x8 and 4x12 grids at reach (0, 0), a one-column border image
        that is broadcast, and at (2, 2)."""
        for shape, reach in itertools.product([(8, 8), (4, 12)], [(0, 0), (2, 2)]):
            cells, x, ref, _ = expand_case(shape, reach, size, background)
            grid = cells.expand(x, "input")
            zeros = size in SIZES[:3] and background == 0 and not np.signbit(background)
            memory = grid.transpose(1, 2, 0) if zeros else grid  # (ny, nx, C) if cell-major
            assert grid.shape == ref.shape and memory.flags.c_contiguous
            assert np.array_equal(grid.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("shape", [(8, 8), (4, 12)], ids=["8x8", "4x12"])
    def test_move_keeps_the_border_image(self, shape):
        """`move` onto a larger set keeps the border image's columns, and
        the larger set's new cells read their twins: the grid is the same."""
        ny, nx = shape
        small = np.zeros((ny, nx), dtype=bool)
        small[1, 2] = small[ny - 1, nx - 3] = True
        large = near(np.flatnonzero(small), ny, nx, 1)
        cells = _ActiveCells({"input": small, "large": large}, reach=(2, 2))
        b = cells.n_border
        x = packer_grid(3, -(-(b + 2) // nx), nx, 0, cell_major=False)
        x.reshape(3, -1)[:, :b] = 0.75 + np.arange(b)
        moved = cells.move(x, "input", "large")
        assert np.array_equal(moved.reshape(3, -1)[:, :b], x.reshape(3, -1)[:, :b])
        before, after = cells.expand(x, "input"), cells.expand(moved, "large")
        assert np.array_equal(after.view(np.uint32), before.view(np.uint32))


def cell_major(grid):
    """A (C, ny, nx) grid as a channel-major view of (ny*nx, C) memory."""
    c = grid.shape[0]
    return np.ascontiguousarray(grid.reshape(c, -1).T).T.reshape(grid.shape)


class TestPools:
    """Both heads' global pools read a value's packed image, each border-image
    column weighing its twin count, or a full grid: either gives the exact
    mean of the expanded grid, rounded once (`conftest.exact_mean`)."""

    @pytest.mark.parametrize("size", SIZES)
    @BACKGROUNDS
    def test_pool_is_the_exact_mean_of_the_grid(self, size, background):
        """On 8x8, 4x12 and 7x9 grids (63 cells) at reach (0, 0) and (2, 2):
        the packed pool, and `_FullGrid`'s on the expanded grid, C-contiguous
        and cell-major.  NaNs of the drawn values are +0.0 here."""
        for shape, reach in itertools.product([(8, 8), (4, 12), (7, 9)], [(0, 0), (2, 2)]):
            cells, x, ref, _ = expand_case(shape, reach, size, background)
            x, ref = (np.where(np.isnan(a), np.float32(0.0), a) for a in (x, ref))
            want = exact_mean(ref.reshape(3, -1))
            full = dualvt.fusion._FullGrid(shape)
            for got in (cells.pool(x, "input"), full.pool(ref, "input"),
                        full.pool(cell_major(ref), "input")):
                assert got.shape == (3, 1, 1) and got.dtype == np.float32
                assert np.array_equal(got.ravel().view(np.uint32), want.view(np.uint32))

    def test_tied_pool_takes_the_exact_sum(self, monkeypatch):
        """A 6x10 grid whose set is half its cells, each holding the float32
        above the one-column border image: each channel's mean over 60 cells
        is a midpoint, which the packed pool rounds to even, exactly."""
        exact, summed = [], nnops._exact_means

        def counted(x, *args):
            exact.append(len(x))
            return summed(x, *args)

        monkeypatch.setattr(nnops, "_exact_means", counted)
        mask = np.zeros(60, dtype=bool)
        mask[::2] = True
        cells = _ActiveCells({"input": mask.reshape(6, 10)})
        below = np.array([1.0, -0.3, 5e-39], dtype=np.float32)
        x = np.repeat(np.nextafter(below, np.float32(np.inf))[:, None], 40, axis=1)
        x[:, 0] = below
        got = cells.pool(x.reshape(3, 4, 10), "input").ravel()
        want = exact_mean(cells.expand(x.reshape(3, 4, 10), "input").reshape(3, -1))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.all(want.view(np.uint32) % 2 == 0) and exact == [3]


def full_grid_probability(f, w):
    """Reference: the occupancy head with every layer on every cell of the grid,
    and its means exact."""
    def bottleneck(x, prefix):
        return conv2d(relu(conv2d(x, w[f"{prefix}.squeeze"])), w[f"{prefix}.expand"])

    h = conv2d(f, w["prob.local.reduce"])
    h = h + conv2d(relu(conv2d(h, w["prob.local.res1"])), w["prob.local.res2"])
    gate = sigmoid(bottleneck(grid_pool(h), "prob.local.gate"))
    logits = conv2d(h * gate, w["prob.local.out"]) + conv2d(grid_stats(f), w["prob.global.conv"])
    return np.clip(sigmoid(logits), np.float32(1e-7), np.nextafter(np.float32(1), np.float32(0)))


def near(cells, ny, nx, r):
    """Mask of the cells within `r` rows and columns of a cell in `cells`."""
    yy, xx = np.mgrid[:ny, :nx]
    out = np.zeros((ny, nx), dtype=bool)
    for cell in cells:
        y, x = divmod(int(cell), nx)
        out |= (np.abs(yy - y) <= r) & (np.abs(xx - x) <= r)
    return out


def cut_straddle(ny, nx, seed):
    """Two supports, one cell apart, whose largest window set (3 cells
    around the support) is just within and just beyond the share of the
    grid the occupancy head packs."""
    order = np.argsort(Rng(seed).uniform((ny * nx,)))
    covered = np.zeros((ny, nx), dtype=bool)
    for k, cell in enumerate(order):
        covered |= near([cell], ny, nx, 3)
        if np.count_nonzero(covered) > _PACKED_MAX_SHARE * ny * nx:
            return np.sort(order[:k]), np.sort(order[:k + 1])
    raise AssertionError("the whole grid is within the cut")


def prob_support(kind, ny, nx, seed):
    """Flat indices of the cells that get an input, for one support kind."""
    rng = Rng(seed)
    if kind == "corner":
        y, x = [(0, 0), (0, nx - 1), (ny - 1, 0), (ny - 1, nx - 1)][seed % 4]
        return np.array([y * nx + x])
    if kind == "edges":  # one cell at the same distance 0-4 from each edge
        d = seed % 5
        y, x = (int(v) for v in rng.uniform((2,)) * [ny, nx])
        cells = [(d, x), (ny - 1 - d, x), (y, d), (y, nx - 1 - d)]
        return np.unique([cy * nx + cx for cy, cx in cells])
    if kind == "clusters":
        centres = (rng.uniform((3, 2)) * [ny, nx]).astype(int)
        offsets = (rng.uniform((3, 6, 2)) * 5).astype(int) - 2
        cells = np.clip(centres[:, None] + offsets, 0, [ny - 1, nx - 1]).reshape(-1, 2)
        return np.unique(cells[:, 0] * nx + cells[:, 1])
    if kind in ("under_cut", "over_cut"):
        return cut_straddle(ny, nx, seed)[kind == "over_cut"]
    return support_cells(kind, ny * nx, nx, seed)


class TestProbPacking:
    """The occupancy head runs each layer on its active cells plus the
    border image while they are few; the full-grid formula is the
    oracle for P, bit for bit, and for the fused feature it is given."""

    @settings(max_examples=60, deadline=None)
    @given(
        ny=st.integers(24, 44), nx=st.integers(24, 44),
        kind=st.sampled_from(["empty", "one", "corner", "edges", "clusters", "full",
                              "under_cut", "over_cut"]),
        seed=st.integers(0, 2**16), neg_zero_cell=st.booleans(),
    )
    @example(ny=40, nx=36, kind="edges", seed=0, neg_zero_cell=False)
    @example(ny=40, nx=36, kind="edges", seed=1, neg_zero_cell=False)
    @example(ny=40, nx=36, kind="edges", seed=2, neg_zero_cell=False)
    @example(ny=40, nx=36, kind="edges", seed=3, neg_zero_cell=False)
    @example(ny=40, nx=36, kind="edges", seed=4, neg_zero_cell=True)
    @example(ny=33, nx=41, kind="corner", seed=0, neg_zero_cell=True)
    @example(ny=33, nx=41, kind="corner", seed=1, neg_zero_cell=False)
    @example(ny=33, nx=41, kind="corner", seed=2, neg_zero_cell=False)
    @example(ny=33, nx=41, kind="corner", seed=3, neg_zero_cell=False)
    @example(ny=36, nx=36, kind="under_cut", seed=5, neg_zero_cell=True)
    @example(ny=36, nx=36, kind="over_cut", seed=5, neg_zero_cell=True)
    @example(ny=32, nx=40, kind="one", seed=7, neg_zero_cell=True)
    @example(ny=32, nx=40, kind="empty", seed=7, neg_zero_cell=False)
    @example(ny=30, nx=30, kind="full", seed=7, neg_zero_cell=True)
    def test_bitwise_equal_to_full_grid(self, ny, nx, kind, seed, neg_zero_cell):
        cells = prob_support(kind, ny, nx, seed)
        f_lss, f_ht = cell_major_streams(ny, nx, cells, seed + 1, neg_zero_cell)
        w = make_seeded_weights(seed % 4, C)
        res = heads(f_lss, f_ht, support_of(cells, ny, nx), w)
        ref_fused, _ = full_grid_caf(f_lss, f_ht, w)
        ref_p = full_grid_probability(ref_fused, w)
        for got, ref in ((res.f_channel, ref_fused), (res.p_bev, ref_p)):
            assert got.shape == ref.shape and got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def placed_cell(place, d, ny, nx, along):
    """The flat cell `d` cells from edge `place` (at fraction `along` of the
    way along it) or from both edges of corner `place`, on the grid."""
    y = {"top": d, "bottom": ny - 1 - d}.get(place, int(along * ny))
    x = {"left": d, "right": nx - 1 - d}.get(place, int(along * nx))
    if len(place) == 2:  # a corner: top or bottom, then left or right
        y = d if place[0] == "t" else ny - 1 - d
        x = d if place[1] == "l" else nx - 1 - d
    return min(max(y, 0), ny - 1) * nx + min(max(x, 0), nx - 1)


PLACES = ["top", "bottom", "left", "right", "tl", "tr", "bl", "br"]


def dilation(mask, ry, rx):
    """Mask of the cells within `ry` rows and `rx` columns of a cell of `mask`."""
    out = np.zeros_like(mask)
    for y, x in zip(*np.nonzero(mask)):
        out[max(y - ry, 0):y + ry + 1, max(x - rx, 0):x + rx + 1] = True
    return out


class TestReach:
    """`_reach` pads the cells with +0.0 and ORs the kernel's shifts; at every
    edge and corner, up to a kernel taller or wider than the grid, it is the
    plain dilation."""

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (7, 7), (3, 5), (5, 1)])
    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("ny, nx", [(9, 11), (2, 13)])
    def test_matches_dilation_at_edges_and_corners(self, kernel, place, d, ny, nx):
        w = Conv2dWeights(kernel=np.zeros((1, 1) + kernel, dtype=np.float32),
                          bias=np.zeros(1, dtype=np.float32))
        one = support_of([placed_cell(place, d, ny, nx, 0.5)], ny, nx)
        every = support_of([placed_cell(p, d, ny, nx, 0.5) for p in PLACES], ny, nx)
        for cells in (one, every):
            got = _reach(cells, w)
            assert got.dtype == bool and got.shape == (ny, nx)
            assert np.array_equal(got, dilation(cells, kernel[0] // 2, kernel[1] // 2))


class TestBorderBackground:
    """On a packed frame every cell off a layer's window set reads its twin
    in the border image, whose own windows run over the border image.  A
    support at each distance 0-5 from each edge and corner meets the
    border at every offset.  The head packs, and P and F_channel stay the
    full-grid formula's, bit for bit."""

    @staticmethod
    def check_packed(ny, nx, cells, seed):
        support = support_of(cells, ny, nx)
        w = make_seeded_weights(seed % 4, C)
        assert isinstance(dualvt.fusion._active_cells(support, w), _ActiveCells)
        f_lss, f_ht = cell_major_streams(ny, nx, cells, seed, neg_zero_cell=False)
        res = heads(f_lss, f_ht, support, w)
        ref_fused, _ = full_grid_caf(f_lss, f_ht, w)
        ref_p = full_grid_probability(ref_fused, w)
        for got, ref in ((res.f_channel, ref_fused), (res.p_bev, ref_p)):
            assert got.shape == ref.shape and got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("d", range(6))
    @settings(max_examples=3, deadline=None)
    @given(
        ny=st.one_of(st.just(16), st.integers(17, 48)),
        nx=st.one_of(st.just(16), st.integers(17, 48)),
        along=st.floats(0, 0.999), pair=st.booleans(), seed=st.integers(0, 2**16),
    )
    @example(ny=16, nx=48, along=0.5, pair=True, seed=0)
    @example(ny=37, nx=16, along=0.0, pair=False, seed=1)
    def test_bitwise_equal_to_full_grid(self, place, d, ny, nx, along, pair, seed):
        cell = placed_cell(place, d, ny, nx, along)
        # with `pair`, the next cell along the row too, if it is on the grid
        cells = np.unique([cell, cell + 1]) if pair and (cell + 1) % nx else np.array([cell])
        self.check_packed(ny, nx, cells, seed)

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("d", range(6))
    @settings(max_examples=2, deadline=None)
    @given(
        short=st.integers(1, 6), long=st.integers(28, 64), wide=st.booleans(),
        along=st.floats(0, 0.999), pair=st.booleans(), seed=st.integers(0, 2**16),
    )
    @example(short=1, long=28, wide=True, along=0.5, pair=False, seed=0)
    @example(short=6, long=28, wide=False, along=0.0, pair=True, seed=1)
    def test_thin_grid_bitwise_equal_to_full_grid(self, place, d, short, long, wide,
                                                  along, pair, seed):
        """One axis of 1-6 cells, on which every cell is its own twin, and
        the other of 28-64.  The windows span the short axis and 7 cells of
        the long one, at most a quarter of the grid, so the head packs."""
        ny, nx = (short, long) if wide else (long, short)
        cell = placed_cell(place, d, ny, nx, along)
        # with `pair`, the next cell across the short axis too, if it is on the grid
        y, x = divmod(cell, nx)
        y, x = (y + 1, x) if wide else (y, x + 1)
        cells = [cell, y * nx + x] if pair and y < ny and x < nx else [cell]
        self.check_packed(ny, nx, np.array(cells), seed)


def fused_frame(kind):
    """(F_channel, weights) of a masked scene, of the border streams, or of
    seeded streams just within or just beyond the packing cut."""
    w = weights()
    if kind == "masked":
        from conftest import small_scene

        bundle, heights = small_scene(0)
        ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        return run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w).f_channel, w
    if kind == "border":
        from test_golden import border_streams

        f_lss, f_ht, support = border_streams()
    else:
        cells = cut_straddle(40, 40, 3)[kind == "over_cut"]
        f_lss, f_ht = cell_major_streams(40, 40, cells, 4, neg_zero_cell=False)
        support = support_of(cells, 40, 40)
    return fuse(f_lss, f_ht, w, support=support)[0], w


class TestProbConvAccounting:
    """The benchmark counts the heads' convolutions by wrapping
    `fusion.conv2d`: every occupancy-head layer goes through it once, a
    k x k layer on the border image and its window set as a 1x1 layer of
    their gathered windows.  The border image is the min(ny, 5) x
    min(nx, 5) cells of `res1` then `res2`'s total reach."""

    @pytest.mark.parametrize("kind", ["masked", "border", "under_cut", "over_cut"])
    def test_each_layer_computes_its_active_set(self, monkeypatch, kind):
        f, w = fused_frame(kind)
        c, ny, nx = f.shape
        calls = {}

        def counted(x, layer, workers=None):
            for name, ref in w.layers.items():
                if (ref.kernel.size == layer.kernel.size and np.array_equal(
                        ref.kernel.ravel(), layer.kernel.ravel())):
                    calls.setdefault(name, []).append(
                        (x.shape[0], x.shape[1] * x.shape[2], layer.kernel.shape[2:]))
            return conv2d(x, layer, workers)

        monkeypatch.setattr(dualvt.fusion, "conv2d", counted)
        p = probability(f, w, exact_support(f))
        assert np.array_equal(p.view(np.uint32), full_grid_probability(f, w).view(np.uint32))

        support = np.flatnonzero(exact_support(f))
        windows = {
            "prob.local.reduce": near(support, ny, nx, 1),
            "prob.local.res1": near(support, ny, nx, 2),
            "prob.local.res2": near(support, ny, nx, 3),
            "prob.global.conv": near(support, ny, nx, 3),
        }
        # the 1x1 `out` runs on res2's set
        columns = dict(windows, **{"prob.local.out": windows["prob.local.res2"]})
        packed = np.count_nonzero(windows["prob.local.res2"]) <= _PACKED_MAX_SHARE * ny * nx
        assert packed == (kind != "over_cut")
        n_border = min(ny, 5) * min(nx, 5)
        expected = {}
        for name, shape in default_weight_shapes(c).items():
            if not name.startswith("prob."):
                continue
            c_out, c_in, kh, kw = shape
            if name not in columns:  # the gate, on the pooled (C, 1, 1) feature
                expected[name] = [(c_in, 1, (kh, kw))]
            elif packed:
                rows = -(-(n_border + np.count_nonzero(columns[name])) // nx)
                expected[name] = [(c_in * kh * kw, rows * nx, (1, 1))]
            else:
                expected[name] = [(c_in, ny * nx, (kh, kw))]
        assert calls == expected


class TestBevProbability:
    def test_strictly_open_interval(self):
        f, _ = streams()
        p = probability(f, weights(), exact_support(f))
        assert p.shape == (1,) + SHAPE[1:]
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)

    def test_saturation_is_clamped_inside(self):
        """Huge logits would saturate float32 sigmoid to exactly 1; the clamp
        keeps the value strictly below 1 and above 0."""
        w = zero_weights()
        w.layers["prob.local.out"] = Conv2dWeights(
            kernel=np.zeros((1, C // 4, 1, 1), dtype=np.float32),
            bias=np.array([100.0], dtype=np.float32),
        )
        f, _ = streams()
        p = probability(f, w, exact_support(f))
        assert np.all(p < 1.0)
        assert p == pytest.approx(np.ones_like(p), abs=1e-6)
        w.layers["prob.local.out"] = Conv2dWeights(
            kernel=np.zeros((1, C // 4, 1, 1), dtype=np.float32),
            bias=np.array([-100.0], dtype=np.float32),
        )
        p = probability(f, w, exact_support(f))
        assert np.all(p > 0.0)
        assert p == pytest.approx(np.zeros_like(p), abs=1e-6)

    def test_zero_weights_give_half(self):
        f, _ = streams()
        p = probability(f, zero_weights(), exact_support(f))
        assert np.all(p == 0.5)

    def test_input_must_be_float32(self):
        f, _ = streams()
        with pytest.raises(ShapeMismatch, match="float32"):
            probability(f.astype(np.float64), weights(), exact_support(f))

    def test_support_must_match_the_grid(self):
        f, _ = streams()
        with pytest.raises(ShapeMismatch, match="support shape"):
            probability(f, weights(), exact_support(f)[:, :-1])

    @pytest.mark.parametrize("kind", ["masked", "over_cut"])
    def test_reduce_refuses_another_channel_count(self, kind):
        """The reduce is the channel check, with one message packed ("masked")
        and on the full grid ("over_cut")."""
        f, _ = fused_frame(kind)
        f12 = np.concatenate([f, f[:4]])
        with pytest.raises(ShapeMismatch, match="input has 12 channels, kernel expects 8"):
            probability(f12, weights(), exact_support(f12))

    @pytest.mark.parametrize("kind", ["masked", "over_cut"])
    def test_any_larger_support_gives_the_same_bits(self, kind):
        """`f_channel` is +0.0 off the support it is given.  Its exact support,
        that support with random extra cells, and the whole grid give the
        same P bits, packed ("masked") and on the full grid ("over_cut").
        The extra cells lie next to the support, so the masked frame stays
        within the share of the grid that the head packs."""
        f, w = fused_frame(kind)
        exact = exact_support(f)
        ring = np.flatnonzero(near(np.flatnonzero(exact), *exact.shape, 1) & ~exact)
        extra = exact.copy()
        extra.flat[ring[Rng(0).integers((3,), ring.size)]] = True
        assert np.count_nonzero(extra) > np.count_nonzero(exact)
        ref = probability(f, w, exact)
        for support in (exact, extra, np.ones_like(exact)):
            packed = isinstance(dualvt.fusion._active_cells(support, w), _ActiveCells)
            assert packed == (kind == "masked" and not support.all())
            p = probability(f, w, support)
            assert np.array_equal(p.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("kind", ["one", "full"])
    def test_memory_layout_does_not_change_bits(self, kind):
        """A cell-major view of F_channel, as the streams lay theirs out,
        gives the bits of its C-contiguous copy, packed or on the full grid."""
        cells = prob_support(kind, 32, 32, 1)
        f, _ = cell_major_streams(32, 32, cells, 2, neg_zero_cell=False)
        a = probability(f, weights(), exact_support(f))
        b = probability(np.ascontiguousarray(f), weights(), exact_support(f))
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_determinism(self):
        f, _ = streams()
        a = probability(f, weights(), exact_support(f))
        b = probability(f, weights(), exact_support(f))
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestAssembleFinal:
    def test_probability_applied_once(self):
        f, _ = streams()
        p = np.full((1,) + SHAPE[1:], 0.25, dtype=np.float32)
        out = assemble_final(f, p)
        assert out == pytest.approx(0.25 * f, abs=1e-7)

    def test_shape_guard(self):
        f, _ = streams()
        with pytest.raises(ShapeMismatch):
            assemble_final(f, np.ones((1, 3, 3), dtype=np.float32))

    def test_allocates_one_output(self):
        """On float32 inputs the float32 product is the result: the call's traced
        peak is about one output, not a product and its copy."""
        f = Rng(3).uniform((16, 64, 64), -1.0, 1.0)
        p = Rng(4).uniform((1, 64, 64), 0.0, 1.0)
        tracemalloc.start()
        try:
            out = assemble_final(f, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32
        assert np.array_equal(out.view(np.uint32), np.multiply(p, f).view(np.uint32))
        assert out.nbytes <= peak < 1.5 * out.nbytes


class TestFuseAndFinalize:
    """`heads`: fuse the streams, then the probability and the final feature."""

    def test_force_affinity_one_is_pure_lift(self):
        f_lss, f_ht = streams()
        res = heads(f_lss, f_ht, EVERYWHERE, weights(), force_affinity=1.0)
        assert np.array_equal(res.f_channel, f_lss)
        # and the final output is the probability-weighted lift stream
        assert res.f_final == pytest.approx(res.p_bev * f_lss, abs=1e-6)

    def test_force_affinity_zero_is_pure_height(self):
        f_lss, f_ht = streams()
        res = heads(f_lss, f_ht, EVERYWHERE, weights(), force_affinity=0.0)
        assert np.array_equal(res.f_channel, f_ht)

    def test_force_affinity_blends_once_without_the_head(self):
        f_lss, f_ht = streams()
        # no caf.* layers: a forced affinity does not run the fusion head
        head_free = WeightBundle(
            {k: v for k, v in weights().layers.items() if not k.startswith("caf.")}
        )
        res = heads(f_lss, f_ht, EVERYWHERE, head_free, force_affinity=0.3)
        a = np.float32(0.3)
        assert res.affinity.shape == SHAPE and res.affinity.dtype == np.float32
        assert np.all(res.affinity == a)
        blend = (a * f_lss + (1.0 - a) * f_ht).astype(np.float32)
        assert np.array_equal(res.f_channel.view(np.uint32), blend.view(np.uint32))

    def test_channels_not_divisible_by_4_rejected(self):
        """The heads' reduce ratio fixes the channel count: a 6-channel bundle
        is a config error, and the heads' conv2d refuses 6-channel streams."""
        with pytest.raises(ConfigError, match="reduce ratio"):
            make_seeded_weights(11, 6)
        f6 = np.zeros((6,) + SHAPE[1:], dtype=np.float32)
        with pytest.raises(ShapeMismatch, match="kernel expects"):
            heads(f6, f6.copy(), EVERYWHERE, weights())

    @pytest.mark.parametrize("force", [None, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kind", ["one", "random", "full"])
    def test_affinity_grid_is_the_full_grid_formula(self, kind, force):
        """The affinity grid is the full-grid formula's, bit for bit, computed
        or forced.  It is C-contiguous, but cell-major where it is +0.0 off a
        support of at most `_WRITE_MAX_SHARE` of the grid (forced to 0.0)."""
        cells = support_cells(kind, 40 * 40, 40, 3)
        f_lss, f_ht = cell_major_streams(40, 40, cells, 4, neg_zero_cell=False)
        res = heads(f_lss, f_ht, support_of(cells, 40, 40), weights(), force)
        ref_fused, ref_affinity = full_grid_caf(f_lss, f_ht, weights(), force)
        zeros = force == 0.0 and cells.size <= _WRITE_MAX_SHARE * 40 * 40
        assert (res.affinity.transpose(1, 2, 0) if zeros else res.affinity).flags.c_contiguous
        for got, ref in ((res.affinity, ref_affinity), (res.f_channel, ref_fused)):
            assert got.shape == ref.shape and got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_forced_blend_keeps_one_temporary(self):
        """`caf_fuse`'s blend scales ``1 - a`` in place: at its peak the forced
        affinity, its grid, the fused feature and one temporary are alive, not
        a second temporary for the product.  The grid is small enough (under
        256 KiB an array) that numpy does not elide that temporary itself."""
        cells = _ActiveCells({"input": np.ones((60, 60), dtype=bool)})
        f_lss, f_ht = cell_major_streams(60, 60, np.arange(60 * 60), 5, False)
        packed = cells.pack(f_lss, f_ht)
        tracemalloc.start()
        try:
            fused, _ = caf_fuse(cells, packed, weights(), 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 3 * fused.nbytes  # numpy's allocations are traced
        assert peak < 4.5 * fused.nbytes

    def test_result_fields_consistent(self):
        f_lss, f_ht = streams()
        res = heads(f_lss, f_ht, EVERYWHERE, weights())
        assert res.f_final == pytest.approx(res.p_bev * res.f_channel, abs=1e-6)
        assert np.array_equal(res.f_lss, f_lss)
        assert np.array_equal(res.f_ht, f_ht)


class TestRunPipeline:
    def fixture(self):
        from conftest import small_scene

        bundle, heights = small_scene(0)
        ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        return bundle, ht, lss

    def test_zero_masks_zero_final_feature(self):
        bundle, ht, lss = self.fixture()
        zeros = [np.zeros_like(m) for m in bundle.masks]
        w = make_seeded_weights(11, bundle.spec.channels)
        res = run_pipeline(bundle.feats, bundle.depths, zeros, ht, lss, w)
        assert np.all(res.f_ht == 0.0)
        assert np.all(res.f_lss == 0.0)
        assert np.all(res.f_channel == 0.0)
        assert np.all(res.f_final == 0.0)

    def test_disable_mask_matches_manual_ones(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.spec.channels)
        a = run_pipeline(
            bundle.feats, bundle.depths, bundle.masks, ht, lss, w, disable_mask=True
        )
        ones = [np.ones_like(m) for m in bundle.masks]
        b = run_pipeline(bundle.feats, bundle.depths, ones, ht, lss, w)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))

    def test_uniform_depth_matches_manual_flat(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.spec.channels)
        a = run_pipeline(
            bundle.feats, bundle.depths, bundle.masks, ht, lss, w, uniform_depth=True
        )
        flat = [np.full_like(d, 1.0 / d.shape[0]) for d in bundle.depths]
        b = run_pipeline(bundle.feats, flat, bundle.masks, ht, lss, w)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))

    def test_workers_are_joined_before_run_pipeline_returns(self, monkeypatch):
        """At two threads a dense frame's scatters and convolutions run on the
        frame's one pool, and `run_pipeline` joins it before it returns, also
        when it raises: no thread outlives the call."""
        pools, ran = [], set()

        class Recording(nnops.WorkerPool):
            def __init__(self, size):
                super().__init__(size)
                pools.append(self)  # kept alive, so only a join ends its threads

            def submit(self, fn, /, *args):
                def recorded(*a):
                    ran.add(threading.get_ident())
                    return fn(*a)
                return super().submit(recorded, *args)

        monkeypatch.setattr(dualvt.fusion, "WorkerPool", Recording)
        bundle, ht, lss = self.fixture()
        frame = (bundle.feats, bundle.depths, bundle.masks, ht, lss)
        before = threading.active_count()
        one = run_pipeline(*frame, weights(), disable_mask=True)
        assert len(pools) == 1 and not ran
        assert_same_fields(run_pipeline(*frame, weights(), threads=2, disable_mask=True), one)
        assert len(pools) == 2 and ran and threading.get_ident() not in ran
        assert threading.active_count() == before
        partial = WeightBundle({k: v for k, v in weights().layers.items()
                                if k != "prob.local.out"})
        with pytest.raises(ConfigError, match="prob.local.out"):
            run_pipeline(*frame, partial, threads=2, disable_mask=True)
        assert len(pools) == 3 and threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_frame_starts_at_most_its_thread_count(self, monkeypatch, threads):
        """One pool serves the frame: a two-thread `disable-M` frame, whose two
        scatters and heads' bands all split over workers, starts one or two
        threads, and a one-thread frame starts none."""
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        bundle, ht, lss = self.fixture()
        run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights(),
                     threads=threads, disable_mask=True)
        assert (0 < len(started) <= 2) if threads == 2 else not started

    def test_threads_bitwise_stable(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.spec.channels)
        a = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w, threads=1)
        b = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w, threads=4)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))
        assert np.array_equal(a.p_bev.view(np.uint32), b.p_bev.view(np.uint32))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("frame", ["zero-sum-support", "empty-support"])
    def test_equals_grid_front_end_bitwise(self, frame, threads):
        """run_pipeline hands `heads` the scatter's support.  `heads` on the
        full-grid transforms (lss_pool and ht_transform_fast) gives the same
        six fields bit for bit on two other supports off which both grids
        are +0.0: the cells where a grid holds a channel that is not +0.0
        (which leaves out support cells that sum to +0.0), and the whole
        grid.  On a frame where some support cells sum to exactly +0.0, a
        feature pixel zeroed under a nonzero mask, and on one with no
        support."""
        bundle, ht, lss = self.fixture()
        feats, depths = bundle.feats.copy(), bundle.depths
        masks = np.zeros_like(bundle.masks)
        if frame == "zero-sum-support":
            for f, m in zip(feats, masks):  # two lit pixels, one without features
                m[4, 5] = m[6, 17] = 0.75
                f[4, 5] = 0.0
        stacked = stack_frame(feats, depths, masks, ht, lss)
        sums = np.concatenate([ht_apply(stacked, ht)[1], lss_apply(stacked, lss)[1]])
        zero_rows = np.count_nonzero(~sums.view(np.uint32).any(axis=1))
        if frame == "zero-sum-support":
            assert 0 < zero_rows < sums.shape[0]
        else:
            assert sums.shape[0] == 0
        w = make_seeded_weights(11, bundle.spec.channels)
        got = run_pipeline(feats, depths, masks, ht, lss, w, threads=threads)
        f_lss = lss_pool(feats, depths, masks, lss, threads=threads)
        f_ht = ht_transform_fast(feats, depths, masks, ht, threads=threads)
        for support in (exact_support(f_lss, f_ht), np.ones(f_lss.shape[1:], dtype=bool)):
            assert_same_fields(got, heads(f_lss, f_ht, support, w))

    def test_non_square_grid(self):
        """On a grid of 40 rows and 56 columns every field has the grid's
        (ny, nx), and run_pipeline equals `heads` on the full-grid transforms
        and the cells where they hold input, bit for bit."""
        from conftest import small_geometry

        _, dspec, heights = small_geometry()
        grid = BevGridSpec(x_min=-24.0, x_max=32.0, y_min=-20.0, y_max=20.0, nx=56, ny=40)
        spec = random_scene_spec(0, n_cameras=4, feat_w=24, feat_h=10, channels=C, kappa=4.0)
        bundle = generate_scene(spec, grid, dspec)
        ht = precompute_ht_table(bundle.rigs, grid, heights, dspec)
        lss = precompute_lss_table(bundle.rigs, grid, dspec)
        w = weights()
        got = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w)
        for name in ("f_final", "f_ht", "f_lss", "f_channel", "affinity"):
            assert getattr(got, name).shape == (C, 40, 56), name
        assert got.p_bev.shape == (1, 40, 56)
        f_lss = lss_pool(bundle.feats, bundle.depths, bundle.masks, lss)
        f_ht = ht_transform_fast(bundle.feats, bundle.depths, bundle.masks, ht)
        support = exact_support(f_lss, f_ht)
        assert 0 < np.count_nonzero(support) < support.size
        assert_same_fields(got, heads(f_lss, f_ht, support, w))


def assert_same_fields(got, ref):
    """The six `PipelineResult` fields of `got` and `ref` agree bit for bit."""
    for name in ("f_final", "p_bev", "f_ht", "f_lss", "f_channel", "affinity"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype == np.float32, name
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name


def large_allocations(fn, least=1 << 20):
    """The sizes of the traced blocks of at least `least` bytes that `fn()`
    allocates.  At each profiler event where the traced memory has grown by
    `least` since the last one, a snapshot's blocks of that size are counted
    against the previous snapshot's, by allocation site and size.  A block
    that a C call frees before it returns is not seen."""
    state = {"last": 0, "live": Counter()}
    found = []

    def profile(frame, event, arg):
        current = tracemalloc.get_traced_memory()[0]
        if current - state["last"] >= least:
            live = Counter((t.traceback, t.size) for t in tracemalloc.take_snapshot().traces
                           if t.size >= least)
            found.extend(size for (_, size), k in (live - state["live"]).items()
                         for _ in range(k))
            state["live"] = live
        state["last"] = current

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return found


def test_warm_masked_desk_frame_allocates_no_other_grid():
    """A census of a warm masked desk frame (seed 1): its allocations of at
    least 1 MB, one 16-channel grid, are exactly the five 64-channel output
    grids.  A full-grid temporary, such as a grid expanded only to be pooled,
    or a copy of the frame's features or depths, would add to the list: the
    scatter reads views of the frame's arrays (`stack_frame`)."""
    bundle = generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())
    ht = precompute_ht_table(bundle.rigs, bundle.grid, make_height_samples("multires"),
                             bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    w = make_seeded_weights(11, bundle.spec.channels)

    def frame():
        return run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w)

    frame()  # warm: the tables' feature columns are built,
    frame()  # and their voxel indices on a second masked frame
    inputs = (bundle.feats, bundle.depths, bundle.masks)
    for stacked, given in zip(stack_frame(*inputs, ht, lss), inputs):
        assert np.shares_memory(stacked, given)
    grid = bundle.spec.channels * ht.n_cells * 4
    assert large_allocations(frame) == [grid] * 5

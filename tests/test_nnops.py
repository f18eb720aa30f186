import contextlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_dot, exact_mean, units
from dualvt import nnops
from dualvt.errors import ConfigError, ShapeMismatch
from dualvt.fusion import default_weight_shapes
from dualvt.nnops import (
    BLOCK_ROWS,
    Conv2dWeights,
    WeightBundle,
    WorkerPool,
    channel_stats,
    conv2d,
    mean_pool,
    relu,
    sigmoid,
)
from dualvt.rng import Rng


def identity_kernel(channels, k=3):
    kern = np.zeros((channels, channels, k, k), dtype=np.float32)
    for c in range(channels):
        kern[c, c, k // 2, k // 2] = 1.0
    return Conv2dWeights(kernel=kern, bias=np.zeros(channels, dtype=np.float32))


def conv_reference(x, kernel, bias):
    """Fixed-order float64 tap loop: for each (c_in, dy, dx) tap in turn,
    add kernel * shifted input to every output channel, then add the bias
    and round to float32 once."""
    c_out, c_in, kh, kw = kernel.shape
    _, H, W = x.shape
    xp = np.zeros((c_in, H + kh - 1, W + kw - 1))
    xp[:, kh // 2:kh // 2 + H, kw // 2:kw // 2 + W] = x
    acc = np.zeros((c_out, H, W))
    for i in range(c_in):
        for dy in range(kh):
            for dx in range(kw):
                tap = kernel[:, i, dy, dx, None, None].astype(np.float64)
                acc += tap * xp[i, dy:dy + H, dx:dx + W]
    return (acc + bias[:, None, None].astype(np.float64)).astype(np.float32)


def ulp_distance(a, b):
    """Distance in float32 ulps, on an integer line where -0.0 == +0.0."""
    def line(v):
        i = v.view(np.int32).astype(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFF), i)
    return np.abs(line(a) - line(b))


class TestConv2d:
    def test_identity_kernel(self):
        x = Rng(0).uniform((3, 5, 7), -2.0, 2.0)
        out = conv2d(x, identity_kernel(3))
        assert out == pytest.approx(x, abs=1e-6)

    def test_bias_only(self):
        w = Conv2dWeights(
            kernel=np.zeros((2, 3, 1, 1), dtype=np.float32),
            bias=np.array([1.5, -2.0], dtype=np.float32),
        )
        out = conv2d(np.ones((3, 4, 4), dtype=np.float32), w)
        assert np.all(out[0] == 1.5)
        assert np.all(out[1] == -2.0)

    def test_box_kernel_interior_and_border(self):
        w = Conv2dWeights(
            kernel=np.ones((1, 1, 3, 3), dtype=np.float32),
            bias=np.zeros(1, dtype=np.float32),
        )
        out = conv2d(np.ones((1, 5, 5), dtype=np.float32), w)
        assert out[0, 2, 2] == 9.0  # full window in the interior
        assert out[0, 0, 0] == 4.0  # zero padding clips the corner window
        assert out[0, 0, 2] == 6.0  # edge window

    def test_spatial_shape_preserved(self):
        x = np.zeros((4, 6, 9), dtype=np.float32)
        w = Conv2dWeights(
            kernel=np.ones((2, 4, 5, 3), dtype=np.float32),
            bias=np.zeros(2, dtype=np.float32),
        )
        assert conv2d(x, w).shape == (2, 6, 9)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            conv2d(np.zeros((3, 4, 4), dtype=np.float32), identity_kernel(2))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Conv2dWeights(
                kernel=np.zeros((1, 1, 2, 2), dtype=np.float32),
                bias=np.zeros(1, dtype=np.float32),
            )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity_in_input(self, alpha, beta):
        rng = Rng(9)
        a = rng.uniform((2, 4, 4), -1.0, 1.0)
        b = rng.uniform((2, 4, 4), -1.0, 1.0)
        kern = rng.uniform((3, 2, 3, 3), -1.0, 1.0)
        w = Conv2dWeights(kernel=kern, bias=np.zeros(3, dtype=np.float32))
        lhs = conv2d((alpha * a + beta * b).astype(np.float32), w)
        rhs = alpha * conv2d(a, w) + beta * conv2d(b, w)
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_determinism(self):
        x = Rng(3).uniform((8, 16, 16), -1.0, 1.0)
        w = Conv2dWeights(
            kernel=Rng(4).uniform((8, 8, 3, 3), -0.2, 0.2),
            bias=Rng(5).uniform((8,), -0.1, 0.1),
        )
        a = conv2d(x, w)
        b = conv2d(x, w)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 3, 5, 7]),
        st.integers(1, 2 * nnops.BLOCK_ROWS + 5), st.integers(1, 2 * nnops.BLOCK_ROWS + 5),
        st.integers(1, 20), st.integers(1, 20),
    )
    def test_within_one_ulp_of_tap_loop(self, seed, kh, kw, H, W, c_in, c_out):
        rng = Rng(seed)
        x = rng.uniform((c_in, H, W), -2.0, 2.0)
        kernel = rng.uniform((c_out, c_in, kh, kw), -0.5, 0.5)
        bias = rng.uniform((c_out,), -0.5, 0.5)
        out = conv2d(x, Conv2dWeights(kernel=kernel, bias=bias))
        ref = conv_reference(x, kernel, bias)
        assert out.shape == ref.shape == (c_out, H, W)
        assert out.dtype == np.float32
        assert ulp_distance(out, ref).max() <= 1

    def test_one_by_one_reads_its_input_in_place(self):
        """A 1x1 layer reads its input without padding it: the input keeps
        its bytes, and the output is memory of its own."""
        rng = Rng(6)
        x = rng.uniform((5, 9, 7), -1.0, 1.0)
        before = x.copy()
        w = Conv2dWeights(kernel=rng.uniform((5, 5, 1, 1), -1.0, 1.0),
                          bias=rng.uniform((5,), -1.0, 1.0))
        out = conv2d(x, w)
        assert np.array_equal(x.view(np.uint32), before.view(np.uint32))
        assert not np.shares_memory(out, x)
        assert np.array_equal(out.view(np.uint32), conv2d(before, w).view(np.uint32))

    def test_memory_is_row_blocked(self):
        """The 3x3 64->16 layer on a 128x128 grid stays below half of one
        unblocked float64 window matrix (C_in*9*H*W*8 bytes)."""
        c_in, c_out, H, W = 64, 16, 128, 128
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, (c_in, H, W)).astype(np.float32)
        w = Conv2dWeights(
            kernel=rng.uniform(-0.1, 0.1, (c_out, c_in, 3, 3)).astype(np.float32),
            bias=np.zeros(c_out, dtype=np.float32),
        )
        tracemalloc.start()
        try:
            out = conv2d(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unblocked = c_in * 9 * H * W * 8
        assert peak >= out.nbytes  # numpy's allocations are traced
        assert peak < unblocked / 2

    def test_memory_is_row_blocked_per_worker(self):
        """On two workers the same layer holds one window matrix per worker,
        still below half of the unblocked one."""
        c_in, c_out, H, W = 64, 16, 128, 128
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, (c_in, H, W)).astype(np.float32)
        w = Conv2dWeights(
            kernel=rng.uniform(-0.1, 0.1, (c_out, c_in, 3, 3)).astype(np.float32),
            bias=np.zeros(c_out, dtype=np.float32),
        )
        with WorkerPool(2) as pool:
            tracemalloc.start()
            try:
                out = conv2d(x, w, pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        window = c_in * 9 * BLOCK_ROWS * W * 8
        assert peak >= out.nbytes + 2 * window  # both workers' matrices are traced
        assert peak < c_in * 9 * H * W * 8 / 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_bands_give_the_serial_bytes(self, workers):
        """On 2 and 3 workers, every layer shape of the heads gives the serial
        bytes at heights of one short block (5), three blocks with a short
        last one (37), four (64) and five whole blocks (80)."""
        rng = Rng(4)
        layers = WeightBundle.seeded(5, default_weight_shapes(64))
        with WorkerPool(workers) as pool:
            for height in (5, 37, 64, 80):
                for name, w in sorted(layers.layers.items()):
                    x = rng.uniform((w.kernel.shape[1], height, 24), -1.0, 1.0)
                    serial, banded = conv2d(x, w), conv2d(x, w, pool)
                    assert np.array_equal(serial.view(np.uint32), banded.view(np.uint32)), \
                        (name, height)

    def test_worker_bands_under_contention(self):
        """Six workers, the interpreter switching threads every microsecond: the
        bands write disjoint rows of one output, which keeps the serial bytes."""
        rng = Rng(7)
        x = rng.uniform((16, 128, 32), -1.0, 1.0)
        w = Conv2dWeights(kernel=rng.uniform((4, 16, 3, 3), -1.0, 1.0),
                          bias=rng.uniform((4,), -1.0, 1.0))
        serial = conv2d(x, w).view(np.uint32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(6) as pool:
                for _ in range(5):
                    assert np.array_equal(conv2d(x, w, pool).view(np.uint32), serial)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bands_run_under_the_callers_errstate(self, workers):
        """The caller's ``np.errstate(over="raise")`` reaches every band: sums
        past the float32 range on an input of two row blocks raise
        `FloatingPointError` on the calling thread and on two workers alike,
        where a worker outside the caller's context would only warn."""
        x = np.ones((2, 2 * BLOCK_ROWS, 5), dtype=np.float32)
        w = Conv2dWeights(kernel=np.full((1, 2, 3, 3), 1e38, dtype=np.float32),
                          bias=np.zeros(1, dtype=np.float32))
        with WorkerPool(2) if workers else contextlib.nullcontext() as pool:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                conv2d(x, w, pool)

    @pytest.mark.parametrize("height, workers, bands", [
        (5, 2, [(0, 5)]),
        (37, 2, [(0, 16), (16, 37)]),
        (37, 3, [(0, 16), (16, 32), (32, 37)]),
        (64, 3, [(0, 16), (16, 32), (32, 64)]),
        (80, 2, [(0, 32), (32, 80)]),
    ])
    def test_bands_are_contiguous_whole_blocks(self, height, workers, bands):
        """One band per worker, at most one per block, each a run of whole
        `BLOCK_ROWS` blocks but the grid's last; a single band runs on the
        calling thread."""
        seen = []

        class Recording(WorkerPool):
            def map(self, fn, rows):
                seen.extend((r.start, r.stop) for r in rows)
                return super().map(fn, rows)

        x = Rng(1).uniform((2, height, 3), -1.0, 1.0)
        with Recording(workers) as pool:
            out = conv2d(x, identity_kernel(2), pool)
        assert seen == ([] if len(bands) == 1 else bands)
        assert np.array_equal(out.view(np.uint32), conv2d(x, identity_kernel(2)).view(np.uint32))


def windows(x, kh, kw):
    """(C_in*kh*kw, H*W) float32 windows of the zero-padded (C_in, H, W) `x`,
    rows in conv2d's (c_in, i, j) order: copies, no arithmetic."""
    c, H, W = x.shape
    xp = np.zeros((c, H + kh - 1, W + kw - 1), dtype=np.float32)
    xp[:, kh // 2:kh // 2 + H, kw // 2:kw // 2 + W] = x
    taps = [xp[:, i:i + H, j:j + W] for i in range(kh) for j in range(kw)]
    return np.stack(taps, axis=1).reshape(c * kh * kw, H * W)


class TestConv2dErrorBound:
    """The module docstring's bound, checked against an exact oracle
    (`conftest.exact_dot`): each output is within ``1/2 ulp(out) +
    gamma_n * sum|terms|`` of its exact value, the float32 rounding plus a
    float64 sum of n = C_in*kh*kw + 1 terms in any order (Higham, ch. 3),
    ``gamma_n = n u / (1 - n u)``, ``u = 2**-53``."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_every_head_layer_within_the_bound(self, workers):
        """Every layer shape of `default_weight_shapes(8)`, on a 19x9 grid of
        two row blocks, where the 3x3 and 7x7 windows meet the zero padding.
        The inputs' magnitudes spread over 2**-8 to 2**8, so sums cancel."""
        H, W = BLOCK_ROWS + 3, 9
        layers = WeightBundle.seeded(7, default_weight_shapes(8))
        with WorkerPool(2) if workers else contextlib.nullcontext() as pool:
            for k, (name, w) in enumerate(sorted(layers.layers.items())):
                c_out, c_in, kh, kw = w.kernel.shape
                rng = Rng(k)
                scale = np.floor(rng.uniform((c_in, H, W), -8.0, 9.0)).astype(np.int32)
                x = np.ldexp(rng.uniform((c_in, H, W), -1.0, 1.0), scale).astype(np.float32)
                out = conv2d(x, w, pool).reshape(c_out, -1)
                exact, magnitude = exact_dot(w.kernel.reshape(c_out, -1), windows(x, kh, kw),
                                             w.bias)
                n = c_in * kh * kw + 1
                den = 2**53 - n
                err = np.abs(units(out, 298) - exact)
                ulp = units(np.abs(np.spacing(out)), 298)
                assert (2 * err * den <= ulp * den + 2 * n * magnitude).all(), name


class TestReductions:
    def test_channel_stats(self):
        x = np.array(
            [[[1.0, 2.0]], [[3.0, -4.0]]], dtype=np.float32
        )  # (2 channels, 1, 2)
        s = channel_stats(x)
        assert s.shape == (2, 1, 2) and s.dtype == np.float32
        assert s[0].tolist() == [[2.0, -1.0]]  # mean
        assert s[1].tolist() == [[3.0, 2.0]]  # max

    def test_mean_pool_of_a_grid(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 6)
        g = mean_pool(x, np.ones(6, dtype=np.int64))
        assert g.dtype == np.float32 and g.tolist() == [2.5, 8.5]


def drawn_rows(rows, m, spread, seed):
    """(rows, m) float32 values whose magnitudes span `spread` decades, a
    quarter of them -0.0 or +0.0."""
    rng = Rng(seed)
    x = rng.uniform((rows, m), -1.0, 1.0) * np.float32(10.0) ** np.floor(
        rng.uniform((rows, m), -spread, 1.0))
    x[rng.uniform((rows, m)) < 0.125] = 0.0
    x[rng.uniform((rows, m)) < 0.125] = -0.0
    return x.astype(np.float32)


def tied_rows(k):
    """Rows of k copies of a float32 and of the next one up, so that each
    mean, over 2k columns, lies exactly halfway between two float32s."""
    a = np.array([1.0, 0.3, -7.25, 3e-38, 1e-44], dtype=np.float32)
    b = np.nextafter(a, np.float32(np.inf))
    return np.tile(np.stack([a, b], axis=1), (1, k))


class TestMeanPool:
    """`mean_pool` is the float32 nearest to the exact weighted mean: the
    integer oracle `exact_mean`, bit for bit, also on exact ties, which the
    fast path cannot settle, and on counts that are not powers of two."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 6), m=st.integers(1, 40), spread=st.integers(0, 40),
           weighted=st.booleans(), seed=st.integers(0, 2**16))
    @example(rows=3, m=1, spread=0, weighted=False, seed=0)
    @example(rows=2, m=37, spread=40, weighted=True, seed=1)
    def test_equals_the_exact_mean(self, rows, m, spread, weighted, seed):
        x = drawn_rows(rows, m, spread, seed)
        w = (Rng(seed + 1).integers((m,), 2**24) + 1 if weighted
             else np.ones(m, dtype=np.int64))
        got = mean_pool(x, w)
        assert got.dtype == np.float32 and got.shape == (rows,)
        assert np.array_equal(got.view(np.uint32), exact_mean(x, w).view(np.uint32))

    @pytest.mark.parametrize("k", [3, 5, 6, 7])
    @pytest.mark.parametrize("layout", ["columns", "weights"])
    def test_ties_go_to_even_through_the_exact_sum(self, monkeypatch, k, layout):
        """2k columns, or two columns of weight k: n = 2k is not a power of two
        for these k, and every row's mean is a float32 midpoint."""
        exact, summed = [], nnops._exact_means

        def counted(x, *args):
            exact.append(len(x))
            return summed(x, *args)

        monkeypatch.setattr(nnops, "_exact_means", counted)
        x = tied_rows(k) if layout == "columns" else tied_rows(1)
        w = np.ones(x.shape[1], dtype=np.int64) if layout == "columns" else np.array([k, k])
        got = mean_pool(x, w)
        want = exact_mean(x, w)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.all(want.view(np.uint32) % 2 == 0)  # the even neighbour
        assert exact == [len(x)]  # the fast path settled none of them

    @pytest.mark.parametrize("cell_major", [False, True])
    def test_channel_mean_is_the_exact_mean_in_any_layout(self, cell_major):
        """channel_stats' mean over 12 channels is the oracle's, ties included,
        on a C-contiguous grid and on a channel-major view of cell-major memory."""
        x = drawn_rows(12, 7 * 9, 6, 3).reshape(12, 7, 9)
        x[:, 0, :5] = tied_rows(6).T
        if cell_major:
            x = np.ascontiguousarray(x.reshape(12, -1).T).T.reshape(x.shape)
        stats = channel_stats(x)
        want = exact_mean(x.reshape(12, -1).T).reshape(7, 9)
        assert np.array_equal(stats[0].view(np.uint32), want.view(np.uint32))
        assert np.array_equal(stats[1], x.max(axis=0))

    def test_zero_weights_leave_their_columns_out(self):
        """Also a NaN or Inf column, as no cell reads it."""
        x = np.array([[1.0, np.nan, 2.0], [np.inf, 5.0, -1.0]], dtype=np.float32)
        assert mean_pool(x, np.array([1, 0, 2]))[0] == np.float32(5 / 3)
        assert mean_pool(x, np.array([0, 3, 1]))[1] == np.float32(14 / 4)

    def test_non_finite_rows_give_what_a_mean_gives(self):
        """NaN, Inf and Inf of both signs, beside finite rows, raise no warning."""
        x = np.array([[np.inf, 1.0, 2.0], [-np.inf, 1.0, np.inf], [np.nan, 0.0, 1.0],
                      [1.0, 2.0, 4.0]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mean_pool(x, np.array([1, 2, 1]))
        assert got[0] == np.inf and np.isnan(got[1]) and np.isnan(got[2])
        assert got[3] == np.float32(9 / 4)

    def test_exact_zero_is_positive(self):
        x = np.array([[-0.0, -0.0], [1.5, -1.5], [-1e-45, 0.0]], dtype=np.float32)
        got = mean_pool(x, np.array([1, 1]))
        assert got.view(np.uint32).tolist() == [0, 0, 0x80000000]


class TestActivations:
    def test_sigmoid_values(self):
        x = np.array([0.0, 100.0, -100.0, -0.0, 88.7, -104.0, 1e-30, -1e-30],
                     dtype=np.float32)
        s = sigmoid(x)
        assert s[0] == 0.5
        assert s[1] == pytest.approx(1.0)
        assert s[2] == pytest.approx(0.0)
        assert np.all(np.isfinite(s))
        # same bits as the two-branch form that splits the input by sign
        x64 = x.astype(np.float64)
        two_branch = np.empty_like(x64)
        pos = x64 >= 0
        two_branch[pos] = 1.0 / (1.0 + np.exp(-x64[pos]))
        ex = np.exp(x64[~pos])
        two_branch[~pos] = ex / (1.0 + ex)
        assert np.array_equal(s.view(np.uint32), two_branch.astype(np.float32).view(np.uint32))

    def test_blocked_sigmoid_keeps_the_unblocked_bytes(self):
        """Blocks of SIGMOID_BLOCK values give the bytes of the formula on the
        whole array at once, across block edges and a short last block."""
        n = 2 * nnops.SIGMOID_BLOCK + 123
        x = Rng(4).uniform((n,), -30.0, 30.0)
        x[:6] = [0.0, -0.0, 3.4e38, -3.4e38, 1e-45, -1e-45]  # ±0, near ±inf, subnormal
        x[nnops.SIGMOID_BLOCK - 1:nnops.SIGMOID_BLOCK + 1] = [-0.0, 0.0]  # a block edge
        x64 = x.astype(np.float64)
        e = np.exp(-np.abs(x64))
        unblocked = (np.where(x64 >= 0, 1.0, e) / (1.0 + e)).astype(np.float32)
        assert np.array_equal(sigmoid(x).view(np.uint32), unblocked.view(np.uint32))
        grid = x[:3 * 7 * 811].reshape(3, 7, 811)
        assert np.array_equal(sigmoid(grid).view(np.uint32),
                              unblocked[:grid.size].reshape(grid.shape).view(np.uint32))

    def test_sigmoid_symmetry(self):
        x = Rng(11).uniform((100,), -20.0, 20.0)
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(np.ones(100), abs=1e-6)

    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.5], dtype=np.float32)
        assert relu(x).dtype == np.float32 and relu(x).tolist() == [0.0, 0.0, 2.5]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_sigmoid_monotone(self, a, b):
        lo, hi = sorted((a, b))
        sa, sb = sigmoid(np.array([lo])), sigmoid(np.array([hi]))
        assert sa[0] <= sb[0]


class TestWeightBundle:
    SHAPES = {"layer.a": (4, 8, 1, 1), "layer.b": (2, 4, 3, 3)}

    def test_seeded_determinism(self):
        a = WeightBundle.seeded(7, self.SHAPES)
        b = WeightBundle.seeded(7, self.SHAPES)
        for name in self.SHAPES:
            assert np.array_equal(a[name].kernel, b[name].kernel)
            assert np.array_equal(a[name].bias, b[name].bias)

    def test_seed_changes_weights(self):
        a = WeightBundle.seeded(7, self.SHAPES)
        b = WeightBundle.seeded(8, self.SHAPES)
        assert not np.array_equal(a["layer.a"].kernel, b["layer.a"].kernel)

    def test_fan_in_bound(self):
        w = WeightBundle.seeded(1, self.SHAPES)["layer.b"]
        bound = 1.0 / np.sqrt(4 * 3 * 3)
        assert np.all(np.abs(w.kernel) <= bound)
        assert np.all(np.abs(w.bias) <= bound)

    def test_save_load_roundtrip(self, tmp_path):
        bundle = WeightBundle.seeded(42, self.SHAPES)
        bundle.save(tmp_path / "w")
        back = WeightBundle.load(tmp_path / "w", self.SHAPES)
        for name in self.SHAPES:
            assert np.array_equal(
                back[name].kernel.view(np.uint32), bundle[name].kernel.view(np.uint32)
            )
            assert np.array_equal(
                back[name].bias.view(np.uint32), bundle[name].bias.view(np.uint32)
            )

    @pytest.mark.parametrize("edit, message", [
        ("unknown", "^weight bundle has unknown layer 'layer.c'$"),
        ("missing", "^weight bundle is missing layer 'layer.b'$"),
        ("misshapen", r"^weight layer 'layer.b' has kernel shape \(2, 4, 1, 1\), "
                      r"the heads take \(2, 4, 3, 3\)$"),
    ])
    def test_load_takes_exactly_the_layer_shapes(self, tmp_path, edit, message):
        """`load` refuses a bundle with a layer its shapes do not name, one
        without a layer they name, or one whose kernel has another shape."""
        saved = dict(self.SHAPES)
        if edit == "unknown":
            saved["layer.c"] = (1, 1, 1, 1)
        elif edit == "missing":
            del saved["layer.b"]
        else:
            saved["layer.b"] = (2, 4, 1, 1)
        WeightBundle.seeded(1, saved).save(tmp_path / "w")
        with pytest.raises(ConfigError, match=message):
            WeightBundle.load(tmp_path / "w", self.SHAPES)

    def test_missing_layer_rejected(self):
        bundle = WeightBundle.seeded(1, self.SHAPES)
        with pytest.raises(ConfigError):
            bundle["layer.missing"]

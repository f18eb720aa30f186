import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvt import nnops
from dualvt.errors import ConfigError, ShapeMismatch
from dualvt.nnops import (
    Conv2dWeights,
    WeightBundle,
    channel_stats,
    conv2d,
    global_avg_pool,
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


class TestReductions:
    def test_channel_stats(self):
        x = np.array(
            [[[1.0, 2.0]], [[3.0, -4.0]]], dtype=np.float32
        )  # (2 channels, 1, 2)
        s = channel_stats(x)
        assert s.shape == (2, 1, 2)
        assert s[0].tolist() == [[2.0, -1.0]]  # mean
        assert s[1].tolist() == [[3.0, 2.0]]  # max

    def test_global_avg_pool(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        g = global_avg_pool(x)
        assert g.shape == (2, 1, 1)
        assert g[0, 0, 0] == pytest.approx(2.5)
        assert g[1, 0, 0] == pytest.approx(8.5)


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
        assert relu(x).tolist() == [0.0, 0.0, 2.5]

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
        back = WeightBundle.load(tmp_path / "w")
        for name in self.SHAPES:
            assert np.array_equal(
                back[name].kernel.view(np.uint32), bundle[name].kernel.view(np.uint32)
            )
            assert np.array_equal(
                back[name].bias.view(np.uint32), bundle[name].bias.view(np.uint32)
            )

    def test_missing_layer_rejected(self):
        bundle = WeightBundle.seeded(1, self.SHAPES)
        with pytest.raises(ConfigError):
            bundle["layer.missing"]

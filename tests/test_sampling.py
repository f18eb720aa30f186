import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvt.errors import ConfigError
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec, depth_to_coord, trilinear_product

SPEC = DepthBinSpec(d_min=2.0, d_max=10.0, step=0.5)


def sample(feat, depth, mask, u, v, d):
    """trilinear_product at points given as lists, under SPEC.  The tests write
    a feature map (C, H, W) and a mask (1, H, W), as the by-hand walks index
    them; the sampler takes one camera's (H, W, C) features and (H, W) mask."""
    return trilinear_product(np.moveaxis(feat, 0, -1), depth, mask[0],
                             *(np.array(c, dtype=np.float64) for c in (u, v, d)), SPEC)


def ones(*shape):
    return np.ones(shape, dtype=np.float32)


def plane(feat, u, v):
    """The sampler in the (v, u) plane at one point: at bin 0's centre of a
    depth volume and a mask of ones, it is bilinear over the feature."""
    _, H, W = feat.shape
    return sample(feat, ones(SPEC.n_bins, H, W), ones(1, H, W), [u], [v], [SPEC.bin_center(0)])[0]


def axis(depth, u, v, d):
    """The sampler at one point with a mask and a one-channel feature of
    ones: trilinear over the depth volume alone."""
    _, H, W = depth.shape
    return sample(ones(1, H, W), depth, ones(1, H, W), [u], [v], [d])[0, 0]


class TestDepthBinSpec:
    def test_bin_count(self):
        assert SPEC.n_bins == 16
        assert DepthBinSpec().n_bins == 112

    def test_non_integer_bin_count_rejected(self):
        with pytest.raises(ConfigError):
            DepthBinSpec(d_min=0.0, d_max=1.0, step=0.3)

    @pytest.mark.parametrize("d_min", [-20.0, -1e-9, np.nan, -np.inf])
    def test_bins_behind_the_camera_rejected(self, d_min):
        with pytest.raises(ConfigError, match="d_min"):
            DepthBinSpec(d_min=d_min, d_max=20.0, step=1.0)

    def test_bins_from_the_camera_centre_allowed(self):
        assert DepthBinSpec(d_min=0.0, d_max=1.0, step=0.5).n_bins == 2

    def test_coord_at_bin_center(self):
        assert depth_to_coord(2.25, SPEC) == 0.0

    def test_coord_at_lower_edge(self):
        assert depth_to_coord(2.0, SPEC) == -0.5

    def test_coord_generic(self):
        assert depth_to_coord(4.25, SPEC) == 4.0


class TestBilinear:
    """The sampler in the (v, u) plane, at a bin centre (`plane`)."""

    def test_constant_field(self):
        feat = np.full((3, 4, 5), 2.5, dtype=np.float32)
        for u, v in [(0.0, 0.0), (1.3, 2.7), (3.99, 2.0)]:
            assert plane(feat, u, v) == pytest.approx([2.5] * 3)

    def test_midpoint_average(self):
        feat = np.array([[[1.0, 3.0]]], dtype=np.float32)  # 1x1x2
        assert plane(feat, 0.5, 0.0)[0] == pytest.approx(2.0)

    def test_far_out_of_range_is_zero(self):
        assert plane(ones(2, 4, 4), -10.0, 0.0).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_outside_point_is_a_true_zero(self, value):
        """An out-of-range corner reads the zero border, never a map: with a
        non-finite value at flat index 0 of the feature, the depth volume and
        the mask, points fully outside the map sum to +0.0."""
        feat, depth, mask = ones(1, 4, 4), ones(SPEC.n_bins, 4, 4), ones(1, 4, 4)
        for a in (feat, depth, mask):
            a.flat[0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample(feat, depth, mask, [-10.0, 0.0], [0.0, 9.0], [2.25, 2.25])
        assert got.view(np.uint64).tolist() == [[0], [0]]

    def test_border_blends_with_zero_padding(self):
        assert plane(ones(1, 4, 4), -0.5, 0.0)[0] == pytest.approx(0.5)

    def test_integer_coordinates_exact(self):
        feat = Rng(3).uniform((2, 5, 6), -10.0, 10.0)
        v, u = np.mgrid[0:5, 0:6].astype(np.float64)
        d = np.full(30, SPEC.bin_center(0))
        got = sample(feat, ones(SPEC.n_bins, 5, 6), ones(1, 5, 6), u.ravel(), v.ravel(), d)
        assert np.array_equal(got, feat.reshape(2, -1).T.astype(np.float64))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2, 7), st.floats(-2, 6), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, u, v, alpha, beta):
        a = Rng(1).uniform((2, 4, 5), -1.0, 1.0)
        b = Rng(2).uniform((2, 4, 5), -1.0, 1.0)
        lhs = plane(alpha * a + beta * b, u, v)
        rhs = alpha * plane(a, u, v) + beta * plane(b, u, v)
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestTrilinear:
    """The sampler over the depth volume alone (`axis`)."""

    def test_one_hot_hit(self):
        k = 5
        depth = np.zeros((16, 3, 3), dtype=np.float32)
        depth[k] = 1.0
        d = SPEC.bin_center(k)
        assert axis(depth, 1.0, 1.0, float(d)) == pytest.approx(1.0)

    def test_one_hot_miss(self):
        k = 5
        depth = np.zeros((16, 3, 3), dtype=np.float32)
        depth[k] = 1.0
        for off in (-2, 2):
            d = SPEC.bin_center(k + off)
            assert axis(depth, 1.0, 1.0, float(d)) == 0.0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_outside_point_is_a_true_zero(self, value):
        """As in the plane, off the map and off the bin range alike, for a
        finite mask and feature."""
        depth = ones(16, 3, 3)
        depth.flat[0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample(ones(1, 3, 3), depth, ones(1, 3, 3),
                         [-10.0, 1.0, 1.0], [0.0, 1.0, -5.0], [5.0, 0.5, 5.0])
        assert got.view(np.uint64).tolist() == [[0], [0], [0]]

    def test_uniform_field(self):
        depth = np.full((16, 3, 3), 1.0 / 16, dtype=np.float32)
        assert axis(depth, 1.0, 1.2, 5.0) == pytest.approx(1.0 / 16)

    def test_monotone_under_domination(self):
        rng = Rng(4)
        d2 = rng.uniform((16, 3, 3), 0.0, 1.0)
        d1 = d2 + rng.uniform((16, 3, 3), 0.0, 1.0)
        u = rng.uniform((50,), -1.0, 3.0).astype(np.float64)
        v = rng.uniform((50,), -1.0, 3.0).astype(np.float64)
        d = rng.uniform((50,), 1.0, 11.0).astype(np.float64)
        r1 = sample(ones(1, 3, 3), d1, ones(1, 3, 3), u, v, d)
        r2 = sample(ones(1, 3, 3), d2, ones(1, 3, 3), u, v, d)
        assert np.all(r1 >= r2 - 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2, 4), st.floats(-2, 4), st.floats(0, 12), st.floats(-2, 2))
    def test_linearity(self, u, v, d, alpha):
        a = Rng(5).uniform((16, 3, 3), 0.0, 1.0)
        b = Rng(6).uniform((16, 3, 3), 0.0, 1.0)
        lhs = axis(alpha * a + b, u, v, d)
        rhs = alpha * axis(a, u, v, d) + axis(b, u, v, d)
        assert lhs == pytest.approx(rhs, abs=1e-5)


def random_maps(seed, C=3, H=4, W=5):
    """A (C, H, W) feature of both signs, a (SPEC.n_bins, H, W) depth volume
    and a (1, H, W) mask, both in [0, 1)."""
    rng = Rng(seed)
    return (rng.uniform((C, H, W), -2.0, 2.0), rng.uniform((SPEC.n_bins, H, W), 0.0, 1.0),
            rng.uniform((1, H, W), 0.0, 1.0))


class TestProduct:
    """The sampler over all three maps: the one volume depth x mask x feature."""

    def test_voxel_centres_exact(self):
        """At a voxel centre the sample is the voxel's (depth * mask) * feature."""
        feat, depth, mask = random_maps(7, H=5, W=6)
        k, i, j = (a.ravel() for a in np.mgrid[0:SPEC.n_bins, 0:5, 0:6])
        got = sample(feat, depth, mask, j, i, SPEC.bin_center(k))
        want = (depth[k, i, j].astype(np.float64) * mask[0, i, j])[:, None] * feat[:, i, j].T
        assert np.array_equal(got, want)

    def test_zero_product_is_a_true_zero(self):
        """Depth x mask zero at every voxel: every point sums to +0.0, though
        depth and mask are each nonzero around it."""
        feat, depth, mask = random_maps(8)
        mask[0, ::2] = 0.0
        depth[:, 1::2] = 0.0
        u, v, d = np.random.default_rng(8).uniform((-1, -1, 1), (5, 4, 11), (200, 3)).T
        assert not sample(feat, depth, mask, u, v, d).view(np.uint64).any()


def coordinate(lo, hi):
    """A float in [lo, hi], often a whole number (a pixel centre or bin
    centre) or a half-integer (a pixel edge)."""
    return st.one_of(
        st.floats(lo, hi),
        st.integers(lo, hi).map(float),
        st.integers(2 * lo, 2 * hi).map(lambda k: k / 2),
    )


# 0 to 12 m, often by quarters (bin centres and edges); SPEC's bins cover [2, 10)
depth_in_meters = st.one_of(st.floats(0.0, 12.0), st.integers(0, 48).map(lambda k: k / 4))


def factor(frac, upper):
    return frac if upper else 1 - frac


def bilinear_by_hand(feat, u, v):
    """One point's bilinear sample in Python floats, a corner at a time:
    (di, dj) in lexicographic order, weight (v factor) * (u factor) times
    the corner's value, +0.0 out of range, summed from +0.0."""
    C, H, W = feat.shape
    i0, j0 = math.floor(v), math.floor(u)
    fv, fu = v - i0, u - j0
    total = [0.0] * C
    for di in (0, 1):
        for dj in (0, 1):
            i, j = i0 + di, j0 + dj
            w = factor(fv, di) * factor(fu, dj)
            values = feat[:, i, j].tolist() if 0 <= i < H and 0 <= j < W else [0.0] * C
            total = [t + w * x for t, x in zip(total, values)]
    return total


def trilinear_by_hand(depth, u, v, d):
    """As bilinear_by_hand over (dk, di, dj), the depth bin first, under SPEC."""
    K, H, W = depth.shape
    c = (d - SPEC.d_min) / SPEC.step - 0.5
    k0, i0, j0 = math.floor(c), math.floor(v), math.floor(u)
    fk, fv, fu = c - k0, v - i0, u - j0
    total = 0.0
    for dk in (0, 1):
        for di in (0, 1):
            for dj in (0, 1):
                k, i, j = k0 + dk, i0 + di, j0 + dj
                w = factor(fk, dk) * factor(fv, di) * factor(fu, dj)
                inside = 0 <= k < K and 0 <= i < H and 0 <= j < W
                total = total + w * (float(depth[k, i, j]) if inside else 0.0)
    return total


def product_by_hand(feat, depth, mask, u, v, d):
    """One point's sample in Python floats, a corner at a time: (dk, di, dj)
    in lexicographic order, weight (bin factor) * (v factor) * (u factor),
    each corner adding ((weight * depth) * mask) * feature per channel, with
    mask and feature at the corner's pixel, +0.0 out of range, summed from
    +0.0 under SPEC."""
    C = feat.shape[0]
    K, H, W = depth.shape
    c = (d - SPEC.d_min) / SPEC.step - 0.5
    k0, i0, j0 = math.floor(c), math.floor(v), math.floor(u)
    fk, fv, fu = c - k0, v - i0, u - j0
    total = [0.0] * C
    for dk in (0, 1):
        for di in (0, 1):
            for dj in (0, 1):
                k, i, j = k0 + dk, i0 + di, j0 + dj
                w = factor(fk, dk) * factor(fv, di) * factor(fu, dj)
                on_map = 0 <= i < H and 0 <= j < W
                dv = float(depth[k, i, j]) if on_map and 0 <= k < K else 0.0
                mv = float(mask[0, i, j]) if on_map else 0.0
                fs = feat[:, i, j].tolist() if on_map else [0.0] * C
                total = [t + ((w * dv) * mv) * x for t, x in zip(total, fs)]
    return total


def with_generic_points(seed, points, lows, highs):
    """`points` plus 16 points drawn uniformly in float64 from the box [lows, highs]:
    their fractions have full 53-bit mantissas, so each product of weight
    factors rounds and its order shows in the bits."""
    drawn = np.random.default_rng(seed).uniform(lows, highs, (16, len(lows)))
    return points + [tuple(p) for p in drawn.tolist()]


class TestCornerBits:
    """The sampler equals the by-hand corner walks bit for bit: in the (v, u)
    plane, along the depth axis, and over the whole product."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(coordinate(-3, 7), coordinate(-3, 6)), max_size=12))
    def test_bilinear(self, seed, points):
        """At bin 0's centre, over a depth volume and a mask of ones."""
        feat = Rng(seed).uniform((3, 4, 5), -2.0, 2.0)
        points = with_generic_points(seed, points, (-3, -3), (7, 6))
        u, v = zip(*points)
        got = sample(feat, ones(SPEC.n_bins, 4, 5), ones(1, 4, 5), u, v,
                     [SPEC.bin_center(0)] * len(points))
        want = np.array([bilinear_by_hand(feat, *p) for p in points], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(coordinate(-3, 7), coordinate(-3, 6), depth_in_meters),
                    max_size=12))
    def test_trilinear(self, seed, points):
        """Over the depth volume alone: a mask and a one-channel feature of ones."""
        depth = Rng(seed).uniform((SPEC.n_bins, 4, 5), 0.0, 1.0)
        points = with_generic_points(seed, points, (-3, -3, 0), (7, 6, 12))
        got = sample(ones(1, 4, 5), depth, ones(1, 4, 5), *zip(*points))[:, 0]
        want = np.array([trilinear_by_hand(depth, *p) for p in points], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(coordinate(-3, 7), coordinate(-3, 6), depth_in_meters),
                    max_size=12))
    def test_product_walk(self, seed, points):
        maps = random_maps(seed)
        points = with_generic_points(seed, points, (-3, -3, 0), (7, 6, 12))
        got = sample(*maps, *zip(*points))
        want = np.array([product_by_hand(*maps, *p) for p in points], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forward_camera, small_geometry, small_scene, table_cells
from dualvt import height_stream
from dualvt.errors import NonFiniteValue, ShapeMismatch
from dualvt.geometry import (
    BevGridSpec, CameraRig, HeightSet, bev_cell_centers, make_height_samples, project_points,
)
from dualvt.height_stream import (
    INTERP,
    ROUND,
    ht_transform_fast,
    ht_transform_naive,
    precompute_ht_table,
    round_half_away,
)
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec, depth_to_coord
from dualvt.synth import generate_scene, random_scene_spec
from dualvt.tables import HT_MAGIC, read_table, write_table


def test_round_half_away():
    assert round_half_away(np.array([0.5, 1.5, -0.5, -1.5, 0.4, -0.4])).tolist() == [
        1.0, 2.0, -1.0, -2.0, 0.0, -0.0,
    ]


def one_cell_fixture():
    """One camera looking forward, a single grid cell 10 m ahead."""
    rig = forward_camera()
    grid = BevGridSpec(x_min=9.6, x_max=10.4, y_min=-0.4, y_max=0.4, nx=1, ny=1)
    dspec = DepthBinSpec(d_min=2.0, d_max=26.0, step=1.0)
    heights = make_height_samples("multires")
    return rig, grid, dspec, heights


def round_then_filter(rigs, grid, heights, dspec):
    """The table's columns from rounding every (cell, height) point of every
    camera and then keeping the in-range ones, in (cell, camera, height) order."""
    centers = bev_cell_centers(grid).reshape(-1, 2).astype(np.float64)
    pts = np.array([(x, y, z) for x, y in centers for z in heights.z_values])
    records = []
    for cam, rig in enumerate(rigs):
        W, H = rig.feat_w, rig.feat_h
        u, v, d, valid = project_points(*pts.T, rig)
        ui, vi = round_half_away(u).astype(int), round_half_away(v).astype(int)
        k = round_half_away(depth_to_coord(d, dspec)).astype(int)
        kept = valid & (ui >= 0) & (ui < W) & (vi >= 0) & (vi < H) & (k >= 0) & (k < dspec.n_bins)
        for p in np.flatnonzero(kept):
            pixel = vi[p] * W + ui[p]
            records.append((p // len(heights), cam, p, cam * H * W + pixel,
                            (cam * dspec.n_bins + k[p]) * H * W + pixel))
    records.sort()
    return tuple([int(r[i]) for r in records] for i in (0, 3, 4))


@st.composite
def tilted_rigs(draw, W, H):
    """A camera inside the anchor height range [-5, 3] m with any yaw, pitch
    up to +-90 degrees and any roll, fx and fy from 0.2 to 2000 pixels."""
    yaw, roll = draw(st.floats(-np.pi, np.pi)), draw(st.floats(-np.pi, np.pi))
    pitch = draw(st.floats(-np.pi / 2, np.pi / 2))
    center = np.array([draw(st.floats(-4, 4)), draw(st.floats(-4, 4)), draw(st.floats(-5, 3))])
    fx, fy = (draw(st.one_of(st.floats(0.2, 8), st.floats(8, 2000))) for _ in range(2))
    cx, cy = draw(st.floats(-2, W + 1)), draw(st.floats(-2, H + 1))

    def about(axis, angle):  # rotation about ego axis 0 (x), 1 (y) or 2 (z)
        i, j = [a for a in range(3) if a != axis]
        m = np.eye(3)
        m[[i, i, j, j], [i, j, i, j]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
        return m

    turn = about(2, yaw) @ about(1, pitch) @ about(0, roll)
    # rows: camera right, down and forward in ego coordinates, level and facing +x at zero
    R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]) @ turn.T
    T = np.eye(4)
    T[:3, :3], T[:3, 3] = R, -R @ center
    K = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    return CameraRig(intrinsics=K, extrinsics=T, feat_w=W, feat_h=H)


class TestPrecompute:
    def test_all_heights_hit_single_cell(self):
        rig, grid, dspec, heights = one_cell_fixture()
        table = precompute_ht_table([rig], grid, heights, dspec)
        assert table.n_entries == 13
        assert np.all(table_cells(table) == 0)
        # all 13 heights land in the 10 m depth bin
        assert np.all(table.depth_idx // (rig.feat_h * rig.feat_w) == 8)

    def test_entry_order_is_camera_then_height(self):
        """Within a cell, entries run camera by camera, heights ascending."""
        rig, grid, dspec, heights = one_cell_fixture()
        one = precompute_ht_table([rig], grid, heights, dspec)
        # higher points project higher in the image: feature rows fall
        assert np.all(np.diff(one.feat_idx.astype(np.int64)) <= 0)
        assert one.feat_idx[0] > one.feat_idx[-1]
        two = precompute_ht_table([rig, rig], grid, heights, dspec)
        pixels = rig.feat_h * rig.feat_w
        assert (two.feat_idx // pixels).tolist() == [0] * 13 + [1] * 13
        assert np.array_equal(two.feat_idx % pixels, np.tile(one.feat_idx, 2))

    def test_cull_keeps_every_point_rounding_keeps(self):
        """Points within 1e-9 of the cull's and the keep test's pixel bounds and of
        the depth-bin bounds give the entries of rounding every point, then filtering."""
        _, grid, dspec, heights = one_cell_fixture()
        W, H = 8, 6

        def near(b):
            return [b - 1e-9, np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf), b + 1e-9]

        mid_u, mid_v, mid_d = (W - 1) / 2, (H - 1) / 2, 10.0
        targets = (
            [(u, mid_v, mid_d) for b in (-1.0, -0.5, W - 1.0, W - 0.5) for u in near(b)]
            + [(mid_u, v, mid_d) for b in (-1.0, -0.5, H - 1.0, H - 0.5) for v in near(b)]
            + [(mid_u, mid_v, d) for b in (dspec.d_min, dspec.d_max) for d in near(b)]
        )
        rigs = []
        for u, v, d in targets:
            # the cell center (10, 0) projects to u at every height, to v at height
            # 0 (others land within 0.25 of it) and to depth d
            rig = forward_camera(feat_w=W, feat_h=H, fx=1.0, fy=0.5)
            K, T = rig.intrinsics.copy(), rig.extrinsics.copy()
            K[0, 2], K[1, 2], T[2, 3] = u, v, d - 10.0
            rigs.append(CameraRig(intrinsics=K, extrinsics=T, feat_w=W, feat_h=H))
        table = precompute_ht_table(rigs, grid, heights, dspec)
        cells, feat_idx, depth_idx = round_then_filter(rigs, grid, heights, dspec)
        assert 0 < len(cells) < len(rigs) * len(heights)
        assert table_cells(table).tolist() == cells
        assert table.feat_idx.tolist() == feat_idx
        assert table.depth_idx.tolist() == depth_idx

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_candidate_cull_equals_round_then_filter(self, data):
        """Rigs of any yaw, pitch up to +-90 degrees and any roll, at heights
        inside the anchor range, so the camera plane cuts anchor segments:
        projecting only `_reachable_cells`' candidates keeps every entry."""
        W = data.draw(st.integers(1, 44), label="feat_w")
        H = data.draw(st.integers(1, 16), label="feat_h")
        rigs = data.draw(st.lists(tilted_rigs(W, H), min_size=1, max_size=3), label="rigs")
        nx, ny = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        x0, y0 = data.draw(st.floats(-10, 2)), data.draw(st.floats(-10, 2))
        span = data.draw(st.floats(0.5, 16), label="span")
        grid = BevGridSpec(x_min=x0, x_max=x0 + span, y_min=y0, y_max=y0 + span, nx=nx, ny=ny)
        heights = data.draw(st.one_of(
            st.just(make_height_samples("multires")),
            st.just(make_height_samples("uniform:2")),
            st.floats(-5, 3).map(lambda z: HeightSet((z,))),
        ), label="heights")
        dspec = DepthBinSpec(d_min=0.0, d_max=32.0, step=0.5)
        table = precompute_ht_table(rigs, grid, heights, dspec)
        cells, feat_idx, depth_idx = round_then_filter(rigs, grid, heights, dspec)
        assert table_cells(table).tolist() == cells
        assert table.feat_idx.tolist() == feat_idx
        assert table.depth_idx.tolist() == depth_idx

    def test_no_heights_is_empty(self):
        rig, grid, dspec, _ = one_cell_fixture()
        assert precompute_ht_table([rig], grid, HeightSet(()), dspec).n_entries == 0

    def test_camera_facing_away_is_empty(self):
        rig = forward_camera()
        grid = BevGridSpec(x_min=-20, x_max=-10, y_min=-5, y_max=5, nx=8, ny=8)
        table = precompute_ht_table(
            [rig], grid, make_height_samples("multires"), DepthBinSpec()
        )
        assert table.n_entries == 0

    def test_rebuild_is_byte_identical(self, tmp_path, small_bundle):
        bundle, heights = small_bundle
        a = tmp_path / "a.htlt"
        b = tmp_path / "b.htlt"
        write_table(
            precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec), a
        )
        write_table(
            precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec), b
        )
        assert a.read_bytes() == b.read_bytes()

    def test_per_cell_bound(self, small_bundle):
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        counts = np.diff(table.offsets)
        assert counts.max() <= len(heights) * len(bundle.rigs)

    def test_serialization_roundtrip(self, tmp_path, small_bundle):
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        path = tmp_path / "t.htlt"
        write_table(table, path)
        back = read_table(path, HT_MAGIC)
        for field in ("offsets", "feat_idx", "depth_idx"):
            assert np.array_equal(getattr(back, field), getattr(table, field))
        assert (back.ny, back.nx, back.n_bins) == (table.ny, table.nx, table.n_bins)
        assert back.heights == heights.z_values
        assert back.geometry_sha256 == table.geometry_sha256


class TestTransform:
    def test_zero_mask_zeroes_output(self):
        rig, grid, dspec, heights = one_cell_fixture()
        feats = Rng(0).uniform((1, 16, 16, 4), -1.0, 1.0)
        depths = np.full((1, 24, 16, 16), 1.0 / 24, dtype=np.float32)
        masks = np.zeros((1, 16, 16), dtype=np.float32)
        for mode in (INTERP, ROUND):
            out = ht_transform_naive(
                feats, depths, masks, [rig], grid, heights, dspec, mode=mode
            )
            assert np.all(out == 0.0)

    def test_constant_fields_closed_form(self):
        rig, grid, dspec, heights = one_cell_fixture()
        n_bins = dspec.n_bins
        feats = np.ones((1, 16, 16, 4), dtype=np.float32)
        depths = np.full((1, n_bins, 16, 16), 1.0 / n_bins, dtype=np.float32)
        masks = np.ones((1, 16, 16), dtype=np.float32)
        table = precompute_ht_table([rig], grid, heights, dspec)
        out = ht_transform_fast(feats, depths, masks, table)
        # n valid correspondences, each contributing 1/n_bins per channel
        assert out[:, 0, 0] == pytest.approx(
            np.full(4, table.n_entries / n_bins), rel=1e-6
        )

    def test_one_hot_depth_contributes_feature_exactly(self):
        rig, grid, dspec, heights = one_cell_fixture()
        table = precompute_ht_table([rig], grid, heights, dspec)
        # pick the first table entry; make depth one-hot at exactly that index
        fi = int(table.feat_idx[0])
        di = int(table.depth_idx[0])
        feats = Rng(1).uniform((1, 16, 16, 4), -2.0, 2.0)
        depths = np.zeros((1, dspec.n_bins, 16, 16), dtype=np.float32)
        depths.ravel()[di] = 1.0
        masks = np.ones((1, 16, 16), dtype=np.float32)
        out = ht_transform_fast(feats, depths, masks, table)
        assert out[:, 0, 0] == pytest.approx(feats.reshape(-1, 4)[fi], rel=1e-6)

    def test_fast_equals_naive_round_bitwise(self, small_bundle):
        """Small scene, and desk-scale random_scene_spec(1) masked and
        with the masks disabled, at threads 1 and 2.  Synth masks are exactly
        0 or 1, so a three-camera scene also runs with fractional masks, where
        a float32 ``depth * mask`` would round and the float64 weight does not."""
        bundle, heights = small_bundle
        desk = generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())
        grid, dspec, _ = small_geometry()
        frac = generate_scene(random_scene_spec(1, n_cameras=3, feat_w=16, feat_h=8,
                                                channels=8), grid, dspec)
        rng = Rng(5)
        fractional = (frac.masks * rng.uniform(frac.masks.shape)
                      + rng.uniform(frac.masks.shape))
        assert fractional.dtype == np.float32
        cases = [
            (bundle, bundle.masks, (1,)),
            (desk, desk.masks, (1, 2)),
            (desk, [np.ones_like(m) for m in desk.masks], (1, 2)),
            (frac, fractional, (1, 2)),
        ]
        for b, masks, thread_counts in cases:
            table = precompute_ht_table(b.rigs, b.grid, heights, b.dspec)
            naive = ht_transform_naive(
                b.feats, b.depths, masks, b.rigs, b.grid, heights, b.dspec, mode=ROUND,
            )
            for threads in thread_counts:
                fast = ht_transform_fast(b.feats, b.depths, masks, table, threads=threads)
                assert np.array_equal(fast.view(np.uint32), naive.view(np.uint32))

    def test_naive_round_is_table_free(self, small_bundle, monkeypatch):
        """The ROUND oracle shares no code with the table path it checks."""
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        fast = ht_transform_fast(bundle.feats, bundle.depths, bundle.masks, table)

        def table_code(*args, **kwargs):
            raise AssertionError("the ROUND oracle called table-path code")

        for name in ("weighted_scatter", "stack_frame", "precompute_ht_table"):
            monkeypatch.setattr(height_stream, name, table_code)
        naive = ht_transform_naive(
            bundle.feats, bundle.depths, bundle.masks,
            bundle.rigs, bundle.grid, heights, bundle.dspec, mode=ROUND,
        )
        assert np.array_equal(fast.view(np.uint32), naive.view(np.uint32))

    def test_empty_table_gives_zero_feature(self):
        rig = forward_camera()
        grid = BevGridSpec(x_min=-20, x_max=-10, y_min=-5, y_max=5, nx=4, ny=4)
        dspec = DepthBinSpec(d_min=2.0, d_max=26.0, step=1.0)
        table = precompute_ht_table([rig], grid, make_height_samples("multires"), dspec)
        feats = np.ones((1, 16, 16, 2), dtype=np.float32)
        depths = np.ones((1, 24, 16, 16), dtype=np.float32)
        masks = np.ones((1, 16, 16), dtype=np.float32)
        out = ht_transform_fast(feats, depths, masks, table)
        assert out.shape == (2, 4, 4)
        assert np.all(out == 0.0)

    def test_single_entry_multiply_accumulate(self):
        rig, grid, dspec, heights = one_cell_fixture()
        table = precompute_ht_table([rig], grid, HeightSet((0.0,)), dspec)
        assert table.n_entries == 1
        feats = np.zeros((1, 16, 16, 2), dtype=np.float32)
        feats.reshape(-1, 2)[table.feat_idx[0], 0] = 2.0
        depths = np.zeros((1, dspec.n_bins, 16, 16), dtype=np.float32)
        depths.ravel()[table.depth_idx[0]] = 0.5
        masks = np.ones((1, 16, 16), dtype=np.float32)
        out = ht_transform_fast(feats, depths, masks, table)
        assert out[0, 0, 0] == pytest.approx(1.0)
        assert out[1, 0, 0] == 0.0

    def test_mask_monotonicity(self, small_bundle):
        """Raising a mask pixel never lowers accumulated magnitude when D, I >= 0."""
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        feats = [np.abs(f) for f in bundle.feats]
        base = ht_transform_fast(feats, bundle.depths, bundle.masks, table)
        bumped_masks = [m.copy() for m in bundle.masks]
        bumped_masks[0][:] = np.minimum(bumped_masks[0] + 0.5, 1.0)
        bumped = ht_transform_fast(feats, bundle.depths, bumped_masks, table)
        assert np.all(bumped >= base - 1e-6)

    def test_shape_mismatch_rejected(self, small_bundle):
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        bad_masks = bundle.masks[:, :5]
        with pytest.raises(ShapeMismatch):
            ht_transform_fast(bundle.feats, bundle.depths, bad_masks, table)

    @pytest.mark.parametrize("which", ["feats", "depths", "masks"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, small_bundle, which, bad):
        bundle, heights = small_bundle
        table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        inputs = {"feats": bundle.feats, "depths": bundle.depths, "masks": bundle.masks}
        inputs[which] = [t.copy() for t in inputs[which]]
        inputs[which][-1].flat[-1] = bad
        with pytest.raises(NonFiniteValue):
            ht_transform_fast(**inputs, table=table)


def smooth_fields(rig, dspec, channels=6):
    """Bandlimited feature map, smooth depth distribution, smooth mask: one
    camera's frame, camera-first."""
    H, W = rig.feat_h, rig.feat_w
    v, u = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    feat = np.stack(
        [
            1.0 + 0.5 * np.sin(2 * np.pi * (u / W + c / channels))
            * np.cos(2 * np.pi * v / (2 * H))
            for c in range(channels)
        ], axis=-1
    ).astype(np.float32)
    centers = dspec.bin_center(np.arange(dspec.n_bins))
    peak = 8.0 + 6.0 * np.sin(2 * np.pi * u / W) * np.cos(np.pi * v / H)
    depth = np.exp(
        -((centers[:, None, None] - peak[None]) ** 2) / (2 * 6.0**2)
    ).astype(np.float32)
    depth /= depth.sum(axis=0, keepdims=True)
    mask = (0.6 + 0.4 * np.sin(2 * np.pi * u / W) * np.sin(np.pi * v / H)).astype(np.float32)
    return feat[None], depth[None], np.clip(mask, 0.0, 1.0)[None]


def test_interp_round_proximity_on_smooth_fields():
    """Regression bound: rounding stays close to interpolation on smooth inputs."""
    rig = forward_camera(feat_w=32, feat_h=24, fx=16.0, fy=8.0)
    grid = BevGridSpec(x_min=2.0, x_max=22.0, y_min=-10.0, y_max=10.0, nx=40, ny=40)
    dspec = DepthBinSpec(d_min=2.0, d_max=26.0, step=1.0)
    heights = make_height_samples("multires")
    feats, depths, masks = smooth_fields(rig, dspec)
    args = (feats, depths, masks, [rig], grid, heights, dspec)
    interp = ht_transform_naive(*args, mode=INTERP)
    rounded = ht_transform_naive(*args, mode=ROUND)
    gap = np.linalg.norm(interp - rounded) / np.linalg.norm(interp)
    assert gap <= 0.15


def test_interp_is_zero_where_depth_times_mask_is(small_bundle):
    """INTERP interpolates depth x mask x feature as one volume: with the
    depth zeroed wherever the mask is on, that product is 0 at every voxel,
    so every cell reads +0.0, though depth and mask are nonzero side by side."""
    bundle, heights = small_bundle
    depths = [d * (m == 0) for d, m in zip(bundle.depths, bundle.masks)]
    assert any(m.any() for m in bundle.masks) and all(d.any() for d in depths)
    out = ht_transform_naive(bundle.feats, depths, bundle.masks, bundle.rigs, bundle.grid,
                             heights, bundle.dspec, mode=INTERP)
    assert not out.view(np.uint32).any()


def test_latency_fast_vs_interp(small_bundle):
    """The lookup-table path must clearly outrun interpolation even at small scale."""
    import time

    bundle, heights = small_bundle
    table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)

    def timed(fn, reps=3):
        fn()
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    fast = timed(lambda: ht_transform_fast(bundle.feats, bundle.depths, bundle.masks, table))
    interp = timed(
        lambda: ht_transform_naive(
            bundle.feats, bundle.depths, bundle.masks,
            bundle.rigs, bundle.grid, heights, bundle.dspec, mode=INTERP,
        )
    )
    assert interp > fast

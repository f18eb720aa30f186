import numpy as np
import pytest

from conftest import forward_camera, small_geometry, small_scene, table_cells
from dualvt.errors import NonFiniteValue, ShapeMismatch
from dualvt.geometry import BevGridSpec, back_project, project_points
from dualvt.lift_stream import (
    lift_frustum,
    lss_pool,
    lss_pool_reference,
    precompute_lss_table,
)
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec
from dualvt.tables import LSS_MAGIC, read_table, write_table

DSPEC = DepthBinSpec(d_min=2.0, d_max=26.0, step=1.0)


class TestLiftFrustum:
    def test_frustum_cardinality(self):
        rig = forward_camera(feat_w=12, feat_h=6)
        assert [a.shape for a in lift_frustum(rig, DSPEC)] == [(DSPEC.n_bins, 6, 12)] * 2

    def test_principal_pixel_lifts_along_axis(self):
        rig = forward_camera()
        x, _ = lift_frustum(rig, DSPEC)
        # principal point (7.5, 7.5) is between pixels; use an explicit check
        # on pixel (8, 8): slight offset from the optical axis
        d_c = DSPEC.bin_center(0)
        assert x[0, 8, 8] == pytest.approx(d_c)  # forward distance = bin-center depth

    def test_project_roundtrip(self):
        rig = forward_camera()
        x, y = lift_frustum(rig, DSPEC)
        full = back_project(rig, DSPEC.bin_center(np.arange(DSPEC.n_bins))[:, None, None])
        assert np.array_equal(x, full[0]) and np.array_equal(y, full[1])
        pu, pv, pd, valid = project_points(x, y, full[2], rig)
        k, v, u = np.indices(pu.shape)
        assert valid.all()
        assert pu == pytest.approx(u, abs=1e-4)
        assert pv == pytest.approx(v, abs=1e-4)
        assert pd == pytest.approx(DSPEC.bin_center(k), abs=1e-4)


class TestPrecompute:
    def test_forward_grid_catches_forward_frustum(self):
        rig = forward_camera(feat_w=8, feat_h=6, fx=4.0, fy=3.0)
        # a grid covering everything the camera can possibly reach
        grid = BevGridSpec(x_min=0.0, x_max=60.0, y_min=-60.0, y_max=60.0, nx=60, ny=120)
        table = precompute_lss_table([rig], grid, DSPEC)
        x, y = lift_frustum(rig, DSPEC)
        in_grid = (x >= grid.x_min) & (x < grid.x_max) & (y >= grid.y_min) & (y < grid.y_max)
        assert table.n_entries == int(in_grid.sum())
        assert table.n_entries > 0

    def test_grid_behind_camera_is_empty(self):
        rig = forward_camera()
        grid = BevGridSpec(x_min=-30.0, x_max=-10.0, y_min=-5.0, y_max=5.0, nx=8, ny=8)
        assert precompute_lss_table([rig], grid, DSPEC).n_entries == 0

    def test_entry_order_is_camera_then_depth(self):
        """Within a cell, entries run camera by camera, depth index ascending."""
        rig = forward_camera()
        grid = BevGridSpec(x_min=0.0, x_max=30.0, y_min=-15.0, y_max=15.0, nx=6, ny=6)
        one = precompute_lss_table([rig], grid, DSPEC)
        two = precompute_lss_table([rig, rig], grid, DSPEC)
        pixels, volume = rig.feat_h * rig.feat_w, DSPEC.n_bins * rig.feat_h * rig.feat_w
        assert two.n_entries == 2 * one.n_entries
        one_cells, two_cells = table_cells(one), table_cells(two)
        assert np.array_equal(np.unique(two_cells), np.unique(one_cells))
        cams = two.feat_idx // pixels
        assert np.array_equal(two.depth_idx // volume, cams)
        for cell in np.unique(one_cells):
            run = two_cells == cell
            n = int(np.count_nonzero(one_cells == cell))
            assert n > 0 and cams[run].tolist() == [0] * n + [1] * n
            di = two.depth_idx[run].astype(np.int64) % volume
            assert np.array_equal(di, np.tile(one.depth_idx[one_cells == cell], 2))
            assert np.all(np.diff(di[:n]) > 0) and np.all(np.diff(di[n:]) > 0)

    def test_rebuild_determinism(self, tmp_path, small_bundle):
        bundle, _ = small_bundle
        a, b = tmp_path / "a.lspt", tmp_path / "b.lspt"
        write_table(precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec), a)
        write_table(precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_serialization_roundtrip(self, tmp_path, small_bundle):
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        path = tmp_path / "t.lspt"
        write_table(table, path)
        back = read_table(path, LSS_MAGIC)
        assert np.array_equal(back.offsets, table.offsets)
        assert np.array_equal(back.feat_idx, table.feat_idx)
        assert np.array_equal(back.depth_idx, table.depth_idx)
        assert back.heights == ()
        assert back.geometry_sha256 == table.geometry_sha256

    def test_dynamic_per_cell_counts(self, small_bundle):
        """Pooling counts vary per cell, unlike the fixed multi-height stream."""
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        counts = np.diff(table.offsets)
        nonzero = counts[counts > 0]
        assert nonzero.size > 1
        assert nonzero.min() != nonzero.max()


class TestPool:
    def test_zero_mask_gives_zero(self, small_bundle):
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        zeros = [np.zeros_like(m) for m in bundle.masks]
        out = lss_pool(bundle.feats, bundle.depths, zeros, table)
        assert np.all(out == 0.0)

    def test_one_hot_conservation_count(self):
        """With one-hot depth and unit features, BEV mass counts in-grid hits."""
        rig = forward_camera(feat_w=8, feat_h=6, fx=4.0, fy=3.0)
        grid = BevGridSpec(x_min=0.0, x_max=30.0, y_min=-30.0, y_max=30.0, nx=30, ny=60)
        table = precompute_lss_table([rig], grid, DSPEC)
        feats = np.ones((1, 6, 8, 3), dtype=np.float32)
        masks = np.ones((1, 6, 8), dtype=np.float32)
        hot_bins = Rng(2).integers((6, 8), DSPEC.n_bins)
        depth = np.zeros((DSPEC.n_bins, 6, 8), dtype=np.float32)
        for vv in range(6):
            for uu in range(8):
                depth[hot_bins[vv, uu], vv, uu] = 1.0
        out = lss_pool(feats, depth[None], masks, table)
        # count one-hot points landing inside the grid
        x, y = lift_frustum(rig, DSPEC)
        hot = hot_bins == np.arange(DSPEC.n_bins)[:, None, None]
        in_grid = (x >= grid.x_min) & (x < grid.x_max) & (y >= grid.y_min) & (y < grid.y_max)
        assert out[0].sum() == pytest.approx(int((hot & in_grid).sum()), rel=1e-6)

    @pytest.mark.parametrize("which", ["depths", "masks"])
    def test_shape_mismatch_rejected(self, small_bundle, which):
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        inputs = {"feats": bundle.feats, "depths": bundle.depths, "masks": bundle.masks}
        inputs[which] = inputs[which][..., :5, :]
        with pytest.raises(ShapeMismatch):
            lss_pool(**inputs, table=table)

    def test_nan_feature_rejected(self, small_bundle):
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        feats = [f.copy() for f in bundle.feats]
        feats[1][0, 0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            lss_pool(feats, bundle.depths, bundle.masks, table)

    def test_conservation_per_channel(self, small_bundle):
        """Total BEV mass equals the direct weighted sum over table records."""
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        out = lss_pool(bundle.feats, bundle.depths, bundle.masks, table)
        pixels = bundle.feats.reshape(-1, bundle.spec.channels)
        gf, gd = table.feat_idx, table.depth_idx
        w = bundle.depths.ravel()[gd].astype(np.float64) * bundle.masks.ravel()[gf]
        direct = (w[:, None] * pixels[gf].astype(np.float64)).sum(axis=0)
        pooled = out.reshape(out.shape[0], -1).astype(np.float64).sum(axis=1)
        assert pooled == pytest.approx(direct, rel=1e-6)

    def test_mode_nesting(self, small_bundle):
        """Masked pooling is elementwise dominated when features are nonnegative."""
        bundle, _ = small_bundle
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        feats = [np.abs(f) for f in bundle.feats]
        ones = [np.ones_like(m) for m in bundle.masks]
        masked = lss_pool(feats, bundle.depths, bundle.masks, table)
        plain = lss_pool(feats, bundle.depths, ones, table)
        assert np.all(np.abs(masked) <= np.abs(plain) + 1e-6)

    def test_reference_loop_matches_bitwise(self):
        """The table-free per-point loop reproduces the pooled result exactly."""
        grid = BevGridSpec(x_min=-12.0, x_max=12.0, y_min=-12.0, y_max=12.0, nx=24, ny=24)
        dspec = DepthBinSpec(d_min=2.0, d_max=14.0, step=1.0)
        from dualvt.synth import generate_scene, random_scene_spec

        spec = random_scene_spec(3, n_cameras=2, feat_w=10, feat_h=6, channels=4)
        bundle = generate_scene(spec, grid, dspec)
        table = precompute_lss_table(bundle.rigs, grid, dspec)
        for masks in (bundle.masks, [np.ones_like(m) for m in bundle.masks]):
            fast = lss_pool(bundle.feats, bundle.depths, masks, table)
            ref = lss_pool_reference(bundle.feats, bundle.depths, masks, bundle.rigs, grid, dspec)
            assert np.array_equal(fast.view(np.uint32), ref.view(np.uint32))

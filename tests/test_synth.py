import json
import re

import numpy as np
import pytest

from conftest import scene_digest, small_geometry
from dualvt.errors import ConfigError
from dualvt.geometry import BevGridSpec, project_points
from dualvt.sampling import DepthBinSpec
from dualvt.synth import (
    Box,
    SceneSpec,
    _ray_cast,
    _triangular_depth_mass,
    footprint_to_bev_mask,
    generate_scene,
    load_bundle,
    make_ring_rigs,
    random_scene_spec,
    read_scene_spec,
    save_bundle,
    standard_scene_spec,
)

GRID, DSPEC, _ = small_geometry()
# SHA-256 of the desk standard scene's features, then depths, then masks (`scene_digest`)
GOLDEN_SCENE = "8253b0ec4aefa93011faaf33ba06ab566c40139fa9a725d61252054c7028b344"


class TestRig:
    def test_ring_layout(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=6))
        assert len(rigs) == 6
        for rig in rigs:
            # camera sits at (0, 0, cam_height) in ego coordinates
            origin = np.linalg.inv(rig.extrinsics)[:3, 3]
            assert origin == pytest.approx([0.0, 0.0, 1.5], abs=1e-9)

    def test_front_camera_sees_forward_point(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=6))
        u, _, d, valid = project_points(*np.array([[10.0, 0.0, 1.5]]).T, rigs[0])
        assert valid[0]
        assert d[0] == pytest.approx(10.0)
        assert u[0] == pytest.approx((rigs[0].feat_w - 1) / 2)

    def test_cameras_cover_distinct_yaws(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=4))
        # the point 10 m ahead is only in front of cameras whose forward
        # axis has positive dot with +x
        forwards = [np.linalg.inv(r.extrinsics)[:3, :3][:, 2] for r in rigs]
        dots = sorted(float(f @ np.array([1.0, 0.0, 0.0])) for f in forwards)
        assert dots == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-9)

    def test_ring_rig_translations_hold_no_negative_zero(self):
        """Each ring camera's translation is -R (0, 0, h) with +0.0 where it is
        zero, so a rig's JSON and fingerprint bytes hold no -0.0."""
        for rig in make_ring_rigs(SceneSpec(n_cameras=6)):
            t = rig.extrinsics[:3, 3]
            assert not np.signbit(t[t == 0]).any()


class TestReadSceneSpec:
    def test_left_out_fields_and_blocks_take_their_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 4, "grid": GRID.to_json()}))
        assert read_scene_spec(path) == (SceneSpec(seed=4), GRID, DepthBinSpec())

    @pytest.mark.parametrize("text, message", [
        ("{not json", "^cannot read scene spec {}: Expecting property name"),
        ("[1, 2]", "^scene spec {} is not a JSON object$"),
        ('{"grid": {"nx": 4}}', "^scene spec {}: 'grid' block: BevGridSpec is missing key "
                                "'x_min'$"),
        ('{"dspec": 5}', "^scene spec {}: 'dspec' block: DepthBinSpec must be a JSON "
                         "object, got int$"),
        ('{"channels": 0}', "^scene spec {}: channels must be at least 1, got 0$"),
        ('{"bogus": 1}', "^scene spec {}: SceneSpec has unknown key 'bogus'$"),
    ], ids=["not-json", "not-an-object", "grid-block", "dspec-block", "field", "unknown-key"])
    def test_refusal_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message.format(re.escape(str(path)))):
            read_scene_spec(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot read scene spec "):
            read_scene_spec(tmp_path / "none.json")


class TestRayCast:
    def test_box_ahead_hits_center_pixel(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=1))
        rig = rigs[0]
        boxes = [Box(center=(10.0, 0.0, 1.5), size=(2.0, 4.0, 4.0))]
        hit, t, bi = _ray_cast(rig, boxes)
        # center column looks straight down +x; the near face is at x = 9
        vc = rig.feat_h // 2
        uc = int(round((rig.feat_w - 1) / 2))
        assert hit[vc, uc]
        assert t[vc, uc] == pytest.approx(9.0, rel=1e-3)
        assert bi[vc, uc] == 0

    def test_nearest_box_wins(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=1))
        rig = rigs[0]
        boxes = [
            Box(center=(20.0, 0.0, 1.5), size=(2.0, 4.0, 4.0)),
            Box(center=(10.0, 0.0, 1.5), size=(2.0, 4.0, 4.0)),
        ]
        hit, t, bi = _ray_cast(rig, boxes)
        vc, uc = rig.feat_h // 2, int(round((rig.feat_w - 1) / 2))
        assert bi[vc, uc] == 1

    @pytest.mark.parametrize("z, hits", [(0.5, False), (1.5, True)],
                             ids=["below-camera", "straddling-camera"])
    def test_horizontal_centre_row(self, z, hits):
        """An odd feat_h gives a centre row of exactly horizontal rays at the
        camera's 1.5 m height: they pass over a box whose top is at 1.0 m and
        meet one that spans the camera's height at its near face."""
        rig = make_ring_rigs(SceneSpec(n_cameras=1, feat_w=9, feat_h=5))[0]
        hit, t, _ = _ray_cast(rig, [Box(center=(10.0, 0.0, z), size=(2.0, 2.0, 1.0))])
        assert hit[2, 4] == hits and hit[2].any() == hits
        assert t[2, 4] == pytest.approx(9.0 if hits else 0.0)

    def test_empty_scene_no_hits(self):
        rigs = make_ring_rigs(SceneSpec(seed=0, n_cameras=2))
        for rig in rigs:
            hit, t, bi = _ray_cast(rig, [])
            assert not hit.any()
            assert np.all(bi == -1)


class TestDepthKernel:
    def test_columns_sum_to_one(self):
        t = np.linspace(2.5, 25.0, 50)
        mass = _triangular_depth_mass(t, DSPEC, kappa=4.0)
        assert mass.sum(axis=0) == pytest.approx(np.ones(50), abs=1e-5)

    def test_peak_at_correct_bin(self):
        # depth 10.0 falls in bin floor((10-2)/1) = 8 of the small spec
        mass = _triangular_depth_mass(np.array([10.0]), DSPEC, kappa=4.0)
        assert int(np.argmax(mass[:, 0])) in (7, 8)

    def test_default_spec_bin_pinned(self):
        # default spec 2.0..58.0 step 0.5: depth 10.0 peaks near bin 16
        dspec = DepthBinSpec()
        mass = _triangular_depth_mass(np.array([10.0]), dspec, kappa=4.0)
        assert int(np.argmax(mass[:, 0])) in (15, 16)

    def test_concentration(self):
        """kappa >= 4 keeps the kernel within a couple of bins."""
        mass = _triangular_depth_mass(np.array([10.25]), DSPEC, kappa=4.0)
        assert (mass[:, 0] > 0).sum() <= 2

    def test_out_of_range_depth_degenerates_to_nearest_bin(self):
        mass = _triangular_depth_mass(np.array([100.0]), DSPEC, kappa=4.0)
        assert mass[-1, 0] == pytest.approx(1.0)
        mass = _triangular_depth_mass(np.array([0.5]), DSPEC, kappa=4.0)
        assert mass[0, 0] == pytest.approx(1.0)


class TestBox:
    @pytest.mark.parametrize("center, size, field", [
        ((np.nan, 0.0, 0.5), (4.0, 2.0, 1.0), "center"),
        ((0.0, -np.inf, 0.5), (4.0, 2.0, 1.0), "center"),
        ((0.0, 0.0, 0.5), (np.inf, 2.0, 1.0), "size"),
        ((0.0, 0.0, 0.5), (4.0, np.nan, 1.0), "size"),
        ((0.0, 0.0, 0.5), (-2.0, 2.0, 1.0), "size"),
        ((0.0, 0.0, 0.5), (4.0, 2.0, 0.0), "size"),
        ((0.0, 0.0, 0.5), (4.0, 2.0, -0.0), "size"),
        ((10**400, 0, 0), (1, 1, 1), "center"),
    ], ids=["center-nan", "center-neg-inf", "size-inf", "size-nan", "size-neg", "size-0",
            "size-neg-0", "center-huge-int"])
    def test_non_finite_or_empty_box_refused(self, center, size, field):
        with pytest.raises(ConfigError, match=f"box {field}"):
            Box(center=center, size=size)

    def test_any_finite_center_and_positive_size_accepted(self):
        box = Box(center=(-1e6, 0, -3), size=(1e-9, 2, 1e6))
        assert box.to_json() == {"center": [-1e6, 0, -3], "size": [1e-9, 2, 1e6]}


class TestFootprint:
    def test_centered_box_on_coarse_cells(self):
        grid = BevGridSpec(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0, nx=10, ny=10)
        # cells are 0.8 m; a 2x2 m box at the origin covers centers within 1 m
        mask = footprint_to_bev_mask([Box(center=(0, 0, 0.5), size=(2.0, 2.0, 1.0))], grid)
        xs = grid.x_min + (np.arange(grid.nx) + 0.5) * 0.8
        inside = np.abs(xs) <= 1.0
        expect = np.outer(inside, inside).astype(np.float32)[None]
        assert np.array_equal(mask, expect)
        assert mask.sum() == 4.0

    def test_empty_scene(self):
        assert footprint_to_bev_mask([], GRID).sum() == 0.0


class TestGenerateScene:
    def test_bitwise_determinism(self):
        """Two runs give the pinned bytes and one gt_bev under any BLAS (test_no_blas.py,
        test_golden.py); trig is the platform libm's, pinned on x86-64 Linux."""
        a, b = (generate_scene(standard_scene_spec(), BevGridSpec(), DepthBinSpec()) for _ in "ab")
        for x in (a, b):
            assert scene_digest(x) == GOLDEN_SCENE
        assert np.array_equal(a.gt_bev, b.gt_bev)

    def test_seed_changes_features(self):
        a = generate_scene(standard_scene_spec(seed=5), GRID, DSPEC)
        b = generate_scene(standard_scene_spec(seed=6), GRID, DSPEC)
        assert not np.array_equal(a.feats[0], b.feats[0])

    def test_depth_columns_normalized(self):
        bundle = generate_scene(standard_scene_spec(), GRID, DSPEC)
        for d in bundle.depths:
            assert d.sum(axis=0) == pytest.approx(
                np.ones(d.shape[1:]), abs=1e-5
            )

    def test_masks_are_binary_and_match_hits(self):
        spec = standard_scene_spec()
        bundle = generate_scene(spec, GRID, DSPEC)
        some_hit = False
        for rig, m in zip(bundle.rigs, bundle.masks):
            assert set(np.unique(m)) <= {0.0, 1.0}
            hit, _, _ = _ray_cast(rig, spec.boxes)
            assert np.array_equal(m > 0, hit)
            some_hit = some_hit or hit.any()
        assert some_hit

    def test_hit_pixels_carry_signature(self):
        spec = standard_scene_spec()
        bundle = generate_scene(spec, GRID, DSPEC)
        for rig, f, m in zip(bundle.rigs, bundle.feats, bundle.masks):
            hit = m > 0
            if not hit.any():
                continue
            # hit pixels have (near) unit-norm features, misses only noise
            norms = np.linalg.norm(f, axis=-1)
            assert norms[hit].min() > 0.5
            assert norms[~hit].max() < 0.5

    def test_empty_scene_uniform_depth_zero_mask(self):
        spec = SceneSpec(seed=1, n_cameras=2, feat_w=8, feat_h=4, channels=3)
        bundle = generate_scene(spec, GRID, DSPEC)
        for d, m in zip(bundle.depths, bundle.masks):
            assert np.all(d == np.float32(1.0 / DSPEC.n_bins))
            assert np.all(m == 0.0)
        assert bundle.gt_bev.sum() == 0.0

    def test_random_spec_reproducible(self):
        a = random_scene_spec(9)
        b = random_scene_spec(9)
        assert a == b
        assert 2 <= len(a.boxes) <= 5

    def test_save_load_roundtrip(self, tmp_path):
        bundle = generate_scene(
            random_scene_spec(2, n_cameras=2, feat_w=8, feat_h=4, channels=3),
            GRID, DSPEC,
        )
        save_bundle(bundle, tmp_path / "scene")
        back = load_bundle(tmp_path / "scene")
        assert back.spec == bundle.spec
        assert back.grid == bundle.grid
        assert back.dspec == bundle.dspec
        for name in ("feats", "depths", "masks", "gt_bev"):
            a, b = getattr(bundle, name), getattr(back, name)
            assert a.shape == b.shape and a.dtype == b.dtype == np.float32, name
            assert a.tobytes() == b.tobytes(), name
        for ra, rb in zip(bundle.rigs, back.rigs):
            assert np.array_equal(ra.intrinsics, rb.intrinsics)
            assert np.array_equal(ra.extrinsics, rb.extrinsics)

    def test_manifest_lists_its_rigs(self, tmp_path):
        """A manifest holds its rigs as one list of rig objects, "rigs"; one
        in the older layout, a "cameras" list of {"rig": ...} wrappers, is
        refused in one line that names it."""
        bundle = generate_scene(random_scene_spec(2, n_cameras=2, feat_w=8, feat_h=4,
                                                  channels=3), GRID, DSPEC)
        save_bundle(bundle, tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert list(doc) == ["spec", "grid", "dspec", "rigs"]
        assert doc["rigs"] == [rig.to_json() for rig in bundle.rigs]
        doc["cameras"] = [{"rig": rig} for rig in doc.pop("rigs")]
        manifest.write_text(json.dumps(doc))
        message = (f"^bad manifest {re.escape(str(manifest))} \\(ConfigError: its rigs are "
                   "under 'cameras', an older scene layout; run synth again\\)$")
        with pytest.raises(ConfigError, match=message):
            load_bundle(tmp_path)

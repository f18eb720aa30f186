import numpy as np
import pytest

from dualvt.errors import ConfigError, ShapeMismatch
from dualvt.fusion import (
    CafConfig,
    ProbNetConfig,
    assemble_final,
    bev_probability,
    caf_fuse,
    fuse_and_finalize,
    make_seeded_weights,
    run_pipeline,
)
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.nnops import Conv2dWeights, WeightBundle
from dualvt.rng import Rng

C = 8
SHAPE = (C, 12, 10)


def streams(seed=0):
    rng = Rng(seed)
    return rng.uniform(SHAPE, -1.0, 1.0), rng.uniform(SHAPE, -1.0, 1.0)


def weights(seed=11):
    return make_seeded_weights(seed, C)


def zero_weights():
    from dualvt.fusion import default_weight_shapes

    layers = {
        name: Conv2dWeights(
            kernel=np.zeros(shape, dtype=np.float32),
            bias=np.zeros(shape[0], dtype=np.float32),
        )
        for name, shape in default_weight_shapes(C).items()
    }
    return WeightBundle(layers, provenance="zeros")


class TestCafFuse:
    def test_affinity_strictly_inside_unit_interval(self):
        f_lss, f_ht = streams()
        _, affinity = caf_fuse(f_lss, f_ht, weights(), CafConfig(C))
        assert np.all(affinity > 0.0)
        assert np.all(affinity < 1.0)

    def test_convex_combination_bounds(self):
        f_lss, f_ht = streams()
        fused, _ = caf_fuse(f_lss, f_ht, weights(), CafConfig(C))
        lo = np.minimum(f_lss, f_ht)
        hi = np.maximum(f_lss, f_ht)
        assert np.all(fused >= lo - 1e-6)
        assert np.all(fused <= hi + 1e-6)

    def test_equal_streams_are_fixed_point(self):
        f, _ = streams()
        fused, _ = caf_fuse(f, f.copy(), weights(), CafConfig(C))
        assert fused == pytest.approx(f, abs=1e-6)

    def test_zero_weights_give_even_blend(self):
        f_lss, f_ht = streams()
        fused, affinity = caf_fuse(f_lss, f_ht, zero_weights(), CafConfig(C))
        assert np.all(affinity == 0.5)
        assert fused == pytest.approx(0.5 * (f_lss + f_ht), abs=1e-6)

    def test_swap_symmetry_at_even_blend(self):
        f_lss, f_ht = streams()
        a, _ = caf_fuse(f_lss, f_ht, zero_weights(), CafConfig(C))
        b, _ = caf_fuse(f_ht, f_lss, zero_weights(), CafConfig(C))
        assert a == pytest.approx(b, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        f_lss, f_ht = streams()
        with pytest.raises(ShapeMismatch):
            caf_fuse(f_lss[:, :5], f_ht, weights(), CafConfig(C))

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            CafConfig(channels=6, ratio=4)


class TestBevProbability:
    def test_strictly_open_interval(self):
        f, _ = streams()
        p = bev_probability(f, weights(), ProbNetConfig(C))
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
        p = bev_probability(f, w, ProbNetConfig(C))
        assert np.all(p < 1.0)
        assert p == pytest.approx(np.ones_like(p), abs=1e-6)
        w.layers["prob.local.out"] = Conv2dWeights(
            kernel=np.zeros((1, C // 4, 1, 1), dtype=np.float32),
            bias=np.array([-100.0], dtype=np.float32),
        )
        p = bev_probability(f, w, ProbNetConfig(C))
        assert np.all(p > 0.0)
        assert p == pytest.approx(np.zeros_like(p), abs=1e-6)

    def test_zero_weights_give_half(self):
        f, _ = streams()
        p = bev_probability(f, zero_weights(), ProbNetConfig(C))
        assert np.all(p == 0.5)

    def test_determinism(self):
        f, _ = streams()
        a = bev_probability(f, weights(), ProbNetConfig(C))
        b = bev_probability(f, weights(), ProbNetConfig(C))
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


class TestFuseAndFinalize:
    def test_force_affinity_one_is_pure_lift(self):
        f_lss, f_ht = streams()
        res = fuse_and_finalize(f_lss, f_ht, weights(), force_affinity=1.0)
        assert np.array_equal(res.f_channel, f_lss)
        # and the final output is the probability-weighted lift stream
        assert res.f_final == pytest.approx(res.p_bev * f_lss, abs=1e-6)

    def test_force_affinity_zero_is_pure_height(self):
        f_lss, f_ht = streams()
        res = fuse_and_finalize(f_lss, f_ht, weights(), force_affinity=0.0)
        assert np.array_equal(res.f_channel, f_ht)

    def test_force_affinity_blends_once_without_the_head(self):
        f_lss, f_ht = streams()
        # no caf.* layers: a forced affinity does not run the fusion head
        head_free = WeightBundle(
            {k: v for k, v in weights().layers.items() if not k.startswith("caf.")}, "no-caf"
        )
        res = fuse_and_finalize(f_lss, f_ht, head_free, force_affinity=0.3)
        a = np.float32(0.3)
        assert res.affinity.shape == SHAPE and res.affinity.dtype == np.float32
        assert np.all(res.affinity == a)
        blend = (a * f_lss + (1.0 - a) * f_ht).astype(np.float32)
        assert np.array_equal(res.f_channel.view(np.uint32), blend.view(np.uint32))

    def test_result_fields_consistent(self):
        f_lss, f_ht = streams()
        res = fuse_and_finalize(f_lss, f_ht, weights())
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
        w = make_seeded_weights(11, bundle.feats[0].shape[0])
        res = run_pipeline(bundle.feats, bundle.depths, zeros, ht, lss, w)
        assert np.all(res.f_ht == 0.0)
        assert np.all(res.f_lss == 0.0)
        assert np.all(res.f_channel == 0.0)
        assert np.all(res.f_final == 0.0)

    def test_disable_mask_matches_manual_ones(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.feats[0].shape[0])
        a = run_pipeline(
            bundle.feats, bundle.depths, bundle.masks, ht, lss, w, disable_mask=True
        )
        ones = [np.ones_like(m) for m in bundle.masks]
        b = run_pipeline(bundle.feats, bundle.depths, ones, ht, lss, w)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))

    def test_uniform_depth_matches_manual_flat(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.feats[0].shape[0])
        a = run_pipeline(
            bundle.feats, bundle.depths, bundle.masks, ht, lss, w, uniform_depth=True
        )
        flat = [np.full_like(d, 1.0 / d.shape[0]) for d in bundle.depths]
        b = run_pipeline(bundle.feats, flat, bundle.masks, ht, lss, w)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))

    def test_threads_bitwise_stable(self):
        bundle, ht, lss = self.fixture()
        w = make_seeded_weights(11, bundle.feats[0].shape[0])
        a = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w, threads=1)
        b = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, w, threads=4)
        assert np.array_equal(a.f_final.view(np.uint32), b.f_final.view(np.uint32))
        assert np.array_equal(a.p_bev.view(np.uint32), b.p_bev.view(np.uint32))

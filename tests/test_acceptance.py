"""End-to-end acceptance checks for the dual-stream BEV transformation.

Each test prints one PASS/FAIL line for its criterion so the suite output
doubles as an acceptance report.  Criteria 1-5, 7 and 8 run at reduced
scale for speed; criterion 6 runs at the full default desk configuration
(6 cameras, 44x16 features, 64 channels, 112 depth bins, 128x128 grid,
13 heights).
"""

import time

import numpy as np
import pytest

from conftest import exact_support, small_geometry, small_scene
from dualvt.fusion import heads, make_seeded_weights, run_pipeline
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import (
    INTERP,
    ROUND,
    ht_transform_fast,
    ht_transform_naive,
    precompute_ht_table,
)
from dualvt.lift_stream import (
    lift_frustum,
    lss_pool,
    lss_pool_reference,
    precompute_lss_table,
)
from dualvt.report import occupancy_stats
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, random_scene_spec, standard_scene_spec


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def small_tables(bundle, heights):
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    return ht, lss


def test_criterion_1_oracle_equivalence():
    """Fast paths are bitwise identical to their naive oracles on 20 scenes."""
    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        bundle, heights = small_scene(seed)
        ht_table, lss_table = small_tables(bundle, heights)
        fast = ht_transform_fast(bundle.feats, bundle.depths, bundle.masks, ht_table)
        naive = ht_transform_naive(
            bundle.feats, bundle.depths, bundle.masks,
            bundle.rigs, bundle.grid, heights, bundle.dspec, mode=ROUND,
        )
        ok &= np.array_equal(fast.view(np.uint32), naive.view(np.uint32))
        pooled = lss_pool(bundle.feats, bundle.depths, bundle.masks, lss_table)
        loop = lss_pool_reference(
            bundle.feats, bundle.depths, bundle.masks,
            bundle.rigs, bundle.grid, bundle.dspec,
        )
        ok &= np.array_equal(pooled.view(np.uint32), loop.view(np.uint32))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(
        "criterion 1: fast/naive bitwise equivalence on 20 scenes",
        ok, f"{elapsed:.1f}s",
    )


def test_criterion_2_conservation():
    """Pooled BEV mass equals the direct weighted record sum, per channel."""
    worst = 0.0
    for seed in range(10):
        bundle, _ = small_scene(seed)
        table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        out = lss_pool(bundle.feats, bundle.depths, bundle.masks, table)
        pixels = bundle.feats.reshape(-1, bundle.spec.channels)
        gf, gd = table.feat_idx, table.depth_idx
        w = bundle.depths.ravel()[gd].astype(np.float64) * bundle.masks.ravel()[gf]
        direct = (w[:, None] * pixels[gf].astype(np.float64)).sum(axis=0)
        pooled = out.reshape(out.shape[0], -1).astype(np.float64).sum(axis=1)
        denom = np.maximum(np.abs(direct), 1e-30)
        worst = max(worst, float(np.abs(pooled - direct).__truediv__(denom).max()))
    ok = worst <= 1e-6
    report(
        "criterion 2: per-channel mass conservation on 10 fixtures",
        ok, f"worst rel err {worst:.2e}",
    )


def test_criterion_3_height_set_exactness():
    heights = make_height_samples("multires")
    expect = (-5.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    ok = tuple(heights.z_values) == expect and len(heights) == 13
    report("criterion 3: multi-resolution height set is exactly the 13 values", ok)


def test_criterion_4_probability_bounds_and_structure():
    bundle, heights = small_scene(0)
    ht_table, lss_table = small_tables(bundle, heights)
    weights = make_seeded_weights(11, bundle.spec.channels)
    res = run_pipeline(
        bundle.feats, bundle.depths, bundle.masks, ht_table, lss_table, weights
    )
    ok = bool(np.all(res.p_bev > 0.0) and np.all(res.p_bev < 1.0))
    lo = np.minimum(res.f_lss, res.f_ht)
    hi = np.maximum(res.f_lss, res.f_ht)
    ok &= bool(np.all(res.f_channel >= lo - 1e-6) and np.all(res.f_channel <= hi + 1e-6))
    # affinity pinned to 1 must reproduce the pure lift-stream pipeline
    forced = run_pipeline(
        bundle.feats, bundle.depths, bundle.masks, ht_table, lss_table, weights,
        force_affinity=1.0,
    )
    pure = heads(
        res.f_lss, np.zeros_like(res.f_lss), exact_support(res.f_lss), weights, force_affinity=1.0
    )
    ok &= np.array_equal(
        forced.f_final.view(np.uint32), pure.f_final.view(np.uint32)
    )
    ok &= np.array_equal(forced.f_channel, res.f_lss)
    report("criterion 4: probability bounds, convexity, affinity endpoint", ok)


def test_criterion_5_masking_null_case():
    bundle, heights = small_scene(1)
    ht_table, lss_table = small_tables(bundle, heights)
    weights = make_seeded_weights(11, bundle.spec.channels)
    zeros = [np.zeros_like(m) for m in bundle.masks]
    res = run_pipeline(bundle.feats, bundle.depths, zeros, ht_table, lss_table, weights)
    ok = bool(np.all(res.f_final == 0.0))
    report("criterion 5: zero instance mask zeroes the final feature", ok)


def test_criterion_6_latency_at_desk_scale():
    """Lookup-table sampling beats interpolation >=5x at the default scale."""
    t0 = time.perf_counter()
    spec = standard_scene_spec()  # 6 cams, 44x16, 64 channels
    grid = BevGridSpec()  # 128x128
    dspec = DepthBinSpec()  # 112 bins
    heights = make_height_samples("multires")  # 13 heights
    bundle = generate_scene(spec, grid, dspec)
    table = precompute_ht_table(bundle.rigs, grid, heights, dspec)
    args = (bundle.feats, bundle.depths, bundle.masks)

    def med(fn, reps):
        fn()  # warmup
        times = []
        for _ in range(reps):
            s = time.perf_counter()
            fn()
            times.append(time.perf_counter() - s)
        return float(np.median(times))

    fast = med(lambda: ht_transform_fast(*args, table), reps=10)
    interp = med(
        lambda: ht_transform_naive(
            *args, bundle.rigs, grid, heights, dspec, mode=INTERP
        ),
        reps=10,
    )
    elapsed = time.perf_counter() - t0
    speedup = interp / fast
    ok = speedup >= 5.0 and elapsed < 300.0
    report(
        "criterion 6: lookup-table sampling >=5x faster than interpolation",
        ok, f"{speedup:.1f}x; fast {fast * 1e3:.0f}ms vs interp {interp * 1e3:.0f}ms, "
            f"total {elapsed:.0f}s",
    )


def test_criterion_7_ablation_directionality():
    """Uniform depth collapses the occupancy separation; no mask raises
    empty-cell energy."""
    spec = standard_scene_spec()
    grid = BevGridSpec()
    dspec = DepthBinSpec()
    heights = make_height_samples("multires")
    bundle = generate_scene(spec, grid, dspec)
    ht_table = precompute_ht_table(bundle.rigs, grid, heights, dspec)
    lss_table = precompute_lss_table(bundle.rigs, grid, dspec)
    weights = make_seeded_weights(11, spec.channels)
    args = (bundle.feats, bundle.depths, bundle.masks, ht_table, lss_table, weights)

    base = occupancy_stats(
        run_pipeline(*args).f_final, bundle.gt_bev
    )
    flat_d = occupancy_stats(
        run_pipeline(*args, uniform_depth=True).f_final, bundle.gt_bev
    )
    no_m = occupancy_stats(
        run_pipeline(*args, disable_mask=True).f_final, bundle.gt_bev
    )
    drop = 1.0 - flat_d["separation"] / base["separation"]
    ok = drop >= 0.5
    ok &= no_m["empty_mean_energy"] > base["empty_mean_energy"]
    report(
        "criterion 7: depth/mask ablations degrade occupancy separation",
        ok,
        f"uniform-depth separation drop {drop:.0%}; empty energy "
        f"{base['empty_mean_energy']:.2e} -> {no_m['empty_mean_energy']:.2e} without mask",
    )


def test_criterion_8_determinism(tmp_path):
    """Full transform output bytes are identical across runs and threads."""
    import hashlib
    import json

    from dualvt.cli import main

    root = tmp_path
    spec_file = root / "scene.json"
    spec = random_scene_spec(7, n_cameras=4, feat_w=24, feat_h=10, channels=16)
    doc = spec.to_json()
    doc["grid"] = {"x_min": -24.0, "x_max": 24.0, "y_min": -24.0, "y_max": 24.0,
                   "nx": 48, "ny": 48}
    doc["dspec"] = {"d_min": 2.0, "d_max": 26.0, "step": 0.5}
    spec_file.write_text(json.dumps(doc))

    assert main(["synth", "--spec", str(spec_file), "--out", str(root / "scene")]) == 0
    assert main(
        ["precompute", "--scene", str(root / "scene"), "--out", str(root / "tables")]
    ) == 0

    def digest(out, threads):
        assert main(
            ["transform", "--scene", str(root / "scene"),
             "--tables", str(root / "tables"), "--out", str(out),
             "--threads", str(threads)]
        ) == 0
        h = hashlib.sha256()
        for p in sorted(out.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    d1 = digest(root / "run1", threads=1)
    d2 = digest(root / "run2", threads=1)
    d4 = digest(root / "run4", threads=4)
    ok = d1 == d2 == d4
    report("criterion 8: transform is bit-reproducible across runs and threads", ok)

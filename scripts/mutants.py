#!/usr/bin/env python3
"""Mutation suite: each row breaks the package in one place, and the tests it
names must then fail.

    python3 scripts/mutants.py            # every row
    python3 scripts/mutants.py NAME ...   # the named rows

The runner copies `src/` into a temporary directory once.  For each row it
replaces the row's snippet in its module, which must occur there exactly
once, and runs the row's tests with pytest in a subprocess, `PYTHONPATH` on
the copy; then it restores the module.  A row is killed when pytest reports
a failed test (exit 1).  The run fails when a mutant survives, when a
snippet does not occur exactly once, or when pytest ends otherwise (a test
id that does not exist, a collection error).  Every row names at least one
test that is not a golden-digest test, so re-pinning a golden cannot hide
a mutant.  New mutants go into this table.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN_FILES = ("tests/test_golden.py", "tests/test_golden_tables.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under src/dualvt/
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repo root


FUSION, NNOPS, SCATTER, TABLES = "fusion.py", "nnops.py", "scatter.py", "tables.py"
T_EXPAND = "tests/test_fusion.py::TestActiveCellsExpand::test_expand_gives_cells_their_twins"

MUTANTS = [
    # the heads' grid writers
    Mutant("expand-zero-test-inverted", FUSION,
           "            if not np.ascontiguousarray(x2d[:, :b]).view(np.uint8).any():",
           "            if np.ascontiguousarray(x2d[:, :b]).view(np.uint8).any():",
           (T_EXPAND,)),
    Mutant("expand-broadcast-wrong-columns", FUSION,
           "                grid.reshape(c, -1)[:, cells] = x2d[:, b:b + cells.size]",
           "                grid.reshape(c, -1)[:, cells] = x2d[:, :cells.size]",
           (T_EXPAND,)),
    Mutant("expand-write-share-exclusive", FUSION,
           "        if cells.size <= _WRITE_MAX_SHARE * where.size:",
           "        if cells.size < _WRITE_MAX_SHARE * where.size:",
           (T_EXPAND,)),
    Mutant("run-pipeline-ny-nx-swapped", FUSION,
           "    ny, nx = ht_table.ny, ht_table.nx",
           "    nx, ny = ht_table.ny, ht_table.nx",
           ("tests/test_fusion.py::TestRunPipeline::test_non_square_grid",)),
    Mutant("caf-fuse-bound-at-definition", FUSION,
           "          workers: WorkerPool | None = None) -> PipelineResult:",
           "          workers: WorkerPool | None = None, caf_fuse=caf_fuse) -> PipelineResult:",
           ("tests/test_trace_sites.py::test_a_pipeline_frame_records_every_stream_site",)),
    Mutant("heads-without-float32-check", FUSION,
           "    if f_lss.dtype != np.float32 or f_ht.dtype != np.float32:",
           "    if False:",
           ("tests/test_fusion.py::TestCafFuse::test_streams_must_be_float32",)),
    Mutant("reach-radius-one-short", FUSION,
           "    rows = np.logical_or.reduce([padded[i:i + ny] for i in range(2 * ry + 1)])",
           "    rows = np.logical_or.reduce([padded[i:i + ny] for i in range(2 * ry)])",
           ("tests/test_fusion.py::TestReach",)),
    Mutant("full-grid-conv-on-a-worker", FUSION,
           "        return conv2d(x, w, self.workers)",
           "        return (self.workers.submit(conv2d, x, w).result() if self.workers\n"
           "                else conv2d(x, w))",
           ("tests/test_trace_sites.py::test_every_wrapped_call_runs_on_the_calling_thread",)),
    # the frame's one pool
    Mutant("run-pipeline-pool-unjoined", FUSION,
           "    with WorkerPool(threads) as workers:",
           "    for workers in [WorkerPool(threads)]:",
           ("tests/test_fusion.py::TestRunPipeline::"
            "test_workers_are_joined_before_run_pipeline_returns",)),
    Mutant("worker-pool-drops-callers-context", NNOPS,
           "        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)",
           "        return super().submit(fn, *args, **kwargs)",
           ("tests/test_nnops.py::TestConv2d::test_bands_run_under_the_callers_errstate",
            "tests/test_scatter.py::test_rows_accumulate_under_the_callers_errstate",
            "tests/test_cli.py::TestTransform::"
            "test_overflow_prints_one_line_at_every_thread_count")),
    Mutant("heads-force-affinity-unchecked", FUSION,
           "    if force_affinity is not None and not 0.0 <= force_affinity <= 1.0:",
           "    if False:",
           ("tests/test_fusion.py::TestFuseAndFinalize::"
            "test_forced_affinity_must_lie_in_the_unit_interval",
            "tests/test_cli.py::TestTransformOptions::test_force_affinity_must_be_finite_unit")),
    # the inputs' checks
    Mutant("table-fingerprint-unchecked", TABLES,
           "        if self.geometry_sha256 != geometry_fingerprint(rigs, grid, dspec, "
           "self.heights):",
           "        if False:",
           ("tests/test_tables.py::test_table_swapped_in_from_other_rigs_refused",
            "tests/test_tables.py::test_table_with_an_edited_height_refused",
            "tests/test_cli.py::TestTablesBoundToGeometry::"
            "test_table_swapped_in_from_other_rigs_exits_2")),
    Mutant("weight-load-shapes-unchecked", NNOPS,
           "            if bundle[name].kernel.shape != layer_shapes[name]:",
           "            if False:",
           ("tests/test_nnops.py::TestWeightBundle::test_load_takes_exactly_the_layer_shapes",
            "tests/test_cli.py::TestTransform::test_weights_must_match_the_heads")),
    Mutant("manifest-rig-size-unchecked", "synth.py",
           "            if (rig.feat_h, rig.feat_w) != (spec.feat_h, spec.feat_w):",
           "            if False:",
           ("tests/test_cli.py::TestPrecompute::test_bad_manifest_rig_exits_2",)),
    Mutant("manifest-rig-count-unchecked", "synth.py",
           "        if len(rigs) != spec.n_cameras:",
           "        if False:",
           ("tests/test_cli.py::TestPrecompute::test_rig_count_other_than_the_spec_exits_2",)),
    Mutant("table-empty-rigs-unchecked", TABLES,
           "    if not rigs:",
           "    if False:",
           ("tests/test_tables.py::test_a_build_without_rigs_refused",)),
    Mutant("table-rig-sizes-unchecked", TABLES,
           "    if any((rig.feat_h, rig.feat_w) != (feat_h, feat_w) for rig in rigs):",
           "    if False:",
           ("tests/test_tables.py::test_rigs_of_differing_feature_sizes_refused",)),
    Mutant("heights-unbounded", "geometry.py",
           "    if not 2 <= n <= MAX_HEIGHTS:",
           "    if not 2 <= n:",
           ("tests/test_geometry.py::TestHeightSamples::test_uniform_bound",
            "tests/test_cli.py::TestPrecompute::test_bad_heights_exits_2")),
    # conv2d
    Mutant("conv2d-float32-sgemm", NNOPS,
           "            acc = kernel @ cols.reshape(c_in * kh * kw, n * W) + bias",
           "            acc = (kernel.astype(np.float32) @ cols.reshape(c_in * kh * kw, n * W)"
           ".astype(np.float32)) + bias.astype(np.float32)",
           ("tests/test_nnops.py::TestConv2dErrorBound",)),
    Mutant("conv2d-unblocked", NNOPS,
           "BLOCK_ROWS = 16",
           "BLOCK_ROWS = 10**9",
           ("tests/test_nnops.py::TestConv2d::test_memory_is_row_blocked",)),
    Mutant("conv2d-bands-off-block-edges", NNOPS,
           "    edges = [k * blocks // n_bands * BLOCK_ROWS for k in range(n_bands)] + [H]",
           "    edges = [k * H // n_bands for k in range(n_bands)] + [H]",
           ("tests/test_nnops.py::TestConv2d::test_bands_are_contiguous_whole_blocks",)),
    # the scatter
    Mutant("scatter-depth-factor-dropped", SCATTER,
           "    w = d.astype(np.float64) * mask_w.take(fi)",
           "    w = mask_w.take(fi).astype(np.float64)",
           ("tests/test_scatter.py::test_matches_reference_bitwise",)),
    Mutant("scatter-pixel-count-unchecked", SCATTER,
           "    if feats.shape[1] != mask_w.size:",
           "    if False:",
           ("tests/test_scatter.py::test_features_must_have_the_masks_pixel_count",)),
    Mutant("scatter-float64-gather-never", SCATTER,
           "dtype=np.float64 if w.size > feats.shape[1] else None)",
           "dtype=None)",
           ("tests/test_scatter.py::test_product_rows_are_float64_only_past_the_pixel_count",)),
    Mutant("scatter-float64-gather-always", SCATTER,
           "dtype=np.float64 if w.size > feats.shape[1] else None)",
           "dtype=np.float64)",
           ("tests/test_scatter.py::test_product_rows_are_float64_only_past_the_pixel_count",)),
    Mutant("scatter-product-buffer-doubled", SCATTER,
           "    prod = np.empty((min(CHUNK_ENTRIES, bounds[-1]), out.shape[1]), dtype=np.float64)",
           "    prod = np.empty((2 * min(CHUNK_ENTRIES, bounds[-1]), out.shape[1]),"
           " dtype=np.float64)",
           ("tests/test_scatter.py::test_dense_scatter_memory_is_bounded",)),
    Mutant("scatter-negative-zero-accumulators", SCATTER,
           "    acc = np.zeros(out.shape, dtype=np.float64)",
           "    acc = np.full(out.shape, -0.0)",
           ("tests/test_scatter.py::test_negative_zero_features_sum_to_positive_zero",)),
    Mutant("scatter-mask-positive-only", SCATTER,
           "np.flatnonzero((mask_w != 0).take(feat_idx))",
           "np.flatnonzero((mask_w > 0).take(feat_idx))",
           ("tests/test_scatter.py::test_survivors_edge_cases_match_oracle",)),
    Mutant("scatter-ranks-from-run-end", SCATTER,
           "        pos = first[at - base[rank]] + rank",
           "        pos = first[at - base[rank]] - neg_len[at - base[rank]] - 1 - rank",
           ("tests/test_scatter.py::test_each_cell_adds_its_entries_in_entry_order",)),
    Mutant("scatter-never-splits", SCATTER,
           "np.linspace(0, w.size, parts + 1)[1:-1]",
           "np.linspace(0, w.size, 2)[1:-1]",
           ("tests/test_scatter.py::test_threads_split_the_rows",)),
    # the table's voxel layout: its voxel index and the masked survivor walk
    Mutant("voxel-index-on-first-masked-frame", TABLES,
           '        if "voxel_index" not in seen and not seen.get("masked_frame_seen"):',
           "        if False:",
           ("tests/test_scatter.py::test_voxel_index_is_built_on_the_second_masked_frame",)),
    Mutant("survivor-walk-camera-stride-one-bin-long", TABLES,
           "        first_bin = pixels + pixels // P * ((n_bins - 1) * P)",
           "        first_bin = pixels + pixels // P * (n_bins * P)",
           ("tests/test_scatter.py::test_voxel_index_is_built_on_the_second_masked_frame",)),
    Mutant("voxel-keys-position-mask-dropped", TABLES,
           "        return np.sort(keys[at] & low).astype(np.intp)",
           "        return np.sort(keys[at]).astype(np.intp)",
           ("tests/test_scatter.py::test_survivors_edge_cases_match_oracle",)),
    Mutant("table-stream-magic-unchecked", TABLES,
           "        if self.magic != magic:",
           "        if False:",
           ("tests/test_tables.py::test_a_table_of_the_other_stream_refused",)),
    # geometry and the oracles
    Mutant("back-project-rotation-transposed", "geometry.py",
           "        c = np.add(x_cam * R[0, i], y_cam * R[1, i])\n        c += d * R[2, i]",
           "        c = np.add(x_cam * R[i, 0], y_cam * R[i, 1])\n        c += d * R[i, 2]",
           ("tests/test_lift_stream.py::TestLiftFrustum::test_project_roundtrip",
            "tests/test_synth.py::TestRayCast::test_box_ahead_hits_center_pixel")),
    Mutant("ring-rig-negative-zero-translation", "synth.py",
           "        T[:3, 3] = 0.0 - spec.cam_height * R[:, 2]",
           "        T[:3, 3] = -spec.cam_height * R[:, 2]",
           ("tests/test_synth.py::TestRig::test_ring_rig_translations_hold_no_negative_zero",)),
    Mutant("synth-signature-blas-norm", "synth.py",
           "        signatures.append((raw / l2(raw)).astype(np.float32))",
           "        signatures.append((raw / np.linalg.norm(raw)).astype(np.float32))",
           ("tests/test_no_blas.py::test_table_modules_make_no_blas_call",)),
    Mutant("round-oracle-float32-product", "height_stream.py",
           "    return rows, w[:, None] * feat[i, j]",
           "    return rows, w.astype(np.float32)[:, None] * feat[i, j]",
           ("tests/test_height_stream.py::TestTransform::test_fast_equals_naive_round_bitwise",)),
    Mutant("round-oracle-float32-weight", "height_stream.py",
           "    w = depth[k, i, j].astype(np.float64) * mask[i, j].astype(np.float64)",
           "    w = (depth[k, i, j] * mask[i, j]).astype(np.float64)",
           ("tests/test_height_stream.py::TestTransform::test_fast_equals_naive_round_bitwise",)),
    Mutant("height-cull-without-plane-crossing", "height_stream.py",
           "    return np.flatnonzero(near | (valid[0] != valid[1]))",
           "    return np.flatnonzero(near)",
           ("tests/test_height_stream.py::TestPrecompute::"
            "test_candidate_cull_equals_round_then_filter",)),
]


def check_table() -> list:
    """Every problem with the table, one line each: a snippet that does not
    occur exactly once in its module, a duplicate name, or a row whose tests
    are golden-digest tests alone."""
    problems, names = [], set()
    for m in MUTANTS:
        if m.name in names:
            problems.append(f"{m.name}: duplicate name")
        names.add(m.name)
        count = (REPO / "src" / "dualvt" / m.module).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.module}")
        if not m.tests or all(t.split("::")[0] in GOLDEN_FILES for t in m.tests):
            problems.append(f"{m.name}: needs a test that is not a golden-digest test")
    return problems


def run_mutant(m: Mutant, src: Path) -> tuple:
    """(pytest's exit code, its last output line) with `m` applied to the
    copy `src`, which is restored afterwards."""
    path = src / "dualvt" / m.module
    original = path.read_text()
    path.write_text(original.replace(m.snippet, m.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=REPO, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original)
    lines = proc.stdout.strip().splitlines() or [""]
    return proc.returncode, lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="rows to run (default: every row)")
    args = ap.parse_args()
    problems = check_table()
    unknown = set(args.names) - {m.name for m in MUTANTS}
    problems += [f"{name}: no such row" for name in sorted(unknown)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    rows = [m for m in MUTANTS if not args.names or m.name in args.names]
    failed, start = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in rows:
            code, last = run_mutant(m, src)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:<10} {m.name}: {last}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

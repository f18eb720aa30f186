#!/usr/bin/env python3
"""End-to-end demo: synthesize a scene, build tables, transform, verify.

Runs the whole toolchain through the CLI into a work directory, then
checks the written stream grids against the library's table-free oracles
bit for bit (F_ht against ht_transform_naive in ROUND mode, F_lss against
lss_pool_reference), checks with `dualvt compare` that --threads 2 writes
the tensors of --threads 1, checks that each transform gives back the
BLAS thread count it found, and prints the occupancy summary.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from dualvt.cli import main as dualvt
from dualvt.geometry import HeightSet
from dualvt.height_stream import ROUND, ht_transform_naive
from dualvt.lift_stream import lss_pool_reference
from dualvt.nnops import _BLAS_THREADS
from dualvt.synth import load_bundle, standard_scene_spec
from dualvt.tables import HT_MAGIC, read_table
from dualvt.tensors import tensor_read


def run(argv):
    print("$ dualvt " + " ".join(argv))
    code = dualvt(argv)
    if code != 0:
        sys.exit(code)


def fail(message):
    print(f"ERROR: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="demo_out", help="output directory")
    ap.add_argument("--seed", type=int, default=5, help="scene seed")
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    spec_file = work / "scene_spec.json"
    spec_file.write_text(json.dumps(standard_scene_spec(args.seed).to_json(), indent=2))

    run(["synth", "--spec", str(spec_file), "--out", str(work / "scene")])
    run(["precompute", "--scene", str(work / "scene"), "--out", str(work / "tables")])
    # the bundled OpenBLAS's thread count, which transform holds at one
    # while the heads run; None when numpy is on another BLAS
    blas_threads = _BLAS_THREADS[0] if _BLAS_THREADS else lambda: None
    for threads in ("1", "2"):
        before = blas_threads()
        run([
            "transform", "--scene", str(work / "scene"), "--tables", str(work / "tables"),
            "--out", str(work / f"threads{threads}"), "--threads", threads,
        ])
        if blas_threads() != before:
            fail(f"transform left the BLAS at {blas_threads()} threads, not {before}")
    print(f"BLAS thread count after each transform: {blas_threads()}, as before")
    run(["compare", str(work / "threads1"), str(work / "threads2"),
         "--out", str(work / "compare.json")])

    report = json.loads((work / "compare.json").read_text())
    if report["max_abs_diff"] != 0.0:
        fail("--threads 2 diverged from --threads 1")
    b = load_bundle(work / "scene")
    heights = HeightSet(read_table(work / "tables" / "ht_table.htlt", HT_MAGIC).heights)
    oracles = {
        "F_ht": ht_transform_naive(b.feats, b.depths, b.masks, b.rigs, b.grid, heights,
                                   b.dspec, mode=ROUND),
        "F_lss": lss_pool_reference(b.feats, b.depths, b.masks, b.rigs, b.grid, b.dspec),
    }
    for name, oracle in oracles.items():
        written = tensor_read(work / "threads1" / f"{name}.btsr")
        if not np.array_equal(written.view(np.uint32), oracle.view(np.uint32)):
            fail(f"{name}.btsr diverged from its table-free oracle")
    print("F_ht and F_lss equal their table-free oracles bit for bit")
    summary = json.loads((work / "threads1" / "summary.json").read_text())
    print(json.dumps(summary.get("occupancy", {}), indent=2))
    print(f"done; outputs in {work}/")


if __name__ == "__main__":
    main()

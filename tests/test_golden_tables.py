"""Golden digests of both table files on two pinned geometries.

The table build is fixed-order elementwise float64 arithmetic with no
BLAS call (see test_no_blas.py), so the written bytes do not depend on the
BLAS build, its CPU kernel or its thread count.  The subprocess test
rebuilds the tables under another OpenBLAS CPU kernel and one BLAS thread.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualvt
from conftest import small_scene
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.sampling import DepthBinSpec
from dualvt.synth import make_ring_rigs, standard_scene_spec
from dualvt.tables import write_table
from test_golden import _numpy_on_openblas_x86

# SHA-256 of the files `dualvt precompute` writes (multires heights): small_scene(0)'s
# rigs and geometry, and standard_scene_spec() at the desk scale
GOLDEN = {
    "small/ht_table.htlt": "1fb368101d126e06a71ab257411fa60f4af48baa6995f925a0b2d9801eb8d31d",
    "small/lss_table.lspt": "d5a756512fd96e2f5fd2d43525e39c9ae55775cd7f57fd01e3a096ac065b6728",
    "desk/ht_table.htlt": "4a7d32ba13372982dcca4c0206b1c6d475ffce22a41445347a1a654f5f61349c",
    "desk/lss_table.lspt": "370e9378ffb207e675dfd14e79ba4b10c17bd9b211c212d1df01d3e3bb540f56",
}


def pinned_geometries() -> dict:
    small, _ = small_scene(0)
    return {
        "small": (small.rigs, small.grid, small.dspec),
        "desk": (make_ring_rigs(standard_scene_spec()), BevGridSpec(), DepthBinSpec()),
    }


def table_digests(directory) -> dict:
    """Build, write into `directory` and hash both tables of every pinned geometry."""
    heights = make_height_samples("multires")
    digests = {}
    for name, (rigs, grid, dspec) in pinned_geometries().items():
        (Path(directory) / name).mkdir()
        for file, table in (
            ("ht_table.htlt", precompute_ht_table(rigs, grid, heights, dspec)),
            ("lss_table.lspt", precompute_lss_table(rigs, grid, dspec)),
        ):
            path = Path(directory) / name / file
            write_table(table, path)
            digests[f"{name}/{file}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_tables_match_golden_digests(tmp_path):
    assert table_digests(tmp_path) == GOLDEN


@pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, x86-64")
def test_table_digests_hold_on_another_openblas_core(tmp_path):
    paths = [str(Path(dualvt.__file__).parents[1]), str(Path(__file__).parent)]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
        "OPENBLAS_CORETYPE": "Nehalem",
        "OPENBLAS_NUM_THREADS": "1",
    }
    code = ("import sys, json, test_golden_tables; "
            "print(json.dumps(test_golden_tables.table_digests(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN

"""Golden digests of both table files on two pinned geometries.

The table build is fixed-order elementwise float64 arithmetic with no
BLAS call (see test_no_blas.py), so the written bytes do not depend on the
BLAS build, its CPU kernel or its thread count.  The digests hold for the
library builders called one after the other and for `dualvt precompute`,
which runs them on two threads.  The subprocess test rebuilds the tables
both ways under another OpenBLAS CPU kernel and one BLAS thread.
"""

import contextlib
import dataclasses
import hashlib
import io
from pathlib import Path

from conftest import NEHALEM, json_in_child, needs_openblas_x86, small_scene
from dualvt.cli import main
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, make_ring_rigs, save_bundle, standard_scene_spec
from dualvt.tables import write_table

# SHA-256 of the files `dualvt precompute` writes (multires heights): small_scene(0)'s
# rigs and geometry, and standard_scene_spec() at the desk scale
GOLDEN = {
    "small/ht_table.htlt": "b166234a128b0bce718ad0d5d6b3ce523ea1625a59f45bf8aee0f085b78ffec3",
    "small/lss_table.lspt": "7637edb83e0456cd38fe96a8d822790218871e212fdb2a32632db1999b5fbe8f",
    "desk/ht_table.htlt": "810076f73f95d005561fd43881a7ba4ab8e19254f89f3900a7474f6cbea85466",
    "desk/lss_table.lspt": "dae4359e66c6fb381680efd994ec1793a699d6ad161eee3197046d7360273965",
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


def precompute_digests(directory) -> dict:
    """Write a scene of every pinned geometry, run `dualvt precompute` on it
    and hash the two files it writes.  The scenes' tensors are the fewest
    channels a scene takes: the tables do not read them."""
    small, _ = small_scene(0)
    desk = generate_scene(dataclasses.replace(standard_scene_spec(), channels=4),
                          BevGridSpec(), DepthBinSpec())
    digests = {}
    for name, bundle in (("small", small), ("desk", desk)):
        scene, out = Path(directory) / f"{name}-scene", Path(directory) / name
        save_bundle(bundle, scene)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["precompute", "--scene", str(scene), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_tables_match_golden_digests(tmp_path):
    assert table_digests(tmp_path) == GOLDEN


def test_precompute_matches_golden_digests(tmp_path):
    assert precompute_digests(tmp_path) == GOLDEN


def both_digests(directory) -> list:
    """`table_digests` and `precompute_digests`, each in a directory of its own."""
    library, cli = Path(directory) / "library", Path(directory) / "cli"
    library.mkdir()
    cli.mkdir()
    return [table_digests(library), precompute_digests(cli)]


@needs_openblas_x86
def test_table_digests_hold_on_another_openblas_core(tmp_path):
    assert json_in_child("test_golden_tables", f"both_digests({str(tmp_path)!r})",
                         **NEHALEM) == [GOLDEN, GOLDEN]

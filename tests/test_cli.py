import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import shutil
import struct
import tempfile
import threading
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from conftest import json_in_child, numpy_on_openblas_x86
from dualvt import cli
from dualvt.cli import MAX_THREADS, main
from dualvt.errors import ConfigError
from dualvt.fusion import make_seeded_weights, run_pipeline
from dualvt.geometry import MAX_HEIGHTS, BevGridSpec, make_height_samples
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.nnops import WeightBundle
from dualvt.sampling import DepthBinSpec
from dualvt.synth import (
    SceneSpec, generate_scene, load_bundle, random_scene_spec, save_bundle, standard_scene_spec,
)
from dualvt.tables import HT_MAGIC, LSS_MAGIC, read_table, write_table
from dualvt.tensors import tensor_read, tensor_write


def dir_digest(directory) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def rewrite_json(path, edit):
    """Write `edit` to path: the whole text, or blocks replaced in the JSON there."""
    if isinstance(edit, dict):
        edit = json.dumps({**json.loads(path.read_text()), **edit})
    path.write_text(edit)


SCENE_SPEC = {
    "seed": 3,
    "n_cameras": 3,
    "feat_w": 16,
    "feat_h": 8,
    "channels": 8,
    "boxes": [
        {"center": [10.0, 1.0, 0.75], "size": [3.0, 2.0, 1.5]},
        {"center": [-8.0, -6.0, 1.0], "size": [4.0, 3.0, 2.0]},
    ],
    "grid": {"x_min": -16.0, "x_max": 16.0, "y_min": -16.0, "y_max": 16.0,
             "nx": 32, "ny": 32},
    "dspec": {"d_min": 2.0, "d_max": 20.0, "step": 1.0},
}


# scene-spec values of the right type outside their range; json writes NaN
# and Infinity, and its reader takes them back
OUT_OF_RANGE = [
    ({"hfov_deg": 0}, "hfov_deg"), ({"hfov_deg": 180.0}, "hfov_deg"),
    ({"hfov_deg": float("nan")}, "hfov_deg"), ({"channels": 0}, "channels"),
    ({"channels": -1}, "channels"), ({"feat_w": 0}, "feat_w"), ({"feat_h": -2}, "feat_h"),
    ({"kappa": float("nan")}, "kappa"), ({"cam_height": float("inf")}, "cam_height"),
    ({"cam_height": 10**400}, "cam_height"),
    ({"n_cameras": 0}, "n_cameras"), ({"n_cameras": 10**11}, "n_cameras"),
    ({"grid": {**SCENE_SPEC["grid"], "x_max": float("inf")}}, "x_max"),
    ({"grid": {**SCENE_SPEC["grid"], "x_min": -1e308, "x_max": 1e308}}, "cell_w"),
    ({"dspec": {**SCENE_SPEC["dspec"], "d_min": -20.0}}, "d_min"),
    ({"boxes": [{"center": [float("nan"), 0, 0.5], "size": [4, 2, 1]}]}, "center"),
    ({"boxes": [{"center": [10, 0, 0.5], "size": [float("inf"), 2, 1]}]}, "size"),
    ({"boxes": [{"center": [10, 0, 0.5], "size": [-2, 2, 1]}]}, "size"),
    ({"boxes": [{"center": [10, 0, 0.5], "size": [0, 2, 1]}]}, "size"),
    ({"dspec": {"d_min": 0, "d_max": 1e308, "step": 1e-300}}, "step"),
]
OUT_OF_RANGE_IDS = ["hfov-0", "hfov-180", "hfov-nan", "channels-0", "channels-neg",
                    "feat-w-0", "feat-h-neg", "kappa-nan", "cam-height-inf", "cam-height-huge",
                    "n-cameras-0", "n-cameras-huge", "grid-x-max-inf", "grid-cell-w-inf",
                    "dspec-d-min-neg", "box-center-nan", "box-size-inf", "box-size-neg",
                    "box-size-0", "dspec-bins-overflow"]

# scene-spec values of another JSON type, and keys that no block declares
WRONG_TYPE = [
    ({"hfov_deg": "70"}, "hfov_deg"),
    ({"cam_height": "x"}, "cam_height"),
    ({"boxes": [{"center": [0, 0, "a"], "size": [1, 1, 1]}]}, "center"),
    ({"feat_w": 4.5}, "feat_w"),
    ({"boxes": [{"size": [1, 1, 1]}]}, "center"),
    ({**SCENE_SPEC, "channels": "8"}, "channels"),
    ({"seed": True}, "seed"),
    ({"boxes": [{"center": [0, 0, 0], "size": [1, False, 1]}]}, "size"),
    ({"grid": {**SCENE_SPEC["grid"], "nx": 16.5}}, "nx"),
    ({"grid": {**SCENE_SPEC["grid"], "ny": True}}, "ny"),
    ({"dspec": {**SCENE_SPEC["dspec"], "d_min": False}}, "d_min"),
    ({"dspec": {**SCENE_SPEC["dspec"], "step": "1"}}, "step"),
    ({"boxes": 5}, "boxes"),
    ({"boxes": [5]}, "Box"),
    ({"boxes": [{"center": [0, 0], "size": [1, 1, 1]}]}, "center"),
    ({"bogus": 1}, "unknown key 'bogus'"),
    ({"grid": {**SCENE_SPEC["grid"], "bogus": 1}}, "unknown key 'bogus'"),
    ({"dspec": {**SCENE_SPEC["dspec"], "bogus": 1}}, "unknown key 'bogus'"),
    ({"boxes": [{**SCENE_SPEC["boxes"][0], "bogus": 1}]}, "unknown key 'bogus'"),
]
WRONG_TYPE_IDS = ["hfov-str", "cam-height-str", "center-str", "feat-w-float", "box-no-center",
                  "channels-str", "seed-bool", "size-bool", "grid-nx-float", "grid-ny-bool",
                  "dspec-d-min-bool", "dspec-step-str", "boxes-int", "boxes-of-int",
                  "center-short", "scene-unknown-key", "grid-unknown-key", "dspec-unknown-key",
                  "box-unknown-key"]

# a rig value, or a rig matrix entry, set to a bad value in a scene's manifest
BAD_RIG = [
    (("intrinsics", 0, 0), float("nan"), "intrinsics"),
    (("intrinsics", 0, 0), 0.0, "fx"),
    (("intrinsics", 0, 0), -3.0, "fx"),
    (("intrinsics", 0, 0), float("inf"), "intrinsics"),
    (("intrinsics", 1, 1), 0.0, "fy"),
    (("extrinsics", 0, 3), float("nan"), "extrinsics"),
    (("feat_w",), 44.9, "feat_w"),
    (("feat_w",), "44", "feat_w"),
    (("feat_w",), True, "feat_w"),
    (("cam_id",), 0, "unknown key 'cam_id'"),  # a rig field no longer declared
    (("intrinsics", 0, 0), True, "intrinsics"),
    (("intrinsics", 0, 0), "10", "intrinsics"),
    (("extrinsics", 0, 3), "0.5", "extrinsics"),
    (("intrinsics",), [[21.5, 0, 7.5], [0, 21.5, 3.5]], "intrinsics"),
    (("bogus",), 1, "unknown key 'bogus'"),
    # a valid rig whose feature size is not the spec's (and the frame's)
    (("feat_w",), 15, "feat_w"),
    (("feat_h",), 7, "feat_h"),
]
BAD_RIG_IDS = ["fx-nan", "fx-0", "fx-neg", "fx-inf", "fy-0", "translation-nan",
               "feat-w-float", "feat-w-str", "feat-w-bool", "cam-id-unknown", "fx-bool",
               "fx-str", "translation-str", "intrinsics-2x3", "unknown-key",
               "feat-w-not-the-spec", "feat-h-not-the-spec"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene + tables shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "scene.json"
    spec.write_text(json.dumps(SCENE_SPEC))
    assert main(["synth", "--spec", str(spec), "--out", str(root / "scene")]) == 0
    assert main(
        ["precompute", "--scene", str(root / "scene"), "--out", str(root / "tables")]
    ) == 0
    return root


class TestSynth:
    def test_output_file_inventory(self, workspace):
        names = set(dir_digest(workspace / "scene"))
        assert names == {"manifest.json", "feats.btsr", "depths.btsr", "masks.btsr",
                         "gt_bev.btsr"}

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        spec = workspace / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "again")]) == 0
        assert dir_digest(tmp_path / "again") == dir_digest(workspace / "scene")

    def test_bad_spec_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw in (b"{not json", b'{"seed": \xb3}'):  # not JSON; not UTF-8
            bad.write_bytes(raw)
            assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and str(bad) in err
            assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_unknown_spec_field_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "bogus_field": 2}))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc, missing", [
        ({"seed": 1, "grid": {"nx": 64, "ny": 64}}, "x_min"),
        ({"seed": 1, "dspec": {"d_min": 2.0, "step": 1.0}}, "d_max"),
        ({"seed": 1, "grid": 5}, "grid"),
        ({"seed": 1, "dspec": 5}, "dspec"),
    ])
    def test_partial_block_names_missing_key(self, tmp_path, capsys, doc, missing):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and missing in err and f"scene spec {spec}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, field", WRONG_TYPE, ids=WRONG_TYPE_IDS)
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, doc, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and f"scene spec {spec}: " in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, field", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, bad, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SCENE_SPEC, **bad}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and f"scene spec {spec}: " in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failed_replace_keeps_old_scene(self, workspace, tmp_path, capsys):
        """A scene is replaced whole or not at all."""
        out = tmp_path / "scA"
        assert main(["synth", "--spec", str(workspace / "scene.json"), "--out", str(out)]) == 0
        (out / "depths.btsr").unlink()
        (out / "depths.btsr").mkdir()
        old = dir_digest(out)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SCENE_SPEC, "seed": 4}))
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "depths.btsr" in err and "Traceback" not in err
        assert dir_digest(out) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scA", "spec.json"]

    def test_spec_not_an_object_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["generate_scene", "save_bundle"])
    def test_out_of_memory_exits_3(self, workspace, tmp_path, monkeypatch, capsys, step):
        """A scene too large to allocate (a huge grid, bin count or channel
        count) ends in one line, whether building or writing it.  The
        allocation is faked: on a machine that overcommits memory a real
        one need not fail fast."""
        def oversized(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                              "(100000000000,) and data type int64")

        monkeypatch.setattr(cli, step, oversized)
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(workspace / "scene.json"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "745. GiB" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestPrecompute:
    def test_outputs(self, workspace):
        tables = workspace / "tables"
        assert set(dir_digest(tables)) == {"ht_table.htlt", "lss_table.lspt"}
        assert len(read_table(tables / "ht_table.htlt", HT_MAGIC).heights) == 13
        assert read_table(tables / "lss_table.lspt", LSS_MAGIC).heights == ()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        assert main(
            ["precompute", "--scene", str(workspace / "scene"), "--out", str(tmp_path / "t")]
        ) == 0
        assert dir_digest(tmp_path / "t") == dir_digest(workspace / "tables")

    def test_uniform_heights(self, workspace, tmp_path):
        assert main(
            ["precompute", "--scene", str(workspace / "scene"),
             "--out", str(tmp_path / "t"), "--heights", "uniform:5"]
        ) == 0
        assert set(dir_digest(tmp_path / "t")) == {"ht_table.htlt", "lss_table.lspt"}
        assert len(read_table(tmp_path / "t" / "ht_table.htlt", HT_MAGIC).heights) == 5

    def test_failed_replace_keeps_old_tables(self, workspace, tmp_path, capsys):
        """A table set is replaced whole or not at all."""
        scene, out = str(workspace / "scene"), tmp_path / "t"
        assert main(["precompute", "--scene", scene, "--out", str(out),
                     "--heights", "uniform:5"]) == 0
        old_ht = (out / "ht_table.htlt").read_bytes()
        (out / "lss_table.lspt").unlink()
        (out / "lss_table.lspt").mkdir()
        assert main(["precompute", "--scene", scene, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "lss_table.lspt" in err and "Traceback" not in err
        assert (out / "ht_table.htlt").read_bytes() == old_ht
        assert [p.name for p in tmp_path.iterdir()] == ["t"]

    def test_bad_heights_exits_2(self, workspace, tmp_path, capsys):
        for heights in ("nonsense", "uniform:abc", "uniform:1", "uniform:",
                        f"uniform:{MAX_HEIGHTS + 1}"):
            code = main(["precompute", "--scene", str(workspace / "scene"),
                         "--out", str(tmp_path / "t"), "--heights", heights])
            err = capsys.readouterr().err
            assert code == 2, heights
            assert "config error" in err and len(err.strip().splitlines()) == 1
            assert "Traceback" not in err
            assert not (tmp_path / "t").exists()

    def test_missing_scene_exits_3(self, tmp_path):
        assert main(
            ["precompute", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "t")]
        ) == 3

    def test_huge_fx_prints_only_the_empty_table_line(self, workspace, tmp_path):
        """fx = 1e308 on every rig overflows the height build's projection to
        Inf, so its table is empty.  The worker thread that builds it runs under
        main's numpy error state too: exit 0, and stderr holds only the
        empty-table line, no numpy warning."""
        manifest = edited_manifest(workspace, tmp_path, {})
        doc = json.loads(manifest.read_text())
        for rig in doc["rigs"]:
            rig["intrinsics"][0][0] = 1e308
        rewrite_json(manifest, json.dumps(doc))
        code, lines = run_cli(["precompute", "--scene", manifest.parent, "--out", tmp_path / "t"])
        assert code == 0
        assert lines == ["warning: ht table is empty (no points in view)"]

    @pytest.mark.parametrize("ht_error, lss_error", [
        (ConfigError, ValueError), (ValueError, ConfigError),
        (ConfigError, None), (ValueError, None), (None, ConfigError), (None, ValueError),
    ])
    def test_build_errors_reported_in_table_order(self, workspace, tmp_path, monkeypatch,
                                                  capsys, ht_error, lss_error):
        """The two builds run at once, yet a failure is reported as when they ran
        in turn: the height table's error before the lift table's, even when the
        lift build fails first, with exit 2 for a ConfigError and 3 otherwise.
        No file is written and no thread outlives the call."""
        real_ht, real_lss = cli.precompute_ht_table, cli.precompute_lss_table
        lift_done = threading.Event()

        def ht(*args):
            assert lift_done.wait(10)  # the lift build has finished or failed first
            if ht_error:
                raise ht_error("height build failed")
            return real_ht(*args)

        def lss(*args):
            try:
                if lss_error:
                    raise lss_error("lift build failed")
                return real_lss(*args)
            finally:
                lift_done.set()

        monkeypatch.setattr(cli, "precompute_ht_table", ht)
        monkeypatch.setattr(cli, "precompute_lss_table", lss)
        threads = threading.active_count()
        code = main(["precompute", "--scene", str(workspace / "scene"),
                     "--out", str(tmp_path / "t")])
        error = ht_error or lss_error
        assert code == (2 if error is ConfigError else 3)
        prefix = "config error" if error is ConfigError else "error"
        table = "height" if ht_error else "lift"
        assert capsys.readouterr().err.splitlines() == [f"{prefix}: {table} build failed"]
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    def test_files_equal_sequential_library_builds(self, tmp_path):
        """precompute's two concurrent builds write the bytes of the library
        builders called one after the other, on 20 desk rigs jittered as the
        benchmark's recalibration workload jitters them: camera height within
        0.2 m of 1.5 m, field of view within 5 degrees of 70."""
        heights = make_height_samples("multires")
        for index in range(20):
            jitter = np.random.default_rng([1, index]).uniform(-1.0, 1.0, 2)
            spec = random_scene_spec(index, channels=4, cam_height=1.5 + 0.2 * float(jitter[0]),
                                     hfov_deg=70.0 + 5.0 * float(jitter[1]))
            bundle = generate_scene(spec, BevGridSpec(), DepthBinSpec())
            scene, out, ref = (tmp_path / f"{name}{index}" for name in ("scene", "t", "ref"))
            save_bundle(bundle, scene)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["precompute", "--scene", str(scene), "--out", str(out)]) == 0
            ref.mkdir()
            write_table(precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec),
                        ref / "ht_table.htlt")
            write_table(precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec),
                        ref / "lss_table.lspt")
            assert dir_digest(out) == dir_digest(ref), index

    def test_desk_precompute_memory_is_bounded(self, tmp_path):
        """The traced peak of `dualvt precompute` on a desk scene at 16 channels
        (the benchmark's recalibration scene) stays under the measured peak of
        the sequential int64-column builds, 14,310,931 bytes.  That peak is
        about the sum of:
        - the scene's tensors, 2,245,120 bytes (6 cameras of 16x16x44 float32
          features, 112x16x44 depths and a 16x44 mask, and a 128x128 gt_bev);
        - the finished height table, 4 * (220,620 entries + 16,385 offsets) =
          948,020 bytes;
        - the lift build's stacked columns, 22 bytes per entry: an int64 cell
          and voxel of every camera, then a u16 cell and a u32 voxel, for
          22 * 423,168 = 9,309,696 bytes;
        - one camera's frustum x, y and z, 3 * 8 * 112*16*44 = 1,892,352 bytes;
        14,395,188 bytes in all.  Both builds at once fit under it only with
        lean columns: int64 entry columns again break it."""
        spec = dataclasses.replace(standard_scene_spec(), channels=16)
        save_bundle(generate_scene(spec, BevGridSpec(), DepthBinSpec()), tmp_path / "scene")
        argv = ["precompute", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "t")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # first-call allocations (imports, caches) stay out
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        ht = read_table(tmp_path / "t" / "ht_table.htlt", HT_MAGIC)
        lss = read_table(tmp_path / "t" / "lss_table.lspt", LSS_MAGIC)
        assert (ht.n_entries, lss.n_entries) == (220_620, 423_168)  # the sizes of the bound
        assert peak < 14_310_931

    @pytest.mark.parametrize("bad, field", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_manifest_spec_exits_2(self, workspace, tmp_path, capsys, bad, field):
        manifest = edited_manifest(workspace, tmp_path, bad)
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, field)

    @pytest.mark.parametrize("bad, field", WRONG_TYPE, ids=WRONG_TYPE_IDS)
    def test_wrong_type_manifest_spec_exits_2(self, workspace, tmp_path, capsys, bad, field):
        manifest = edited_manifest(workspace, tmp_path, bad)
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, field)

    @pytest.mark.parametrize("path, value, field", BAD_RIG, ids=BAD_RIG_IDS)
    def test_bad_manifest_rig_exits_2(self, workspace, tmp_path, capsys, path, value, field):
        manifest = edited_manifest(workspace, tmp_path, {})
        doc = json.loads(manifest.read_text())
        *where, last = path
        target = doc["rigs"][1]
        for key in where:
            target = target[key]
        target[last] = value
        rewrite_json(manifest, json.dumps(doc))
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, field)

    @pytest.mark.parametrize("n_rigs", [2, 0])
    def test_rig_count_other_than_the_spec_exits_2(self, workspace, tmp_path, capsys, n_rigs):
        """A 3-camera scene whose manifest lists `n_rigs` rigs, and whose frame
        tensors hold as many cameras, is refused in one line naming the
        manifest: its rigs and tensors agree, but not with its spec."""
        manifest = edited_manifest(workspace, tmp_path, {})
        doc = json.loads(manifest.read_text())
        assert doc["spec"]["n_cameras"] == len(doc["rigs"]) == 3
        doc["rigs"] = doc["rigs"][:n_rigs]
        rewrite_json(manifest, json.dumps(doc))
        for kind in ("feats", "depths", "masks"):
            path = manifest.parent / f"{kind}.btsr"
            tensor_write(tensor_read(path)[:n_rigs], path)
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, "n_cameras")

    @pytest.mark.parametrize("edit", [
        {"grid": 5},
        "{not json",
        {"spec": {**{k: v for k, v in SCENE_SPEC.items() if k not in ("grid", "dspec")},
                  "channels": "8"}},
        # a manifest holds every scene field: none takes its default there
        {"spec": {k: v for k, v in {**SceneSpec().to_json(), **SCENE_SPEC}.items()
                  if k not in ("grid", "dspec", "channels")}},
    ], ids=["grid-not-object", "not-json", "channels-not-int", "channels-missing"])
    def test_bad_scene_manifest_exits_2(self, workspace, tmp_path, capsys, edit):
        scene = tmp_path / "scene"
        shutil.copytree(workspace / "scene", scene)
        manifest = scene / "manifest.json"
        rewrite_json(manifest, edit)
        for argv in (["precompute", "--scene", str(scene), "--out", str(tmp_path / "t")],
                     ["transform", "--scene", str(scene), "--tables", str(workspace / "tables"),
                      "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "config error" in err and str(manifest) in err, argv[0]
            assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scene"]

    def test_old_manifest_layout_exits_2(self, workspace, tmp_path, capsys):
        """A manifest that lists its rigs in the older layout, a "cameras" list
        of {"rig": ...} wrappers, is refused as old table versions are."""
        manifest = edited_manifest(workspace, tmp_path, {})
        doc = json.loads(manifest.read_text())
        doc["cameras"] = [{"rig": rig} for rig in doc.pop("rigs")]
        rewrite_json(manifest, json.dumps(doc))
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, "run synth again")

    @pytest.mark.parametrize("spec", [5, [], "spec"], ids=["int", "list", "str"])
    def test_manifest_spec_not_an_object_exits_2(self, workspace, tmp_path, capsys, spec):
        manifest = edited_manifest(workspace, tmp_path, {})
        rewrite_json(manifest, {"spec": spec})
        assert_manifest_refused(workspace, tmp_path, capsys, manifest, "SceneSpec")


def edited_manifest(workspace, tmp_path, bad):
    """A copy of the workspace scene whose manifest takes `bad`: its grid and
    dspec blocks replace the manifest's own, its other keys go into the spec."""
    shutil.copytree(workspace / "scene", tmp_path / "scene")
    manifest = tmp_path / "scene" / "manifest.json"
    doc = json.loads(manifest.read_text())
    blocks = {k: v for k, v in bad.items() if k in doc}  # grid, dspec
    spec = {k: v for k, v in bad.items() if k not in doc}
    rewrite_json(manifest, {**blocks, "spec": {**doc["spec"], **spec}})
    return manifest


def assert_manifest_refused(workspace, tmp_path, capsys, manifest, field):
    """precompute and transform both exit 2 on the scene, with one line that
    names the manifest and the field, and write no --out."""
    scene = str(manifest.parent)
    for argv in (["precompute", "--scene", scene, "--out", str(tmp_path / "t")],
                 ["transform", "--scene", scene, "--tables", str(workspace / "tables"),
                  "--out", str(tmp_path / "o")]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "config error" in err and str(manifest) in err and field in err, argv[0]
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


def run_transform(workspace, out, *extra):
    return main(
        ["transform", "--scene", str(workspace / "scene"),
         "--tables", str(workspace / "tables"), "--out", str(out), *extra]
    )


def run_cli(argv) -> tuple:
    """main(argv) in process: its exit code and the lines it writes to stderr,
    with the two lines each warning would print there outside pytest."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(arg) for arg in argv])
    text = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, text.strip().splitlines()


class TestTransform:
    def test_outputs_and_shapes(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "out") == 0
        names = set(dir_digest(tmp_path / "out"))
        assert names == {
            "F.btsr", "P.btsr", "F_ht.btsr", "F_lss.btsr",
            "F_channel.btsr", "A.btsr", "summary.json",
        }
        f = tensor_read(tmp_path / "out" / "F.btsr")
        assert f.shape == (SCENE_SPEC["channels"], 32, 32)
        p = tensor_read(tmp_path / "out" / "P.btsr")
        assert p.shape == (1, 32, 32)
        assert np.all(p > 0) and np.all(p < 1)

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "a") == 0
        assert run_transform(workspace, tmp_path / "b") == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_threads_do_not_change_bytes(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "a", "--threads", "1") == 0
        assert run_transform(workspace, tmp_path / "b", "--threads", "4") == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_ablation_force_affinity(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "a", "--ablate", "force-A=1.0") == 0
        f_channel = tensor_read(tmp_path / "a" / "F_channel.btsr")
        f_lss = tensor_read(tmp_path / "a" / "F_lss.btsr")
        assert np.array_equal(f_channel, f_lss)
        affinity = tensor_read(tmp_path / "a" / "A.btsr")
        assert np.all(affinity == 1.0)

    def test_ablation_disable_mask_changes_output(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "base") == 0
        assert run_transform(workspace, tmp_path / "nomask", "--ablate", "disable-M") == 0
        a = tensor_read(tmp_path / "base" / "F.btsr")
        b = tensor_read(tmp_path / "nomask" / "F.btsr")
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("ablation, switch", [("disable-M", "disable_mask"),
                                                  ("uniform-D", "uniform_depth")])
    def test_ablation_writes_run_pipeline_bits(self, workspace, tmp_path, ablation, switch):
        """--ablate hands its switch to run_pipeline, the one place ablations
        are applied: every tensor written has the in-process run's bits, and
        the ablation moves F_ht."""
        assert run_transform(workspace, tmp_path / "base") == 0
        assert run_transform(workspace, tmp_path / "out", "--ablate", ablation) == 0
        bundle = load_bundle(workspace / "scene")
        result = run_pipeline(
            bundle.feats, bundle.depths, bundle.masks,
            read_table(workspace / "tables" / "ht_table.htlt", HT_MAGIC),
            read_table(workspace / "tables" / "lss_table.lspt", LSS_MAGIC),
            make_seeded_weights(cli.DEFAULT_WEIGHT_SEED, SCENE_SPEC["channels"]),
            **{switch: True},
        )
        arrays = {"F": result.f_final, "P": result.p_bev, "F_ht": result.f_ht,
                  "F_lss": result.f_lss, "F_channel": result.f_channel, "A": result.affinity}
        for name, arr in arrays.items():
            written = tensor_read(tmp_path / "out" / f"{name}.btsr")
            assert np.array_equal(written.view(np.uint32), arr.view(np.uint32)), name
        assert not np.array_equal(arrays["F_ht"], tensor_read(tmp_path / "base" / "F_ht.btsr"))

    def test_unknown_ablation_exits_2(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "x", "--ablate", "bogus") == 2

    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        # removed options are unrecognized arguments, not silently ignored
        for argv in (["--weight-mode", "depth_only"], ["--config", "x.json"],
                     ["--sampler", "naive-round"]):
            with pytest.raises(SystemExit) as exit_:
                run_transform(workspace, tmp_path / "x", *argv)
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("shape", [(1, 4, 4), (32, 32), (2, 32, 32)],
                             ids=["1x4x4", "32x32", "2x32x32"])
    def test_gt_bev_of_another_shape_exits_3(self, workspace, tmp_path, capsys, shape):
        """A scene's gt_bev is (1, ny, nx); precompute and transform refuse
        another shape in one line that names the file and both shapes."""
        scene = tmp_path / "scene"
        shutil.copytree(workspace / "scene", scene)
        tensor_write(np.ones(shape, dtype=np.float32), scene / "gt_bev.btsr")
        for argv in (["precompute", "--scene", str(scene), "--out", str(tmp_path / "t")],
                     ["transform", "--scene", str(scene), "--tables", str(workspace / "tables"),
                      "--out", str(tmp_path / "o")]):
            assert main(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(scene / "gt_bev.btsr") in err, argv[0]
            assert str(shape) in err and "(1, 32, 32)" in err, argv[0]
            assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scene"]

    @pytest.mark.parametrize("name, shape, expect", [
        ("feats", (3, 5, 7, 8), "feature shape (3, 5, 7, 8) != (3, 8, 16, 8)"),
        ("feats", (3, 8, 16, 4), "feats.btsr has shape (3, 8, 16, 4), the manifest needs "
                                 "(3, 8, 16, 8)"),
        ("depths", (3, 17, 8, 16), "depth shape (3, 17, 8, 16) != (3, 18, 8, 16)"),
        ("masks", (2, 8, 16), "mask shape (2, 8, 16) != (3, 8, 16)"),
    ], ids=["feats-5x7", "feats-4-channels", "depths-17-bins", "masks-2-cameras"])
    def test_frame_of_another_shape_exits_3(self, workspace, tmp_path, capsys, name, shape,
                                            expect):
        """`load_bundle` checks the scene's frame against its manifest's rigs,
        spec and depth bins, so precompute refuses it as transform does: exit 3,
        one line that names the scene and both shapes, and no output."""
        scene = tmp_path / "scene"
        shutil.copytree(workspace / "scene", scene)
        tensor_write(np.zeros(shape, dtype=np.float32), scene / f"{name}.btsr")
        for argv in (["precompute", "--scene", str(scene), "--out", str(tmp_path / "t")],
                     ["transform", "--scene", str(scene), "--tables", str(workspace / "tables"),
                      "--out", str(tmp_path / "o")]):
            assert main(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(scene) in err and expect in err, argv[0]
            assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scene"]

    @pytest.mark.parametrize("byte", [19, 27, 35])
    def test_gt_bev_extent_of_2_pow_63_exits_3(self, workspace, tmp_path, byte):
        """A gt_bev extent with its top bit flipped ends transform in exit 3
        with one stderr line, no warning, and no output."""
        scene = tmp_path / "scene"
        shutil.copytree(workspace / "scene", scene)
        raw = bytearray((scene / "gt_bev.btsr").read_bytes())
        raw[byte] ^= 0x80
        (scene / "gt_bev.btsr").write_bytes(bytes(raw))
        code, lines = run_cli(["transform", "--scene", scene, "--tables", workspace / "tables",
                               "--out", tmp_path / "o"])
        assert code == 3 and len(lines) == 1, lines
        assert lines[0].startswith("error:") and "gt_bev.btsr" in lines[0]
        assert [p.name for p in tmp_path.iterdir()] == ["scene"]

    @pytest.mark.parametrize("index, expected", [(0, 0), (2, 3)])
    def test_overflowing_weight_prints_no_warning(self, workspace, tmp_path, index, expected):
        """A finite caf.reduce bias of ~1e37 makes a channel of the CAF's input
        ~1e37 everywhere, and its exact pool stays finite, so transform exits 0
        with nothing on stderr.  Where both of caf.local.squeeze's weights on
        that channel are ~1e37 too, both squeezed channels overflow to Inf and
        their expand meets Inf - Inf: a NaN output, and exit 3 with one line.
        No numpy warning either way."""
        weights = make_seeded_weights(cli.DEFAULT_WEIGHT_SEED, SCENE_SPEC["channels"])
        weights["caf.reduce"].bias.view(np.uint32)[index] ^= 1 << 30
        if expected:
            weights["caf.local.squeeze"].kernel.view(np.uint32)[:, index] ^= 1 << 30
        weights.save(tmp_path / "w")
        code, lines = run_cli(["transform", "--scene", workspace / "scene", "--tables",
                               workspace / "tables", "--out", tmp_path / "o",
                               "--weights", tmp_path / "w"])
        assert code == expected and len(lines) == (code != 0), lines
        assert (tmp_path / "o").exists() == (code == 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ablate", [[], ["--ablate", "disable-M"]],
                             ids=["masked", "disable-M"])
    @pytest.mark.parametrize("huge", ["weights", "features"])
    def test_overflow_prints_one_line_at_every_thread_count(self, workspace, tmp_path,
                                                            huge, ablate, threads):
        """Every kernel and bias of the seeded bundle times 1e30, or every
        feature 3e38, overflows to a NaN or Inf output, which transform refuses:
        exit 3 with one line.  The frame's workers, which split the scatters'
        rows and, on a `disable-M` frame, the convolutions' bands, compute
        under the CLI's numpy error state, so no warning reaches stderr at
        one thread or at two."""
        weights = make_seeded_weights(cli.DEFAULT_WEIGHT_SEED, SCENE_SPEC["channels"])
        scene = workspace / "scene"
        if huge == "weights":
            for w in weights.layers.values():
                w.kernel[...] *= np.float32(1e30)
                w.bias[...] *= np.float32(1e30)
        else:
            scene = tmp_path / "scene"
            shutil.copytree(workspace / "scene", scene)
            feats = tensor_read(scene / "feats.btsr")
            tensor_write(np.full_like(feats, 3e38), scene / "feats.btsr")
        weights.save(tmp_path / "w")
        code, lines = run_cli(["transform", "--scene", scene, "--tables", workspace / "tables",
                               "--out", tmp_path / "o", "--weights", tmp_path / "w",
                               "--threads", threads, *ablate])
        assert code == 3 and len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not (tmp_path / "o").exists()

    def test_channels_not_divisible_by_4_exits_2(self, tmp_path, capsys):
        tables = other_tables(tmp_path / "six", channels=6)
        wdir = tmp_path / "weights"
        make_seeded_weights(11, SCENE_SPEC["channels"]).save(wdir)
        capsys.readouterr()
        for weights in ([], ["--weights", str(wdir)]):  # seeded, and a bundle from disk
            assert main(["transform", "--scene", str(tables.parent / "scene"),
                         "--tables", str(tables), "--out", str(tmp_path / "out"), *weights]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "reduce ratio must divide the channel count" in err
            assert len(err.strip().splitlines()) == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", ["missing", "extra", "wrong-shape"])
    def test_weights_must_match_the_heads(self, workspace, tmp_path, capsys, edit):
        """A --weights bundle holds exactly the heads' layers, at their kernel
        shapes for the scene's channel count."""
        layers = dict(make_seeded_weights(11, SCENE_SPEC["channels"]).layers)
        name = "prob.local.reduce"
        if edit == "missing":
            del layers[name]
        elif edit == "extra":
            name = "prob.local.extra"
            layers[name] = layers["prob.local.out"]
        else:
            layers[name] = make_seeded_weights(11, 2 * SCENE_SPEC["channels"]).layers[name]
        WeightBundle(layers).save(tmp_path / "weights")
        assert run_transform(workspace, tmp_path / "out", "--weights",
                             str(tmp_path / "weights")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(name) in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["weights"]

    def test_weights_roundtrip_through_disk(self, workspace, tmp_path):
        wdir = tmp_path / "weights"
        make_seeded_weights(11, SCENE_SPEC["channels"]).save(wdir)
        # older bundles also wrote a "provenance" string, which loading ignores
        rewrite_json(wdir / "manifest.json", {"provenance": "seeded(11)"})
        assert run_transform(workspace, tmp_path / "disk", "--weights", str(wdir)) == 0
        assert run_transform(workspace, tmp_path / "seeded") == 0
        assert dir_digest(tmp_path / "disk") == dir_digest(tmp_path / "seeded")

    @pytest.mark.parametrize("edit", [{"layers": 5}, "{not json"],
                             ids=["layers-not-object", "not-json"])
    def test_bad_weight_manifest_exits_2(self, workspace, tmp_path, capsys, edit):
        wdir = tmp_path / "weights"
        make_seeded_weights(11, SCENE_SPEC["channels"]).save(wdir)
        manifest = wdir / "manifest.json"
        rewrite_json(manifest, edit)
        assert run_transform(workspace, tmp_path / "out", "--weights", str(wdir)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(manifest) in err
        assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["weights"]


def other_tables(root, **overrides):
    """Tables built for SCENE_SPEC with some fields replaced."""
    root.mkdir()
    spec = root / "spec.json"
    spec.write_text(json.dumps({**SCENE_SPEC, **overrides}))
    assert main(["synth", "--spec", str(spec), "--out", str(root / "scene")]) == 0
    assert main(["precompute", "--scene", str(root / "scene"), "--out", str(root / "tables")]) == 0
    return root / "tables"


def old_ht_table(path, version) -> bytes:
    """The version-4 height table at path, in an older format's layout."""
    if version == 1:  # this scene's header, then (cell, cam, feat, depth) records
        header = struct.pack("<4sB3s6IQ", b"HTLT", 1, b"\0" * 3, 32, 32, 3, 8, 16, 18, 1)
        return header + struct.pack("<4I", 0, 0, 0, 0)
    raw = path.read_bytes()
    table = read_table(path, HT_MAGIC)
    start = 76 + 8 * len(table.heights)  # the offsets, after the header and heights
    offsets = raw[start:start + table.offsets.nbytes]
    records = np.stack([table.feat_idx, table.depth_idx], axis=1).tobytes()
    if version == 2:  # no digest, height count or heights
        return raw[:4] + bytes([2]) + raw[5:40] + offsets + records
    return raw[:4] + bytes([3]) + raw[5:start] + offsets + records  # no checksum


@pytest.fixture(scope="module")
def two_rigs(tmp_path_factory):
    """Scenes and tables for random_scene_spec(3) with the cameras 1.5 m and 1.8 m
    high: the same grid, depth bins, camera count and feature size, other rigs."""
    root = tmp_path_factory.mktemp("rigs")
    for height in (1.5, 1.8):
        d = root / str(height)
        d.mkdir()
        (d / "spec.json").write_text(json.dumps(random_scene_spec(3, cam_height=height).to_json()))
        assert main(["synth", "--spec", str(d / "spec.json"), "--out", str(d / "scene")]) == 0
        assert main(["precompute", "--scene", str(d / "scene"), "--out", str(d / "tables")]) == 0
    return {height: root / str(height) for height in (1.5, 1.8)}


class TestTablesBoundToGeometry:
    """Tables from another geometry end in exit 2 before any compute or output."""

    def assert_refused(self, workspace, tables, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["transform", "--scene", str(workspace / "scene"),
                     "--tables", str(tables), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".out.")]
        return err

    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {**SCENE_SPEC["grid"], "nx": 16, "ny": 16}}, "HTLT table has ny=16"),
        ({"grid": {**SCENE_SPEC["grid"], "x_min": -20.0, "x_max": 12.0}}, "fingerprint"),
        ({"dspec": {"d_min": 2.0, "d_max": 22.0, "step": 1.0}}, "n_bins=20"),
        ({"n_cameras": 4}, "n_cams=4"),
        ({"feat_h": 6}, "feat_h=6"),
        ({"feat_w": 12}, "feat_w=12"),
    ], ids=["grid-size", "grid-extent", "dspec", "n_cams", "feat_h", "feat_w"])
    def test_mismatch_exits_2(self, workspace, tmp_path, capsys, overrides, message):
        tables = other_tables(tmp_path / "other", **overrides)
        assert message in self.assert_refused(workspace, tables, tmp_path, capsys)

    def test_other_rig_with_same_sizes_exits_2(self, two_rigs, tmp_path, capsys):
        # same grid, depth bins, camera count and feature size; the cameras sit higher
        err = self.assert_refused(two_rigs[1.8], two_rigs[1.5] / "tables", tmp_path, capsys)
        assert "fingerprint" in err

    @pytest.mark.parametrize("name", ["ht_table.htlt", "lss_table.lspt"])
    def test_table_swapped_in_from_other_rigs_exits_2(self, two_rigs, tmp_path, capsys, name):
        # one table file copied in from a table set with the same sizes but other rigs
        tables = tmp_path / "tables"
        shutil.copytree(two_rigs[1.5] / "tables", tables)
        shutil.copy(two_rigs[1.8] / "tables" / name, tables / name)
        err = self.assert_refused(two_rigs[1.5], tables, tmp_path, capsys)
        magic = {"ht_table.htlt": "HTLT", "lss_table.lspt": "LSPT"}[name]
        assert f"{magic} table" in err and "fingerprint" in err

    def test_edited_height_exits_2(self, workspace, tmp_path, capsys):
        tables = tmp_path / "tables"
        shutil.copytree(workspace / "tables", tables)
        path = tables / "ht_table.htlt"
        raw = bytearray(path.read_bytes())
        first, = struct.unpack_from("<d", raw, 76)  # the first height, after the header
        struct.pack_into("<d", raw, 76, first + 0.25)
        # a new checksum, so the edit reaches the fingerprint check
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
        path.write_bytes(bytes(raw))
        err = self.assert_refused(workspace, tables, tmp_path, capsys)
        assert "HTLT table" in err and "fingerprint" in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_table_exits_2(self, workspace, tmp_path, capsys, version):
        tables = tmp_path / "old"
        shutil.copytree(workspace / "tables", tables)
        path = tables / "ht_table.htlt"
        path.write_bytes(old_ht_table(path, version))
        err = self.assert_refused(workspace, tables, tmp_path, capsys)
        assert f"version {version}" in err and "precompute again" in err

    def test_failed_write_leaves_no_output(self, workspace, tmp_path, monkeypatch, capsys):
        real, calls = cli.tensor_write, []

        def failing(arr, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            real(arr, path)

        monkeypatch.setattr(cli, "tensor_write", failing)
        assert run_transform(workspace, tmp_path / "out") == 3
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_existing_out_keeps_other_files(self, workspace, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        assert run_transform(workspace, out) == 0
        assert run_transform(workspace, tmp_path / "fresh") == 0
        assert (out / "notes.txt").read_text() == "keep"
        digests = dir_digest(out)
        del digests["notes.txt"]
        assert digests == dir_digest(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["ht_table.htlt", "lss_table.lspt"]), data=st.data())
def test_damaged_table_exits_2_or_3(workspace, name, data):
    """A table truncated at any length, or with any one bit flipped (the header's
    half the time), ends transform in exit 2 or 3 with one stderr line, no
    traceback and no output."""
    raw = bytearray((workspace / "tables" / name).read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * 80 - 1) | st.integers(0, 8 * len(raw) - 1),
                        label="bit")
        raw[bit // 8] ^= 1 << bit % 8
    with tempfile.TemporaryDirectory() as tmp:
        tables, out, err = Path(tmp) / "tables", Path(tmp) / "out", io.StringIO()
        shutil.copytree(workspace / "tables", tables)
        (tables / name).write_bytes(bytes(raw))
        with contextlib.redirect_stderr(err):
            code = main(["transform", "--scene", str(workspace / "scene"),
                         "--tables", str(tables), "--out", str(out)])
        assert code in (2, 3)
        assert len(err.getvalue().strip().splitlines()) == 1
        assert "Traceback" not in err.getvalue()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["tables"]


# the files damaged by test_damaged_input_exits_2_or_3, under the `inputs` fixture
DAMAGED_INPUTS = {"scene spec": "scene.json", "scene manifest": "scene/manifest.json",
                  "scene tensor": "scene/*.btsr", "weight manifest": "weights/manifest.json",
                  "weight tensor": "weights/*.btsr"}
# one value of each JSON type: null, boolean, number, string, array, object
JSON_VALUES = [None, True, 7, "x", [], {}]


def json_kind(value) -> type:
    return float if type(value) is int else type(value)


def json_values(doc, at=()):
    """(key path, value) of every value in a JSON document, the document first."""
    yield at, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, item in items:
        yield from json_values(item, (*at, key))


def json_swapped(doc, at, value):
    """doc with the value at key path `at` replaced by `value`."""
    if not at:
        return value
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    return doc


def decodes(raw) -> bool:
    try:
        json.loads(bytes(raw))
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def inputs(workspace, tmp_path_factory):
    """The workspace's scene spec and scene, and a weight bundle on disk."""
    root = tmp_path_factory.mktemp("inputs")
    shutil.copy(workspace / "scene.json", root / "scene.json")
    shutil.copytree(workspace / "scene", root / "scene")
    make_seeded_weights(cli.DEFAULT_WEIGHT_SEED, SCENE_SPEC["channels"]).save(root / "weights")
    return root


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(DAMAGED_INPUTS)), data=st.data())
def test_damaged_input_exits_2_or_3(workspace, inputs, kind, data):
    """A scene spec, scene manifest, scene tensor, weight manifest or weight
    tensor truncated at any length, with any one bit flipped (a tensor's
    header half the time), or with a JSON value swapped for one of another
    type, ends synth (the spec) or transform (the others) in exit 2 or 3
    with one stderr line, no traceback and no output.  Exit 0 is allowed
    only where no file check can see the damage: a flipped bit in a tensor's
    payload, or a JSON bit flip that still decodes."""
    name = data.draw(st.sampled_from(sorted(inputs.glob(DAMAGED_INPUTS[kind]))),
                     label="file").relative_to(inputs)
    raw, is_json = bytearray((inputs / name).read_bytes()), name.suffix == ".json"
    damage = data.draw(st.sampled_from(["truncate", "flip", "swap"] if is_json
                                       else ["truncate", "flip"]), label="damage")
    unseen = False
    if damage == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif damage == "flip":
        header = len(raw) if is_json else 12 + 8 * raw[5]
        bit = data.draw(st.integers(0, 8 * header - 1) | st.integers(0, 8 * len(raw) - 1),
                        label="bit")
        raw[bit // 8] ^= 1 << bit % 8
        unseen = decodes(raw) if is_json else bit >= 8 * header
    else:
        doc = json.loads(raw)
        at, old = data.draw(st.sampled_from(list(json_values(doc))), label="at")
        value = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if json_kind(v) is not json_kind(old)]), label="value")
        raw = json.dumps(json_swapped(doc, at, value)).encode()
    with tempfile.TemporaryDirectory() as tmp:
        root, out = Path(tmp) / "in", Path(tmp) / "out"
        shutil.copytree(inputs, root)
        (root / name).write_bytes(bytes(raw))
        if kind == "scene spec":
            argv = ["synth", "--spec", root / name, "--out", out]
        else:
            argv = ["transform", "--scene", root / "scene", "--tables", workspace / "tables",
                    "--out", out, *(["--weights", root / "weights"] if "weight" in kind else [])]
        code, lines = run_cli(argv)
        if code == 0:
            assert unseen and lines == [], lines
        else:
            assert code in (2, 3) and len(lines) == 1, lines
            assert "Traceback" not in lines[0]
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["in"]


class TestTransformOptions:
    """Bad options end in exit code 2 with a one-line message, never a traceback."""

    def assert_config_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err

    def test_threads_capped(self, tmp_path, capsys):
        # the scene does not exist: without the cap this ends in exit 3, before any thread starts
        code = main(["transform", "--scene", str(tmp_path / "none"),
                     "--tables", str(tmp_path / "none"), "--out", str(tmp_path / "x"),
                     "--threads", str(MAX_THREADS + 1)])
        self.assert_config_error(code, capsys)

    def test_threads_cap_is_inclusive(self, tmp_path, capsys):
        # at the cap the options pass, and the missing scene ends the run in exit 3
        code = main(["transform", "--scene", str(tmp_path / "none"),
                     "--tables", str(tmp_path / "none"), "--out", str(tmp_path / "x"),
                     "--threads", str(MAX_THREADS)])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("value", ["2", "-0.1", "nan", "inf", "abc"])
    def test_force_affinity_must_be_finite_unit(self, workspace, tmp_path, capsys, value):
        code = run_transform(workspace, tmp_path / "x", "--ablate", f"force-A={value}")
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "x").exists()


def cli_file_digests(cpu_group_off=None) -> dict:
    """SHA-256 of every file that `synth`, `precompute` and `transform` write for
    SCENE_SPEC, the transforms masked and `disable-M` at `--threads` 1 and 2, by
    path under one root.  With `cpu_group_off`, first checks that numpy's
    dispatch to that CPU feature group is switched off."""
    assert cpu_group_off is None or not __cpu_features__[cpu_group_off]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        (root / "spec.json").write_text(json.dumps(SCENE_SPEC))
        runs = [["synth", "--spec", root / "spec.json", "--out", root / "scene"],
                ["precompute", "--scene", root / "scene", "--out", root / "tables"]]
        for mode, ablate in (("masked", []), ("disable-M", ["--ablate", "disable-M"])):
            runs += [["transform", "--scene", root / "scene", "--tables", root / "tables",
                      "--out", root / f"{mode}-{threads}", "--threads", threads, *ablate]
                     for threads in (1, 2)]
        for argv in runs:
            assert main([str(arg) for arg in argv]) == 0, argv
        return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file() and path.name != "spec.json"}


@functools.cache
def own_cli_file_digests() -> dict:
    """`cli_file_digests` of this process, whose two thread counts agree."""
    digests = cli_file_digests()
    assert len(digests) == 5 + 2 + 4 * 7  # the scene, the tables, 4 x (6 tensors + summary)
    for name, digest in digests.items():
        assert digests.get(name.replace("-2/", "-1/")) == digest, name
    return digests


@pytest.mark.parametrize("env", [
    {},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_NUM_THREADS": "1"},
    *({"NPY_DISABLE_CPU_FEATURES": group}
      for group in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")),
], ids=["default", "nehalem", "blas-1-thread", "no-x86-v3", "no-x86-v4", "no-avx512-icl",
        "no-avx512-spr"])
def test_every_written_file_holds_in_another_environment(env):
    """The CLI matrix: in a child process under each environment, every file
    that synth, precompute and transform write has the SHA-256 of this
    process's own run.  A CPU group this machine lacks, or an OpenBLAS
    setting without numpy on OpenBLAS, skips its row."""
    group = env.get("NPY_DISABLE_CPU_FEATURES")
    if group and not __cpu_features__.get(group):
        pytest.skip(f"this CPU has no {group}")
    if env.keys() & {"OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS"} and not numpy_on_openblas_x86():
        pytest.skip("needs numpy on OpenBLAS, x86-64")
    assert json_in_child("test_cli", f"cli_file_digests({group!r})", **env) == \
        own_cli_file_digests()


class TestCompare:
    def test_identical_dirs(self, workspace, tmp_path, capsys):
        assert run_transform(workspace, tmp_path / "a") == 0
        assert run_transform(workspace, tmp_path / "b") == 0
        out = tmp_path / "report.json"
        assert main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_diff"] == 0.0
        assert all(e["bitwise_equal"] for e in report["files"].values())

    def test_different_dirs_report_nonzero(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "a") == 0
        assert run_transform(workspace, tmp_path / "b", "--weight-seed", "99") == 0
        out = tmp_path / "report.json"
        assert main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_diff"] > 0.0

    def assert_compare_refused(self, a, b, capsys):
        assert main(["compare", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_dirs_exit_2(self, workspace, tmp_path, capsys):
        assert run_transform(workspace, tmp_path / "a") == 0
        self.assert_compare_refused(tmp_path / "none1", tmp_path / "none2", capsys)
        self.assert_compare_refused(tmp_path / "a", tmp_path / "none", capsys)

    def test_no_shared_tensor_exits_2(self, workspace, tmp_path, capsys):
        assert run_transform(workspace, tmp_path / "a") == 0
        (tmp_path / "empty").mkdir()
        self.assert_compare_refused(tmp_path / "a", tmp_path / "empty", capsys)

    @pytest.mark.parametrize("side", ["baseline", "variant"])
    def test_one_sided_file_is_an_error(self, workspace, tmp_path, capsys, side):
        assert run_transform(workspace, tmp_path / "baseline") == 0
        assert run_transform(workspace, tmp_path / "variant") == 0
        (tmp_path / side / "F.btsr").unlink()
        out = tmp_path / "report.json"
        assert main(["compare", str(tmp_path / "baseline"), str(tmp_path / "variant"),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "error" in report["files"]["F.btsr"]
        assert report["max_abs_diff"] == float("inf")
        assert report["files"]["P.btsr"]["bitwise_equal"]
        assert "F.btsr: only in" in capsys.readouterr().out

import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from dualvt import cli
from dualvt.cli import MAX_THREADS, RunConfig, build_parser, main
from dualvt.errors import ConfigError
from dualvt.fusion import make_seeded_weights
from dualvt.synth import random_scene_spec
from dualvt.tables import HT_MAGIC, LSS_MAGIC, read_table
from dualvt.tensors import tensor_read


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
]
OUT_OF_RANGE_IDS = ["hfov-0", "hfov-180", "hfov-nan", "channels-0", "channels-neg",
                    "feat-w-0", "feat-h-neg", "kappa-nan", "cam-height-inf", "cam-height-huge",
                    "n-cameras-0", "n-cameras-huge"]


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
        expect = {"manifest.json", "gt_bev.btsr"}
        for i in range(SCENE_SPEC["n_cameras"]):
            expect |= {f"cam{i}_feat.btsr", f"cam{i}_depth.btsr", f"cam{i}_mask.btsr"}
        assert names == expect

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        spec = workspace / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "again")]) == 0
        assert dir_digest(tmp_path / "again") == dir_digest(workspace / "scene")

    def test_bad_spec_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

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
        assert "config error" in err and missing in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, field", [
        ({"hfov_deg": "70"}, "hfov_deg"),
        ({"cam_height": "x"}, "cam_height"),
        ({"boxes": [{"center": [0, 0, "a"], "size": [1, 1, 1]}]}, "center"),
        ({"feat_w": 4.5}, "feat_w"),
        ({"boxes": [{"size": [1, 1, 1]}]}, "center"),
        ({**SCENE_SPEC, "channels": "8"}, "channels"),
        ({"seed": True}, "seed"),
        ({"boxes": [{"center": [0, 0, 0], "size": [1, False, 1]}]}, "size"),
    ], ids=["hfov-str", "cam-height-str", "center-str", "feat-w-float", "box-no-center",
            "channels-str", "seed-bool", "size-bool"])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, doc, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, field", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, bad, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SCENE_SPEC, **bad}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failed_replace_keeps_old_scene(self, workspace, tmp_path, capsys):
        """A scene is replaced whole or not at all."""
        out = tmp_path / "scA"
        assert main(["synth", "--spec", str(workspace / "scene.json"), "--out", str(out)]) == 0
        (out / "cam2_depth.btsr").unlink()
        (out / "cam2_depth.btsr").mkdir()
        old = dir_digest(out)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SCENE_SPEC, "seed": 4}))
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cam2_depth.btsr" in err and "Traceback" not in err
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
        for heights in ("nonsense", "uniform:abc", "uniform:1", "uniform:"):
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

    @pytest.mark.parametrize("bad, field", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_manifest_spec_exits_2(self, workspace, tmp_path, capsys, bad, field):
        scene = tmp_path / "scene"
        shutil.copytree(workspace / "scene", scene)
        manifest = scene / "manifest.json"
        doc = json.loads(manifest.read_text())
        rewrite_json(manifest, {"spec": {**doc["spec"], **bad}})
        assert main(["precompute", "--scene", str(scene), "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(manifest) in err and field in err
        assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scene"]

    @pytest.mark.parametrize("edit", [
        {"grid": 5},
        "{not json",
        {"spec": {**{k: v for k, v in SCENE_SPEC.items() if k not in ("grid", "dspec")},
                  "channels": "8"}},
    ], ids=["grid-not-object", "not-json", "channels-not-int"])
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


def run_transform(workspace, out, *extra):
    return main(
        ["transform", "--scene", str(workspace / "scene"),
         "--tables", str(workspace / "tables"), "--out", str(out), *extra]
    )


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

    def test_fast_equals_naive_round(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "fast", "--sampler", "fast") == 0
        assert run_transform(workspace, tmp_path / "round", "--sampler", "naive-round") == 0
        a = tensor_read(tmp_path / "fast" / "F.btsr")
        b = tensor_read(tmp_path / "round" / "F.btsr")
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_interp_differs_from_round(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "interp", "--sampler", "naive-interp") == 0
        assert run_transform(workspace, tmp_path / "round", "--sampler", "naive-round") == 0
        a = tensor_read(tmp_path / "interp" / "F_ht.btsr")
        b = tensor_read(tmp_path / "round" / "F_ht.btsr")
        assert not np.array_equal(a, b)

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

    @pytest.mark.parametrize("ablation", ["disable-M", "uniform-D"])
    def test_ablations_reach_naive_sampler(self, workspace, tmp_path, ablation):
        # the naive samplers see the same ablated inputs as the fast path
        assert run_transform(workspace, tmp_path / "fast", "--ablate", ablation) == 0
        assert run_transform(workspace, tmp_path / "round", "--ablate", ablation,
                             "--sampler", "naive-round") == 0
        assert run_transform(workspace, tmp_path / "base", "--sampler", "naive-round") == 0
        a = tensor_read(tmp_path / "fast" / "F_ht.btsr")
        b = tensor_read(tmp_path / "round" / "F_ht.btsr")
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert not np.array_equal(b, tensor_read(tmp_path / "base" / "F_ht.btsr"))

    def test_unknown_ablation_exits_2(self, workspace, tmp_path):
        assert run_transform(workspace, tmp_path / "x", "--ablate", "bogus") == 2

    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        # removed options are unrecognized arguments, not silently ignored
        for argv in (["--weight-mode", "depth_only"], ["--config", "x.json"]):
            with pytest.raises(SystemExit) as exit_:
                run_transform(workspace, tmp_path / "x", *argv)
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_channels_not_divisible_by_4_exits_2(self, tmp_path, capsys):
        tables = other_tables(tmp_path / "six", channels=6)
        capsys.readouterr()
        assert main(["transform", "--scene", str(tables.parent / "scene"),
                     "--tables", str(tables), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "reduce ratio must divide the channel count" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_weights_roundtrip_through_disk(self, workspace, tmp_path):
        wdir = tmp_path / "weights"
        make_seeded_weights(11, SCENE_SPEC["channels"]).save(wdir)
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
        path.write_bytes(bytes(raw))
        err = self.assert_refused(workspace, tables, tmp_path, capsys)
        assert "HTLT table" in err and "fingerprint" in err

    def test_version_1_table_exits_2(self, workspace, tmp_path, capsys):
        tables = tmp_path / "old"
        shutil.copytree(workspace / "tables", tables)
        # the version-1 layout: this scene's header, then (cell, cam, feat, depth) records
        header = struct.pack("<4sB3s6IQ", b"HTLT", 1, b"\0" * 3, 32, 32, 3, 8, 16, 18, 1)
        (tables / "ht_table.htlt").write_bytes(header + struct.pack("<4I", 0, 0, 0, 0))
        err = self.assert_refused(workspace, tables, tmp_path, capsys)
        assert "version 1" in err and "precompute again" in err

    def test_version_2_table_exits_2(self, workspace, tmp_path, capsys):
        tables = tmp_path / "old"
        shutil.copytree(workspace / "tables", tables)
        # the version-2 file: the version-3 one without its digest, height count and heights
        path = tables / "ht_table.htlt"
        raw = path.read_bytes()
        n_heights, = struct.unpack_from("<I", raw, 72)
        path.write_bytes(raw[:4] + bytes([2]) + raw[5:40] + raw[76 + 8 * n_heights:])
        err = self.assert_refused(workspace, tables, tmp_path, capsys)
        assert "version 2" in err and "precompute again" in err

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


class TestRunConfigValidation:
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

    def test_threads_cap_is_inclusive(self):
        args = build_parser().parse_args(
            ["transform", "--scene", "s", "--tables", "t", "--out", "o",
             "--threads", str(MAX_THREADS)]
        )
        assert RunConfig.merge(args).threads == MAX_THREADS
        args.threads = MAX_THREADS + 1
        with pytest.raises(ConfigError):
            RunConfig.merge(args)

    @pytest.mark.parametrize("value", ["2", "-0.1", "nan", "inf", "abc"])
    def test_force_affinity_must_be_finite_unit(self, workspace, tmp_path, capsys, value):
        code = run_transform(workspace, tmp_path / "x", "--ablate", f"force-A={value}")
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "x").exists()


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

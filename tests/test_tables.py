import dataclasses
import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import forward_camera, small_geometry
from dualvt.errors import ConfigError, IndexOutOfRange, ShapeMismatch
from dualvt.fusion import make_seeded_weights, run_pipeline
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import ROUND, ht_transform_fast, ht_transform_naive, precompute_ht_table
from dualvt.lift_stream import lss_pool, lss_pool_reference, precompute_lss_table
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, make_ring_rigs, random_scene_spec
from dualvt.tables import (
    HT_MAGIC, LSS_MAGIC, IndexTable, build_table, geometry_fingerprint, read_table, write_table,
)

HEADER_BYTES = 76  # the 40-byte version-2 header, a SHA-256 digest and a u32 height count


def tiny_table(offsets, depth_idx=None, heights=(0.0, 1.0)):
    """A 2x2-cell table; offsets has 5 entries, the last one the entry count."""
    n = offsets[-1]
    return IndexTable(
        magic=HT_MAGIC, ny=2, nx=2, n_cams=2, feat_h=1, feat_w=2, n_bins=3,
        offsets=np.asarray(offsets, dtype="<u4"),
        depth_idx=np.zeros(n, dtype="<u4") if depth_idx is None else np.asarray(depth_idx, "<u4"),
        heights=heights, geometry_sha256=bytes(32),
    )


def reseal(raw: bytearray) -> bytearray:
    """raw with its trailing CRC-32 recomputed over every byte before it."""
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    return raw


def test_unsorted_cells_rejected():
    """Cells sorted as [0, 2, 2, 3] have offsets [0, 1, 1, 3, 4]; offsets that
    go back, as an unsorted cell column would need, are refused."""
    tiny_table([0, 1, 1, 3, 4])
    with pytest.raises(IndexOutOfRange, match="offsets"):
        tiny_table([0, 1, 3, 2, 4])


def test_indices_bounded_by_all_cameras():
    """2 cameras of 1x2 pixels and 3 bins: 12 voxels, whose pixels are the 4
    feature pixels; voxel 11 is camera 1's bin 2 at pixel 1, feature pixel 3."""
    table = tiny_table([0, 1, 2, 2, 2], depth_idx=[11, 0])
    assert table.feat_idx.tolist() == [3, 0] and table.feat_idx.dtype == "<u4"
    assert tiny_table([0, 1, 3, 4, 6], depth_idx=[6, 7, 8, 9, 4, 5]).feat_idx.tolist() == [
        2, 3, 2, 3, 0, 1]
    with pytest.raises(IndexOutOfRange):
        tiny_table([0, 1, 2, 2, 2], depth_idx=[12, 0])


def test_indices_beyond_u32_refused():
    """The voxels are u32: wider columns and depth volumes that u32 cannot index
    are refused, and a geometry or an entry count that u32 cannot index raises
    ConfigError before anything large exists."""
    with pytest.raises(IndexOutOfRange, match="u32"):  # a depth index u32 would wrap to 5
        IndexTable(magic=HT_MAGIC, ny=1, nx=1, n_cams=1, feat_h=65536, feat_w=65536, n_bins=2,
                   offsets=np.array([0, 1]), depth_idx=np.array([2**32 + 5]),
                   heights=(0.0,), geometry_sha256=bytes(32))
    with pytest.raises(IndexOutOfRange, match="u32"):  # a u32 voxel, 2 * 2**32 voxels
        IndexTable(magic=HT_MAGIC, ny=1, nx=1, n_cams=1, feat_h=65536, feat_w=65536, n_bins=2,
                   offsets=np.array([0, 1], "<u4"), depth_idx=np.array([5], "<u4"),
                   heights=(0.0,), geometry_sha256=bytes(32))
    grid, dspec = BevGridSpec(nx=2, ny=2), DepthBinSpec(d_min=2.0, d_max=4.0, step=1.0)

    def never():
        raise AssertionError("per_cam consumed")
        yield

    wide = SimpleNamespace(feat_h=65536, feat_w=65536)
    with pytest.raises(ConfigError, match=r"1 cameras x 2 depth bins x 65536x65536 pixels") as e:
        build_table(HT_MAGIC, grid, [wide], dspec, (0.0,), never())
    assert "\n" not in str(e.value)
    rig = SimpleNamespace(feat_h=1, feat_w=2)
    huge = np.broadcast_to(np.int64(0), (2**32,))  # no memory behind it
    with pytest.raises(ConfigError, match=f"{2**32} table entries"):
        build_table(HT_MAGIC, grid, [rig], dspec, (0.0,), [(huge, huge)])


def test_keys_beyond_64_bits_refused():
    """An entry's sort key is its cell, its position and its voxel: a geometry
    whose three fields take more than 64 bits is refused with ConfigError,
    before any key exists."""
    grid = BevGridSpec(nx=65536, ny=65536)  # 32 cell bits
    dspec = DepthBinSpec(d_min=2.0, d_max=4.0, step=1.0)
    rig = forward_camera(feat_w=512, feat_h=1024)  # 2 * 2**19 voxels: 20 voxel bits
    cells, voxels = np.zeros(2**13, dtype="<u4"), np.zeros(2**13, dtype="<u4")  # 13 bits
    with pytest.raises(ConfigError, match="64-bit sort key") as e:
        build_table(HT_MAGIC, grid, [rig], dspec, (0.0,), [(cells, voxels)])
    assert "\n" not in str(e.value)


@pytest.mark.parametrize("size", [(8, 7), (7, 8)], ids=["feat-w", "feat-h"])
def test_rigs_of_differing_feature_sizes_refused(size):
    """One table indexes every camera's depth volume at one feature size, so
    both builds refuse rigs whose sizes differ, with a one-line ConfigError."""
    grid, dspec = BevGridSpec(nx=4, ny=4), DepthBinSpec(d_min=2.0, d_max=4.0, step=1.0)
    rigs = [forward_camera(feat_w=8, feat_h=8), forward_camera(*size)]
    for build in (lambda: precompute_ht_table(rigs, grid, make_height_samples(), dspec),
                  lambda: precompute_lss_table(rigs, grid, dspec)):
        with pytest.raises(ConfigError, match="rigs differ in feature size") as e:
            build()
        assert "\n" not in str(e.value)


def test_a_build_without_rigs_refused():
    """An empty rig list is a one-line ConfigError, raised before a rig is read,
    from `build_table` and from both streams' builds."""
    grid, dspec = BevGridSpec(nx=4, ny=4), DepthBinSpec(d_min=2.0, d_max=4.0, step=1.0)
    for build in (lambda: build_table(LSS_MAGIC, grid, [], dspec, (), []),
                  lambda: precompute_ht_table([], grid, make_height_samples(), dspec),
                  lambda: precompute_lss_table([], grid, dspec)):
        with pytest.raises(ConfigError, match="at least one rig") as e:
            build()
        assert "\n" not in str(e.value)


@pytest.mark.parametrize("call", ["run_pipeline", "run_pipeline-disable-M", "ht_transform_fast",
                                  "lss_pool"])
def test_a_table_of_the_other_stream_refused(small_bundle, call):
    """Each stream's apply refuses the other stream's table with one ConfigError
    that names both magics, on a masked frame and on a `disable-M` one: the
    tables swapped in `run_pipeline`, a lift table in `ht_transform_fast`, a
    height table in `lss_pool`."""
    bundle, heights = small_bundle
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    frame = (bundle.feats, bundle.depths, bundle.masks)
    weights = make_seeded_weights(11, bundle.spec.channels)
    calls = {
        "run_pipeline": lambda: run_pipeline(*frame, lss, ht, weights),
        "run_pipeline-disable-M": lambda: run_pipeline(*frame, lss, ht, weights,
                                                       disable_mask=True),
        "ht_transform_fast": lambda: ht_transform_fast(*frame, lss),
        "lss_pool": lambda: lss_pool(*frame, ht),
    }
    with pytest.raises(ConfigError, match="table cannot be applied as") as e:
        calls[call]()
    message = str(e.value)
    assert "HTLT" in message and "LSPT" in message and "\n" not in message


def test_file_layout(tmp_path, small_bundle):
    bundle, heights = small_bundle
    table = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    path = tmp_path / "t.htlt"
    write_table(table, path)
    raw = path.read_bytes()
    assert raw[4] == 4
    assert raw[40:72] == table.geometry_sha256 == geometry_fingerprint(
        bundle.rigs, bundle.grid, bundle.dspec, heights.z_values
    )
    n_heights, = struct.unpack_from("<I", raw, 72)
    assert n_heights == len(heights) == 13
    start = HEADER_BYTES + 8 * n_heights
    assert len(raw) == start + 4 * (table.n_cells + 1) + 4 * table.n_entries + 4
    assert np.array_equal(np.frombuffer(raw, "<f8", n_heights, HEADER_BYTES), heights.z_values)
    offsets = np.frombuffer(raw, "<u4", table.n_cells + 1, start)
    assert np.array_equal(offsets, table.offsets)
    voxels = np.frombuffer(raw, "<u4", table.n_entries, start + offsets.nbytes)
    assert np.array_equal(voxels, table.depth_idx)
    assert struct.unpack_from("<I", raw, len(raw) - 4) == (zlib.crc32(raw[:-4]),)


def corrupt_offsets(path, edit):
    """Apply edit to the file's offsets and recompute its checksum."""
    raw = bytearray(path.read_bytes())
    n_cells = int(np.prod(struct.unpack_from("<2I", raw, 8)))
    n_heights, = struct.unpack_from("<I", raw, HEADER_BYTES - 4)
    start = HEADER_BYTES + 8 * n_heights
    offsets = np.frombuffer(raw, "<u4", n_cells + 1, start).copy()
    edit(offsets)
    raw[start:start + offsets.nbytes] = offsets.tobytes()
    path.write_bytes(bytes(reseal(raw)))


def set_first(o):
    o[0] = 1


def swap_inner(o):
    o[1], o[2] = 3, 2


def set_last(o):
    o[-1] -= 1


@pytest.mark.parametrize("edit", [set_first, swap_inner, set_last],
                         ids=["start-not-0", "decreasing", "end-not-n_entries"])
def test_bad_offsets_rejected(tmp_path, edit):
    offsets = np.array([0, 1, 1, 3, 4], dtype="<u4")
    table = tiny_table(offsets.copy())
    path = tmp_path / "t.htlt"
    write_table(table, path)
    read_table(path, HT_MAGIC)
    corrupt_offsets(path, edit)
    with pytest.raises(IndexOutOfRange, match=f"{path}: cell offsets"):
        read_table(path, HT_MAGIC)
    edit(offsets)
    with pytest.raises(IndexOutOfRange, match="offsets"):
        dataclasses.replace(table, offsets=offsets)


def test_unsealed_edit_refused_by_checksum(tmp_path):
    """An edit that leaves every index in range, without a new checksum, is refused:
    here a voxel moved by one, which would move its entry to the next pixel."""
    table = tiny_table([0, 1, 1, 3, 4], depth_idx=[0, 5, 6, 11])
    path = tmp_path / "t.htlt"
    write_table(table, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, len(raw) - 8, 10)  # the last voxel, 11
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=f"{path}: table checksum.*run precompute again$"):
        read_table(path, HT_MAGIC)
    path.write_bytes(bytes(reseal(raw)))
    assert read_table(path, HT_MAGIC).feat_idx.tolist() == [0, 1, 2, 2]


def test_read_table_allocates_only_the_file(tmp_path):
    """The table read is views of the bytes read: beyond the file's size, reading
    the desk lift table allocates under 1 MB, the arrays are read-only, and the
    feature pixels are not derived until they are read."""
    bundle = generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())
    path = tmp_path / "t.lspt"
    write_table(precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec), path)
    size = path.stat().st_size
    assert size > 1_700_000
    tracemalloc.start()
    try:
        table = read_table(path, LSS_MAGIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - size < 1_000_000
    assert not table.offsets.flags.writeable and not table.depth_idx.flags.writeable
    assert "feat_idx" not in vars(table)


# files of the older formats; those of versions 1 and 2 are shorter than the current header
OLD_VERSIONS = {
    # header, then one (cell, cam, feat, depth) record
    1: struct.pack("<4sB3s6IQ", HT_MAGIC, 1, b"\0" * 3, 2, 2, 2, 1, 2, 3, 1)
    + struct.pack("<4I", 0, 0, 0, 0),
    # header, 5 cell offsets, then one (feat, depth) record: 68 bytes in all
    2: struct.pack("<4sB3s6IQ", HT_MAGIC, 2, b"\0" * 3, 2, 2, 2, 1, 2, 3, 1)
    + struct.pack("<7I", 0, 1, 1, 1, 1, 0, 0),
    # the version-3 header with no heights, 5 cell offsets, one (feat, depth) record
    3: struct.pack("<4sB3s6IQ32sI", HT_MAGIC, 3, b"\0" * 3, 2, 2, 2, 1, 2, 3, 1, bytes(32), 0)
    + struct.pack("<7I", 0, 1, 1, 1, 1, 0, 0),
}


@pytest.mark.parametrize("version", sorted(OLD_VERSIONS))
def test_old_version_refused(tmp_path, version):
    """An older file reads as old, even one shorter than the current header."""
    path = tmp_path / "old.htlt"
    path.write_bytes(OLD_VERSIONS[version])
    with pytest.raises(ConfigError, match=f"version {version}.*precompute again"):
        read_table(path, HT_MAGIC)


def test_fingerprint_covers_rigs_grid_bins_and_heights(small_bundle):
    bundle, heights = small_bundle
    grid, dspec, rig = bundle.grid, bundle.dspec, bundle.rigs[0]
    moved = rig.extrinsics.copy()
    moved[2, 3] += 0.1
    built = dict(rigs=bundle.rigs, grid=grid, dspec=dspec, heights=heights.z_values)
    base = geometry_fingerprint(**built)
    assert precompute_ht_table(bundle.rigs, grid, heights, dspec).geometry_sha256 == base
    assert (precompute_lss_table(bundle.rigs, grid, dspec).geometry_sha256
            == geometry_fingerprint(**{**built, "heights": ()}))
    changes = {
        "rig-pose": {"rigs": [dataclasses.replace(rig, extrinsics=moved), *bundle.rigs[1:]]},
        "rig-feat-size": {"rigs": [dataclasses.replace(rig, feat_w=rig.feat_w + 1),
                                   *bundle.rigs[1:]]},
        "rig-count": {"rigs": bundle.rigs[:-1]},
        "grid-extent": {"grid": dataclasses.replace(grid, x_min=grid.x_min - 1.0)},
        "grid-nx": {"grid": dataclasses.replace(grid, nx=grid.nx + 1)},
        "grid-ny": {"grid": dataclasses.replace(grid, ny=grid.ny + 1)},
        "d_min": {"dspec": dataclasses.replace(dspec, d_min=dspec.d_min + dspec.step)},
        "d_max": {"dspec": dataclasses.replace(dspec, d_max=dspec.d_max + dspec.step)},
        "step": {"dspec": dataclasses.replace(dspec, step=dspec.step / 2)},
        "heights": {"heights": heights.z_values[1:]},
    }
    for name, change in changes.items():
        assert geometry_fingerprint(**{**built, **change}) != base, name


@pytest.fixture(scope="module")
def tables_at_two_heights():
    """Rigs and both tables of one small scene spec with its cameras 1.5 m and
    1.8 m high: the same grid, depth bins, camera count and feature size,
    other rigs."""
    grid, dspec, heights = small_geometry()
    built = {}
    for height in (1.5, 1.8):
        rigs = make_ring_rigs(random_scene_spec(0, n_cameras=4, feat_w=24, feat_h=10,
                                                cam_height=height))
        built[height] = rigs, {"HTLT": precompute_ht_table(rigs, grid, heights, dspec),
                               "LSPT": precompute_lss_table(rigs, grid, dspec)}
    return grid, dspec, built


FINGERPRINT_REFUSED = ("^{} table was built for another geometry \\(geometry fingerprint "
                       "differs\\); rebuild it with precompute$")


@pytest.mark.parametrize("magic", ["HTLT", "LSPT"])
def test_table_swapped_in_from_other_rigs_refused(tables_at_two_heights, magic):
    """A table passes `check_built_for` on the geometry it was built for, and a
    table built for other rigs of the same sizes is refused by its fingerprint,
    with a message that names it."""
    grid, dspec, built = tables_at_two_heights
    (rigs, tables), (_, other) = built[1.5], built[1.8]
    tables[magic].check_built_for(rigs, grid, dspec)
    with pytest.raises(ConfigError, match=FINGERPRINT_REFUSED.format(magic)):
        other[magic].check_built_for(rigs, grid, dspec)


def test_table_with_an_edited_height_refused(tables_at_two_heights):
    grid, dspec, built = tables_at_two_heights
    rigs, tables = built[1.5]
    ht = tables["HTLT"]
    edited = dataclasses.replace(ht, heights=(ht.heights[0] + 0.25, *ht.heights[1:]))
    with pytest.raises(ConfigError, match=FINGERPRINT_REFUSED.format("HTLT")):
        edited.check_built_for(rigs, grid, dspec)


@pytest.mark.parametrize("change, message", [
    ("grid-ny", "^HTLT table has ny=48, scene has 49$"),
    ("grid-nx", "^HTLT table has nx=48, scene has 47$"),
    ("rig-count", "^HTLT table has n_cams=4, scene has 3$"),
    ("rig-feat-h", "^HTLT table has feat_h=10, scene has 9$"),
    ("rig-feat-w", "^HTLT table has feat_w=24, scene has 25$"),
    ("bins", "^HTLT table has n_bins=24, scene has 25$"),
])
def test_table_of_other_sizes_refused_by_its_header(tables_at_two_heights, change, message):
    """Header sizes that differ from the scene's are named before the fingerprint."""
    grid, dspec, built = tables_at_two_heights
    rigs, tables = built[1.5]
    scene = {"rigs": rigs, "grid": grid, "dspec": dspec}
    scene.update({
        "grid-ny": {"grid": dataclasses.replace(grid, ny=49)},
        "grid-nx": {"grid": dataclasses.replace(grid, nx=47)},
        "rig-count": {"rigs": rigs[:3]},
        "rig-feat-h": {"rigs": [dataclasses.replace(r, feat_h=9) for r in rigs]},
        "rig-feat-w": {"rigs": [dataclasses.replace(r, feat_w=25) for r in rigs]},
        "bins": {"dspec": dataclasses.replace(dspec, d_max=dspec.d_max + dspec.step)},
    }[change])
    with pytest.raises(ConfigError, match=message):
        tables["HTLT"].check_built_for(**scene)


def camera_one_cut(bundle, which="feats"):
    """The bundle's (feats, depths, masks) as per-camera lists, as perfbench's
    dense gate passes its masks, with camera 1's feature cut to 7 channels, or
    its depth volume cut by one bin: a ragged list."""
    inputs = {name: list(getattr(bundle, name)) for name in ("feats", "depths", "masks")}
    cam = inputs[which][1]
    inputs[which][1] = cam[..., :-1] if which == "feats" else cam[:-1]
    return inputs["feats"], inputs["depths"], inputs["masks"]


class TestCameraTensorCheck:
    """Every entry point stacks a per-camera list (`stack_camera_tensors`) and
    refuses a ragged one in one ShapeMismatch, and a camera-first array whose
    shape disagrees with the geometry in one that names the whole shape."""

    def test_run_pipeline(self, small_bundle):
        bundle, heights = small_bundle
        tables = (precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec),
                  precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec))
        weights = make_seeded_weights(11, bundle.spec.channels)
        with pytest.raises(ShapeMismatch, match="per-camera tensors do not stack"):
            run_pipeline(*camera_one_cut(bundle), *tables, weights)
        with pytest.raises(ShapeMismatch, match=r"^feature shape \(4, 10, 23, 8\) "
                                                r"!= \(4, 10, 24, 8\)$"):
            run_pipeline(bundle.feats[:, :, 1:], bundle.depths, bundle.masks, *tables, weights)

    def test_ht_transform_naive(self, small_bundle):
        bundle, heights = small_bundle
        with pytest.raises(ShapeMismatch, match="per-camera tensors do not stack"):
            ht_transform_naive(*camera_one_cut(bundle), bundle.rigs, bundle.grid, heights,
                               bundle.dspec, mode=ROUND)
        with pytest.raises(ShapeMismatch, match=r"^mask shape \(3, 10, 24\) "
                                                r"!= \(4, 10, 24\)$"):
            ht_transform_naive(bundle.feats, bundle.depths, bundle.masks[1:], bundle.rigs,
                               bundle.grid, heights, bundle.dspec, mode=ROUND)

    @pytest.mark.parametrize("which, name", [("feats", "feature"), ("depths", "depth")])
    def test_lss_pool_reference(self, small_bundle, which, name):
        bundle, _ = small_bundle
        with pytest.raises(ShapeMismatch, match="per-camera tensors do not stack"):
            lss_pool_reference(*camera_one_cut(bundle, which), bundle.rigs, bundle.grid,
                               bundle.dspec)
        frame = {k: getattr(bundle, k) for k in ("feats", "depths", "masks")}
        frame[which] = frame[which][:, None]
        with pytest.raises(ShapeMismatch, match=f"^{name} shape "):
            lss_pool_reference(*frame.values(), bundle.rigs, bundle.grid, bundle.dspec)


@pytest.mark.parametrize("dense", [False, True], ids=["masked", "disable-M"])
def test_per_camera_lists_give_the_stacked_bytes(small_bundle, dense):
    """A frame given as per-camera lists, as perfbench's dense gate passes its
    masks, gives the bytes of the camera-first arrays through `run_pipeline`,
    both full-grid transforms and both oracles; `disable-M` as the ablation
    and as masks of ones."""
    bundle, heights = small_bundle
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    weights = make_seeded_weights(11, bundle.spec.channels)
    geometry = bundle.rigs, bundle.grid

    def outputs(feats, depths, masks, ones):
        result = run_pipeline(feats, depths, masks, ht, lss, weights, disable_mask=dense)
        frame = feats, depths, ones if dense else masks
        return (*(getattr(result, f.name) for f in dataclasses.fields(result)),
                ht_transform_fast(*frame, ht), lss_pool(*frame, lss),
                ht_transform_naive(*frame, *geometry, heights, bundle.dspec, mode=ROUND),
                lss_pool_reference(*frame, *geometry, bundle.dspec))

    arrays = bundle.feats, bundle.depths, bundle.masks
    from_lists = outputs(*(list(a) for a in arrays), [np.ones_like(m) for m in bundle.masks])
    for got, want in zip(from_lists, outputs(*arrays, np.ones_like(bundle.masks)), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

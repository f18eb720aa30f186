"""Command-line surface: synth | precompute | transform | compare.

Every option is a flag.  synth, precompute and transform write their files
beside --out and rename them into place, so a failed run changes no output.
Exit codes: 0 success, 2 configuration error, 3 runtime/shape error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DualVtError, from_json
from .fusion import default_weight_shapes, run_pipeline
from .geometry import BevGridSpec, make_height_samples
from .height_stream import precompute_ht_table
from .lift_stream import precompute_lss_table
from .nnops import WeightBundle, WorkerPool
from .report import diff_directories, summarize_outputs
from .sampling import DepthBinSpec
from .synth import SceneSpec, generate_scene, load_bundle, save_bundle
from .tables import HT_MAGIC, LSS_MAGIC, geometry_fingerprint, read_table, write_table
from .tensors import tensor_write

DEFAULT_WEIGHT_SEED = 11
# upper bound on --threads: the frame's one pool, which splits both scatters and
# the heads' convolution bands, starts up to this many workers
MAX_THREADS = 64


def _parse_ablations(ablate) -> tuple:
    """The repeatable --ablate values as (disable_mask, uniform_depth, force_affinity)."""
    disable_mask, uniform_depth, force_affinity = False, False, None
    for value in ablate or []:
        if value == "disable-M":
            disable_mask = True
        elif value == "uniform-D":
            uniform_depth = True
        elif value.startswith("force-A="):
            try:
                force_affinity = float(value.split("=", 1)[1])
            except ValueError as e:
                raise ConfigError(f"bad ablation {value!r}: {e}") from e
            if not (math.isfinite(force_affinity) and 0.0 <= force_affinity <= 1.0):
                raise ConfigError(f"force-A must be finite and in [0, 1], got {force_affinity}")
        else:
            raise ConfigError(f"unknown ablation {value!r}")
    return disable_mask, uniform_depth, force_affinity


def _load_scene_spec(path) -> tuple:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read scene spec {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"scene spec {path} is not a JSON object")
    blocks = {}
    for key, cls in (("grid", BevGridSpec), ("dspec", DepthBinSpec)):
        try:
            blocks[key] = from_json(cls, doc.pop(key)) if key in doc else cls()
        except ConfigError as e:
            raise ConfigError(f"scene spec {path}: {key!r} block: {e}") from None
    try:
        # a scene field left out of a spec file takes its default; a manifest holds them all
        spec = from_json(SceneSpec, {**SceneSpec().to_json(), **doc})
    except ConfigError as e:
        raise ConfigError(f"scene spec {path}: {e}") from None
    return spec, blocks["grid"], blocks["dspec"]


def cmd_synth(args) -> int:
    spec, grid, dspec = _load_scene_spec(args.spec)
    bundle = generate_scene(spec, grid, dspec)
    _write_outputs(args.out, lambda d: save_bundle(bundle, d))
    print(f"wrote scene with {len(bundle.rigs)} cameras to {args.out}")
    return 0


def cmd_precompute(args) -> int:
    bundle = load_bundle(args.scene)  # loads and checks the scene's tensors too
    heights = make_height_samples(args.heights)
    rigs, grid, dspec = bundle.rigs, bundle.grid, bundle.dspec
    del bundle  # the tables need only the geometry: its tensors go before the builds
    # the two tables build at once: the height table on a worker, under this
    # thread's numpy error state, and the lift table here.  The worker's malloc
    # arena keeps its peak after the thread ends, so it gets the smaller build.
    with WorkerPool(1) as pool:
        ht = pool.submit(precompute_ht_table, rigs, grid, heights, dspec)
        try:
            lss = precompute_lss_table(rigs, grid, dspec)
        finally:
            ht = ht.result()  # the height table's error first, as when they ran in turn

    def write(directory):
        write_table(ht, directory / "ht_table.htlt")
        write_table(lss, directory / "lss_table.lspt")

    _write_outputs(args.out, write)
    for name, table in (("ht", ht), ("lss", lss)):
        if table.n_entries == 0:
            print(f"warning: {name} table is empty (no points in view)", file=sys.stderr)
    print(f"ht table: {ht.n_entries} entries, lss table: {lss.n_entries} entries")
    return 0


def _write_outputs(out, write) -> None:
    """Run write(directory) on a new directory beside out, then move its files
    into out, replacing ours and keeping any others: a failed run changes no
    file in out and leaves no temporary directory."""
    out = Path(out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    tmp.mkdir()
    try:
        write(tmp)
        if not out.is_dir():
            os.rename(tmp, out)
            return
        names = sorted(f.name for f in tmp.iterdir())
        # a target that is a directory is the one failure that can stop some
        # renames and not others, so check every target before the first
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(f"{out / name} is a directory")
        for name in names:
            os.replace(tmp / name, out / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load_run_inputs(args):
    bundle = load_bundle(args.scene)
    tables = Path(args.tables)
    ht_table = read_table(tables / "ht_table.htlt", HT_MAGIC)
    lss_table = read_table(tables / "lss_table.lspt", LSS_MAGIC)
    _check_tables_match_scene(bundle, (ht_table, lss_table))
    shapes = default_weight_shapes(bundle.spec.channels)  # refuses a count the heads cannot take
    if not args.weights_dir:
        return bundle, ht_table, lss_table, WeightBundle.seeded(args.weight_seed, shapes)
    weights = WeightBundle.load(args.weights_dir)
    for name in sorted(shapes.keys() | weights.layers.keys()):
        if name not in shapes:
            raise ConfigError(f"weight bundle has unknown layer {name!r}")
        if weights[name].kernel.shape != shapes[name]:  # weights[name] names a missing one
            raise ConfigError(f"weight layer {name!r} has kernel shape "
                              f"{weights[name].kernel.shape}, the heads take {shapes[name]}")
    return bundle, ht_table, lss_table, weights


def _check_tables_match_scene(bundle, tables) -> None:
    """Tables are bound to the geometry they were built for: refuse a table
    whose header sizes differ from the scene's, or whose geometry fingerprint
    is not that of the scene's rigs, grid and depth bins and its own heights."""
    spec = bundle.spec
    scene = {"ny": bundle.grid.ny, "nx": bundle.grid.nx, "n_cams": len(bundle.rigs),
             "feat_h": spec.feat_h, "feat_w": spec.feat_w, "n_bins": bundle.dspec.n_bins}
    for table in tables:
        name = table.magic.decode()
        for key, value in scene.items():
            if getattr(table, key) != value:
                raise ConfigError(f"{name} table has {key}={getattr(table, key)}, "
                                  f"scene has {value}")
        if table.geometry_sha256 != geometry_fingerprint(
            bundle.rigs, bundle.grid, bundle.dspec, table.heights
        ):
            raise ConfigError(f"{name} table was built for another geometry (geometry "
                              "fingerprint differs); rebuild it with precompute")


def cmd_transform(args) -> int:
    disable_mask, uniform_depth, force_affinity = _parse_ablations(args.ablate)
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigError(f"threads must be in [1, {MAX_THREADS}], got {args.threads}")
    bundle, ht_table, lss_table, weights = _load_run_inputs(args)
    result = run_pipeline(
        bundle.feats, bundle.depths, bundle.masks, ht_table, lss_table, weights,
        threads=args.threads, force_affinity=force_affinity,
        disable_mask=disable_mask, uniform_depth=uniform_depth,
    )

    arrays = {
        "F": result.f_final, "P": result.p_bev,
        "F_ht": result.f_ht, "F_lss": result.f_lss,
        "F_channel": result.f_channel, "A": result.affinity,
    }
    summary = summarize_outputs(arrays, gt_bev=bundle.gt_bev)

    def write(directory):
        for name, arr in arrays.items():
            tensor_write(arr, directory / f"{name}.btsr")
        (directory / "summary.json").write_text(json.dumps(summary, indent=2))

    _write_outputs(args.out, write)
    occ = summary.get("occupancy", {})
    print(
        f"F shape {result.f_final.shape}, occupied/empty energy "
        f"{occ.get('occupied_mean_energy', 0):.4g}/{occ.get('empty_mean_energy', 0):.4g}"
    )
    return 0


def cmd_compare(args) -> int:
    report = diff_directories(args.baseline, args.variant)
    for name, entry in report["files"].items():
        if "error" in entry:
            print(f"{name}: {entry['error']}")
        else:
            print(
                f"{name}: max_abs_diff={entry['max_abs_diff']:.6g} "
                f"rel_l2={entry['rel_l2']:.6g} bitwise={entry['bitwise_equal']}"
            )
    print(f"overall max_abs_diff: {report['max_abs_diff']:.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualvt", description="Dual-stream camera-to-BEV view transformation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True, help="output scene directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("precompute", help="build the lookup tables for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--heights", default="multires", help="'multires' or 'uniform:N'")
    p.set_defaults(fn=cmd_precompute)

    p = sub.add_parser("transform", help="run both streams and fusion on precomputed tables")
    p.add_argument("--scene", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--weight-seed", dest="weight_seed", type=int, default=DEFAULT_WEIGHT_SEED)
    p.add_argument("--weights", dest="weights_dir")
    p.add_argument(
        "--ablate", action="append",
        help="repeatable: disable-M | uniform-D | force-A=<value>",
    )
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("compare", help="diff two transform output directories")
    p.add_argument("baseline")
    p.add_argument("variant")
    p.add_argument("--out", help="write JSON report here")
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # tensor_write refuses a NaN or Inf output in one line; numpy's
        # warnings on the way to it (huge finite weights) would add more
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DualVtError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # a scene, grid or bin count too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

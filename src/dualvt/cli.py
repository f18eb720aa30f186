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
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DualVtError, InvalidCount
from .fusion import apply_ablations, fuse_and_finalize, make_seeded_weights, run_pipeline
from .geometry import BevGridSpec, HeightSet, make_height_samples
from .height_stream import INTERP, ROUND, ht_transform_naive, precompute_ht_table
from .lift_stream import lss_pool, precompute_lss_table
from .nnops import WeightBundle
from .report import diff_directories, summarize_outputs
from .sampling import DepthBinSpec
from .synth import SceneSpec, generate_scene, load_bundle, save_bundle
from .tables import HT_MAGIC, LSS_MAGIC, geometry_fingerprint, read_table, write_table
from .tensors import tensor_write

DEFAULT_WEIGHT_SEED = 11
MAX_THREADS = 64  # upper bound on --threads; the scatter starts up to this many workers


@dataclass
class RunConfig:
    """Validated transform options: the flags, with the `--ablate` syntax parsed
    into fields.  A flag left unset keeps the default stated here."""

    threads: int = 1
    weight_seed: int = DEFAULT_WEIGHT_SEED
    weights_dir: str | None = None
    sampler: str = "fast"
    force_affinity: float | None = None
    disable_mask: bool = False
    uniform_depth: bool = False

    @classmethod
    def merge(cls, args) -> "RunConfig":
        cfg = cls()
        for key in vars(cfg):
            flag = getattr(args, key, None)
            if flag is not None:
                setattr(cfg, key, flag)
        for ablate in getattr(args, "ablate", None) or []:
            if ablate == "disable-M":
                cfg.disable_mask = True
            elif ablate == "uniform-D":
                cfg.uniform_depth = True
            elif ablate.startswith("force-A="):
                try:
                    cfg.force_affinity = float(ablate.split("=", 1)[1])
                except ValueError as e:
                    raise ConfigError(f"bad ablation {ablate!r}: {e}") from e
            else:
                raise ConfigError(f"unknown ablation {ablate!r}")
        if not 1 <= cfg.threads <= MAX_THREADS:
            raise ConfigError(f"threads must be in [1, {MAX_THREADS}], got {cfg.threads}")
        if cfg.force_affinity is not None and not (
            math.isfinite(cfg.force_affinity) and 0.0 <= cfg.force_affinity <= 1.0
        ):
            raise ConfigError(f"force-A must be finite and in [0, 1], got {cfg.force_affinity}")
        return cfg


def _load_scene_spec(path) -> tuple:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read scene spec {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"scene spec {path} is not a JSON object")
    blocks = {}
    for key, cls in (("grid", BevGridSpec), ("dspec", DepthBinSpec)):
        try:
            blocks[key] = cls.from_json(doc[key]) if key in doc else cls()
        except KeyError as e:
            raise ConfigError(f"scene spec {key!r} block is missing key {e}") from None
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"scene spec {key!r} block is malformed: {e}") from None
    grid, dspec = blocks["grid"], blocks["dspec"]
    fields = {k: v for k, v in doc.items() if k not in blocks}
    try:
        spec = SceneSpec.from_json(fields)
    except TypeError as e:
        raise ConfigError(f"bad scene spec: {e}") from e
    return spec, grid, dspec


def cmd_synth(args) -> int:
    spec, grid, dspec = _load_scene_spec(args.spec)
    bundle = generate_scene(spec, grid, dspec)
    _write_outputs(args.out, lambda d: save_bundle(bundle, d))
    print(f"wrote scene with {len(bundle.rigs)} cameras to {args.out}")
    return 0


def _parse_heights(text: str):
    if text == "multires":
        return make_height_samples("multires")
    if text.startswith("uniform:"):
        try:
            return make_height_samples("uniform", n=int(text.split(":", 1)[1]))
        except (ValueError, InvalidCount) as e:
            raise ConfigError(f"bad heights {text!r}: {e}") from None
    raise ConfigError(f"heights must be 'multires' or 'uniform:N', got {text!r}")


def cmd_precompute(args) -> int:
    bundle = load_bundle(args.scene)
    heights = _parse_heights(args.heights)
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)

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


def _load_run_inputs(args, cfg: RunConfig):
    bundle = load_bundle(args.scene)
    tables = Path(args.tables)
    ht_table = read_table(tables / "ht_table.htlt", HT_MAGIC)
    lss_table = read_table(tables / "lss_table.lspt", LSS_MAGIC)
    _check_tables_match_scene(bundle, (ht_table, lss_table))
    if cfg.weights_dir:
        weights = WeightBundle.load(cfg.weights_dir)
    else:
        weights = make_seeded_weights(cfg.weight_seed, bundle.spec.channels)
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


def _transform(bundle, ht_table, lss_table, weights, cfg: RunConfig):
    feats = bundle.feats
    depths, masks = apply_ablations(bundle.depths, bundle.masks,
                                    cfg.disable_mask, cfg.uniform_depth)
    if cfg.sampler == "fast":
        return run_pipeline(
            feats, depths, masks, ht_table, lss_table, weights,
            threads=cfg.threads, force_affinity=cfg.force_affinity,
        )
    mode = INTERP if cfg.sampler == "naive-interp" else ROUND
    f_ht = ht_transform_naive(
        feats, depths, masks, bundle.rigs, bundle.grid, HeightSet(ht_table.heights),
        bundle.dspec, mode=mode,
    )
    f_lss = lss_pool(feats, depths, masks, lss_table, threads=cfg.threads)
    return fuse_and_finalize(f_lss, f_ht, weights, force_affinity=cfg.force_affinity)


def cmd_transform(args) -> int:
    cfg = RunConfig.merge(args)
    bundle, ht_table, lss_table, weights = _load_run_inputs(args, cfg)
    result = _transform(bundle, ht_table, lss_table, weights, cfg)

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
    p.add_argument("--threads", type=int)
    p.add_argument("--weight-seed", dest="weight_seed", type=int)
    p.add_argument("--weights", dest="weights_dir")
    p.add_argument("--sampler", choices=["fast", "naive-interp", "naive-round"])
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
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DualVtError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

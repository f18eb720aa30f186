"""The benchmark's workloads: inputs, set-up, one op, per-op checks, gate.

Every workload is a closed loop with one caller, which waits for each
BEV frame before it sends the next.  Inputs derive only from the
workload seed: frame i of a run comes from ``random_scene_spec(seed + i)``.
The harness times `setup` and `op`; everything else here is untimed.

- ``stream-masked``: fixed rig and tables, a cycle of distinct frames,
  one in-memory ``run_pipeline`` call per op, masks on, threads=1.
- ``stream-dense``: the same frames with ``disable_mask=True`` and
  threads=2, so every table entry carries weight.
- ``recalib-cli``: a fresh rig per op (seeded jitter of camera height and
  field of view), so no table is reused; one op is ``dualvt precompute``
  followed by ``dualvt transform`` through the in-process CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualvt import cli, fusion, height_stream, lift_stream, tables
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import INTERP, ROUND
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, load_bundle, random_scene_spec, save_bundle
from dualvt.tensors import tensor_read

CYCLE = 4  # distinct frames in a stream workload's cycle
RECALIB_SETUP_BASE = 10_000  # frame index offset of recalib-cli's set-up scenes


@dataclass(frozen=True)
class Scale:
    grid: BevGridSpec
    dspec: DepthBinSpec
    scene: dict = field(default_factory=dict)  # SceneSpec overrides
    recalib_channels: int = 16


# the desk scale: 6 cameras, 44x16x64 features, 112 depth bins, 128x128 grid
SCALE = Scale(BevGridSpec(), DepthBinSpec())


class BenchError(RuntimeError):
    """The benchmark could not run a step it needs (not a check failure)."""


def _cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise BenchError(f"dualvt {argv[0]} exited with {code}")


def output_problems(f: np.ndarray, p: np.ndarray) -> list[str]:
    """Per-op checks on one frame's outputs."""
    problems = []
    if not np.all(np.isfinite(f)):
        problems.append("F has non-finite values")
    if not np.all((p > 0) & (p < 1)):
        problems.append("P leaves the open interval (0, 1)")
    return problems


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def fidelity(frame, masks, f_fast: np.ndarray, heights) -> dict:
    """Relative L2 of the lookup-table F_ht against interpolation, and cells covered."""
    f_interp = height_stream.ht_transform_naive(
        frame.feats, frame.depths, masks, frame.rigs, frame.grid, heights, frame.dspec,
        mode=INTERP,
    )
    ref = f_interp.astype(np.float64)
    denom = np.linalg.norm(ref)
    diff = np.linalg.norm(f_fast.astype(np.float64) - ref)
    return {
        "ht_rel_l2_vs_interp": float(diff / denom) if denom else float(diff),
        "ht_cells_fast": int(np.count_nonzero(np.any(f_fast != 0, axis=0))),
        "ht_cells_interp": int(np.count_nonzero(np.any(f_interp != 0, axis=0))),
    }


def oracle_checks(frame, masks, ht, lss, heights, threads: int = 1):
    """Both streams against their oracles; returns (checks, f_lss, f_ht)."""
    feats, depths = frame.feats, frame.depths
    pooled = lift_stream.lss_pool(feats, depths, masks, lss, threads=threads)
    reference = lift_stream.lss_pool_reference(
        feats, depths, masks, frame.rigs, frame.grid, frame.dspec
    )
    fast = height_stream.ht_transform_fast(feats, depths, masks, ht, threads=threads)
    rounded = height_stream.ht_transform_naive(
        feats, depths, masks, frame.rigs, frame.grid, heights, frame.dspec, mode=ROUND
    )
    checks = [
        ("lss_pool == lss_pool_reference (bitwise)", np.array_equal(pooled, reference)),
        ("ht_transform_fast == ht_transform_naive(ROUND) (bitwise; plumbing check "
         "only, the ROUND oracle reuses the table code)", np.array_equal(fast, rounded)),
    ]
    return checks, pooled, fast


class StreamWorkload:
    """Per-frame path of a perception stack: tables built once, frames streamed."""

    def __init__(self, scale: Scale, seed: int, workdir: Path, tracer,
                 dense: bool, threads: int):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.span = tracer.span
        self.dense, self.threads = dense, threads
        self.heights = make_height_samples("multires")
        self.first_digest: dict = {}
        self.first_result = None

    def generate(self) -> None:
        self.frames = [
            generate_scene(
                random_scene_spec(self.seed + i, **self.scale.scene),
                self.scale.grid, self.scale.dspec,
            )
            for i in range(CYCLE)
        ]
        save_bundle(self.frames[0], self.workdir / "calib")

    def prepare_setup(self, k: int) -> None:
        pass

    def setup(self, k: int) -> None:
        """Build the tables with the CLI, run one warm-up frame through it,
        load the tables and the weight bundle."""
        calib, tabdir = self.workdir / "calib", self.workdir / "tables"
        with self.span("cli.precompute"):
            _cli(["precompute", "--scene", calib, "--out", tabdir])
        ablate = ["--ablate", "disable-M"] if self.dense else []
        with self.span("cli.transform"):
            _cli(["transform", "--scene", calib, "--tables", tabdir,
                  "--out", self.workdir / "warmup", "--threads", self.threads, *ablate])
        self.ht = tables.read_table(tabdir / "ht_table.htlt", tables.HT_MAGIC)
        self.lss = tables.read_table(tabdir / "lss_table.lspt", tables.LSS_MAGIC)
        self.weights = fusion.make_seeded_weights(
            cli.DEFAULT_WEIGHT_SEED, self.frames[0].spec.channels
        )

    def before_op(self, i: int) -> None:
        pass

    def op(self, i: int):
        f = self.frames[i % CYCLE]
        return fusion.run_pipeline(
            f.feats, f.depths, f.masks, self.ht, self.lss, self.weights,
            threads=self.threads, disable_mask=self.dense,
        )

    def check_op(self, i: int, result) -> list[str]:
        problems = output_problems(result.f_final, result.p_bev)
        d = digest(result.f_final, result.p_bev)
        first = self.first_digest.setdefault(i % CYCLE, d)
        if d != first:
            problems.append(f"frame {i % CYCLE} did not reproduce its first digest")
        if i == 0:
            self.first_result = result
        return problems

    def _masks(self):
        f = self.frames[0]
        return [np.ones_like(m) for m in f.masks] if self.dense else f.masks

    def fidelity(self) -> dict:
        f, masks = self.frames[0], self._masks()
        fast = height_stream.ht_transform_fast(f.feats, f.depths, masks, self.ht)
        return fidelity(f, masks, fast, self.heights)

    def gate(self) -> list[tuple[str, bool]]:
        f = self.frames[0]
        checks, _, _ = oracle_checks(f, self._masks(), self.ht, self.lss, self.heights,
                                     self.threads)
        if self.dense:
            single = fusion.run_pipeline(
                f.feats, f.depths, f.masks, self.ht, self.lss, self.weights,
                threads=1, disable_mask=True,
            )
            same = all(
                np.array_equal(getattr(single, k), getattr(self.first_result, k))
                for k in ("f_final", "p_bev", "f_ht", "f_lss", "f_channel", "affinity")
            )
            checks.append((f"run_pipeline threads={self.threads} == threads=1 (bitwise)", same))
        return checks


class RecalibWorkload:
    """A fresh rig per op: tables are built, written, read and applied on disk."""

    def __init__(self, scale: Scale, seed: int, workdir: Path, tracer):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.span = tracer.span
        self.heights = make_height_samples("multires")

    def _synth(self, index: int, directory: Path) -> None:
        """Write the scene of frame `index` with `dualvt synth` (untimed)."""
        jitter = np.random.default_rng([self.seed, index]).uniform(-1.0, 1.0, 2)
        spec = random_scene_spec(
            self.seed + index, **{**self.scale.scene, "channels": self.scale.recalib_channels},
            cam_height=1.5 + 0.2 * float(jitter[0]), hfov_deg=70.0 + 5.0 * float(jitter[1]),
        )
        doc = {**spec.to_json(), "grid": self.scale.grid.to_json(),
               "dspec": self.scale.dspec.to_json()}
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spec.json").write_text(json.dumps(doc))
        _cli(["synth", "--spec", directory / "spec.json", "--out", directory / "scene"])

    def _op_dir(self, i: int) -> Path:
        # op 0's files stay for the gate; later ops reuse one directory
        return self.workdir / ("first" if i == 0 else "current")

    def generate(self) -> None:
        pass

    def prepare_setup(self, k: int) -> None:
        self._synth(RECALIB_SETUP_BASE + k, self.workdir / f"setup{k}")

    def setup(self, k: int) -> None:
        """One warm-up op on its own rig; the CLI keeps no state between ops."""
        self._run(self.workdir / f"setup{k}")

    def before_op(self, i: int) -> None:
        self._synth(i, self._op_dir(i))

    def _run(self, d: Path) -> Path:
        with self.span("cli.precompute"):
            _cli(["precompute", "--scene", d / "scene", "--out", d / "tables"])
        with self.span("cli.transform"):
            _cli(["transform", "--scene", d / "scene", "--tables", d / "tables",
                  "--out", d / "out"])
        return d / "out"

    def op(self, i: int):
        return self._run(self._op_dir(i))

    def check_op(self, i: int, out: Path) -> list[str]:
        return output_problems(tensor_read(out / "F.btsr"), tensor_read(out / "P.btsr"))

    def _first(self):
        d = self.workdir / "first"
        bundle = load_bundle(d / "scene")
        ht = tables.read_table(d / "tables" / "ht_table.htlt", tables.HT_MAGIC)
        lss = tables.read_table(d / "tables" / "lss_table.lspt", tables.LSS_MAGIC)
        return d, bundle, ht, lss

    def fidelity(self) -> dict:
        d, b, _, _ = self._first()
        return fidelity(b, b.masks, tensor_read(d / "out" / "F_ht.btsr"), self.heights)

    def gate(self) -> list[tuple[str, bool]]:
        d, b, ht, lss = self._first()
        checks, pooled, fast = oracle_checks(b, b.masks, ht, lss, self.heights)
        written = (np.array_equal(tensor_read(d / "out" / "F_ht.btsr"), fast)
                   and np.array_equal(tensor_read(d / "out" / "F_lss.btsr"), pooled))
        checks.append(("F_ht.btsr and F_lss.btsr written by the CLI == library outputs "
                       "(bitwise)", written))
        return checks


def make_workload(name: str, seed: int, workdir: Path, tracer, scale: Scale):
    if name == "stream-masked":
        return StreamWorkload(scale, seed, workdir, tracer, dense=False, threads=1)
    if name == "stream-dense":
        return StreamWorkload(scale, seed, workdir, tracer, dense=True, threads=2)
    if name == "recalib-cli":
        return RecalibWorkload(scale, seed, workdir, tracer)
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("stream-masked", "stream-dense", "recalib-cli")

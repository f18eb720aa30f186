"""Benchmark harness: one workload, one seed, one closed-loop timed phase.

    python3 -m perfbench --workload stream-masked --seed 1 --seconds 20 --trace 0

A run generates its inputs from the seed (untimed), sets up once and
throws that away, sets up SETUPS more times (timed, median reported as
`setup_s`), then runs ops for `--seconds` seconds, at least MIN_OPS.
It reads the peak RSS when the timed phase ends, then measures the
height stream's fidelity against interpolation and runs the correctness
gate.  With ``--trace 1`` every second op and every timed set-up is
traced, and the per-layer metrics replace the end-to-end ones.

The report goes to standard output, one metric a line with its unit;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (machine metadata,
per-op latencies, gate, spans) is written under ``.perfbench_out/``.
The exit code is 0 when every check passed, 1 when one failed and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 3  # timed set-ups per run, after one that is thrown away
MIN_OPS = 16  # ops per run at least: the tail percentile exists and is not the fastest few
MAX_STRETCH = 4  # stop adding ops for MIN_OPS after this many --seconds
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def import_dualvt():
    """Import dualvt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dualvt" / "__init__.py").is_file():
        raise ImportError(f"no dualvt package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dualvt

    if Path(dualvt.__file__).resolve().parent != (src / "dualvt").resolve():
        raise ImportError(f"dualvt was imported from {dualvt.__file__}, not {src}")
    return dualvt


def tail(samples: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the slowest sample, with fewer beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    j = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"value": ordered[j], "percentile": 100.0 * (j + 1) / n,
            "samples": n, "beyond": n - 1 - j}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine_metadata(dualvt, args) -> dict:
    import numpy as np

    from . import workloads

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dualvt").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "dualvt_version": dualvt.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": dataclasses.asdict(workloads.SCALE),
    }


def run_workload(args, workdir: Path) -> dict:
    from . import tracing, workloads

    tracer = tracing.Tracer()
    wl = workloads.make_workload(args.workload, args.seed, workdir, tracer, workloads.SCALE)
    wl.generate()

    # set-up: one thrown away (cold caches), then SETUPS timed
    setup_s, setup_units = [], []
    for k in range(SETUPS + 1):
        wl.prepare_setup(k)
        unit = f"setup-{k}"
        t0 = time.perf_counter()
        if args.trace and k > 0:
            with tracer.unit(unit):
                wl.setup(k)
            setup_units.append(unit)
        else:
            wl.setup(k)
        if k > 0:
            setup_s.append(time.perf_counter() - t0)

    # timed phase: a closed loop with one caller
    ops, op_units, problems = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (i >= MIN_OPS or elapsed >= MAX_STRETCH * args.seconds):
            break
        wl.before_op(i)
        traced = bool(args.trace) and i % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.unit(f"op-{i}"):
                out = wl.op(i)
        else:
            out = wl.op(i)
        ms = (time.perf_counter() - t0) * 1e3
        found = wl.check_op(i, out)
        ops.append({"ms": ms, "traced": traced, "problems": found})
        if traced:
            op_units.append(f"op-{i}")
        problems += [f"op {i}: {p}" for p in found]
        del out
        i += 1
    rss = peak_rss_mb()

    quality = wl.fidelity()
    gate = [{"check": label, "ok": bool(ok)} for label, ok in wl.gate()]
    failed = sum(1 for op in ops if op["problems"])
    plain = [op["ms"] for op in ops if not op["traced"]]
    record = {
        "ops": ops,
        "problems": problems,
        "gate": gate,
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and all(g["ok"] for g in gate),
        "fidelity": quality,
        "setup_s_samples": setup_s,
    }
    if not args.trace:
        record["tail"] = tail(plain)
        record["metrics"] = {
            "op_ms_p50": (statistics.median(plain), "ms"),
            "op_ms_tail": (record["tail"]["value"], "ms"),
            "ops_per_s": ((len(ops) - failed) / (sum(plain) / 1e3), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        traced_ms = [op["ms"] for op in ops if op["traced"]]
        metrics = tracing.layer_metrics(tracer, op_units, setup_units)
        metrics["trace.op_ms_p50"] = (statistics.median(traced_ms), "ms")
        metrics["trace.overhead_ms"] = (statistics.median(traced_ms) - statistics.median(plain), "ms")
        metrics["trace.top_span_coverage"] = (tracing.top_span_coverage(tracer, op_units), "ratio")
        metrics["ht_rel_l2_vs_interp"] = (quality["ht_rel_l2_vs_interp"], "ratio")
        metrics["ht_cells_fast"] = (quality["ht_cells_fast"], "count")
        metrics["ht_cells_interp"] = (quality["ht_cells_interp"], "count")
        record["metrics"] = metrics
        record["spans"] = tracer.to_json()
        record["unit_ms"] = tracer.unit_ms
    return record


def report(record: dict, meta: dict) -> list[str]:
    lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}",
        "meta " + json.dumps(meta, sort_keys=True),
    ]
    for name, (value, unit) in record["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            t = record["tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {SETUPS} set-ups after one thrown away)"
        lines.append(f"{name:<28}{value:>16.6f} {unit}{note}")
    n, failed = record["attempted"], record["failed"]
    lines.append(f"{'failed_frac':<28}{failed / n:>16.6f} ratio  ({failed} of {n} ops)")
    q = record["fidelity"]
    if "ht_rel_l2_vs_interp" not in record["metrics"]:
        lines.append(
            f"{'ht_rel_l2_vs_interp':<28}{q['ht_rel_l2_vs_interp']:>16.6f} ratio  "
            f"(first frame; F_ht covers {q['ht_cells_fast']} cells fast, "
            f"{q['ht_cells_interp']} interpolating)"
        )
    for g in record["gate"]:
        lines.append(f"gate {'ok  ' if g['ok'] else 'FAIL'} {g['check']}")
    lines += [f"check FAIL {p}" for p in record["problems"][:20]]
    return lines


def parse_args(argv):
    from .workloads import WORKLOADS

    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        dualvt = import_dualvt()
    except ImportError as e:
        print(f"perfbench: cannot import dualvt: {e}", file=sys.stderr)
        return 2
    from .workloads import BenchError

    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        record = run_workload(args, workdir)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = machine_metadata(dualvt, args)
    print("\n".join(report(record, meta)))
    record["meta"] = meta
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1

"""Smoke tests of the benchmark harness at a tiny scale.

    python3 -m pytest -q perfbench

Every metric BENCHMARK.json names must be emitted for every workload,
and the checks must fire on deliberately corrupted outputs.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

harness.import_dualvt()

import dualvt.fusion  # noqa: E402
import dualvt.geometry  # noqa: E402
import dualvt.lift_stream  # noqa: E402
import dualvt.sampling  # noqa: E402
from perfbench import workloads  # noqa: E402


TINY = workloads.Scale(
    dualvt.geometry.BevGridSpec(nx=16, ny=16), dualvt.sampling.DepthBinSpec(step=4.0),
    {"feat_w": 8, "feat_h": 4, "channels": 8}, recalib_channels=8,
)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", TINY)


def run(workload, trace=0, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = harness.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    code, result = run(workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= harness.MIN_OPS
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_output_checks_flag_corrupt_frames():
    f = np.zeros((2, 3, 3), np.float32)
    p = np.full((1, 3, 3), 0.5, np.float32)
    assert workloads.output_problems(f, p) == []
    bad_f = f.copy()
    bad_f[0, 1, 1] = np.nan
    assert workloads.output_problems(bad_f, p)
    for edge in (0.0, 1.0):
        bad_p = p.copy()
        bad_p[0, 2, 2] = edge
        assert workloads.output_problems(f, bad_p)


def _nudge(fn):
    """Wrap fn so its output moves by one ulp in one element."""
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs).copy()
        out.flat[0] = np.nextafter(out.flat[0], np.float32(np.inf))
        return out
    return corrupted


def test_gate_fails_when_pool_diverges_from_its_oracle(monkeypatch):
    monkeypatch.setattr(dualvt.lift_stream, "lss_pool", _nudge(dualvt.lift_stream.lss_pool))
    code, result = run("stream-masked")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 0


def test_repeated_frame_digest_catches_nondeterminism(monkeypatch):
    calls = {"n": 0}
    assemble = dualvt.fusion.assemble_final

    def drifting(f, p):
        calls["n"] += 1
        out = assemble(f, p)
        out.flat[0] += np.float32(calls["n"])
        return out

    monkeypatch.setattr(dualvt.fusion, "assemble_final", drifting)
    code, result = run("stream-dense")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_cli_outputs_are_checked(monkeypatch):
    def saturated(f_channel, weights, cfg):
        return np.ones((1,) + f_channel.shape[1:], np.float32)

    monkeypatch.setattr(dualvt.fusion, "bev_probability", saturated)
    code, result = run("recalib-cli")
    assert code != 0
    assert result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

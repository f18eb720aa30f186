import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    ["run_demo.py"],
    ["run_ablations.py"],
    ["run_bench.py", "--reps", "3", "--warmup", "1"],
], ids=["run_demo", "run_ablations", "run_bench"])
def test_run_demo_exits_zero(tmp_path, script):
    """Each committed script runs the CLI end to end (synth, precompute,
    then transform or bench on the tables it wrote); the demo also checks
    the fast outputs against the table-free naive-round sampler bit for bit."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script[0]), *script[1:],
         "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

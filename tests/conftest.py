import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualvt
from dualvt.geometry import BevGridSpec, CameraRig, make_height_samples
from dualvt.sampling import DepthBinSpec
from dualvt.synth import SceneSpec, generate_scene, random_scene_spec


def table_cells(table):
    """Each entry's cell, expanded from the table's offsets."""
    return np.repeat(np.arange(table.n_cells), np.diff(table.offsets))


def exact_support(*grids):
    """The (ny, nx) cells where some channel of a (C, ny, nx) float32 grid is
    not bit-for-bit +0.0 (a u32 test, so -0.0 and NaN count as input): the
    smallest support the grids allow."""
    return np.logical_or.reduce([g.view(np.uint32).any(axis=0) for g in grids])


def sha256(*arrays) -> str:
    """SHA-256 of float32 arrays' little-endian C-order bytes, one after another."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return digest.hexdigest()


def small_geometry():
    """Desk-scale geometry small enough for exhaustive oracles."""
    grid = BevGridSpec(x_min=-24.0, x_max=24.0, y_min=-24.0, y_max=24.0, nx=48, ny=48)
    dspec = DepthBinSpec(d_min=2.0, d_max=26.0, step=1.0)
    heights = make_height_samples("multires")
    return grid, dspec, heights


def small_scene(seed: int):
    grid, dspec, heights = small_geometry()
    spec = random_scene_spec(
        seed, n_cameras=4, feat_w=24, feat_h=10, channels=8, kappa=4.0
    )
    return generate_scene(spec, grid, dspec), heights


@pytest.fixture
def small_bundle():
    bundle, heights = small_scene(0)
    return bundle, heights


def forward_camera(feat_w=16, feat_h=16, fx=8.0, fy=4.0) -> CameraRig:
    """Single camera at the origin looking along ego +x with a wide vertical FOV."""
    K = np.array(
        [[fx, 0.0, (feat_w - 1) / 2], [0.0, fy, (feat_h - 1) / 2], [0.0, 0.0, 1.0]]
    )
    # ego x forward -> camera z; ego y left -> camera -x; ego z up -> camera -y
    R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    T = np.eye(4)
    T[:3, :3] = R
    return CameraRig(intrinsics=K, extrinsics=T, feat_w=feat_w, feat_h=feat_h, cam_id=0)


def numpy_on_openblas_x86() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


needs_openblas_x86 = pytest.mark.skipif(
    not numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, x86-64"
)
# OpenBLAS's Nehalem kernels run on any x86-64 CPU and sum in another order
# than the AVX kernels picked on newer ones
NEHALEM = {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "1"}


def json_in_child(module: str, call: str, **env):
    """`<module>.<call>` of a test module, evaluated in a fresh interpreter
    with `env` added to its environment, and read back as JSON."""
    paths = [str(Path(dualvt.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(paths)}
    code = f"import json, {module}; print(json.dumps({module}.{call}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)

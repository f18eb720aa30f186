import hashlib
import json
import os
import platform
import subprocess
import sys
from fractions import Fraction
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


def units(x, shift: int = 149) -> np.ndarray:
    """Each float32 of `x` as the exact Python integer ``x * 2**shift``, in an
    object array of x's shape: every float32 is an integer times 2**-149, and
    its float64 scaled by a power of two is exact (at most 2**(128 + shift))."""
    x = np.asarray(x, dtype=np.float32)
    return np.array(list(map(int, np.ldexp(x.astype(np.float64), shift).ravel().tolist())),
                    dtype=object).reshape(x.shape)


def exact_dot(a, b, bias):
    """Oracle of sums of float32 products plus a bias: for (R, K) `a`, (K, M)
    `b` and (R,) `bias`, the exact ``a @ b + bias[:, None]`` and the sum of
    its terms' magnitudes ``|a| @ |b| + |bias|``, each an (R, M) object array
    of Python integers in units of 2**-298, the unit of a float32 product."""
    ua, ub, uc = units(a), units(b), units(bias, 298)[:, None]
    return ua.dot(ub) + uc, np.abs(ua).dot(np.abs(ub)) + np.abs(uc)


def exact_mean(x, weights=None) -> np.ndarray:
    """Oracle of a correctly rounded mean, for finite float32 inputs: for each
    row of the (R, m) `x`, the float32 nearest (ties to even) to
    ``sum(w * x) / sum(w)`` over the m integer `weights` (all 1 by default),
    signed as the sum where it rounds to zero and +0.0 at an exact zero.

    Every float32 is an integer times 2**-149, so each row sums exactly in
    Python integers.  Python's int division rounds that mean to float64
    correctly; the float32 nearest to the float64 is the answer unless the
    float64 lies exactly on a float32 midpoint, which a Fraction settles."""
    x = np.asarray(x, dtype=np.float32)
    m = x.shape[1]
    w = np.ones(m, dtype=object) if weights is None else np.array([int(k) for k in weights],
                                                                   dtype=object)
    den = int(w.sum()) << 149
    totals = (units(x) * w).sum(axis=1) if m else np.zeros(x.shape[0], dtype=object)
    c64 = np.array([t / den for t in totals.tolist()], dtype=np.float64)
    c32 = c64.astype(np.float32)
    toward = np.where(c64 > c32, np.inf, -np.inf).astype(np.float32)
    other = np.nextafter(c32, toward)
    mid = (c32.astype(np.float64) + other.astype(np.float64)) / 2
    for r in np.flatnonzero((c32 != c64) & (c64 == mid)).tolist():
        q, half = Fraction(int(totals[r]), den), Fraction(float(mid[r]))
        lo, hi = sorted([c32[r], other[r]])
        if q == half:
            c32[r] = lo if int(lo.view(np.uint32)) % 2 == 0 else hi
        else:
            c32[r] = hi if q > half else lo
    zero = c32 == 0
    c32[zero] = np.where(np.array([t < 0 for t in totals.tolist()], dtype=bool)[zero],
                         np.float32(-0.0), np.float32(0.0))
    return c32


def sha256(*arrays) -> str:
    """SHA-256 of float32 arrays' little-endian C-order bytes, one after another."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return digest.hexdigest()


def scene_digest(bundle) -> str:
    """`sha256` of a scene's frame: its features channel-first per camera, as
    (n_cams, C, H, W), then its depths, then its masks.  Those are the bytes
    of per-camera (C, H, W) features and (1, H, W) masks, one after another,
    so a scene pin taken on per-camera arrays holds for the camera-first frame."""
    return sha256(bundle.feats.transpose(0, 3, 1, 2), bundle.depths, bundle.masks)


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
    return CameraRig(intrinsics=K, extrinsics=T, feat_w=feat_w, feat_h=feat_h)


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

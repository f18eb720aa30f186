"""Golden digests of the fusion and occupancy heads.

One pinned scene is run twice: with its instance masks, where a handful
of the 2,304 cells carry a feature, and with ``disable-M`` (all-ones
masks), where 1,640 do.  A third set pins the heads on seeded streams
whose input cells sit at a corner, next to each edge and in the
interior, so that the occupancy head's reach meets the grid's border.
The heads' arithmetic contract (see ``dualvt.nnops``) is one float32
rounding of float64 sums whose order the BLAS picks.  These digests pin
the resulting bytes, also when a subprocess builds the scene from its
spec under another OpenBLAS CPU kernel and BLAS thread count.  The desk
``standard_scene_spec()`` scene (pinned in test_synth.py) and its six
pipeline outputs keep their bytes under another OpenBLAS kernel, one BLAS
thread, and numpy's dispatch to x86-64-v3 or v4 switched off.
"""

import functools

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from conftest import (NEHALEM, json_in_child, needs_openblas_x86, numpy_on_openblas_x86,
                      scene_digest, sha256, small_scene)
from dualvt.fusion import heads, make_seeded_weights, run_pipeline
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.nnops import WorkerPool
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec
from dualvt.synth import generate_scene, standard_scene_spec
from test_synth import GOLDEN_SCENE

WEIGHT_SEED = 11
# small_scene(0) with make_seeded_weights(11, 8), at threads 1 and 2
GOLDEN = {
    "F_channel": "ae525f94464b2a27846b4cfe4d4cf660e5edf035c72a978e61084c293c5befe1",
    "A": "dddb10c3288c11a8a1b9edf50df6ea77eab48eb3fd7abcbdad948856110afd31",
    "P": "ae6e595d4d5ca262d625c508c52b7d14df77759c1e16cb7ffdc5e5c718233470",
    "F": "ad8f2b67cfcdee0c3bff9b8fd4303dab4bc89779610ee5c10e2700e450ff9757",
}
# the same with disable-M, at threads 1 and 2
GOLDEN_DISABLE_M = {
    "F_channel": "05a53e575545f4aa1848eca9d9329a8c02b4f8f7f6a897da97a3630cf1cf77a0",
    "A": "7e36bd85bac6820640a8a42ceace6bc67c840931acdd15a5b506dec7beb33765",
    "P": "67f0cc940ecda722aab78926c3257166bd7808ea0ebb813c0225d2e1cc2e1458",
    "F": "4fd69993f0cf7bb9a15083a491beb7a48e27ee5519347b93f4baf067b60c72a1",
}

# heads(*border_streams()) with make_seeded_weights(11, 8), at threads 1 and 2
GOLDEN_BORDER = {
    "F_channel": "76486b85acdb11058104af1c16ea34ff232c1716b6d3fdbf79022309b7d51fae",
    "A": "474ab0a7d14da1f06e0045407637000b2404bb380d141e3c6b2649fea89c02b4",
    "P": "eaeb4e54f2551e28c12ce4c64b895bcfa33a5e307a9590d7cf63e2ce36409355",
    "F": "45dec61bfa9c2360b97a521e9e718867f3f559741042434559513ec076eaa37c",
}


def head_digests(result) -> dict:
    fields = {"F_channel": result.f_channel, "A": result.affinity, "P": result.p_bev,
              "F": result.f_final}
    return {name: sha256(arr) for name, arr in fields.items()}


def border_streams(n=48, channels=8):
    """(f_lss, f_ht, support) on an n x n grid with input on 18 cells, the
    support: a corner, cells at distances 0-3 from each edge and one
    interior cell.  Both streams hold seeded values there, a quarter of
    them -0.0."""
    cells = [(0, 0), (n // 2, n // 2)]
    for d in range(4):
        cells += [(d, 12), (n - 1 - d, 34), (30, d), (14, n - 1 - d)]
    ys, xs = np.array(cells).T
    rng = Rng(5)
    out = []
    for _ in range(2):
        f = np.zeros((channels, n, n), dtype=np.float32)
        vals = rng.uniform((channels, len(cells)), -1.0, 1.0)
        vals[rng.uniform(vals.shape) < 0.25] = -0.0
        f[:, ys, xs] = vals
        out.append(f)
    support = np.zeros((n, n), dtype=bool)
    support[ys, xs] = True
    return out + [support]


def border_digests(threads=1) -> dict:
    with WorkerPool(threads) as pool:
        return head_digests(heads(*border_streams(), make_seeded_weights(WEIGHT_SEED, 8),
                                  workers=pool))


@functools.cache
def pinned_inputs():
    bundle, heights = small_scene(0)
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    return bundle, ht, lss, make_seeded_weights(WEIGHT_SEED, bundle.spec.channels)


def pinned_digests(threads=1, disable_mask=False) -> dict:
    """Head digests of the pinned scene, built from its spec."""
    bundle, ht, lss, weights = pinned_inputs()
    return head_digests(run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss,
                                     weights, threads=threads, disable_mask=disable_mask))


@pytest.mark.parametrize("threads", [1, 2])
def test_head_matches_golden_digests(threads):
    assert pinned_digests(threads) == GOLDEN


@pytest.mark.parametrize("threads", [1, 2])
def test_disable_m_head_matches_golden_digests(threads):
    assert pinned_digests(threads, disable_mask=True) == GOLDEN_DISABLE_M


def test_border_head_matches_golden_digests():
    assert border_digests() == GOLDEN_BORDER


def test_border_head_matches_golden_digests_on_two_threads():
    assert border_digests(threads=2) == GOLDEN_BORDER


@needs_openblas_x86
def test_head_digests_hold_on_another_openblas_core():
    assert json_in_child("test_golden", "pinned_digests()", **NEHALEM) == GOLDEN


@needs_openblas_x86
def test_disable_m_head_digests_hold_on_another_openblas_core():
    assert json_in_child("test_golden", "pinned_digests(1, True)", **NEHALEM) == GOLDEN_DISABLE_M


@needs_openblas_x86
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_border_head_digests_hold_on_another_openblas_core(blas_threads):
    env = {**NEHALEM, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    assert json_in_child("test_golden", "border_digests()", **env) == GOLDEN_BORDER


@functools.cache
def standard_scene_digests(cpu_group_off=None) -> dict:
    """SHA-256 of the desk standard scene, built from its spec (pinned in
    test_synth.py), and of its six pipeline outputs, masked and with
    disable-M.  With `cpu_group_off`, first checks that numpy's dispatch to
    that CPU feature group is switched off."""
    assert cpu_group_off is None or not __cpu_features__[cpu_group_off]
    bundle = generate_scene(standard_scene_spec(), BevGridSpec(), DepthBinSpec())
    digests = {"scene": scene_digest(bundle)}
    ht = precompute_ht_table(bundle.rigs, bundle.grid, make_height_samples("multires"),
                             bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    weights = make_seeded_weights(WEIGHT_SEED, bundle.spec.channels)
    for mode, disable_mask in (("masked", False), ("disable-M", True)):
        result = run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights,
                              disable_mask=disable_mask)
        for name, arr in vars(result).items():
            digests[f"{mode}/{name}"] = sha256(arr)
    return digests


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_NUM_THREADS": "1"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3"},
], ids=["nehalem", "blas-1-thread", "no-x86-v4", "no-x86-v3"])
def test_standard_scene_digests_hold_in_another_environment(env):
    group = env.get("NPY_DISABLE_CPU_FEATURES")
    if not (__cpu_features__.get(group) if group else numpy_on_openblas_x86()):
        pytest.skip(f"this CPU has no {group}" if group else "needs numpy on OpenBLAS, x86-64")
    assert standard_scene_digests()["scene"] == GOLDEN_SCENE
    assert json_in_child("test_golden", f"standard_scene_digests({group!r})",
                         **env) == standard_scene_digests()

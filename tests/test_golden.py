"""Golden digests of the fusion and occupancy heads.

One pinned scene is run twice: with its instance masks, where a handful
of the 2,304 cells carry a feature, and with ``disable-M`` (all-ones
masks), where 1,640 do.  A third set pins the heads on seeded streams
whose input cells sit at a corner, next to each edge and in the
interior, so that the occupancy head's reach meets the grid's border.

The heads' arithmetic contract (see ``dualvt.nnops``) is one float32
rounding of float64 sums whose order the BLAS picks.  These digests pin
the resulting bytes; the subprocess test recomputes the heads under
another OpenBLAS CPU kernel and BLAS thread count.
"""

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
from conftest import exact_support, small_scene
from dualvt.fusion import heads, make_seeded_weights, run_pipeline
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from dualvt.rng import Rng

WEIGHT_SEED = 11
# small_scene(0) with make_seeded_weights(11, 8), at threads 1 and 2
GOLDEN = {
    "F_channel": "ae525f94464b2a27846b4cfe4d4cf660e5edf035c72a978e61084c293c5befe1",
    "A": "dddb10c3288c11a8a1b9edf50df6ea77eab48eb3fd7abcbdad948856110afd31",
    "P": "eece4700ec1b9aa314dae3303339deeca4187eb025f6f2022b888256425bd7e4",
    "F": "ad8f2b67cfcdee0c3bff9b8fd4303dab4bc89779610ee5c10e2700e450ff9757",
}
# the same with disable-M, at threads 1 and 2
GOLDEN_DISABLE_M = {
    "F_channel": "05a53e575545f4aa1848eca9d9329a8c02b4f8f7f6a897da97a3630cf1cf77a0",
    "A": "7e36bd85bac6820640a8a42ceace6bc67c840931acdd15a5b506dec7beb33765",
    "P": "f56b1e259b61974817b15ce7cdb162d8e1b624aaff594a3c1208108b387a4a9a",
    "F": "b6acff495b46b890b964af047ff0ac66d964bbc18f30304729c3f932ba17ffe7",
}

# heads(*border_streams()) with make_seeded_weights(11, 8)
GOLDEN_BORDER = {
    "F_channel": "76486b85acdb11058104af1c16ea34ff232c1716b6d3fdbf79022309b7d51fae",
    "A": "474ab0a7d14da1f06e0045407637000b2404bb380d141e3c6b2649fea89c02b4",
    "P": "eaeb4e54f2551e28c12ce4c64b895bcfa33a5e307a9590d7cf63e2ce36409355",
    "F": "45dec61bfa9c2360b97a521e9e718867f3f559741042434559513ec076eaa37c",
}


def head_digests(result) -> dict:
    return {
        name: hashlib.sha256(np.ascontiguousarray(arr, dtype="<f4").tobytes()).hexdigest()
        for name, arr in (
            ("F_channel", result.f_channel), ("A", result.affinity),
            ("P", result.p_bev), ("F", result.f_final),
        )
    }


def saved_stream_digests(directory) -> dict:
    """Head digests from the stream outputs saved in `directory`, on the
    cells where they hold input."""
    directory = Path(directory)
    f_lss, f_ht = np.load(directory / "f_lss.npy"), np.load(directory / "f_ht.npy")
    weights = make_seeded_weights(WEIGHT_SEED, f_ht.shape[0])
    return head_digests(heads(f_lss, f_ht, exact_support(f_lss, f_ht), weights))


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


def border_digests() -> dict:
    return head_digests(heads(*border_streams(), make_seeded_weights(WEIGHT_SEED, 8)))


@pytest.fixture(scope="module")
def pinned():
    bundle, heights = small_scene(0)
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    return bundle, ht, lss, make_seeded_weights(WEIGHT_SEED, bundle.spec.channels)


def run_pinned(pinned, threads, disable_mask=False):
    bundle, ht, lss, weights = pinned
    return run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights,
                        threads=threads, disable_mask=disable_mask)


@pytest.mark.parametrize("threads", [1, 2])
def test_head_matches_golden_digests(pinned, threads):
    assert head_digests(run_pinned(pinned, threads)) == GOLDEN


@pytest.mark.parametrize("threads", [1, 2])
def test_disable_m_head_matches_golden_digests(pinned, threads):
    assert head_digests(run_pinned(pinned, threads, disable_mask=True)) == GOLDEN_DISABLE_M


def test_border_head_matches_golden_digests():
    assert border_digests() == GOLDEN_BORDER


def _numpy_on_openblas_x86() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


def nehalem_digests(call, blas_threads=1):
    """`test_golden.<call>` run in a subprocess under OpenBLAS's Nehalem
    kernels, which run on any x86-64 CPU and sum in another order than
    the AVX kernels picked on newer ones."""
    paths = [str(Path(dualvt.__file__).parents[1]), str(Path(__file__).parent)]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
        "OPENBLAS_CORETYPE": "Nehalem",
        "OPENBLAS_NUM_THREADS": str(blas_threads),
    }
    code = f"import json, test_golden; print(json.dumps(test_golden.{call}))"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def digests_on_nehalem(pinned, tmp_path, disable_mask):
    """Head digests of the pinned run, and of the same stream outputs under
    the Nehalem kernels."""
    result = run_pinned(pinned, threads=1, disable_mask=disable_mask)
    np.save(tmp_path / "f_lss.npy", result.f_lss)
    np.save(tmp_path / "f_ht.npy", result.f_ht)
    return nehalem_digests(f"saved_stream_digests({str(tmp_path)!r})"), head_digests(result)


needs_openblas_x86 = pytest.mark.skipif(
    not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, x86-64"
)


@needs_openblas_x86
def test_head_digests_hold_on_another_openblas_core(pinned, tmp_path):
    nehalem, here = digests_on_nehalem(pinned, tmp_path, disable_mask=False)
    assert nehalem == here == GOLDEN


@needs_openblas_x86
def test_disable_m_head_digests_hold_on_another_openblas_core(pinned, tmp_path):
    nehalem, here = digests_on_nehalem(pinned, tmp_path, disable_mask=True)
    assert nehalem == here == GOLDEN_DISABLE_M


@needs_openblas_x86
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_border_head_digests_hold_on_another_openblas_core(blas_threads):
    assert nehalem_digests("border_digests()", blas_threads) == GOLDEN_BORDER

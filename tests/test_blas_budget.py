"""The thread budget: the heads run with the BLAS at one thread, and the
caller's BLAS thread count comes back afterwards (``nnops.one_blas_thread``).

The budget changes speed, not bits: the convolutions' bytes are checked
here across BLAS thread counts outside the budget, and the pinned head
digests hold with the BLAS handle forced to "not found".
"""

import numpy as np
import pytest

from dualvt import fusion, nnops
from dualvt.errors import ConfigError
from dualvt.fusion import default_weight_shapes, heads, make_seeded_weights, run_pipeline
from dualvt.nnops import WeightBundle, conv2d, one_blas_thread
from dualvt.rng import Rng
from test_golden import GOLDEN, GOLDEN_DISABLE_M, border_streams, pinned_digests, pinned_inputs


@pytest.fixture
def blas():
    """(get, set) of the bundled OpenBLAS's thread count; the count is put
    back after the test."""
    if nnops._BLAS_THREADS is None:
        pytest.skip("numpy is not on the bundled scipy-openblas")
    get, set_ = nnops._BLAS_THREADS
    before = get()
    yield get, set_
    set_(before)


def set_checked(set_, get, n):
    set_(n)
    if get() != n:
        pytest.skip(f"the BLAS does not take {n} threads here")


def test_heads_run_with_one_blas_thread(blas, monkeypatch):
    """Every head convolution sees a BLAS at one thread, whatever the caller
    set, on the calling thread and on the frame's workers."""
    get, set_ = blas
    set_checked(set_, get, 2)
    seen = []

    def recording(x, w, workers=None):
        seen.append(get())
        if workers is not None:
            seen.append(workers.submit(get).result())
        return conv2d(x, w, workers)

    monkeypatch.setattr(fusion, "conv2d", recording)
    bundle, ht, lss, weights = pinned_inputs()
    run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights, threads=2)
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("caller", [1, 2])
def test_run_pipeline_restores_the_callers_count(blas, caller):
    get, set_ = blas
    set_checked(set_, get, caller)
    bundle, ht, lss, weights = pinned_inputs()
    run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights, threads=2)
    assert get() == caller


@pytest.mark.parametrize("caller", [1, 2])
def test_dense_frame_on_two_threads_restores_the_callers_count(blas, caller):
    """A `disable-M` frame, whose convolutions run in bands on the frame's workers."""
    get, set_ = blas
    set_checked(set_, get, caller)
    bundle, ht, lss, weights = pinned_inputs()
    run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights, threads=2,
                 disable_mask=True)
    assert get() == caller


@pytest.mark.parametrize("caller", [1, 2])
def test_fuse_and_finalize_restores_the_callers_count(blas, caller):
    """`fusion.heads` called on stream grids, outside `run_pipeline`."""
    get, set_ = blas
    set_checked(set_, get, caller)
    heads(*border_streams(), make_seeded_weights(11, 8))
    assert get() == caller


def test_count_is_restored_when_the_heads_raise(blas):
    get, set_ = blas
    set_checked(set_, get, 2)
    bundle, ht, lss, weights = pinned_inputs()
    partial = WeightBundle({k: v for k, v in weights.layers.items() if k != "prob.local.out"})
    with pytest.raises(ConfigError, match="prob.local.out"):
        run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, partial)
    assert get() == 2


def test_nested_budget_restores_the_outer_value(blas):
    get, set_ = blas
    set_checked(set_, get, 2)
    with one_blas_thread():
        assert get() == 1
        with one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_interleaved_budgets_restore_the_callers_count(blas):
    """Blocks that overlap without nesting, as on two threads: the BLAS stays
    at one thread until the last one ends, then the first one's count is back."""
    get, set_ = blas
    set_checked(set_, get, 2)
    first, second = one_blas_thread(), one_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert get() == 1
    second.__exit__(None, None, None)
    assert get() == 2


def test_without_a_handle_the_pipeline_keeps_its_bytes(monkeypatch):
    monkeypatch.setattr(nnops, "_BLAS_THREADS", None)
    assert pinned_digests(2) == GOLDEN
    assert pinned_digests(2, disable_mask=True) == GOLDEN_DISABLE_M


def head_layer_inputs(channels=64, n=128):
    """(input, weights) for every layer of both heads, on a full n x n grid."""
    rng = Rng(3)
    weights = make_seeded_weights(5, channels)
    for name, (_, c_in, _, _) in sorted(default_weight_shapes(channels).items()):
        yield name, rng.uniform((c_in, n, n), -1.0, 1.0), weights[name]


def test_conv2d_bytes_do_not_depend_on_the_blas_thread_count(blas):
    """`conv2d` called directly, outside the budget: one and two BLAS
    threads give the same bytes on every layer shape of the heads."""
    get, set_ = blas
    for name, x, w in head_layer_inputs():
        outs = []
        for n in (1, 2):
            set_checked(set_, get, n)
            outs.append(conv2d(x, w).view(np.uint32))
        assert np.array_equal(*outs), name

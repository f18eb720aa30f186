import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvt import scatter
from dualvt.rng import Rng
from dualvt.scatter import scatter_reference, weighted_scatter


def _random_problem(seed, n_entries, n_cells, channels=5, pixels=40, bins=60):
    rng = Rng(seed)
    feats = rng.uniform((channels, pixels), -10.0, 10.0)
    depth_w = rng.uniform((bins,), 0.0, 1.0)
    mask_w = rng.uniform((pixels,), 0.0, 1.0)
    cells = np.sort(rng.integers((n_entries,), n_cells))
    feat_idx = rng.integers((n_entries,), pixels)
    depth_idx = rng.integers((n_entries,), bins)
    return feats, depth_w, mask_w, cells, feat_idx, depth_idx


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 300), st.integers(1, 30))
def test_matches_reference_bitwise(seed, n_entries, n_cells):
    args = _random_problem(seed, n_entries, n_cells)
    fast = weighted_scatter(*args, n_cells)
    slow = scatter_reference(*args, n_cells)
    assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))


def test_threaded_matches_sequential_bitwise():
    args = _random_problem(99, 5000, 64)
    seq = weighted_scatter(*args, 64, threads=1)
    for threads in (2, 4, 7):
        par = weighted_scatter(*args, 64, threads=threads)
        assert np.array_equal(seq.view(np.uint64), par.view(np.uint64))


def test_empty_entries():
    feats = np.ones((3, 4), dtype=np.float32)
    empty = np.empty(0, dtype=np.int64)
    out = weighted_scatter(
        feats, np.ones(5, np.float32), np.ones(4, np.float32),
        empty, empty, empty, 10,
    )
    assert out.shape == (10, 3)
    assert np.all(out == 0.0)


def _mostly_zero_problem(seed, n_entries, n_cells, zero_frac):
    """Random problem whose depth and mask weights are mostly +0.0 or -0.0.

    Masks may be negative and features are signed, so skipped products
    would be -0.0 as often as +0.0.
    """
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(
        seed, n_entries, n_cells
    )
    rng = Rng(seed + 1)

    def signs(shape):
        return np.where(rng.uniform(shape) < 0.5, -1, 1).astype(np.float32)

    def zero_out(w):
        return np.where(rng.uniform(w.shape) < zero_frac, 0.0 * signs(w.shape), w)

    mask_w = mask_w * signs(mask_w.shape)
    return feats, zero_out(depth_w), zero_out(mask_w), cells, feat_idx, depth_idx


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(1, 400), st.integers(1, 30),
    st.sampled_from([0.5, 0.9, 0.99]), st.integers(1, 16), st.sampled_from([1, 2, 3]),
)
def test_zero_weight_skip_is_bitwise(seed, n_entries, n_cells, zero_frac, chunk, threads):
    args = _mostly_zero_problem(seed, n_entries, n_cells, zero_frac)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scatter, "CHUNK_ENTRIES", chunk)  # spans several chunks
        fast = weighted_scatter(*args, n_cells, threads=threads)
    slow = scatter_reference(*args, n_cells)
    assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))


@pytest.mark.parametrize("threads", [1, 2])
def test_all_zero_weights_give_positive_zero(threads):
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(5, 500, 16)
    feats = -np.abs(feats)  # 0 * negative feature is -0.0
    depth_w[::2] = -0.0
    depth_w[1::2] = 0.0
    out = weighted_scatter(feats, depth_w, mask_w, cells, feat_idx, depth_idx, 16,
                           threads=threads)
    assert np.all(out == 0.0)
    assert not np.any(np.signbit(out))


def test_dense_scatter_memory_is_bounded():
    """Peak allocation of a dense scatter stays far below one (N, C) gather
    plus its float64 product (N * C * 12 bytes)."""
    n_entries, channels, pixels, n_cells = 400_000, 64, 4224, 16_384
    rng = np.random.default_rng(0)
    feats = rng.uniform(-1.0, 1.0, (channels, pixels)).astype(np.float32)
    depth_w = rng.uniform(0.5, 1.0, pixels * 8).astype(np.float32)
    mask_w = np.ones(pixels, dtype=np.float32)
    cells = np.sort(rng.integers(0, n_cells, n_entries))
    feat_idx = rng.integers(0, pixels, n_entries)
    depth_idx = rng.integers(0, depth_w.size, n_entries)

    tracemalloc.start()
    try:
        out = weighted_scatter(feats, depth_w, mask_w, cells, feat_idx, depth_idx, n_cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unchunked = n_entries * channels * 12
    assert peak >= out.nbytes  # numpy's allocations are traced
    assert peak < unchunked / 8

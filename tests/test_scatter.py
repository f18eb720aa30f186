import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_cells
from dualvt import scatter
from dualvt.geometry import BevGridSpec
from dualvt.lift_stream import lss_apply, lss_pool, precompute_lss_table
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec
from dualvt.scatter import weighted_scatter
from dualvt.synth import generate_scene, random_scene_spec
from dualvt.tables import stack_camera_tensors, stack_frame


def scatter_reference(feats, depth_w, mask_w, cells, feat_idx, depth_idx, n_cells):
    """Per-entry loop oracle with the same order and precision as weighted_scatter,
    on every cell: (n_cells, C) float64 accumulators.

    It adds every entry, zero weights included, so it also checks that
    skipping them changes no bit.
    """
    C = feats.shape[0]
    out = np.zeros((n_cells, C), dtype=np.float64)
    for c, fi, di in zip(cells, feat_idx, depth_idx):
        w = np.float64(depth_w[di]) * np.float64(mask_w[fi])
        out[c] += w * feats[:, fi].astype(np.float64)
    return out


def expand(support, n_cells):
    """weighted_scatter's support as (n_cells, C) float32 rows, +0.0 off it."""
    cells, sums = support
    assert cells.dtype == np.intp and sums.dtype == np.float32
    assert sums.shape[0] == cells.size and np.all(np.diff(cells) > 0)
    out = np.zeros((n_cells, sums.shape[1]), dtype=np.float32)
    out[cells] = sums
    return out


def assert_matches_reference(support, args, n_cells):
    """The support is the cells with an entry of nonzero weight, and expanded
    it is the oracle's sums rounded to float32, bit for bit."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = args
    live = (np.asarray(depth_w)[depth_idx] != 0) & (np.asarray(mask_w)[feat_idx] != 0)
    assert np.array_equal(support[0], np.unique(np.asarray(cells)[live]))
    slow = scatter_reference(*args, n_cells).astype(np.float32)
    assert np.array_equal(expand(support, n_cells).view(np.uint32), slow.view(np.uint32))


def _random_problem(seed, n_entries, n_cells, channels=5, pixels=40, bins=60):
    rng = Rng(seed)
    feats = rng.uniform((channels, pixels), -10.0, 10.0)
    depth_w = rng.uniform((bins,), 0.0, 1.0)
    mask_w = rng.uniform((pixels,), 0.0, 1.0)
    cells = np.sort(rng.integers((n_entries,), n_cells))
    feat_idx = rng.integers((n_entries,), pixels)
    depth_idx = rng.integers((n_entries,), bins)
    return feats, depth_w, mask_w, cells, feat_idx, depth_idx


def _offsets(cells, n_cells):
    """The offsets of a sorted cell column: cell c owns [offsets[c], offsets[c+1])."""
    return np.concatenate([[0], np.cumsum(np.bincount(cells, minlength=n_cells))])


def _fast(args, n_cells, threads=1):
    """weighted_scatter on a problem given, as scatter_reference takes it, by cells."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = args
    return weighted_scatter(feats, depth_w, mask_w, _offsets(cells, n_cells),
                            feat_idx, depth_idx, threads=threads)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 300), st.integers(1, 30))
def test_matches_reference_bitwise(seed, n_entries, n_cells):
    args = _random_problem(seed, n_entries, n_cells)
    assert_matches_reference(_fast(args, n_cells), args, n_cells)


def test_threaded_matches_sequential_bitwise():
    args = _random_problem(99, 5000, 64)
    seq = expand(_fast(args, 64, threads=1), 64)
    for threads in (2, 4, 7):
        par = expand(_fast(args, 64, threads=threads), 64)
        assert np.array_equal(seq.view(np.uint32), par.view(np.uint32))


def test_empty_entries():
    feats = np.ones((3, 4), dtype=np.float32)
    empty = np.empty(0, dtype=np.uint32)
    out = weighted_scatter(
        feats, np.ones(5, np.float32), np.ones(4, np.float32),
        np.zeros(11, np.uint32), empty, empty,
    )
    assert out[0].shape == (0,) and out[1].shape == (0, 3)
    assert np.array_equal(expand(out, 10), np.zeros((10, 3), np.float32))


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
        fast = _fast(args, n_cells, threads=threads)
    assert_matches_reference(fast, args, n_cells)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(100, 400), st.integers(1, 60),
    st.sampled_from([0.0, 0.5, 0.9]), st.integers(1, 16), st.sampled_from([1, 2, 3]),
)
def test_skewed_runs_are_bitwise(seed, hot_len, n_cells, zero_frac, chunk, threads):
    """One cell with hundreds of entries beside single-entry cells, as in the
    lift table (whose longest run is 400): the hot cell spans hundreds of
    ranks, every other cell only the first."""
    hot = seed % n_cells
    cells = np.concatenate(
        [np.arange(hot), np.full(hot_len, hot), np.arange(hot + 1, n_cells)]
    )
    feats, depth_w, mask_w, _, feat_idx, depth_idx = _mostly_zero_problem(
        seed, cells.size, n_cells, zero_frac
    )
    args = (feats, depth_w, mask_w, cells, feat_idx, depth_idx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scatter, "CHUNK_ENTRIES", chunk)
        fast = _fast(args, n_cells, threads=threads)
    assert_matches_reference(fast, args, n_cells)


@st.composite
def _offsets_problems(draw):
    """Offsets with runs of length 1 and of 100 or more among short and empty
    ones; then the thread count.  Around even cuts of the cells there may be
    empty cells, and one cut range may hold entries that all weigh zero, so
    the threads' split of the survivors meets gaps in the support."""
    counts = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=10, max_size=40))
    threads = draw(st.sampled_from([1, 2, 3]))
    n_cells = len(counts)
    edges = np.linspace(0, n_cells, threads + 1).astype(np.int64)
    edge_cells = {int(c) for e in edges for c in (e - 1, e) if 0 <= c < n_cells}
    if draw(st.booleans()):  # empty cells on both sides of every cut
        for c in edge_cells:
            counts[c] = 0
    inner = sorted(set(range(n_cells)) - edge_cells)
    one, long = draw(st.lists(st.sampled_from(inner), min_size=2, max_size=2, unique=True))
    counts[one], counts[long] = 1, draw(st.integers(100, 180))
    zero_range = draw(st.none() | st.integers(0, threads - 1))
    return np.array(counts), threads, edges, zero_range, draw(st.integers(0, 10_000))


@settings(max_examples=40, deadline=None)
@given(_offsets_problems(), st.sampled_from([1, 3, 8192]))
def test_offsets_walk_matches_reference_bitwise(problem, chunk):
    """The runs read from the offsets and the threads' split of the survivors
    give the per-entry reference's bits, on u32 record columns as a table
    holds them."""
    counts, threads, edges, zero_range, seed = problem
    n_cells = counts.size
    cells = np.repeat(np.arange(n_cells), counts)
    offsets = _offsets(cells, n_cells)
    feats, depth_w, mask_w, _, feat_idx, depth_idx = _mostly_zero_problem(
        seed, int(offsets[-1]), n_cells, 0.5
    )
    depth_w = np.append(depth_w, np.float32(0.0))
    if zero_range is not None:  # every entry of that range reads the zero depth
        depth_idx[offsets[edges[zero_range]]:offsets[edges[zero_range + 1]]] = depth_w.size - 1
    records = np.stack([feat_idx, depth_idx], axis=1).astype("<u4")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scatter, "CHUNK_ENTRIES", chunk)
        fast = weighted_scatter(feats, depth_w, mask_w, offsets.astype("<u4"),
                                records[:, 0], records[:, 1], threads=threads)
    args = (feats, depth_w, mask_w, cells, records[:, 0], records[:, 1])
    assert_matches_reference(fast, args, n_cells)


@pytest.fixture(scope="module")
def desk_lift():
    """Desk-scale scene with all-ones masks and its lift table."""
    bundle = generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())
    table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    masks = [np.ones_like(m) for m in bundle.masks]
    return bundle, masks, table


def test_desk_scale_dense_lift_is_sequential(desk_lift):
    """Every entry carries weight: the rank-major scatter equals one sequential
    np.add.at pass over the table in entry order, rounded to float32, bitwise."""
    bundle, masks, table = desk_lift
    feats = stack_camera_tensors(bundle.feats)
    depth_w = np.concatenate([d.ravel() for d in bundle.depths])
    mask_w = stack_camera_tensors(masks)[0]
    feat_idx, depth_idx = table.feat_idx, table.depth_idx
    w = depth_w[depth_idx].astype(np.float64) * mask_w[feat_idx].astype(np.float64)
    assert np.count_nonzero(w) > 0.8 * table.n_entries
    cells = table_cells(table)
    assert np.bincount(cells, minlength=table.n_cells).max() >= 100
    expected = np.zeros((table.n_cells, feats.shape[0]))
    for a in range(0, table.n_entries, 8192):  # in entry order, chunked for memory
        b = a + 8192
        np.add.at(expected, cells[a:b],
                  w[a:b, None] * feats[:, feat_idx[a:b]].T.astype(np.float64))
    got = weighted_scatter(feats, depth_w, mask_w, table.offsets, feat_idx, depth_idx)
    expected = expected.astype(np.float32)
    assert np.array_equal(expand(got, table.n_cells).view(np.uint32), expected.view(np.uint32))


def test_desk_scale_dense_lss_pool_threads_bitwise(desk_lift):
    bundle, masks, table = desk_lift
    seq = lss_pool(bundle.feats, bundle.depths, masks, table, threads=1)
    for threads in (2, 3):
        par = lss_pool(bundle.feats, bundle.depths, masks, table, threads=threads)
        assert np.array_equal(seq.view(np.uint32), par.view(np.uint32))


@pytest.mark.parametrize("threads", [1, 2])
def test_all_zero_weights_give_positive_zero(threads):
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(5, 500, 16)
    feats = -np.abs(feats)  # 0 * negative feature is -0.0
    depth_w[::2] = -0.0
    depth_w[1::2] = 0.0
    out = _fast((feats, depth_w, mask_w, cells, feat_idx, depth_idx), 16, threads=threads)
    assert out[0].size == 0  # no cell has an entry of nonzero weight
    out = expand(out, 16)
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
    offsets = _offsets(np.sort(rng.integers(0, n_cells, n_entries)), n_cells)
    feat_idx = rng.integers(0, pixels, n_entries)
    depth_idx = rng.integers(0, depth_w.size, n_entries)

    tracemalloc.start()
    try:
        out = weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unchunked = n_entries * channels * 12
    assert peak >= out[1].nbytes  # numpy's allocations are traced
    assert peak < unchunked / 8


def test_masked_desk_apply_allocates_less_than_one_grid():
    """Applying the lift table to a masked desk frame, front end excluded,
    allocates at its peak less than one (n_cells, C) float64 accumulator
    grid: the scatter's memory follows its support, not the grid."""
    bundle = generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())
    table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    frame = stack_frame(bundle.feats, bundle.depths, bundle.masks, table)
    grid_bytes = table.n_cells * bundle.spec.channels * 8
    tracemalloc.start()
    try:
        cells, sums = lss_apply(frame, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < cells.size < table.n_cells // 100  # a masked frame: a small support
    assert peak >= sums.nbytes  # numpy's allocations are traced
    assert peak < grid_bytes

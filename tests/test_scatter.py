import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_cells
from dualvt import scatter
from dualvt.errors import ShapeMismatch
from dualvt.geometry import BevGridSpec, make_height_samples
from dualvt.height_stream import ht_apply, precompute_ht_table
from dualvt.lift_stream import lss_apply, lss_pool, precompute_lss_table
from dualvt.nnops import WorkerPool
from dualvt.rng import Rng
from dualvt.sampling import DepthBinSpec
from dualvt.scatter import weighted_scatter
from dualvt.synth import generate_scene, random_scene_spec
from dualvt.tables import LSS_MAGIC, IndexTable, read_table, stack_frame, write_table


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


def _rank_edge_chunks(args, n_cells):
    """CHUNK_ENTRIES values that put chunk edges at rank edges of the one-thread
    walk, whose rank 0 holds a row for each of the n0 support cells: 1; n0, so
    a chunk ends exactly where rank 0 does; n0 - 1, so one ends inside rank 0;
    and n0 // 3, so rank 0 spans three chunks or more."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = args
    live = (np.asarray(depth_w)[depth_idx] != 0) & (np.asarray(mask_w)[feat_idx] != 0)
    n0 = np.unique(np.asarray(cells)[live]).size
    return sorted({1, max(n0, 1), max(n0 - 1, 1), max(n0 // 3, 1)})


def _fast(args, n_cells, threads=1):
    """weighted_scatter on a problem given, as scatter_reference takes it, by cells,
    on a `WorkerPool` of `threads`."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = args
    with WorkerPool(threads) as pool:
        return weighted_scatter(feats, depth_w, mask_w, _offsets(cells, n_cells),
                                feat_idx, depth_idx, workers=pool)


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
    ranks, every other cell only the first.  The drawn chunk size runs
    beside those that put chunk edges on and inside rank 0's end."""
    hot = seed % n_cells
    cells = np.concatenate(
        [np.arange(hot), np.full(hot_len, hot), np.arange(hot + 1, n_cells)]
    )
    feats, depth_w, mask_w, _, feat_idx, depth_idx = _mostly_zero_problem(
        seed, cells.size, n_cells, zero_frac
    )
    args = (feats, depth_w, mask_w, cells, feat_idx, depth_idx)
    for size in {chunk, *_rank_edge_chunks(args, n_cells)}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "CHUNK_ENTRIES", size)
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
    with pytest.MonkeyPatch.context() as mp, WorkerPool(threads) as pool:
        mp.setattr(scatter, "CHUNK_ENTRIES", chunk)
        fast = weighted_scatter(feats, depth_w, mask_w, offsets.astype("<u4"),
                                records[:, 0], records[:, 1], workers=pool)
    args = (feats, depth_w, mask_w, cells, records[:, 0], records[:, 1])
    assert_matches_reference(fast, args, n_cells)


@st.composite
def _tied_runs(draw):
    """Offsets whose support is ten or more runs of one length between two
    end runs of at most twice that length, with empty cells anywhere; then
    a seed.  The first run ends before half the entries and the last tied
    run starts after it, so the cut of the survivors into halves falls
    between two tied runs, as do most cuts into thirds and quarters."""
    tie = draw(st.integers(1, 6))
    ends = draw(st.lists(st.integers(1, 2 * tie), min_size=2, max_size=2))
    runs = [ends[0], *[tie] * draw(st.integers(10, 40)), ends[1]]
    counts = []
    for run in runs:
        counts += [0] * draw(st.integers(0, 2)) + [run]
    return np.array(counts), draw(st.integers(0, 10_000))


@settings(max_examples=30, deadline=None)
@given(_tied_runs(), st.integers(1, 5))
def test_tied_run_lengths_are_bitwise(problem, chunk):
    """Many runs of one length, a thread cut inside a block of them and ranks
    that span several chunks: threads 1 to 4 give the per-entry reference's
    bits, so no rank's prefix takes a run that has ended.  Rank 0 holds 12
    rows or more, so among the rank-edge chunk sizes (one entry a chunk
    included) it spans three chunks or more."""
    counts, seed = problem
    n_cells = counts.size
    cells = np.repeat(np.arange(n_cells), counts)
    feats, depth_w, mask_w, _, feat_idx, depth_idx = _mostly_zero_problem(
        seed, cells.size, n_cells, 0.0
    )
    args = (feats, depth_w, mask_w, cells, feat_idx, depth_idx)
    for size in {chunk, *_rank_edge_chunks(args, n_cells)}:
        for threads in (1, 2, 3, 4):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scatter, "CHUNK_ENTRIES", size)
                fast = _fast(args, n_cells, threads=threads)
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
    feats, depth_w, mask_w = stack_frame(bundle.feats, bundle.depths, masks, table)
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


def test_desk_scale_dense_height_is_sequential(desk_lift):
    """The height table, whose runs are at most cameras × heights long, in the
    same dense frame: the rank-major scatter at threads 1 and 2 equals one
    sequential np.add.at pass over the table in entry order, bitwise."""
    bundle, masks, _ = desk_lift
    table = precompute_ht_table(bundle.rigs, bundle.grid, make_height_samples("multires"),
                                bundle.dspec)
    feats, depth_w, mask_w = stack_frame(bundle.feats, bundle.depths, masks, table)
    feat_idx, depth_idx = table.feat_idx, table.depth_idx
    w = depth_w[depth_idx].astype(np.float64) * mask_w[feat_idx].astype(np.float64)
    assert np.count_nonzero(w) > 0.8 * table.n_entries
    cells = table_cells(table)
    assert np.bincount(cells, minlength=table.n_cells).max() >= 13  # ranks past one height
    expected = np.zeros((table.n_cells, feats.shape[0]))
    for a in range(0, table.n_entries, 8192):  # in entry order, chunked for memory
        b = a + 8192
        np.add.at(expected, cells[a:b],
                  w[a:b, None] * feats[:, feat_idx[a:b]].T.astype(np.float64))
    expected = expected.astype(np.float32)
    for threads in (1, 2):
        with WorkerPool(threads) as pool:
            got = weighted_scatter(feats, depth_w, mask_w, table.offsets, feat_idx, depth_idx,
                                   workers=pool)
        assert np.array_equal(expand(got, table.n_cells).view(np.uint32),
                              expected.view(np.uint32))


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


@pytest.mark.parametrize("threads", [1, 2])
def test_negative_zero_features_sum_to_positive_zero(threads):
    """Survivors whose features are all -0.0 add ``+0.0 + -0.0``: the
    accumulators start at +0.0, so every support row is +0.0, not -0.0."""
    args = _random_problem(6, 500, 16)
    args[0][:] = -0.0
    support = _fast(args, 16, threads=threads)
    assert support[0].size == 16 and not np.signbit(support[1]).any()
    assert_matches_reference(support, args, 16)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_each_cell_adds_its_entries_in_entry_order(threads, masked):
    """Float64 addition does not associate: entries of features 1, 2**60 and
    -2**60, in that order, sum to 0, and in reverse order to 1.  Runs of one
    to four such entries, so of several ranks, each sum in entry order, as
    the oracle does, on the dense path and on the masked one (a fourth
    pixel, masked out)."""
    runs = [[0, 1, 2], [1, 2, 0], [0], [0, 1, 2, 0], [2, 1, 0], [1, 0, 2]] * 4
    feats = np.array([[1.0, 2.0**60, -2.0**60, 5.0]], dtype=np.float32)
    mask_w = np.array([1.0, 1.0, 1.0, 0.0 if masked else 1.0], dtype=np.float32)
    feat_idx = np.concatenate(runs)
    cells = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
    args = (feats, np.ones(1, dtype=np.float32), mask_w, cells, feat_idx,
            np.zeros(feat_idx.size, dtype=np.intp))
    support = _fast(args, len(runs), threads=threads)
    assert support[1][:6, 0].tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    assert_matches_reference(support, args, len(runs))


def test_threads_split_the_rows(monkeypatch):
    """At n threads a problem with enough support cells is accumulated in n
    row ranges, which together cover every support row once."""
    seen, accumulate = [], scatter._accumulate

    def recording(out, *args):
        seen.append(len(out))
        return accumulate(out, *args)

    monkeypatch.setattr(scatter, "_accumulate", recording)
    for threads in (1, 2, 3):
        seen.clear()
        cells, _ = _fast(_random_problem(99, 5000, 64), 64, threads=threads)
        assert len(seen) == threads and sum(seen) == cells.size


@pytest.mark.parametrize("workers", [None, 2])
def test_rows_accumulate_under_the_callers_errstate(workers):
    """The caller's ``np.errstate(over="raise")`` reaches every range of rows:
    sums past the float32 range raise `FloatingPointError` where the rows are
    rounded, on the calling thread and on two workers alike."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(99, 5000, 64)
    feats[:], depth_w[:], mask_w[:] = 3e38, 1.0, 1.0
    offsets = _offsets(cells, 64)
    with WorkerPool(2) if workers else contextlib.nullcontext() as pool:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx, workers=pool)


@pytest.mark.parametrize("threads", [1, 2])
def test_dense_scatter_memory_is_bounded(threads):
    """Peak allocation of a dense scatter stays far below one (N, C) gather
    plus its float64 product (N * C * 12 bytes), with every worker's chunk
    buffers live at once."""
    n_entries, channels, pixels, n_cells = 400_000, 64, 4224, 16_384
    rng = np.random.default_rng(0)
    feats = rng.uniform(-1.0, 1.0, (channels, pixels)).astype(np.float32)
    depth_w = rng.uniform(0.5, 1.0, pixels * 8).astype(np.float32)
    mask_w = np.ones(pixels, dtype=np.float32)
    offsets = _offsets(np.sort(rng.integers(0, n_cells, n_entries)), n_cells)
    feat_idx = rng.integers(0, pixels, n_entries)
    depth_idx = rng.integers(0, depth_w.size, n_entries)

    with WorkerPool(threads) as pool:
        tracemalloc.start()
        try:
            out = weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx,
                                   workers=pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    unchunked = n_entries * channels * 12
    assert peak >= out[1].nbytes  # numpy's allocations are traced
    assert peak < unchunked / 8


def test_dense_call_refuses_a_feature_index_past_the_pixels():
    """More survivors than pixels, so the float64 product path, whose row
    take clips: an index one past the last pixel still raises, from the
    checked read of the survivors' masks."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(3, 500, 16)
    depth_w[:] = 0.5
    mask_w[:] = 1.0
    feat_idx[7] = mask_w.size
    with pytest.raises(IndexError):
        _fast((feats, depth_w, mask_w, cells, feat_idx, depth_idx), 16)


@pytest.mark.parametrize("pixels", [39, 41])
def test_features_must_have_the_masks_pixel_count(pixels):
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = _random_problem(3, 500, 16)
    other = Rng(4).uniform((feats.shape[0], pixels), -1.0, 1.0)
    with pytest.raises(ShapeMismatch, match="features have"):
        _fast((other, depth_w, mask_w, cells, feat_idx, depth_idx), 16)


@pytest.mark.parametrize("masked", [True, False])
def test_product_rows_are_float64_only_past_the_pixel_count(desk_masked, monkeypatch, masked):
    """A masked desk apply, whose survivors are fewer than its feature pixels,
    gathers float32 rows; a `disable-M` one upcasts them to float64 once."""
    bundle = desk_masked
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    masks = bundle.masks if masked else [np.ones_like(m) for m in bundle.masks]
    frame = stack_frame(bundle.feats, bundle.depths, masks, lss)
    seen, accumulate = [], scatter._accumulate

    def recording(out, rows, *args):
        seen.append(rows.dtype)
        return accumulate(out, rows, *args)

    monkeypatch.setattr(scatter, "_accumulate", recording)
    cells, _ = lss_apply(frame, lss)
    pixels = frame[0].shape[1]
    assert (cells.size < pixels) if masked else (cells.size > pixels)
    assert seen == [np.dtype(np.float32 if masked else np.float64)]


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


def survivors_oracle(depth_w, mask_w, offsets, feat_idx, depth_idx):
    """`scatter._survivors` without a voxel index: every entry's mask bit read
    through its feature index, in entry order."""
    keep = np.flatnonzero((mask_w != 0)[feat_idx])
    keep = keep[depth_w[depth_idx[keep]] != 0]
    fi = np.asarray(feat_idx)[keep].astype(np.intp)
    w = depth_w[depth_idx[keep]].astype(np.float64) * mask_w[fi].astype(np.float64)
    entry_cells = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))[keep]
    cells, first, count = np.unique(entry_cells, return_index=True, return_counts=True)
    return cells, w, fi, first, first + count


def pixel_of(voxels, n_bins, camera_pixels):
    """Each voxel's feature pixel, as `tables.IndexTable.feat_idx` derives it."""
    voxels = np.asarray(voxels, dtype=np.int64)
    return (voxels // (n_bins * camera_pixels) * camera_pixels
            + voxels % camera_pixels).astype("<u4")


def raw_table(offsets, depth_idx, n_cams, n_bins, camera_pixels):
    """An `IndexTable` over one row of cells from raw columns: `n_cams` cameras
    of one row of `camera_pixels` pixels and `n_bins` depth bins."""
    return IndexTable(magic=LSS_MAGIC, ny=1, nx=offsets.size - 1, n_cams=n_cams, feat_h=1,
                      feat_w=camera_pixels, n_bins=n_bins, offsets=np.asarray(offsets, "<u4"),
                      depth_idx=np.asarray(depth_idx, "<u4"), heights=(),
                      geometry_sha256=bytes(32))


def assert_survivors_match_oracle(problem, threads):
    """The table's voxel index is the entries stably sorted by voxel;
    `masked_survivors` walks it to the positions of the entries of nonzero
    depth and mask; `_survivors` through it, and without it, equals the
    oracle, and `weighted_scatter` through it at `threads` the per-entry
    reference."""
    feats, depth_w, mask_w, cells, feat_idx, depth_idx, camera_pixels = problem
    n_cells = int(cells.max()) + 1 if cells.size else 1
    offsets = _offsets(cells, n_cells).astype("<u4")
    table = raw_table(offsets, depth_idx, mask_w.size // camera_pixels,
                      depth_w.size // mask_w.size, camera_pixels)
    keys = table.voxel_index
    shift = max(depth_idx.size - 1, 0).bit_length()
    assert keys.dtype == "<u8" and np.array_equal(keys >> shift, np.sort(depth_idx))
    assert np.array_equal(keys & ((1 << shift) - 1), np.argsort(depth_idx, kind="stable"))
    live = np.flatnonzero((mask_w != 0)[feat_idx] & (depth_w[depth_idx] != 0))
    assert np.array_equal(table.masked_survivors(depth_w, mask_w), live)
    want = survivors_oracle(depth_w, mask_w, offsets, feat_idx, depth_idx)
    for masked in (table.masked_survivors, None):
        got = scatter._survivors(depth_w, mask_w, offsets, feat_idx, depth_idx, masked)
        assert [a.dtype for a in got] == [np.intp, np.float64, np.intp, np.intp, np.intp]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    with WorkerPool(threads) as pool:
        fast = weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx,
                                workers=pool, masked_survivors=table.masked_survivors)
    assert_matches_reference(fast, problem[:6], n_cells)


# float32 mask and depth values: signed zeros, the least subnormal, a larger
# subnormal and normal numbers
_WEIGHTS = [0.0, -0.0, 1e-45, -1e-45, 1e-40, 0.5, 1.0]


@st.composite
def _survivor_problems(draw):
    """A problem on 1-3 cameras of a few pixels and depth bins, whose entries'
    pixels are their voxels' (`pixel_of`): some voxels own no entry, others
    repeat within a cell; masks all zero, all one or drawn from `_WEIGHTS`."""
    n_cams, pixels, n_bins = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(
        st.integers(1, 4))
    n_voxels, n = n_cams * n_bins * pixels, draw(st.integers(0, 60))
    used = draw(st.lists(st.integers(0, n_voxels - 1), min_size=1, max_size=n_voxels))
    depth_idx = np.array(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)),
                         dtype="<u4")
    cells = np.sort(np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)),
                             dtype=np.int64))
    fill = draw(st.sampled_from([0.0, 1.0, None]))
    n_pixels = n_cams * pixels
    mask = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=n_pixels, max_size=n_pixels))
    mask_w = np.array(mask if fill is None else [fill] * n_pixels, dtype=np.float32)
    depth = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=n_voxels, max_size=n_voxels))
    depth_w = np.array(depth, dtype=np.float32)
    feats = Rng(draw(st.integers(0, 10_000))).uniform((3, n_pixels), -10.0, 10.0)
    return (feats, depth_w, mask_w, cells, pixel_of(depth_idx, n_bins, pixels), depth_idx,
            pixels)


@settings(max_examples=60, deadline=None)
@given(_survivor_problems(), st.integers(1, 4))
def test_survivors_match_index_free_oracle(problem, threads):
    assert_survivors_match_oracle(problem, threads)


def _edge_problem(cells, feat_idx, mask, n_pixels=5):
    """One camera of `n_pixels` pixels and three depth bins, of depth 0.5, 0.0
    and 1e-45 at every pixel; entry k reads bin k % 3 at pixel feat_idx[k]."""
    mask_w = np.full(n_pixels, mask, dtype=np.float32) if np.isscalar(mask) else mask
    feats = Rng(3).uniform((2, n_pixels), -10.0, 10.0)
    depth_w = np.repeat(np.array([0.5, 0.0, 1e-45], dtype=np.float32), n_pixels)
    feat_idx = np.array(feat_idx, dtype="<u4")
    depth_idx = (np.arange(feat_idx.size, dtype="<u4") % 3) * n_pixels + feat_idx
    return (feats, depth_w, mask_w, np.array(cells, dtype=np.int64), feat_idx, depth_idx,
            n_pixels)


@pytest.mark.parametrize("problem", [
    _edge_problem([], [], 1.0),  # an empty table
    _edge_problem([0, 0, 1, 2], [4, 0, 4, 4], 1.0),  # pixels 1-3 own no entry
    _edge_problem([1, 1, 1, 1, 1, 1], [2, 2, 0, 2, 2, 2], 1.0),  # pixel 2 repeats in a cell
    _edge_problem([0, 1, 2, 3], [0, 1, 2, 3], 0.0),  # all zero
    _edge_problem([0, 1, 2, 3], [0, 1, 2, 3], -0.0),  # all negative zero
    _edge_problem([0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 0],
                  np.array([-0.0, 1e-45, 0.0, -1e-40, 1.0], dtype=np.float32)),
], ids=["empty", "pixels-without-entries", "pixel-repeated", "mask-zero", "mask-neg-zero",
        "mask-signed-zero-subnormal"])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_survivors_edge_cases_match_oracle(problem, threads):
    assert_survivors_match_oracle(problem, threads)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["0", "1", "n_cells", "n_cells + 1"]),
       st.integers(0, 10_000))
def test_run_directions_agree(n_cells, count, seed):
    """`_survivors` searches the survivors into the offsets while they are
    fewer than the offsets, else the offsets into the survivors; both give
    the same (cells, first, end), also on either side of that switch."""
    rng = Rng(seed)
    lengths = rng.integers((n_cells,), 5)  # some cells own no entry
    lengths[-1] += max(n_cells + 1 - int(lengths.sum()), 0)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype("<u4")
    n = {"0": 0, "1": 1, "n_cells": n_cells, "n_cells + 1": n_cells + 1}[count]
    keep = np.sort(np.argsort(rng.uniform((int(offsets[-1]),)))[:n]).astype("<u4")
    by_cell = scatter._runs_by_cell(keep, offsets)
    by_survivor = scatter._runs_by_survivor(keep, offsets)
    for a, b in zip(by_cell, by_survivor):
        assert a.dtype == b.dtype == np.intp
        assert np.array_equal(a, b)
    assert by_cell[0].size == np.unique(np.searchsorted(offsets, keep, side="right")).size


@pytest.mark.parametrize("n_voxels,key_bits", [(2**15, 32), (2**15 + 1, 33)])
def test_voxel_index_at_the_key_width_boundary(n_voxels, key_bits):
    """2**16 + 1 entries take 17 position bits; 2**15 voxels take 15 voxel bits,
    which fill 32 key bits, and 2**15 + 1 take 16.  Either way the u64 keys
    hold the voxels sorted and their positions as a stable argsort, the
    largest voxel's last key included, and the build holds nothing of the
    entries' size but the keys (and one chunk of positions)."""
    n = 2**16 + 1
    depth_idx = Rng(key_bits).integers((n,), n_voxels).astype("<u4")
    depth_idx[[0, -1]] = n_voxels - 1  # the largest voxel, at the first and last position
    assert (n_voxels - 1).bit_length() + (n - 1).bit_length() == key_bits
    table = raw_table(np.array([0, n]), depth_idx, 1, 1, n_voxels)
    tracemalloc.start()
    try:
        keys = table.voxel_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.dtype == "<u8" and peak < 8 * n + 16 * scatter.CHUNK_ENTRIES
    assert np.array_equal(keys >> 17, np.sort(depth_idx))
    assert np.array_equal(keys & (2**17 - 1), np.argsort(depth_idx, kind="stable"))


def test_tables_are_built_written_and_read_without_voxel_index(small_bundle, tmp_path,
                                                                monkeypatch):
    """Building, writing and reading a table never builds its voxel index; the
    index of a table read back equals the index of the table built in memory."""
    bundle, heights = small_bundle

    def refuse(table):
        raise AssertionError("voxel index built")

    with monkeypatch.context() as mp:
        mp.setattr(IndexTable, "voxel_index", property(refuse))
        ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
        lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
        read = []
        for table in (ht, lss):
            write_table(table, tmp_path / "t")
            read.append(read_table(tmp_path / "t", table.magic))
    for built, back in zip((ht, lss), read):
        assert "voxel_index" not in vars(built) and "voxel_index" not in vars(back)
        assert built.n_entries > 0
        a, b = built.voxel_index, back.voxel_index
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert built.feat_h * built.feat_w == back.feat_h * back.feat_w == 24 * 10
        assert built.voxel_index is built.voxel_index  # kept on the table


@pytest.fixture(scope="module")
def desk_masked():
    """Desk-scale seed-1 scene, with its masks."""
    return generate_scene(random_scene_spec(1), BevGridSpec(), DepthBinSpec())


def traced_peak(fn):
    """fn()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_voxel_index_is_built_on_the_second_masked_frame(desk_masked):
    """A fresh table's first masked desk frame tests its masked-in entries and
    builds no voxel index.  The second builds it, in place: its traced peak
    stays below one (n_cells, C) float64 grid.  The third allocates less than
    the 8 bytes per entry the index's keys hold: the index is built once per
    table, not per frame.  All three give the same support and sums."""
    bundle = desk_masked
    fresh = (precompute_ht_table(bundle.rigs, bundle.grid, make_height_samples("multires"),
                                 bundle.dspec),
             precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec))
    frame = stack_frame(bundle.feats, bundle.depths, bundle.masks, *fresh)
    grid_bytes = fresh[0].n_cells * bundle.spec.channels * 8
    for apply, table in zip((ht_apply, lss_apply), fresh):
        first = apply(frame, table)
        assert "voxel_index" not in vars(table)
        second, build_peak = traced_peak(lambda: apply(frame, table))
        index = vars(table)["voxel_index"]
        third, peak = traced_peak(lambda: apply(frame, table))
        assert table.voxel_index is index
        assert index.nbytes == 8 * table.n_entries < build_peak < grid_bytes
        assert third[1].nbytes <= peak < 8 * table.n_entries  # numpy's allocations are traced
        for other in (second, third):
            assert all(np.array_equal(a, b) for a, b in zip(first, other))


def test_dense_apply_builds_no_voxel_index(desk_masked):
    """A frame whose every mask is nonzero (`disable-M`) tests its entries in
    entry order: it leaves no voxel index on a fresh table, however often."""
    bundle = desk_masked
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    ones = [np.ones_like(m) for m in bundle.masks]
    frame = stack_frame(bundle.feats, bundle.depths, ones, lss)
    for _ in range(2):
        cells, _ = lss_apply(frame, lss)
    assert cells.size > lss.n_cells // 2
    assert "voxel_index" not in vars(lss)


def test_stacked_features_are_pixel_major(small_bundle):
    """`stack_frame` returns the features as (C, P), a view of the frame's
    (P, C) rows, so the scatter's row-major features are the frame's own
    memory, not a copy per apply; pixel p of camera k is column k * P + p."""
    bundle, _ = small_bundle
    table = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    feats, _, _ = stack_frame(bundle.feats, bundle.depths, bundle.masks, table)
    assert np.shares_memory(np.ascontiguousarray(feats.T), bundle.feats)
    assert np.array_equal(feats, np.concatenate([f.reshape(-1, f.shape[-1]).T
                                                 for f in bundle.feats], axis=1))

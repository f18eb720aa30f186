"""Deterministic weighted scatter-sum shared by both view-transform streams.

Accumulation contract:

- Every entry contributes ``w * feature`` to its BEV cell, where
  ``w = float64(depth) * float64(mask)``.  Contributions go into float64
  accumulators that start at +0.0, and each cell receives its own
  contributions strictly in entry order: cell c owns the entries
  ``[offsets[c], offsets[c+1])``.  A per-entry loop over an expanded
  cell column (the oracle in ``tests/test_scatter.py``) gives the same
  bits.
- Entries whose weight is zero are dropped before the feature gather.
  With finite features their contribution is ±0.0, and ``x + ±0.0 == x``
  for every finite nonzero ``x`` and ``+0.0 + ±0.0 == +0.0``; an
  accumulator that starts at +0.0 never becomes -0.0, so skipping keeps
  every bit.  Finite inputs are therefore a precondition (``0 * inf`` is
  NaN); the front ends reject others (``tables.check_camera_tensors``).
  A float64 product of finite float32 values is zero only when a factor
  is, so the survivors are found from the mask, the sparse factor,
  first.  `pixel_index` groups a table's entry positions by feature
  pixel, with a count per pixel; the positions of the pixels whose mask
  is nonzero, sorted, are the entries with a nonzero mask in entry
  order, and only their depth is read.  A masked frame so reads the
  entries of its masked-in pixels, not every entry.  The index is 4
  bytes per entry; `tables.IndexTable.pixel_index` builds it on a
  table's first apply and keeps it.
- The result is the *support*: the ascending cells that have a surviving
  entry, and their sums rounded once to float32, as (n, C) rows.  Every
  other cell's sum is +0.0, and float64 accumulators exist only for the
  support's rows.  A support cell's sum may still round to ±0.0.
- Surviving entries are applied rank by rank: first every cell's first
  survivor, then every cell's second, and so on.  Each worker orders its
  rows by descending run length, ties in cell order, so the runs that
  reach rank r are its first n_r rows.  It walks its survivors
  rank-major, ``CHUNK_ENTRIES`` at a time: a chunk's positions follow
  from the ranks' row counts, one gather and one float64 product serve
  the whole chunk, and each rank's piece of it is one in-place add
  ``acc[a:b] += prod[piece]`` into contiguous float64 rows.  Each cell
  adds its survivors in entry order, bit for bit as one sequential pass,
  and each row is rounded to float32 once, as the worker writes it out.
  One ``searchsorted`` gives every cell's run, so no per-entry cell
  column exists: of the survivors' positions into the offsets while the
  survivors are fewer (a masked frame), else of the offsets into them.
- A chunk's float32 feature gather and float64 product take
  ``CHUNK_ENTRIES * C * 12`` bytes.  Each worker writes its products into
  one buffer that it reuses for every chunk, so no two chunks' products
  are alive at once; it also holds a float64 accumulator for its rows.
- The survivors are found on the calling thread.  Threads then split the
  support's rows into ranges of about equal survivors: runs are
  disjoint, so no value depends on the split.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

# survivors per gather and product; at 64 channels a chunk's float32 gather
# and float64 product take 8192 * 64 * 12 bytes = 6.3 MB
CHUNK_ENTRIES = 8192


def weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx, threads: int = 1,
                     by_pixel=None):
    """Accumulate depth_w * mask_w * feature into BEV cells.

    feats:    (C, P) float32 feature pixels; a view of (P, C) memory is not copied
    depth_w:  (Q,) float32 flattened depth volumes
    mask_w:   (P,) float32 flattened masks
    offsets:  (n_cells + 1,) cell c owns entries [offsets[c], offsets[c+1])
    feat_idx: (N,) index into the P axis
    depth_idx:(N,) index into depth_w
    by_pixel: `pixel_index(feat_idx, P)`, built here when not given
    All inputs must be finite (see the module docstring).  Returns the support:
    the ascending (n,) intp cells with an entry of nonzero weight, (n, C) float32 sums.
    """
    if by_pixel is None:
        by_pixel = pixel_index(feat_idx, mask_w.size)
    cells, w, fi, first, end = _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx,
                                          by_pixel)
    out = np.empty((cells.size, feats.shape[0]), dtype=np.float32)
    feats_t = np.ascontiguousarray(feats.T)  # (P, C), row gathers are cheap
    # split the rows, one per support cell, into ranges of about equal survivors
    cuts = np.searchsorted(first, np.linspace(0, w.size, max(threads, 1) + 1)[1:-1])
    jobs = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, cells.size]) if a < b]
    with ThreadPoolExecutor(len(jobs)) if len(jobs) > 1 else nullcontext() as pool:
        list((pool.map if pool else map)(
            lambda j: _accumulate(out[j], feats_t, w, fi, first[j], end[j]), jobs))
    return cells, out


def pixel_index(feat_idx, n_pixels):
    """The entries grouped by feature pixel: (positions, counts), where pixel p
    owns the next counts[p] u32 positions, ascending, after those of pixels < p.

    One in-place sort of the unique keys ``(pixel << bits(N - 1)) | position``,
    so any sort algorithm gives the same bytes; the positions are the keys'
    low bits.  The keys are u32 when pixel and position bits fit in 32 (both
    desk tables), else u64.  Needs N < 2**32, which tables keep.  Memory: 4
    bytes per entry kept; u64 keys take 8 more per entry while they live.
    """
    n = feat_idx.size
    shift = max(n - 1, 0).bit_length()
    key = np.dtype("<u4" if int(n_pixels - 1).bit_length() + shift <= 32 else "<u8")
    keys = feat_idx.astype(key)
    keys <<= key.type(shift)
    keys |= np.arange(n, dtype=key)
    keys.sort()
    # pixel p's first key is >= p << shift; pixel 0 starts at 0 and the last
    # pixel ends at n, so no boundary past the largest pixel is computed
    starts = np.searchsorted(keys, np.arange(1, n_pixels, dtype=key) << key.type(shift))
    keys &= key.type((1 << shift) - 1)
    return keys.astype("<u4", copy=False), np.diff(starts, prepend=0, append=n)


def _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx, by_pixel):
    """The support, the survivors' weights and feature indices, and each
    support cell's run of survivors [first, end)."""
    pos, counts = by_pixel
    # the masked-in pixels' entries in ascending order, so runs keep entry order;
    # the positions are unique, so any sort gives the same array
    keep = np.sort(pos[np.repeat(mask_w != 0, counts)])
    d = depth_w.take(depth_idx[keep])
    live = d != 0
    keep, d = keep[live], d[live]
    fi = feat_idx[keep].astype(np.intp)
    w = d.astype(np.float64) * mask_w.take(fi)
    # one binary search per survivor or per offset, whichever are fewer
    runs = _runs_by_survivor if keep.size < offsets.size else _runs_by_cell
    cells, first, end = runs(keep, offsets)
    return cells, w, fi, first, end


def _runs_by_cell(keep, offsets):
    """The cells that own a survivor at ascending entry positions `keep`,
    and each one's run of survivors [first, end): one search per offset."""
    # cell c's survivors are survivors bounds[c] to bounds[c + 1] - 1
    bounds = np.searchsorted(keep, offsets)
    cells = np.flatnonzero(bounds[1:] > bounds[:-1])
    return cells, bounds[cells], bounds[cells + 1]


def _runs_by_survivor(keep, offsets):
    """`_runs_by_cell`'s result from one search per survivor: each survivor's
    cell, and a run starting wherever the cell changes."""
    cell = np.searchsorted(offsets, keep, side="right") - 1
    bounds = np.flatnonzero(np.diff(cell, prepend=-1, append=-1))  # 0, each change, n
    return cell[bounds[:-1]], bounds[:-1], bounds[1:]


def _accumulate(out, feats_t, w, fi, first, end):
    """Sum each row's run of survivors [first, end), rank by rank, into its row of out."""
    neg_len = first - end  # minus each run's length
    order = np.argsort(neg_len, kind="stable")  # longest run first, ties in row order
    first, neg_len = first[order], neg_len[order]
    # rank r covers rows [0, n_r), the runs longer than r; walked rank-major,
    # its entries are the walk's [base[r], base[r + 1])
    n_r = np.searchsorted(neg_len, -np.arange(-neg_len[0]))
    base = np.concatenate([[0], np.cumsum(n_r)])
    bounds = base.tolist()
    acc = np.zeros(out.shape, dtype=np.float64)
    prod = np.empty((min(CHUNK_ENTRIES, bounds[-1]), out.shape[1]), dtype=np.float64)
    for s in range(0, bounds[-1], CHUNK_ENTRIES):
        e = min(s + CHUNK_ENTRIES, bounds[-1])
        at = np.arange(s, e)
        rank = np.searchsorted(base, at, side="right") - 1
        pos = first[at - base[rank]] + rank
        # float32 gather upcasts exactly: each add is the float64
        # reference's acc + w * feature, bit for bit
        np.multiply(w[pos, None], feats_t[fi[pos]], out=prod[:e - s])
        for r in range(int(rank[0]), int(rank[-1]) + 1):  # one add per rank in the chunk
            a, b = max(bounds[r], s), min(bounds[r + 1], e)
            acc[a - bounds[r]:b - bounds[r]] += prod[a - s:b - s]
    out[order] = acc  # one float32 rounding per row


def support_grid(cells: np.ndarray, sums: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """A support as the (C, ny, nx) float32 grid, +0.0 off it: a channel-major view
    of cell-major memory, strides (4, nx*C*4, C*4), each cell's channels adjacent."""
    grid = np.zeros((ny * nx, sums.shape[1]), dtype=np.float32)
    grid[cells] = sums
    return grid.T.reshape(sums.shape[1], ny, nx)

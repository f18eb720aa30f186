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
  NaN); the front ends reject others (``tables.check_finite``).
  A float64 product of finite float32 values is zero only when a factor
  is, so a frame with a zero mask finds its survivors from the mask, the
  sparse factor, first: through the table's voxel index (`voxel_index`,
  its entries grouped by voxel), it takes the voxels of the pixels whose
  mask is nonzero, keeps those whose depth is nonzero, and gathers and
  sorts the positions of their entries, which are the survivors.  So a
  masked frame reads its survivors, not its masked-in entries.  A frame
  whose every mask is nonzero reads the depth of every entry in entry
  order, and needs no index.  A table builds its index on its second
  frame with a zero mask (`tables.IndexTable.reused_voxel_index`) and
  keeps it, 8 bytes per entry at the desk scale; its first such frame
  tests its masked-in entries in entry order, which costs about what
  the index's sort does.
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
- A chunk's product is ``w * float64(feature)``, whichever way the rows
  are gathered.  While the survivors are at most the feature pixels (a
  masked frame), a chunk gathers float32 rows and multiplies them into
  float64, ``CHUNK_ENTRIES * C * 12`` bytes.  When they outnumber the
  pixels (a dense frame), the (P, C) features are upcast to float64 once,
  exactly, and each chunk's rows are taken straight into its product
  buffer and scaled there, ``CHUNK_ENTRIES * C * 8`` bytes.  That take
  clips its indices rather than checking them, since a checked ``take``
  into ``out=`` goes through a temporary copy; `_survivors` has already
  read every survivor's mask through a checked ``take``, and the features
  must have the masks' pixel count.  Each worker writes its products into
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

from .errors import ShapeMismatch

# survivors per gather and product; at 64 channels a chunk's float32 gather
# and float64 product take 8192 * 64 * 12 bytes = 6.3 MB
CHUNK_ENTRIES = 8192


def weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx, threads: int = 1,
                     by_voxel=None):
    """Accumulate depth_w * mask_w * feature into BEV cells.

    feats:    (C, P) float32 feature pixels; a view of (P, C) memory is not copied
    depth_w:  (Q,) float32 flattened depth volumes
    mask_w:   (P,) float32 flattened masks
    offsets:  (n_cells + 1,) cell c owns entries [offsets[c], offsets[c+1])
    feat_idx: (N,) index into the P axis
    depth_idx:(N,) index into depth_w
    by_voxel: a function giving (`voxel_index(depth_idx, Q)`, pixels per camera)
              or None, called only on a frame with a zero mask; without an
              index such a frame tests its masked-in entries in entry order
    All inputs must be finite (see the module docstring), and feats must have
    mask_w's pixel count.  Returns the support: the ascending (n,) intp cells
    with an entry of nonzero weight, (n, C) float32 sums.
    """
    if feats.shape[1] != mask_w.size:
        raise ShapeMismatch(f"features have {feats.shape[1]} pixels, masks {mask_w.size}")
    cells, w, fi, first, end = _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx,
                                          by_voxel)
    out = np.empty((cells.size, feats.shape[0]), dtype=np.float32)
    # (P, C) rows, so row gathers are cheap; float64 once more survivors than pixels read them
    rows = np.ascontiguousarray(feats.T, dtype=np.float64 if w.size > feats.shape[1] else None)
    # split the rows, one per support cell, into ranges of about equal survivors
    cuts = np.searchsorted(first, np.linspace(0, w.size, max(threads, 1) + 1)[1:-1])
    jobs = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, cells.size]) if a < b]
    with ThreadPoolExecutor(len(jobs)) if len(jobs) > 1 else nullcontext() as pool:
        list((pool.map if pool else map)(
            lambda j: _accumulate(out[j], rows, w, fi, first[j], end[j]), jobs))
    return cells, out


def voxel_index(depth_idx, n_voxels):
    """The entries grouped by voxel: the sorted unique keys
    ``(voxel << bits(N - 1)) | position``, so any sort algorithm gives the
    same bytes, and a voxel's positions, ascending, are its keys' low bits.

    The keys are u32 when voxel and position bits fit in 32, else u64 (both
    desk tables).  They are built in place: one shifted copy of the voxels,
    the positions ORed in `CHUNK_ENTRIES` at a time, one in-place sort.
    Needs N < 2**32, which tables keep.  Memory: the keys, 4 or 8 bytes per entry.
    """
    n = depth_idx.size
    shift = max(n - 1, 0).bit_length()
    key = np.dtype("<u4" if max(n_voxels - 1, 0).bit_length() + shift <= 32 else "<u8")
    keys = np.left_shift(depth_idx, shift, dtype=key)
    for s in range(0, n, CHUNK_ENTRIES):
        keys[s:s + CHUNK_ENTRIES] |= np.arange(s, min(s + CHUNK_ENTRIES, n), dtype=key)
    keys.sort()
    return keys


def _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx, by_voxel):
    """The support, the survivors' weights and feature indices, and each
    support cell's run of survivors [first, end)."""
    if mask_w.all():  # most entries of a dense frame survive: test each in entry order
        d = depth_w.take(depth_idx)
        keep = np.flatnonzero(d != 0)
        d = d[keep]
    else:
        index = by_voxel() if by_voxel else None
        # the masked-in entries in entry order, or those whose voxel has a nonzero depth
        keep = (np.flatnonzero((mask_w != 0).take(feat_idx)) if index is None
                else _survivors_by_voxel(depth_w, mask_w, *index))
        d = depth_w.take(depth_idx[keep])
        live = d != 0
        keep, d = keep[live], d[live]
    fi = feat_idx[keep].astype(np.intp)
    w = d.astype(np.float64) * mask_w.take(fi)
    # one binary search per survivor or per offset, whichever are fewer
    runs = _runs_by_survivor if keep.size < offsets.size else _runs_by_cell
    cells, first, end = runs(keep, offsets)
    return cells, w, fi, first, end


def _survivors_by_voxel(depth_w, mask_w, keys, camera_pixels):
    """The ascending positions of the entries whose voxel has a nonzero depth
    and lies on a pixel of nonzero mask: those voxels' runs of keys."""
    n_bins = depth_w.size // mask_w.size
    # pixel i of camera c, feature pixel c * P + i, has voxels (c * n_bins + bin) * P + i
    pixels = mask_w.nonzero()[0]
    first_bin = pixels + pixels // camera_pixels * ((n_bins - 1) * camera_pixels)
    voxels = (first_bin[:, None] + np.arange(0, n_bins * camera_pixels, camera_pixels)).ravel()
    # needles of the keys' dtype: numpy would copy the keys to compare others
    voxels = np.sort(voxels[depth_w.take(voxels) != 0]).astype(keys.dtype)
    shift = max(keys.size - 1, 0).bit_length()
    low = keys.dtype.type((1 << shift) - 1)
    voxels <<= keys.dtype.type(shift)
    first = np.searchsorted(keys, voxels)
    end = np.searchsorted(keys, voxels | low, side="right")
    # every voxel's run of keys, in one gather
    counts = end - first
    at = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
    keep = keys[at] & low
    keep.sort()  # unique positions: any sort gives the same array
    return keep.astype(np.intp)


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


def _accumulate(out, rows, w, fi, first, end):
    """Sum each row's run of survivors [first, end), rank by rank, into its row of
    out, from the (P, C) float32 or float64 feature `rows` (module docstring)."""
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
        # either gather upcasts exactly: each add is the float64
        # reference's acc + w * feature, bit for bit
        if rows.dtype == np.float64:
            np.take(rows, fi[pos], axis=0, out=prod[:e - s], mode="clip")
            prod[:e - s] *= w[pos, None]
        else:
            np.multiply(w[pos, None], rows[fi[pos]], out=prod[:e - s])
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

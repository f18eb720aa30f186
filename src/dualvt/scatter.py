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
  is, so the skip test reads each entry's mask (a P-value array, in
  cache) and the depth only where the mask is nonzero, the sparse factor.
- The result is the *support*: the ascending cells that have a surviving
  entry, and their sums rounded once to float32, as (n, C) rows.  Every
  other cell's sum is +0.0, and float64 accumulators exist only for the
  support's rows.  A support cell's sum may still round to ±0.0.
- Surviving entries are applied rank by rank: first every cell's first
  survivor, then every cell's second, and so on.  A cell occurs at most
  once per rank, so a rank is a plain row update ``out[c] = out[c] +
  contrib``, and each cell adds its survivors in entry order, bit for
  bit as one sequential pass.  One ``searchsorted`` of the offsets into
  the survivors' positions gives every cell's run, so no per-entry cell
  column exists.
- A rank goes through in chunks of ``CHUNK_ENTRIES`` entries, whose
  temporaries stay below ``CHUNK_ENTRIES * C * 16`` bytes per worker.
- The survivors are found on the calling thread.  Threads then split the
  support's rows into ranges of about equal survivors: runs are
  disjoint, so no value depends on the split.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

# entries applied per row update; at 64 channels one chunk's
# temporaries peak at 8192 * 64 * 16 bytes = 8.4 MB
CHUNK_ENTRIES = 8192


def weighted_scatter(feats, depth_w, mask_w, offsets, feat_idx, depth_idx, threads: int = 1):
    """Accumulate depth_w * mask_w * feature into BEV cells.

    feats:    (C, P) float32 feature pixels; a view of (P, C) memory is not copied
    depth_w:  (Q,) float32 flattened depth volumes
    mask_w:   (P,) float32 flattened masks
    offsets:  (n_cells + 1,) cell c owns entries [offsets[c], offsets[c+1])
    feat_idx: (N,) index into the P axis
    depth_idx:(N,) index into depth_w
    All inputs must be finite (see the module docstring).  Returns the support:
    the ascending (n,) intp cells with an entry of nonzero weight, (n, C) float32 sums.
    """
    cells, w, fi, first, end = _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx)
    out = np.zeros((cells.size, feats.shape[0]), dtype=np.float64)
    feats_t = np.ascontiguousarray(feats.T)  # (P, C), row gathers are cheap
    # split the rows, one per support cell, into ranges of about equal survivors
    cuts = np.searchsorted(first, np.linspace(0, w.size, max(threads, 1) + 1)[1:-1])
    jobs = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, cells.size]) if a < b]
    with ThreadPoolExecutor(len(jobs)) if len(jobs) > 1 else nullcontext() as pool:
        list((pool.map if pool else map)(
            lambda j: _accumulate(out[j], feats_t, w, fi, first[j], end[j]), jobs))
    return cells, out.astype(np.float32)


def _survivors(depth_w, mask_w, offsets, feat_idx, depth_idx):
    """The support, the survivors' weights and feature indices, and each
    support cell's run of survivors [first, end)."""
    # fancy indexing reads the strided record columns in place; take copies them
    keep = np.flatnonzero((mask_w != 0)[feat_idx])  # ascending: runs keep entry order
    d = depth_w.take(depth_idx[keep])
    live = d != 0
    keep, d = keep[live], d[live]
    fi = feat_idx[keep].astype(np.intp)
    w = d.astype(np.float64) * mask_w.take(fi)
    # cell c's survivors are survivors bounds[c] to bounds[c + 1] - 1
    bounds = np.searchsorted(keep, offsets)
    cells = np.flatnonzero(bounds[1:] > bounds[:-1])
    return cells, w, fi, bounds[cells], bounds[cells + 1]


def _accumulate(out, feats_t, w, fi, first, end):
    """Add each row's run of survivors [first, end) to its row of out, rank by rank."""
    # pos: each unfinished run's rank-r survivor; end: its run's end; row: its row of out
    pos, row = first.copy(), np.arange(out.shape[0])
    while pos.size:
        for start in range(0, pos.size, CHUNK_ENTRIES):
            sel = pos[start:start + CHUNK_ENTRIES]
            rows = row[start:start + CHUNK_ENTRIES]  # distinct: one entry per cell
            # float32 gather upcasts exactly; acc matches the float64 reference
            # bitwise, and IEEE addition commutes, so acc + out[rows] == out[rows] + acc
            acc = w[sel, None] * feats_t[fi[sel]]
            acc += out[rows]
            out[rows] = acc
        pos += 1
        alive = pos < end
        pos, end, row = pos[alive], end[alive], row[alive]


def support_grid(cells: np.ndarray, sums: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """A support as the (C, ny, nx) float32 grid, +0.0 off it: a channel-major view
    of cell-major memory, strides (4, nx*C*4, C*4), each cell's channels adjacent."""
    grid = np.zeros((ny * nx, sums.shape[1]), dtype=np.float32)
    grid[cells] = sums
    return grid.T.reshape(sums.shape[1], ny, nx)

"""Deterministic weighted scatter-sum shared by both view-transform streams.

Accumulation contract:

- Every entry contributes ``w * feature`` to its BEV cell, where
  ``w = float64(depth) * float64(mask)``.  Contributions go into float64
  accumulators that start at +0.0, and each cell receives its own
  contributions strictly in entry order: cell c owns the entries
  ``[offsets[c], offsets[c+1])``.  A plain per-entry Python loop over
  an expanded cell column (``scatter_reference``) reproduces the result
  bitwise.
- Entries whose weight is zero are dropped before the feature gather.
  With finite features their contribution is +0.0 or -0.0, and adding
  either leaves an accumulator unchanged: ``x + ±0.0 == x`` for every
  finite nonzero ``x``, and ``+0.0 + ±0.0 == +0.0``.  An accumulator
  that starts at +0.0 can never become -0.0 (a sum of opposite nonzero
  values rounds to +0.0), so skipping keeps every bit.  Finite inputs
  are therefore a precondition: ``0 * inf`` would contribute NaN, which
  a skipped entry does not.  The stream front ends reject non-finite
  tensors (``tables.check_camera_tensors``) before they get here.
  A float64 product of finite float32 values is zero only when a factor
  is, so the skip test reads the float32 depth and mask values.
- The surviving entries are applied in rank-major order.  An entry's
  rank is its position in its cell's run of surviving entries: all
  rank-0 entries go first, then all rank-1 entries, and so on.  A cell
  occurs at most once per rank, so one rank is a plain row update
  ``out[c] = out[c] + contrib`` with no repeated index, and a cell's
  rank-r contribution is added only after its rank r-1 one: per cell
  the additions, and so the rounded sums, are those of one sequential
  pass.  Only the interleaving across cells changes, and no cell's
  value depends on it.  The number of ranks is the longest run.  One
  ``searchsorted`` of the offsets into the survivors' positions gives
  every cell's run of survivors, so no per-entry cell column exists.
- A rank's entries are applied in chunks of at most ``CHUNK_ENTRIES``.
  A chunk's temporaries (the float32 gather, its float64 product and
  the gathered accumulator rows) peak at ``CHUNK_ENTRIES * C * 16``
  bytes, which bounds the scatter's working memory per worker
  independently of the table size.  Beyond the surviving entries'
  weights and feature indices, bookkeeping is three arrays per run.
- Threads split the work into cell ranges cut at their offsets, which
  cannot change any cell's value: per-cell runs are contiguous and disjoint.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# entries applied per row update; at 64 channels one chunk's
# temporaries peak at 8192 * 64 * 16 bytes = 8.4 MB
CHUNK_ENTRIES = 8192


def weighted_scatter(
    feats: np.ndarray,
    depth_w: np.ndarray,
    mask_w: np.ndarray,
    offsets: np.ndarray,
    feat_idx: np.ndarray,
    depth_idx: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Accumulate depth_w * mask_w * feature into BEV cells.

    feats:    (C, P) float32, all cameras' feature pixels flattened
    depth_w:  (Q,) float32 flattened depth volumes
    mask_w:   (P,) float32 flattened masks
    offsets:  (n_cells + 1,) cell c owns entries [offsets[c], offsets[c+1])
    feat_idx: (N,) index into the P axis
    depth_idx:(N,) index into depth_w
    All inputs must be finite (see the module docstring).
    Returns (n_cells, C) float64 accumulators.
    """
    n_cells = offsets.shape[0] - 1
    out = np.zeros((n_cells, feats.shape[0]), dtype=np.float64)
    # split at cell boundaries so every worker owns whole cells
    edges = np.linspace(0, n_cells, max(threads, 1) + 1).astype(np.int64)
    jobs = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if offsets[a] < offsets[b]]
    if not jobs:
        return out
    feats_t = np.ascontiguousarray(feats.T)  # (P, C), row gathers are cheap
    args = (feats_t, depth_w, mask_w, offsets, feat_idx, depth_idx, out)
    if len(jobs) == 1:
        _scatter_range(*args, *jobs[0])
        return out
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        for f in [pool.submit(_scatter_range, *args, a, b) for a, b in jobs]:
            f.result()
    return out


def _scatter_range(feats_t, depth_w, mask_w, offsets, feat_idx, depth_idx, out, a, b):
    """Scatter the entries of cells [a, b) into out[a:b]."""
    lo, hi = offsets[a], offsets[b]
    fi = feat_idx[lo:hi]
    d, m = depth_w.take(depth_idx[lo:hi]), mask_w.take(fi)
    keep = np.flatnonzero((d != 0) & (m != 0))  # ascending: runs keep entry order
    if keep.size == 0:
        return
    # cell a + j's survivors are survivors bounds[j] to bounds[j + 1] - 1
    bounds = np.searchsorted(keep, offsets[a:b + 1] - lo)
    w = d[keep].astype(np.float64) * m[keep]
    fi = fi.take(keep).astype(np.intp)
    del d, m, keep
    row = np.flatnonzero(bounds[1:] > bounds[:-1])
    # pos: each unfinished run's rank-r survivor; end: its run's end; row: its cell
    pos, end = bounds[row], bounds[row + 1]
    row += a
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


def scatter_reference(feats, depth_w, mask_w, cells, feat_idx, depth_idx, n_cells):
    """Per-entry loop oracle with the same order and precision as weighted_scatter.

    It adds every entry, zero weights included, so it also checks that
    skipping them changes no bit.
    """
    C = feats.shape[0]
    out = np.zeros((n_cells, C), dtype=np.float64)
    for c, fi, di in zip(cells, feat_idx, depth_idx):
        w = np.float64(depth_w[di]) * np.float64(mask_w[fi])
        out[c] += w * feats[:, fi].astype(np.float64)
    return out

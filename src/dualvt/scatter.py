"""Deterministic weighted scatter-sum shared by both view-transform streams.

Accumulation contract:

- Every entry contributes ``w * feature`` to its BEV cell, where
  ``w = float64(depth) * float64(mask)``.  Contributions go into float64
  accumulators that start at +0.0, and each cell receives its own
  contributions strictly in entry order (entries are pre-sorted by BEV
  cell).  A plain per-entry Python loop (``scatter_reference``)
  reproduces the result bitwise.
- Entries whose weight is zero are dropped before the feature gather.
  With finite features their contribution is +0.0 or -0.0, and adding
  either leaves an accumulator unchanged: ``x + ±0.0 == x`` for every
  finite nonzero ``x``, and ``+0.0 + ±0.0 == +0.0``.  An accumulator
  that starts at +0.0 can never become -0.0 (a sum of opposite nonzero
  values rounds to +0.0), so skipping keeps every bit.  Finite inputs
  are therefore a precondition: ``0 * inf`` would contribute NaN, which
  a skipped entry does not.  The stream front ends reject non-finite
  tensors (``tables.check_camera_tensors``) before they get here.
- The surviving entries are applied in rank-major order.  An entry's
  rank is its position in its cell's run of surviving entries: all
  rank-0 entries go first, then all rank-1 entries, and so on.  A cell
  occurs at most once per rank, so one rank is a plain row update
  ``out[c] = out[c] + contrib`` with no repeated index, and a cell's
  rank-r contribution is added only after its rank r-1 one: per cell
  the additions, and so the rounded sums, are those of one sequential
  pass.  Only the interleaving across cells changes, and no cell's
  value depends on it.  The number of ranks is the longest run.
- A rank's entries are applied in chunks of at most ``CHUNK_ENTRIES``.
  A chunk's temporaries (the float32 gather, its float64 product and
  the gathered accumulator rows) peak at ``CHUNK_ENTRIES * C * 16``
  bytes, which bounds the scatter's working memory per worker
  independently of the table size.  Beyond the weights and the
  surviving-entry index, bookkeeping is one array per run.
- Splitting the work across threads by cell ranges cannot change any
  cell's value because per-cell entry runs are contiguous and disjoint.
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
    cells: np.ndarray,
    feat_idx: np.ndarray,
    depth_idx: np.ndarray,
    n_cells: int,
    threads: int = 1,
) -> np.ndarray:
    """Accumulate depth_w * mask_w * feature into BEV cells.

    feats:    (C, P) float32, all cameras' feature pixels flattened
    depth_w:  (Q,) float32 flattened depth volumes
    mask_w:   (P,) float32 flattened masks
    cells:    (N,) int64 target cell per entry, sorted ascending
    feat_idx: (N,) int64 index into the P axis
    depth_idx:(N,) int64 index into depth_w
    All inputs must be finite (see the module docstring).
    Returns (n_cells, C) float64 accumulators.
    """
    C = feats.shape[0]
    out = np.zeros((n_cells, C), dtype=np.float64)
    if cells.size == 0:
        return out
    feats_t = np.ascontiguousarray(feats.T)  # (P, C), row gathers are cheap
    if threads <= 1:
        _scatter_range(feats_t, depth_w, mask_w, cells, feat_idx, depth_idx, out)
        return out

    # split at cell boundaries so every worker owns whole cells
    edges = np.linspace(0, n_cells, threads + 1).astype(np.int64)
    splits = np.searchsorted(cells, edges)
    jobs = [
        (splits[i], splits[i + 1])
        for i in range(threads)
        if splits[i] < splits[i + 1]
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(
                _scatter_range,
                feats_t, depth_w, mask_w,
                cells[a:b], feat_idx[a:b], depth_idx[a:b],
                out,
            )
            for a, b in jobs
        ]
        for f in futures:
            f.result()
    return out


def _scatter_range(feats_t, depth_w, mask_w, cells, feat_idx, depth_idx, out):
    w = depth_w[depth_idx].astype(np.float64) * mask_w[feat_idx].astype(np.float64)
    keep = np.flatnonzero(w)  # ascending, so each cell's run keeps entry order
    if keep.size == 0:
        return
    c = cells[keep]
    run_start = np.empty(keep.size, dtype=bool)
    run_start[0] = True
    np.not_equal(c[1:], c[:-1], out=run_start[1:])
    del c
    # pos: each unfinished run's rank-r entry (an index into keep); end: its run's end
    pos = np.flatnonzero(run_start)
    del run_start
    end = np.append(pos[1:], keep.size)
    while pos.size:
        for start in range(0, pos.size, CHUNK_ENTRIES):
            sel = keep[pos[start:start + CHUNK_ENTRIES]]
            rows = cells[sel]  # distinct: one entry per cell at this rank
            # float32 gather upcasts exactly; acc matches the float64 reference
            # bitwise, and IEEE addition commutes, so acc + out[rows] == out[rows] + acc
            acc = w[sel, None] * feats_t[feat_idx[sel]]
            acc += out[rows]
            out[rows] = acc
        pos += 1
        alive = pos < end
        pos, end = pos[alive], end[alive]


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

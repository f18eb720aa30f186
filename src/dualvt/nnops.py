"""Forward-only neural building blocks for the fusion stage.

Just enough machinery for the attention/probability heads: same-padded
stride-1 2D convolution, channel statistics, a correctly rounded mean
pool, activations, and seeded weight containers with BTSR-backed
persistence.  No training, no normalization layers.

Arithmetic contract of ``conv2d`` (every kernel size, so the fusion and
occupancy heads share it):

- Each output value is the float32 rounding, done once, of a float64
  sum of ``kernel * input`` products plus the bias.  Inputs and weights
  are float32, and a product of two float32 values is exact in float64,
  so the only float64 error is in the summation: at most about
  ``C_in*kh*kw * 2**-53`` of the sum of the products' magnitudes.
- The sum is a BLAS ``dgemm``, whose order depends on the BLAS build,
  its CPU kernel and its thread count.  The order reaches an output
  bit only when the float64 sum lies within that error of a float32
  rounding boundary.  The tests pin the heads' output digests across
  OpenBLAS core types, check ``conv2d``'s bytes across BLAS thread
  counts and worker counts on every layer shape of the heads, and check
  every kernel size against a fixed-order float64 loop to within one
  float32 ulp.  No stronger guarantee is made.
- The output is walked in blocks of ``BLOCK_ROWS`` rows, so the float64
  window matrix takes ``C_in*kh*kw * BLOCK_ROWS * W * 8`` bytes
  whatever the height of the input, once per worker that runs blocks.
- A ``WorkerPool`` runs contiguous bands of whole blocks, one band per
  worker.  Every block is the same ``dgemm`` call on the same window
  matrix as on one thread, so the split moves no bit.

Arithmetic contract of ``mean_pool`` (both heads' global pools and
``channel_stats``' mean): each output is the float32 nearest, ties to
even, to the exact weighted mean of its float32 inputs; an exact zero
is +0.0.  No order, layout, packing or BLAS can move its bits.  The
fast path sums exact float64 products in any order and keeps the
rounded mean when the float64 error bound cannot reach a float32
rounding boundary; otherwise that output is summed exactly in integers.

Thread budget: ``WorkerPool`` is the package's one thread type, and
``fusion.run_pipeline`` opens one per frame.  Each task it runs, a
``conv2d`` band or a scatter's range of rows, runs in a copy of the
submitting thread's context, so under the caller's ``np.errstate``: a
worker warns, raises or stays silent on a floating-point error as the
caller would.  ``one_blas_thread`` holds numpy's bundled scipy-openblas
to one thread for the length of a block and then gives back the count it
found.  The count is process-global, so blocks on several threads share
one budget: the first to enter saves the count and the last to leave
restores it.  It also holds for every thread that runs BLAS calls inside
the block: a ``WorkerPool``'s ``dgemm`` calls run under the budget that
the calling thread holds.  Where numpy links another BLAS, or a build
without the scipy-openblas symbols, the block runs with the BLAS as the
caller left it.  Bits do not depend on this (see the contract above).
"""

from __future__ import annotations

import contextvars
import ctypes
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .rng import Rng
from .tensors import parse_manifest, tensor_read, tensor_write

# output rows per GEMM block; for the 3x3 64->16 layer on a 128-wide
# grid the window matrix takes 64*9 * 16*128 * 8 bytes = 9.4 MB
BLOCK_ROWS = 16
# values per sigmoid block: its float64 scratch, 2 * 16K * 8 bytes, stays in cache
SIGMOID_BLOCK = 16384


def _find_blas_threads():
    """(get, set) of numpy's bundled scipy-openblas thread count, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None


_BLAS_THREADS = _find_blas_threads()
_budget_lock = threading.Lock()
_budget_depth = 0  # open one_blas_thread blocks, on any thread
_budget_caller = 0  # the count the first of them found


@contextmanager
def one_blas_thread():
    """Run the block with the BLAS at one thread; the caller's count comes
    back when the last open block ends, also when it raises."""
    if _BLAS_THREADS is None:
        yield
        return
    global _budget_depth, _budget_caller
    get, set_ = _BLAS_THREADS
    with _budget_lock:
        if _budget_depth == 0:
            _budget_caller = get()
            set_(1)
        _budget_depth += 1
    try:
        yield
    finally:
        with _budget_lock:
            _budget_depth -= 1
            if _budget_depth == 0:
                set_(_budget_caller)


@dataclass(frozen=True)
class Conv2dWeights:
    """Stride-1 "same" convolution weights; kernel (C_out, C_in, kh, kw)."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ConfigError("kernel must be (C_out, C_in, kh, kw)")
        _, _, kh, kw = self.kernel.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError("kernel extents must be odd")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ConfigError("bias length must equal C_out")


class WorkerPool(ThreadPoolExecutor):
    """The package's one thread type: up to `size` threads for a caller's bands
    or ranges of work (`conv2d`, `scatter.weighted_scatter`).  Each task runs
    in a copy of the submitting thread's context, so under its `np.errstate`;
    a `with` block joins the threads when it ends, so none outlives the call
    that opened it."""

    def __init__(self, size: int):
        super().__init__(max_workers=size)
        self.size = size

    def submit(self, fn, /, *args, **kwargs):  # `map` submits through it too
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def conv2d(x: np.ndarray, w: Conv2dWeights, workers: WorkerPool | None = None) -> np.ndarray:
    """Zero-padded cross-correlation preserving spatial size.

    For each block of ``BLOCK_ROWS`` output rows, the float32 input
    windows are copied into a float64 ``(C_in*kh*kw, rows*W)`` matrix,
    multiplied by the float64 kernel and offset by the float64 bias;
    the result is rounded to float32 once (see the module docstring).
    `workers` runs contiguous bands of whole blocks, one per worker, each
    with its own window matrix; the bytes are the serial ones.
    """
    c_out, c_in, kh, kw = w.kernel.shape
    if x.shape[0] != c_in:
        raise ShapeMismatch(f"input has {x.shape[0]} channels, kernel expects {c_in}")
    _, H, W = x.shape
    ph, pw = kh // 2, kw // 2
    xp = x  # a 1x1 kernel reads its input in place
    if ph or pw:
        xp = np.zeros((c_in, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
        xp[:, ph:ph + H, pw:pw + W] = x
    kernel = w.kernel.reshape(c_out, -1).astype(np.float64)
    bias = w.bias.astype(np.float64)[:, None]
    out = np.empty((c_out, H, W), dtype=np.float32)

    def band(rows):  # output rows [start, stop), whole blocks but the last
        # one window buffer for every block; a short last block uses its head
        buf = np.empty(c_in * kh * kw * min(BLOCK_ROWS, len(rows)) * W, dtype=np.float64)
        for r0 in rows[::BLOCK_ROWS]:
            n = min(BLOCK_ROWS, rows.stop - r0)
            cols = buf[: c_in * kh * kw * n * W].reshape(c_in, kh, kw, n, W)
            for i in range(kh):
                for j in range(kw):
                    cols[:, i, j] = xp[:, r0 + i:r0 + i + n, j:j + W]  # exact upcast
            acc = kernel @ cols.reshape(c_in * kh * kw, n * W) + bias
            out[:, r0:r0 + n] = acc.reshape(c_out, n, W)  # the one float32 rounding

    blocks = -(-H // BLOCK_ROWS)
    n_bands = 1 if workers is None else min(workers.size, blocks)
    edges = [k * blocks // n_bands * BLOCK_ROWS for k in range(n_bands)] + [H]
    bands = [range(a, b) for a, b in zip(edges, edges[1:])]
    list((workers.map if len(bands) > 1 else map)(band, bands))
    return out


def channel_stats(x: np.ndarray) -> np.ndarray:
    """(2, H, W): per position the mean over channels (`mean_pool`'s rounding,
    so the memory layout moves no bit) and the max over channels."""
    c = x.shape[0]
    mean = mean_pool(x.reshape(c, -1).T, np.ones(c, dtype=np.int64))
    return np.stack([mean.reshape(x.shape[1:]), x.max(axis=0)])


def mean_pool(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(R,) float32: for each row of the (R, m) float32 columns `x`, the float32
    nearest (ties to even) to the exact ``sum(w_i * x_i) / n``, ``n = sum(w_i)``,
    over the m integer `weights` (each at most 2**24, 1 <= n < 2**39).  A column of
    weight 0 is left out, and an exact zero is +0.0.  A row holding NaN or
    Inf gives what a mean gives, without a warning.

    The float64 sum, in any order, takes every column once and each column
    of weight w > 1 again as ``(w - 1) * x_i``, exact in float64 (24
    significant bits times at most 24), so no float64 copy of `x` is made.
    For k such terms its error is at most ``gamma_k * sum(w_i * |x_i|) <=
    gamma_k * n * max|x_i|``; with the division's rounding that bounds the
    mean.  Where both ends of the bound round to the same float32, that is
    the answer; elsewhere the row is summed exactly in integers."""
    w = np.asarray(weights)
    if not w.all():  # a column no cell reads
        x, w = x[:, w != 0], w[w != 0]
    heavy = np.flatnonzero(w != 1)
    n = int(w.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.add.reduce(x, axis=1, dtype=np.float64)
        if heavy.size:
            s += (x[:, heavy] * (w[heavy] - 1.0)).sum(axis=1)
        mean = (s + 0.0) / n  # + 0.0: a sum of -0.0 terms is +0.0
        top = np.maximum(x.max(axis=1), -x.min(axis=1)).astype(np.float64)
        # twice the bound, so the roundings of e, lo and hi stay inside it
        e = (2 * (x.shape[1] + heavy.size + 2) * 2.0**-53) * top + 2.0**-51 * np.abs(mean)
        lo, hi = (mean - e).astype(np.float32), (mean + e).astype(np.float32)
        out = mean.astype(np.float32)
    unsettled = np.flatnonzero((lo.view(np.uint32) != hi.view(np.uint32)) & np.isfinite(top))
    if unsettled.size:
        out[unsettled] = _exact_means(x[unsettled], w, n)
    return out


def _exact_means(x: np.ndarray, w: np.ndarray, n: int) -> list:
    """`mean_pool` of each finite row of `x`, in integers: a float32 is its
    24-bit integer significand times a power of two.  A row's products,
    shifted to its least exponent, sum in int64 where they stay below 2**62,
    else in Python integers."""
    frac, exp = np.frexp(x.astype(np.float64))
    sig = (frac * 2.0**24).astype(np.int64) * w.astype(np.int64)  # below 2**48
    live = sig != 0
    low = np.where(live, exp, exp.max(initial=0) + 1).min(axis=1, initial=2**30)
    low = np.where(live.any(axis=1), low, 0)
    shift = np.where(live, exp - low[:, None], 0)
    fits = np.ldexp(np.abs(sig).astype(np.float64), shift).sum(axis=1) < 2.0**62
    totals = (np.where(fits[:, None], sig, 0) << np.where(fits[:, None], shift, 0)).sum(axis=1)
    totals = totals.tolist()
    for r in np.flatnonzero(~fits).tolist():
        totals[r] = sum(v << h for v, h in zip(sig[r].tolist(), shift[r].tolist()))
    return [_round_float32(t, e - 24, n) for t, e in zip(totals, low.tolist())]


def _round_float32(t: int, k: int, n: int) -> np.float32:
    """The float32 nearest to ``t * 2**k / n`` (ties to even, within the float32
    range; integers t, k and n > 0), signed as t where it rounds to zero."""
    m = abs(t)
    # as q * 2**e with q of 24 bits (fewer below 2**-126): q = m * 2**(k - e) / n
    e = k + m.bit_length() - n.bit_length() - 24  # puts q in (2**23, 2**25)
    if m << max(k - e, 0) >= (n << max(e - k, 0)) << 24:
        e += 1
    e = max(e, -149)
    den = n << max(e - k, 0)
    q, rem = divmod(m << max(k - e, 0), den)
    if 2 * rem > den or (2 * rem == den and q & 1):
        q += 1
    return np.float32(math.copysign(math.ldexp(q, e), -1.0 if t < 0 else 1.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """float32 of the float64 ``where(x >= 0, 1, e) / (1 + e)``, ``e = exp(-|x|)``
    (never overflows), rounded once.  Runs in blocks of ``SIGMOID_BLOCK``
    values through one reused float64 scratch buffer."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.float32)
    xs, outs = x.reshape(-1), out.reshape(-1)
    buf = np.empty((2, min(SIGMOID_BLOCK, x.size)), dtype=np.float64)
    for s in range(0, x.size, SIGMOID_BLOCK):
        xb = xs[s:s + SIGMOID_BLOCK]
        e, den = buf[0, :xb.size], buf[1, :xb.size]
        np.abs(xb, out=e)  # exact upcast
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=den)
        np.copyto(e, 1.0, where=xb >= 0)  # the numerator
        np.divide(e, den, out=outs[s:s + SIGMOID_BLOCK])  # the one float32 rounding
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)  # a Python 0 does not promote float32


class WeightBundle:
    """Named Conv2dWeights, persisted as a manifest + BTSR files."""

    def __init__(self, layers: dict):
        self.layers = dict(layers)

    def __getitem__(self, name: str) -> Conv2dWeights:
        try:
            return self.layers[name]
        except KeyError:
            raise ConfigError(f"weight bundle is missing layer {name!r}") from None

    @classmethod
    def seeded(cls, seed: int, layer_shapes: dict) -> "WeightBundle":
        """Initialize uniformly in +-1/sqrt(fan_in), one child stream per layer."""
        root = Rng(seed)
        layers = {}
        for i, name in enumerate(sorted(layer_shapes)):
            c_out, c_in, kh, kw = layer_shapes[name]
            bound = 1.0 / np.sqrt(c_in * kh * kw)
            sub = root.child(i)
            layers[name] = Conv2dWeights(
                kernel=sub.uniform((c_out, c_in, kh, kw), -bound, bound),
                bias=sub.uniform((c_out,), -bound, bound),
            )
        return cls(layers)

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {"layers": {}}
        for name, w in sorted(self.layers.items()):
            kfile, bfile = f"{name}.kernel.btsr", f"{name}.bias.btsr"
            tensor_write(w.kernel, directory / kfile)
            tensor_write(w.bias, directory / bfile)
            manifest["layers"][name] = {"kernel": kfile, "bias": bfile}
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))

    @classmethod
    def load(cls, directory) -> "WeightBundle":
        directory = Path(directory)
        files = parse_manifest(directory / "manifest.json", lambda manifest: {
            name: (directory / entry["kernel"], directory / entry["bias"])
            for name, entry in manifest["layers"].items()
        })
        layers = {
            name: Conv2dWeights(kernel=tensor_read(kernel), bias=tensor_read(bias))
            for name, (kernel, bias) in files.items()
        }
        return cls(layers)

"""Forward-only neural building blocks for the fusion stage.

Just enough machinery for the attention/probability heads: same-padded
stride-1 2D convolution, channel statistics, global average pooling,
activations, and seeded weight containers with BTSR-backed persistence.
No training, no normalization layers.

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
  counts on every layer shape of the heads, and check every kernel size
  against a fixed-order float64 loop to within one float32 ulp.  No
  stronger guarantee is made.
- The output is walked in blocks of ``BLOCK_ROWS`` rows, so the float64
  window matrix takes ``C_in*kh*kw * BLOCK_ROWS * W * 8`` bytes
  whatever the height of the input.

Thread budget: ``one_blas_thread`` holds numpy's bundled scipy-openblas
to one thread for the length of a block and then gives back the count it
found.  The count is process-global, so blocks on several threads share
one budget: the first to enter saves the count and the last to leave
restores it.  Where numpy links another BLAS, or a build without the
scipy-openblas symbols, the block runs with the BLAS as the caller left
it.  Bits do not depend on this (see the contract above).
"""

from __future__ import annotations

import ctypes
import json
import threading
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


def conv2d(x: np.ndarray, w: Conv2dWeights) -> np.ndarray:
    """Zero-padded cross-correlation preserving spatial size.

    For each block of ``BLOCK_ROWS`` output rows, the float32 input
    windows are copied into a float64 ``(C_in*kh*kw, rows*W)`` matrix,
    multiplied by the float64 kernel and offset by the float64 bias;
    the result is rounded to float32 once (see the module docstring).
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
    # one window buffer for every block; a short last block uses its head
    buf = np.empty(c_in * kh * kw * min(BLOCK_ROWS, H) * W, dtype=np.float64)
    for r0 in range(0, H, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, H - r0)
        cols = buf[: c_in * kh * kw * rows * W].reshape(c_in, kh, kw, rows, W)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, r0 + i:r0 + i + rows, j:j + W]  # exact upcast
        acc = kernel @ cols.reshape(c_in * kh * kw, rows * W) + bias
        out[:, r0:r0 + rows] = acc.reshape(c_out, rows, W)  # the one float32 rounding
    return out


def channel_stats(x: np.ndarray) -> np.ndarray:
    """(2, H, W): per-position mean and max over channels."""
    return np.stack([x.mean(axis=0), x.max(axis=0)]).astype(np.float32)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(C, 1, 1) spatial mean per channel."""
    return x.mean(axis=(1, 2), keepdims=True).astype(np.float32)


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
    return np.maximum(x, 0).astype(np.float32)


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

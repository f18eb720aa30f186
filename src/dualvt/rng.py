"""Deterministic, platform-independent random number generation.

Algorithm (fixed, never change without bumping golden vectors):

  * splitmix64 seeds 256 parallel xoshiro256** lanes; lane ``l`` state
    word ``w`` is the ``(4*l + w)``-th splitmix64 output for the seed.
  * each generator step advances all lanes once; raw 64-bit outputs are
    emitted in step-major order: ``out[step*256 + lane]``.
  * uniforms take the top 24 bits of each raw word, scaled into
    ``[lo, hi)`` and rounded to float32 (clamped below ``hi``).

All arithmetic is wrapping uint64, identical on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyShape

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANES = 256

_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    # wrapping uint64 arithmetic; numpy warns on scalar overflow, which is expected here
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 for `seed`, as uint64."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def derive_child_seed(seed: int, index: int) -> int:
    """Independent child seed for parallel substreams."""
    with np.errstate(over="ignore"):
        base = _U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _GOLDEN
        return int(_mix64(base + _U64(index & 0xFFFFFFFFFFFFFFFF) * _MIX2))


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U64(k)) | (x >> _U64(64 - k))


class Rng:
    """splitmix64-seeded bank of xoshiro256** lanes with a fixed stream order."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        state = splitmix64(self.seed, 4 * _LANES).reshape(_LANES, 4)
        # column-wise state words, one row per lane
        self._s = [state[:, w].copy() for w in range(4)]
        self._pending = np.empty(0, dtype=np.uint64)  # carry across calls

    def child(self, index: int) -> "Rng":
        return Rng(derive_child_seed(self.seed, index))

    def next_raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 words of the stream."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        need = count - self._pending.size
        steps = max(-(-need // _LANES), 0)
        s0, s1, s2, s3 = self._s
        blocks = np.empty((steps, _LANES), dtype=np.uint64)
        for i in range(steps):
            blocks[i] = _rotl(s1 * _U64(5), 7) * _U64(9)
            t = s1 << _U64(17)
            s2 = s2 ^ s0
            s3 = s3 ^ s1
            s1 = s1 ^ s2
            s0 = s0 ^ s3
            s2 = s2 ^ t
            s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        stream = np.concatenate([self._pending, blocks.reshape(-1)])
        self._pending = stream[count:]
        return stream[:count]

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Float32 tensor of the given shape, values in [lo, hi)."""
        if not lo < hi:
            raise ValueError(f"degenerate range [{lo}, {hi})")
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count <= 0 or not shape:
            raise EmptyShape(f"shape {shape} has no elements")
        raw = self.next_raw(count)
        u = (raw >> _U64(40)).astype(np.float64) / float(1 << 24)
        vals = (lo + u * (hi - lo)).astype(np.float32)
        top = np.nextafter(np.float32(hi), np.float32(lo))
        return np.clip(vals, np.float32(lo), top).reshape(shape)

    def integers(self, shape, n: int) -> np.ndarray:
        """Int64 tensor of values in [0, n), each the next raw word mod `n`.  Part
        of the stream contract: `random_scene_spec` draws every scene's box count here."""
        if n <= 0:
            raise ValueError("n must be positive")
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = self.next_raw(count)
        return (raw % _U64(n)).astype(np.int64).reshape(shape)

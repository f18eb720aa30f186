"""Dense float32 tensors and the BTSR binary file format.

Tensors are plain numpy float32 arrays, row-major, treated as immutable
after construction.  The BTSR layout is:

    4 bytes  magic "BTSR"
    1 byte   version (currently 1)
    1 byte   rank (0..8)
    6 bytes  reserved, zero
    rank * 8 bytes  little-endian unsigned extents
    prod(extents) * 4 bytes  little-endian IEEE-754 float32 payload

The format is bit-exact: write followed by read reproduces the payload
bitwise, which the golden/oracle tests rely on.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, ConfigError, NonFiniteValue, RankOverflow, TruncatedPayload

MAGIC = b"BTSR"
VERSION = 1
MAX_RANK = 8

_HEADER = struct.Struct("<4sBB6s")


def as_tensor(values) -> np.ndarray:
    """Coerce to a C-contiguous float32 array, rejecting NaN/Inf."""
    arr = np.asarray(values, dtype=np.float32)  # keeps rank 0, unlike ascontiguousarray
    if not arr.flags.c_contiguous:
        arr = _c_order(arr)
    if arr.ndim > MAX_RANK:
        raise RankOverflow(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("tensor contains NaN or Inf")
    return arr


def _c_order(arr: np.ndarray) -> np.ndarray:
    """A C-order copy, eight indices of axis 1 at a time: a channel-major view
    of cell-major memory (`scatter.support_grid`) is then read a few grid rows
    at a time, which stay in cache across its channels, ~5x faster at 64
    channels on a 128x128 grid than one strided copy."""
    out = np.empty(arr.shape, dtype=arr.dtype)
    if arr.ndim < 2:
        out[...] = arr
        return out
    for s in range(0, arr.shape[1], 8):
        out[:, s:s + 8] = arr[:, s:s + 8]
    return out


def tensor_write(t: np.ndarray, path) -> None:
    """Write a tensor to `path` in BTSR format."""
    t = as_tensor(t)
    header = _HEADER.pack(MAGIC, VERSION, t.ndim, b"\x00" * 6)
    extents = struct.pack(f"<{t.ndim}Q", *t.shape)
    # write the payload from the array's own buffer: joining it into one
    # bytes object would hold two more copies of the tensor at the peak
    with open(path, "wb") as f:
        f.write(header + extents)
        f.write(t.astype("<f4", copy=False).data)


def tensor_read(path) -> np.ndarray:
    """Read a BTSR file into a fresh float32 array, its one copy: the exact stored bits."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedPayload(f"{path}: file shorter than header")
        magic, version, rank, reserved = _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagic(f"{path}: expected {MAGIC!r}, got {magic!r}")
        if version != VERSION:
            raise BadMagic(f"{path}: unsupported version {version}")
        if reserved != bytes(6):
            raise BadMagic(f"{path}: reserved header bytes are not zero")
        if rank > MAX_RANK:
            raise RankOverflow(f"{path}: rank {rank} exceeds maximum {MAX_RANK}")
        extents = f.read(8 * rank)
        if len(extents) < 8 * rank:
            raise TruncatedPayload(f"{path}: truncated extent table")
        shape = struct.unpack(f"<{rank}Q", extents)
        payload = size - _HEADER.size - 8 * rank
        expected = math.prod(shape) * 4  # Python ints: no extent wraps around
        if payload != expected:
            raise TruncatedPayload(f"{path}: payload is {payload} bytes, expected {expected}")
        arr = np.empty(shape, dtype="<f4")
        got = f.readinto(arr.data)
        if got != expected:
            raise TruncatedPayload(f"{path}: payload is {got} bytes, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{path}: payload contains NaN or Inf")
    return arr


def parse_manifest(path, parse):
    """Parse a bundle's JSON manifest with `parse`; a manifest that is not JSON
    or that `parse` cannot read raises ConfigError naming it."""
    raw = Path(path).read_bytes()
    try:
        return parse(json.loads(raw))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, ConfigError) as e:
        raise ConfigError(f"bad manifest {path} ({type(e).__name__}: {e})") from None

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvt.errors import BadMagic, NonFiniteValue, RankOverflow, TruncatedPayload
from dualvt.rng import Rng
from dualvt.tensors import as_tensor, tensor_read, tensor_write


def test_known_payload_roundtrip(tmp_path):
    path = tmp_path / "t.btsr"
    tensor_write(np.array([1.0, 2.0, 3.0], dtype=np.float32), path)
    t = tensor_read(path)
    assert t.shape == (3,)
    assert t.tolist() == [1.0, 2.0, 3.0]


def test_rank_zero_roundtrip(tmp_path):
    path = tmp_path / "s.btsr"
    tensor_write(np.float32(3.5), path)
    t = tensor_read(path)
    assert t.shape == ()
    assert t.view(np.uint32) == np.float32(3.5).view(np.uint32)
    assert len(path.read_bytes()) == 12 + 4  # header, no extents, one float


def test_zero_tensor_payload_bytes(tmp_path):
    path = tmp_path / "z.btsr"
    tensor_write(np.zeros((2, 2), dtype=np.float32), path)
    raw = path.read_bytes()
    # header 12 + two 8-byte extents, then 16 zero payload bytes
    assert raw[:4] == b"BTSR"
    assert raw[28:] == b"\x00" * 16


def test_ieee_encoding_of_one(tmp_path):
    path = tmp_path / "one.btsr"
    tensor_write(np.array([1.0], dtype=np.float32), path)
    assert path.read_bytes()[-4:] == bytes([0x00, 0x00, 0x80, 0x3F])


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "bad.btsr"
    tensor_write(np.array([1.0, 2.0, 3.0], dtype=np.float32), path)
    path.write_bytes(path.read_bytes()[:-1])  # 11-byte payload for shape [3]
    with pytest.raises(TruncatedPayload):
        tensor_read(path)


@pytest.mark.parametrize("byte", [19, 27, 35])
def test_extent_of_2_pow_63_names_its_true_size(tmp_path, byte):
    """An extent of 2**63 or more (the top bit of one flipped) is refused as
    a payload of its true byte count, with no numpy warning."""
    path = tmp_path / "big.btsr"
    shape = [1, 4, 4]
    tensor_write(np.ones(shape, dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[byte] ^= 0x80
    path.write_bytes(bytes(raw))
    shape[(byte - 12) // 8] += 2**63
    expected = f"payload is 64 bytes, expected {math.prod(shape) * 4}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncatedPayload, match=expected):
            tensor_read(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.btsr"
    tensor_write(np.array([1.0], dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        tensor_read(path)


@pytest.mark.parametrize("byte", range(6, 12))
def test_nonzero_reserved_byte_rejected(tmp_path, byte):
    path = tmp_path / "bad.btsr"
    tensor_write(np.array([1.0], dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[byte] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic, match="reserved"):
        tensor_read(path)


def test_nonfinite_rejected_on_load(tmp_path):
    path = tmp_path / "nan.btsr"
    tensor_write(np.array([1.0], dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValue):
        tensor_read(path)


def test_nonfinite_rejected_on_construction():
    with pytest.raises(NonFiniteValue):
        as_tensor([1.0, float("inf")])


def test_rank_overflow():
    with pytest.raises(RankOverflow):
        as_tensor(np.zeros((1,) * 9, dtype=np.float32))


def test_random_roundtrip_stream(tmp_path):
    """1000 random tensors from the seed-7 stream survive bitwise."""
    rng = Rng(7)
    path = tmp_path / "rt.btsr"
    for i in range(1000):
        shape = tuple(int(s) + 1 for s in rng.integers((2,), 6))
        t = rng.uniform(shape, -1e6, 1e6)
        tensor_write(t, path)
        back = tensor_read(path)
        assert back.shape == t.shape
        assert np.array_equal(back.view(np.uint32), t.view(np.uint32))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_any_finite_float32(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "t.btsr"
    t = np.array(values, dtype=np.float32)
    tensor_write(t, path)
    assert np.array_equal(tensor_read(path).view(np.uint32), t.view(np.uint32))


def test_write_holds_no_copy_of_the_payload(tmp_path):
    """tensor_write writes from the array's buffer, bytes unchanged."""
    t = Rng(9).uniform((64, 128, 128), -1.0, 1.0)
    path = tmp_path / "big.btsr"
    tracemalloc.start()
    try:
        tensor_write(t, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes / 2
    expected = b"BTSR\x01\x03" + b"\x00" * 6 + struct.pack("<3Q", 64, 128, 128)
    assert path.read_bytes() == expected + t.astype("<f4").tobytes()

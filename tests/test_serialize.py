"""Round-trip and format checks for the tensor container."""

import json
import struct

import numpy as np
import pytest

from tagparse.serialize import FormatError, load_tensors, save_tensors


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=5),
        "scalar": np.array(2.5),
        "f32": rng.normal(size=(2, 2)).astype(np.float32),
    }
    meta = {"mode": "joint-pos-stag", "layers": 2}
    path = tmp_path / "params.tpt"
    save_tensors(path, tensors, meta)
    loaded, got_meta = load_tensors(path)
    assert got_meta == meta
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
    assert loaded["f32"].dtype == np.dtype("<f4")


def test_payload_is_little_endian_row_major(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "one.tpt"
    save_tensors(path, {"a": arr})
    blob = path.read_bytes()
    # payload is the trailing 48 bytes; row-major LE float64
    np.testing.assert_array_equal(
        np.frombuffer(blob[-48:], dtype="<f8"), np.arange(6.0)
    )


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.tpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_tensors(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.tpt"
    save_tensors(path, {"a": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_tensors(path)


def _container(header: bytes, hlen: int | None = None, payload: bytes = b"") -> bytes:
    size = len(header) if hlen is None else hlen
    return b"TPTENS01" + struct.pack("<Q", size) + header + payload


@pytest.mark.parametrize("blob", [
    _container(json.dumps({"meta": {}}).encode()),
    _container(json.dumps({"tensors": [{"name": "a", "shape": [1], "dtype": "i4"}]}).encode(),
               payload=b"\x00" * 4),
    b"TPTENS01",
    _container(b'{"tensors":[]}', hlen=10**6),  # a 30-byte file
    _container(json.dumps({"tensors": [{"name": "a", "shape": [1], "dtype": "f8"}] * 2}).encode(),
               payload=b"\x00" * 16),
    _container(json.dumps({"tensors": [{"name": "a", "shape": [1], "dtype": "f8"}]}).encode(),
               payload=b"\x00" * 12),
] + [
    # shapes whose element count wraps an int64 product to 0, overflows int64,
    # or is 0 with a dimension numpy cannot allocate
    _container(json.dumps({"tensors": [{"name": "a", "shape": shape, "dtype": "f8"}]}).encode(),
               payload=b"\x00" * 8)
    for shape in ([2**40, 2**40], [2**32, 2**32], [2**70], [0, 2**70])
], ids=["no-tensors-key", "unknown-dtype", "magic-only", "header-past-end", "duplicate-name",
        "trailing-bytes", "shape-2^40x2^40", "shape-2^32x2^32", "shape-2^70", "shape-0x2^70"])
def test_malformed_container_raises_format_error(tmp_path, blob):
    path = tmp_path / "bad.tpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load_tensors(path)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_keeps_names_shapes_dtypes_and_metadata(tmp_path, seed):
    rng = np.random.default_rng(seed)
    tensors = {}
    for k in range(int(rng.integers(1, 7))):
        shape = tuple(int(d) for d in rng.integers(0, 4, size=rng.integers(0, 4)))
        dtype = np.float32 if rng.random() < 0.5 else np.float64
        tensors[f"t{k}.{rng.integers(100)}"] = rng.normal(size=shape).astype(dtype)
    tensors["empty"] = np.zeros((3, 0, 2), dtype=np.float32)  # a zero-size dimension
    meta = {"mode": "joint-pos-stag", "seed": seed, "lr": float(rng.random()),
            "flags": [True, False, None], "nested": {"é": "ü", "dims": [1, 2, 3]}}
    path = tmp_path / "t.tpt"
    save_tensors(path, tensors, meta)
    loaded, got_meta = load_tensors(path)
    assert got_meta == meta
    assert list(loaded) == list(tensors)
    for name, want in tensors.items():
        got = loaded[name]
        assert got.shape == want.shape, name
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)

"""Binary container for named tensors plus JSON metadata.

Layout (all integers little-endian):

    bytes 0..7    magic b"TPTENS01"
    bytes 8..15   uint64 header length H
    bytes 16..16+H-1  UTF-8 JSON header:
        {"tensors": [{"name": str, "shape": [int...], "dtype": "f8"|"f4"}...],
         "meta": {...}}
    then one payload per header entry, in order: row-major (C-order)
    little-endian floats, no padding.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .autodiff import Tensor

__all__ = ["save_tensors", "load_tensors", "FormatError"]

MAGIC = b"TPTENS01"
_DTYPES = {"f8": "<f8", "f4": "<f4"}


class FormatError(ValueError):
    """Raised on malformed container files."""


def save_tensors(path, tensors: dict, meta: dict | None = None) -> None:
    """Write named arrays/Tensors and optional JSON-serializable metadata."""
    entries, payloads = [], []
    for name, t in tensors.items():
        arr = np.asarray(t.value if isinstance(t, Tensor) else t)  # tobytes() is row-major
        code = "f4" if arr.dtype == np.float32 else "f8"
        arr = arr.astype(_DTYPES[code])
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code})
        payloads.append(arr.tobytes())
    header = json.dumps({"tensors": entries, "meta": meta or {}}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for p in payloads:
            f.write(p)


def load_tensors(path) -> tuple[dict, dict]:
    """Read a container; returns ({name: ndarray}, meta).

    Raises FormatError on any malformed file: bad magic, a header length
    past the end of the file, a header that is not the documented JSON, an
    unknown dtype, a repeated tensor name, a shape numpy cannot hold, or a
    payload that is truncated or followed by extra bytes.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    if hlen > len(blob) - 16:
        raise FormatError(f"{path}: header length {hlen} exceeds the {len(blob)}-byte file")
    try:
        header = json.loads(blob[16 : 16 + hlen].decode("utf-8"))
        entries = [(e["name"], tuple(int(d) for d in e["shape"]), np.dtype(_DTYPES[e["dtype"]]))
                   for e in header["tensors"]]
        meta = header.get("meta", {})
    except (KeyError, TypeError, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise FormatError(f"{path}: bad header: {e!r}") from None
    offset = 16 + hlen
    tensors = {}
    for name, shape, dt in entries:
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: negative dimension in shape {shape} of {name!r}")
        nbytes = math.prod(shape) * dt.itemsize  # Python ints: an int64 product can wrap to 0
        if nbytes > len(blob) - offset:
            raise FormatError(f"{path}: truncated payload for {name!r}: shape {shape} needs "
                              f"{nbytes} bytes, {len(blob) - offset} are left")
        try:
            tensors[name] = np.frombuffer(blob[offset : offset + nbytes], dtype=dt).reshape(shape).copy()
        except ValueError as e:  # an empty tensor whose other dimensions exceed numpy's limits
            raise FormatError(f"{path}: shape {shape} of {name!r}: {e}") from None
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} bytes after the last payload")
    return tensors, meta

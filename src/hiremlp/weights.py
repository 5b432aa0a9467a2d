"""Flat binary tensor container.

Layout (little-endian throughout):
    magic   4 bytes  b"HIRE"
    version u32
    count   u32
    per tensor:
        name_len u16, name UTF-8, rank u8, dims u64 * rank, data float32
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

MAGIC = b"HIRE"
VERSION = 1
MAX_RANK = 8


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors; values are stored as float32."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by save_tensors; returns float32 arrays.

    The file is read once, and every array is a read-only view into that
    one buffer; nothing is copied. Every header field is checked against
    the bytes that remain before anything is sliced, so a damaged file
    raises InvalidInputError naming the path and the byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    size = len(blob)

    def need(off: int, n: int, what: str) -> None:
        if n > size - off:
            raise InvalidInputError(f"{path}: byte {off}: {what} needs {n} bytes, {size - off} remain")

    need(0, 12, "header")
    if blob[:4] != MAGIC:
        raise InvalidInputError(f"{path}: byte 0: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise InvalidInputError(f"{path}: byte 4: unsupported version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        need(off, 2, "name length")
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        need(off, name_len, "name")
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise InvalidInputError(f"{path}: byte {off + e.start}: name is not UTF-8") from None
        if name in out:
            raise InvalidInputError(f"{path}: byte {off}: duplicate tensor name {name!r}")
        off += name_len
        need(off, 1, f"rank of {name!r}")
        rank = blob[off]
        if rank > MAX_RANK:
            raise InvalidInputError(f"{path}: byte {off}: rank {rank} of {name!r} exceeds {MAX_RANK}")
        off += 1
        need(off, 8 * rank, f"dims of {name!r}")
        dims = struct.unpack_from(f"<{rank}Q", blob, off)
        # Python ints: no overflow before the checks. An empty tensor needs
        # no bytes, but numpy still cannot hold a shape whose other dims
        # overflow its index type.
        if 4 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
            raise InvalidInputError(f"{path}: byte {off}: dims {dims} of {name!r} are too large")
        off += 8 * rank
        n = math.prod(dims)
        need(off, 4 * n, f"data of {name!r} {dims}")
        out[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
    if off != size:
        raise InvalidInputError(f"{path}: byte {off}: {size - off} trailing bytes")
    return out

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
import os
import struct
import weakref
from collections.abc import Callable, Mapping
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, ShapeError

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


def load_tensors(path: str | Path) -> TensorFile:
    """Open a container written by save_tensors and check its whole header.

    Every header field is checked against the bytes that remain, and no
    payload is read, so a damaged file raises InvalidInputError naming the
    path and the byte offset. The returned mapping reads each tensor when
    it is looked up.
    """
    fh = open(path, "rb", buffering=0)
    try:
        entries = _read_header(path, fh.fileno())
    except BaseException:
        fh.close()
        raise
    return TensorFile(path, fh, entries)


class TensorFile(Mapping):
    """Read-only name -> float32 array mapping over an open container.

    Each lookup reads that one tensor into a fresh, aligned, read-only
    array, so holding the mapping costs no payload memory; `read_into`
    reads one into the caller's buffer instead. Both reject a non-finite
    value with InvalidInputError naming the path, the tensor and the first
    flat index. `len`, `in` and iteration read nothing.
    The file is closed when the mapping is dropped.
    """

    def __init__(self, path: str | Path, fh, entries: dict[str, tuple[int, tuple[int, ...]]]):
        self._path, self._fh, self._entries = path, fh, entries
        weakref.finalize(self, fh.close)

    def __getitem__(self, name: str) -> np.ndarray:
        out = self.read_into(name, np.empty(self._entries[name][1], dtype="<f4"))
        out.flags.writeable = False
        return out

    def read_into(self, name: str, buf: np.ndarray) -> np.ndarray:
        """Read tensor `name` by positional reads into the leading elements
        of buf, a writable C-contiguous little-endian float32 array of at
        least its size (else ValueError), and check it for non-finite
        values. Returns it in its shape, as a view of buf."""
        off, dims = self._entries[name]
        n = math.prod(dims)
        if not _holds(buf, n):
            raise ValueError(f"read_into: {name!r} {dims} does not fit a {buf.dtype} buffer of shape {buf.shape}")
        out = buf.reshape(-1)[:n].reshape(dims)
        if n:  # a memoryview cannot cast an empty shape
            view = memoryview(out).cast("B")
            done = 0
            while done < len(view):
                got = os.preadv(self._fh.fileno(), [view[done:]], off + done)
                if not got:
                    raise _short(self._path, off, f"data of {name!r} {dims}", len(view), done)
                done += got
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite.reshape(-1)))  # the first False
            raise InvalidInputError(
                f"{self._path}: tensor {name!r}: non-finite value {out.flat[i]} at flat index {i}"
            )
        return out

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _holds(buf: np.ndarray, n: int) -> bool:
    """Whether buf is a writable C-contiguous little-endian float32 array
    of at least n elements, which `TensorFile.read_into` can fill."""
    return buf.dtype == np.dtype("<f4") and buf.flags.c_contiguous and buf.flags.writeable and buf.size >= n


def load_checked(
    tensors: Mapping[str, np.ndarray], arrays: Mapping[str, np.ndarray], check: Callable[[str, np.ndarray], None]
) -> None:
    """Copy tensors[name] into arrays[name] for every name of `arrays`.

    First every value is looked up in that order, held alone, and must have
    its array's shape (else ShapeError) and pass check(name, value), so a
    failing lookup or check leaves every array as it was. A TensorFile is
    read twice with `read_into`: for the checks into one buffer, sized to
    the largest of these tensors and reused, and then straight into each
    array that is a writable C-contiguous float32 one (any other gets a
    lookup). A file that changes between the two reads is not covered: the
    second read can then fail or put unchecked values into part of the
    arrays."""
    file = tensors if isinstance(tensors, TensorFile) else None
    sizes = [] if file is None else [math.prod(file._entries[name][1]) for name in arrays]
    buf = np.empty(max(sizes, default=0), dtype="<f4")
    for name, arr in arrays.items():
        value = np.asarray(tensors[name]) if file is None else file.read_into(name, buf)
        if value.shape != arr.shape:
            raise ShapeError(f"weight '{name}': file {value.shape} vs model {arr.shape}")
        check(name, value)
        del value  # the next lookup reads before it would rebind `value`
    del buf
    for name, arr in arrays.items():
        if file is not None and _holds(arr, arr.size):
            file.read_into(name, arr)
        else:
            arr[...] = tensors[name]


def _short(path, off: int, what: str, n: int, remain: int) -> InvalidInputError:
    return InvalidInputError(f"{path}: byte {off}: {what} needs {n} bytes, {remain} remain")


def _read_header(path: str | Path, fd: int) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Each tensor's payload offset and dims, every field checked."""
    size = os.fstat(fd).st_size

    def read(off: int, n: int, what: str) -> bytes:
        data = os.pread(fd, n, off)
        if len(data) < n:
            raise _short(path, off, what, n, len(data))
        return data

    head = read(0, 12, "header")
    if head[:4] != MAGIC:
        raise InvalidInputError(f"{path}: byte 0: bad magic {head[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", head, 4)
    if version != VERSION:
        raise InvalidInputError(f"{path}: byte 4: unsupported version {version}")
    off = 12
    out: dict[str, tuple[int, tuple[int, ...]]] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read(off, 2, "name length"))
        off += 2
        try:
            name = read(off, name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise InvalidInputError(f"{path}: byte {off + e.start}: name is not UTF-8") from None
        if name in out:
            raise InvalidInputError(f"{path}: byte {off}: duplicate tensor name {name!r}")
        off += name_len
        (rank,) = read(off, 1, f"rank of {name!r}")
        if rank > MAX_RANK:
            raise InvalidInputError(f"{path}: byte {off}: rank {rank} of {name!r} exceeds {MAX_RANK}")
        off += 1
        dims = struct.unpack(f"<{rank}Q", read(off, 8 * rank, f"dims of {name!r}"))
        # Python ints: no overflow before the checks. An empty tensor needs
        # no bytes, but numpy still cannot hold a shape whose other dims
        # overflow its index type.
        if 4 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
            raise InvalidInputError(f"{path}: byte {off}: dims {dims} of {name!r} are too large")
        off += 8 * rank
        n = 4 * math.prod(dims)
        if n > size - off:
            raise _short(path, off, f"data of {name!r} {dims}", n, size - off)
        out[name] = (off, dims)
        off += n
    if off != size:
        raise InvalidInputError(f"{path}: byte {off}: {size - off} trailing bytes")
    return out

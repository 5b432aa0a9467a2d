"""Image lanes: a batched eager forward split into one image lane per BLAS thread.

With every norm applying stored statistics, the images of a batch never
meet before the head, so a forward over N images is N independent
forwards. A batched forward runs its elementwise numpy work (GELU, norms,
sums, gathers: about 40% of a call) on one CPU while OpenBLAS's other
threads wait. Lanes put that work on every CPU that OpenBLAS would use:
`pinned` sets OpenBLAS to one thread for the call and grants
k = min(N, OpenBLAS's thread count) lanes, and `run` splits a map into k
contiguous image lanes, runs lane 0 on the calling thread and the others
on worker threads, and joins their outputs.

Thread control goes through ctypes, as `tensor._keep_freed_heap` reaches
mallopt: the OpenBLAS mapped into the process and its get/set-num-threads
symbols. Where either is missing there are no lanes. One call at a time
holds the pin; a call that finds it held runs without lanes. The worker
threads and the pin's lock are rebuilt in a forked child.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links:
# scipy-openblas with 64- and 32-bit integers, then OpenBLAS's own names
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class BlasThreads:
    """Get and set the thread count of the process's BLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def blas_control() -> BlasThreads | None:
    """Thread control of the OpenBLAS mapped into this process, or None.

    The library is found among the files the process maps (Linux's
    /proc/self/maps); opening it again returns the loaded copy."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            paths = {line.split(None, 5)[5].strip() for line in f if "openblas" in line.lower()}
    except (OSError, IndexError):
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return BlasThreads(get, set_)
    return None


def blas_threads() -> int | None:
    """The BLAS thread count found, or None when there is no thread control."""
    control = blas_control()
    return None if control is None else control.get()


class _Pin:
    """The one pin of this process: its lock, holder, lanes and worker pool."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.owner: int | None = None  # ident of the thread holding the pin
        self.lanes = 1
        self.threads = 0  # the BLAS thread count to restore
        self.pool: ThreadPoolExecutor | None = None
        self.workers = 0


_pin = _Pin()


def _after_fork_in_child() -> None:
    """A child gets a fresh pin: the parent's worker threads do not exist in
    it, and a pin held by another parent thread is never released in it."""
    global _pin
    held, _pin = _pin, _Pin()
    if held.owner is not None:  # only a call that found thread control holds the pin
        blas_control().set(held.threads)


os.register_at_fork(after_in_child=_after_fork_in_child)


@contextmanager
def pinned(images: int):
    """Lane count for a call over `images` images: k >= 2 with OpenBLAS on
    one thread until the block exits, else 1 with nothing changed.

    A nested pin on the thread that holds the pin gets the holder's count
    and leaves the release to the holder. There is 1 lane with fewer than
    two images, without thread control, with one BLAS thread, or while
    another thread holds the pin."""
    pin = _pin
    if pin.owner == threading.get_ident():
        yield pin.lanes
        return
    control = blas_control() if images >= 2 else None
    if control is None or not pin.lock.acquire(blocking=False):
        yield 1
        return
    try:
        threads = control.get()
        if threads < 2:
            yield 1
            return
        pin.owner, pin.lanes, pin.threads = threading.get_ident(), min(images, threads), threads
        control.set(1)
        try:
            yield pin.lanes
        finally:
            control.set(threads)
            pin.owner = None
    finally:
        pin.lock.release()


def run(lanes: int, x: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """fn over `lanes` contiguous image lanes of x, joined along axis 0; for
    a caller holding the pin, which keeps the worker pool to one caller.

    Lane 0 runs on the calling thread, the others on worker threads. When
    a lane raises, the error is raised after every lane has finished: lane
    0's, else that of the first failing lane."""
    parts, pool = np.array_split(x, lanes), _workers(lanes - 1)
    futures = [pool.submit(fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        wait(futures)
    return np.concatenate([first] + [f.result() for f in futures])


def _workers(n: int) -> ThreadPoolExecutor:
    pin = _pin
    if pin.workers < n:
        if pin.pool is not None:
            pin.pool.shutdown(wait=False)
        pin.pool, pin.workers = ThreadPoolExecutor(n, thread_name_prefix="hiremlp-lane"), n
    return pin.pool

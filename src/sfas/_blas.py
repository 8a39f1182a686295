"""One OpenBLAS thread while harness work runs.

The harness parallelizes a campaign over trials with forked worker
processes, so OpenBLAS threads inside each trial only compete with them;
a child forked inside the block inherits the pin.
They also make results depend on the host: the last bits of a product such
as the sample covariance X Xᴴ depend on how many threads computed it.
`one_blas_thread` pins every OpenBLAS loaded in the process to one thread
for the duration of a `with` block and then restores the caller's count.
Nested and concurrent blocks share one pin: the first to enter saves the
count and sets it to one, the last to leave restores it.  Without an
OpenBLAS (another BLAS, or no `/proc/self/maps`) it does nothing.
"""

from __future__ import annotations

import ctypes
import os
import re
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

# Symbol prefixes and suffixes of the OpenBLAS builds numpy ships with:
# the 64-bit-integer wheel build, a 64-bit-integer system build, a plain one.
_NAMES = (
    ("scipy_openblas_", "64_"),
    ("openblas_", "64_"),
    ("openblas_", ""),
)

_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a child forked mid-update would find it held forever
    os.register_at_fork(
        before=_lock.acquire, after_in_parent=_lock.release, after_in_child=_lock.release
    )
_depth = 0
_saved: list[int] = []


@cache
def _controls() -> tuple[tuple[object, object], ...]:
    """(get_num_threads, set_num_threads) of each loaded OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    libs = sorted({p for p in re.findall(r"(/\S+\.so[\w.]*)", maps) if "openblas" in p.lower()})
    out = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                out.append((get, set_))
                break
    return tuple(out)


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            controls = _controls()
            _saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(_controls(), _saved):
                    set_(count)

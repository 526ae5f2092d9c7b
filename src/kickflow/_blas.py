"""Thread count of the OpenBLAS that numpy is linked against.

Loops of many mid-sized products run their BLAS on one thread.  A
multithreaded OpenBLAS call splits each product between threads that
wait for one another, and its idle threads spin between calls, so such a
loop slows several-fold as soon as any other process wants a core.
Where numpy uses another BLAS, or OpenBLAS cannot be found, the thread
limit does nothing.
"""

from __future__ import annotations

import ctypes
import importlib
from contextlib import contextmanager
from functools import lru_cache

# (getter, setter) names: the scipy-openblas wheels of numpy, then a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            # symbols are looked up through the extension's own dependencies
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
            break
        except (ImportError, AttributeError, OSError):
            continue
    else:
        return None
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def blas_threads() -> int | None:
    """Current OpenBLAS thread count, or None when it cannot be asked."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


@contextmanager
def single_threaded_blas():
    """Run the block with OpenBLAS on one thread, then restore its count.

    Nested uses restore correctly: an inner block saves and restores 1.
    """
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)

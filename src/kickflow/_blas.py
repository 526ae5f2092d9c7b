"""Thread count of the OpenBLAS that numpy is linked against.

Importing kickflow puts the process's OpenBLAS on one thread, once.
kickflow's loops run many small and mid-sized products: a multithreaded
OpenBLAS call splits each one between threads that wait for one another,
and its idle threads spin between calls, so such a loop slows several-fold
as soon as any other process wants a core.  The one thread also leaves
the second core to the worker of ``advance_columns``.  Where numpy uses
another BLAS, or OpenBLAS cannot be found, nothing is set.
"""

from __future__ import annotations

import ctypes
import importlib
from functools import lru_cache

import numpy as np

# (prefix, suffix) of the OpenBLAS function names: the scipy-openblas wheels
# of numpy, then a system OpenBLAS
_MANGLINGS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
              ("openblas_", "64_"), ("openblas_", ""))


@lru_cache(maxsize=None)
def _openblas():
    """(get, set, config) functions of numpy's OpenBLAS, or None.

    ``config`` returns the runtime configuration string, or is None where
    this OpenBLAS does not export it.
    """
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            # symbols are looked up through the extension's own dependencies
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
            break
        except (ImportError, AttributeError, OSError):
            continue
    else:
        return None
    for prefix, suffix in _MANGLINGS:
        get, set_, config = (getattr(lib, f"{prefix}{fn}{suffix}", None)
                             for fn in ("get_num_threads", "set_num_threads", "get_config"))
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            if config is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
            return get, set_, config
    return None


def blas_threads() -> int | None:
    """Current OpenBLAS thread count, or None when it cannot be asked."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


def blas_info() -> dict:
    """Name and version of numpy's BLAS, and OpenBLAS's runtime configuration.

    The configuration string names the CPU kernels OpenBLAS picked when it
    loaded, which can differ from those of the build; None where unknown.
    """
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        dep = {}
    fns = _openblas()
    config = fns[2]().decode() if fns is not None and fns[2] is not None else None
    return {"name": dep.get("name"), "version": dep.get("version"), "config": config}


# set_num_threads(1), once, at import (see the module docstring)
if _openblas() is not None:
    _openblas()[1](1)

"""The package's one C library, ``_kernels.c`` (the kernels of ``cloud``,
``lattice`` and ``rng``): its build, its load and the record of which
kernel ran.  The first ``library()`` call builds it with the local gcc
into ``__pycache__/_kernels-<hash>.so`` next to this module (the hash
covers the source and the build command; a build goes to a temporary
file renamed into place, so concurrent builds are safe; only a build
imports ``subprocess``) and loads it with ``ctypes``, which releases the
GIL during each call, so threads run their row passes and sweeps in
parallel.  The flags are ``-O3 -ffp-contract=off``: ``-O3`` vectorises
the pair sweep's inner loop, and no multiply-add may be contracted into
an FMA, so every sum is rounded as numpy rounds it.  Nothing is built or
loaded at import.  When the library cannot be built or loaded,
``library()`` returns None, silently, and the callers run their Python
twins, which are the reference.  ``kernel_ran`` names the kernel of the
last patience read-out and of the last lattice sweep or walk; the
Philox stream records nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = _SOURCE.parent / "__pycache__"
_BUILD = ("gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
_loaded = None  # the compiled library; False once it failed to build or load
_load_lock = threading.Lock()
kernel_ran = {"patience": None, "lattice": None}


def _build() -> Path:
    """The compiled library in ``_CACHE``, built unless present."""
    tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_BUILD).encode()).hexdigest()
    lib = _CACHE / f"_kernels-{tag[:16]}.so"
    if not lib.exists():
        import subprocess  # only a build needs them: a cached library loads without
        import tempfile
        _CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=_CACHE)
        os.close(fd)
        try:
            subprocess.run([*_BUILD, "-o", tmp, str(_SOURCE)], check=True,
                           capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def library(family=None):
    """The compiled library, built and loaded on first use; None when that
    failed.  With a family ("patience" or "lattice"), records in
    ``kernel_ran`` which kernel that family's call runs."""
    global _loaded
    if _loaded is None:
        with _load_lock:
            if _loaded is None:
                try:
                    lib = ctypes.CDLL(str(_build()))
                    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
                    lib.pile_counts.restype = None
                    lib.pile_counts.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr, ptr, ptr]
                    lib.row_pass.restype = i64
                    lib.row_pass.argtypes = [ptr, ptr, ptr, i64, f64, f64, f64, f64,
                                             ptr, ptr, i64, ptr, ptr]
                    lib.path_table.restype = None
                    lib.path_table.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr, ptr]
                    lib.pair_sweep.restype = i64
                    lib.pair_sweep.argtypes = [ptr, i64, i64, i64, i64, i64, i64, i64, i64,
                                               i64, i64, ptr, i64, ptr]
                    lib.walk.restype = i64
                    lib.walk.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, i64, i64, i64,
                                         i64, ptr]
                    lib.philox_uniforms.restype = None
                    lib.philox_uniforms.argtypes = [ctypes.c_uint64, ctypes.c_uint64, i64, ptr]
                    _loaded = lib
                except Exception:  # any failure: the Python routines serve
                    _loaded = False
    if family is not None:
        kernel_ran[family] = "compiled" if _loaded else "python"
    return _loaded or None

"""The package's compiled kernels, ``_kernels.c`` (the kernels of ``cloud``,
``lattice`` and ``rng``), as one CPython extension module: its build, its
load and the record of which kernel ran.  The first ``library()`` call
builds it with the local gcc and the interpreter's headers into
``__pycache__/_kernels-<source>-<env><suffix>`` next to this module:
<source> hashes the source, <env> the build command and the include
directory, and <suffix> is the interpreter's extension suffix, so two
interpreters sharing a checkout never load each other's build.  A build
goes to a temporary file renamed into place, so concurrent builds are
safe.  A successful build deletes the other builds of its <env> and
<suffix>, and the single-hash ``_kernels-<hash>.*`` and ``_patience-*``
files of earlier layouts; other builds stay.  Only a build imports
``subprocess``, and only the hash imports ``hashlib``.  The module is
loaded by file, under the plain name ``_kernels``, and its multi-phase
initialisation adds nothing to ``sys.modules``.  Its entry points take
numpy arrays through the buffer protocol, check them, and release the
GIL while the kernel runs, so threads run their row passes and sweeps in
parallel.  The flags are ``-O3 -ffp-contract=off``: ``-O3`` vectorises
the pair sweep's inner loop, and no multiply-add may be contracted into
an FMA, so every sum is rounded as numpy rounds it.  Nothing is built or
loaded at import.  When the module cannot be built or loaded (no gcc, no
Python headers), ``library()`` returns None, silently, and the callers
run their Python twins, which are the reference.  ``kernel_ran`` names
the kernel of the last patience read-out and of the last lattice sweep
or walk; the Philox stream records nothing.
"""

from __future__ import annotations

import os
import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = _SOURCE.parent / "__pycache__"
_BUILD = ("gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
_SUFFIX = EXTENSION_SUFFIXES[0]  # this interpreter's ABI, e.g. ".cpython-311-x86_64-linux-gnu.so"
_loaded = None  # the compiled module; False once it failed to build or load
_load_lock = threading.Lock()
kernel_ran = {"patience": None, "lattice": None}


def _include() -> str:
    """The directory of this interpreter's ``Python.h``: the POSIX include
    path under ``sys.base_prefix`` when it holds one, else sysconfig's.
    Asking sysconfig first would cost every run about 1 ms and 0.3 MB."""
    v = sys.version_info
    here = os.path.join(sys.base_prefix, "include", f"python{v[0]}.{v[1]}{sys.abiflags}")
    if os.path.exists(os.path.join(here, "Python.h")):
        return here
    import sysconfig
    return sysconfig.get_path("include")


def _build() -> Path:
    """The compiled module in ``_CACHE``, built unless present."""
    import hashlib  # only here and in manifest: importing the CLI loads no OpenSSL
    include = _include()
    source, env = (hashlib.sha256(part).hexdigest()[:16] for part in
                   (_SOURCE.read_bytes(), "\0".join([*_BUILD, include]).encode()))
    lib = _CACHE / f"_kernels-{source}-{env}{_SUFFIX}"
    if not lib.exists():
        import subprocess  # only a build needs them: a cached module loads without
        import tempfile
        _CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=_CACHE)
        os.close(fd)
        try:
            subprocess.run([*_BUILD, f"-I{include}", "-o", tmp, str(_SOURCE)], check=True,
                           capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for old in (*_CACHE.glob(f"_kernels-*-{env}{_SUFFIX}"),
                    *_CACHE.glob("_kernels-" + "?" * 16 + ".*"), *_CACHE.glob("_patience-*")):
            if old != lib:
                old.unlink(missing_ok=True)
    return lib


def _load(path: Path):
    """The extension module at path, loaded without a ``sys.modules`` entry."""
    spec = ModuleSpec("_kernels", ExtensionFileLoader("_kernels", str(path)), origin=str(path))
    module = spec.loader.create_module(spec)
    spec.loader.exec_module(module)
    return module


def library(family=None):
    """The compiled module, built and loaded on first use; None when that
    failed.  With a family ("patience" or "lattice"), records in
    ``kernel_ran`` which kernel that family's call runs."""
    global _loaded
    if _loaded is None:
        with _load_lock:
            if _loaded is None:
                try:
                    _loaded = _load(_build())
                except Exception:  # any failure: the Python routines serve
                    _loaded = False
    if family is not None:
        kernel_ran[family] = "compiled" if _loaded else "python"
    return _loaded or None

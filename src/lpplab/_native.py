"""The package's compiled kernels, ``_kernels.c`` (the kernels of ``cloud``,
``lattice`` and ``rng``), as one CPython extension module: its build and
its load.  The first ``library()`` call builds it with the local gcc and
the interpreter's headers into
``__pycache__/_kernels-<source>-<env><suffix>`` next to this module:
<source> hashes the source, <env> the build command and the include
directory, and <suffix> is the interpreter's extension suffix, so two
interpreters sharing a checkout never load each other's build.  A build
goes to a temporary file renamed into place, so concurrent builds are
safe.  A successful build deletes the other builds of its <env> and
<suffix>, and the single-hash ``_kernels-<hash>.*`` and ``_patience-*``
files of earlier layouts; other builds stay.  Only a build imports
``subprocess``.  The hashes come from ``sha256()``, the package's one
SHA-256, which ``manifest`` digests artifacts with too, so neither
imports ``hashlib`` and loads OpenSSL.  The module is
loaded by file, under the plain name ``_kernels``, and its multi-phase
initialisation adds nothing to ``sys.modules``.  Its entry points take
numpy arrays through the buffer protocol, check them, and release the
GIL while the kernel runs, so threads run their row passes and sweeps in
parallel.  The flags are ``-O3 -ffp-contract=off``: ``-O3`` vectorises
the pair sweep's inner loop, and no multiply-add may be contracted into
an FMA, so every sum is rounded as numpy rounds it.  Nothing is built or
loaded at import.

The module is the only implementation of its kernels, so gcc and the
Python headers are required.  When the module cannot be built or loaded,
``library()`` raises ``BuildError``: one line naming the build command
and the include directory.  The error is kept, so later calls raise it
again without running gcc.
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
_loaded = None  # the compiled module, or the BuildError its build or load raised
_load_lock = threading.Lock()


class BuildError(RuntimeError):
    """The compiled module could not be built or loaded."""


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


def sha256(data: bytes = b""):
    """A SHA-256 hash object fed data, from CPython's built-in module as
    ``random.py`` takes its SHA-512 (``_sha2`` on 3.12+, ``_sha256``
    before), and from ``hashlib`` only on an interpreter built without
    it.  Importing ``hashlib`` loads OpenSSL's ``_hashlib`` and libcrypto,
    about 3 ms and 3.6 MB of resident memory a process on a 2-vCPU VM,
    for hashing about 6x as fast (1,382 against 213 MB/s there) as the
    few megabytes of a run's artifacts need.  The digests are the same."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:  # an interpreter built without the module
        from hashlib import sha256 as new
    return new(data)


def _build() -> Path:
    """The compiled module in ``_CACHE``, built unless present."""
    include = _include()
    source, env = (sha256(part).hexdigest()[:16] for part in
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


def _failure(err: Exception) -> BuildError:
    """The one-line BuildError for a failed build or load: its cause, the
    build command and the include directory."""
    include = _include()
    if isinstance(err, OSError) and err.filename is not None:
        reason = f"{err.strerror}: {err.filename}"
    else:
        lines = (getattr(err, "stderr", None) or b"").decode(errors="replace").splitlines()
        reason = next((line.strip() for line in lines if "error" in line), None) or str(err)
    command = " ".join([*_BUILD, f"-I{include}", str(_SOURCE)])
    error = BuildError(f"lpplab cannot build its compiled kernels: {' '.join(reason.split())}; "
                       f"the build runs `{command}` into {_CACHE} and needs gcc and Python.h "
                       f"in {include}")
    error.__cause__ = err
    return error


def library():
    """The compiled module, built and loaded on first use.  Raises
    BuildError when that failed, on this call or an earlier one."""
    global _loaded
    if _loaded is None:
        with _load_lock:
            if _loaded is None:
                try:
                    _loaded = _load(_build())
                except Exception as err:  # no gcc, no headers, a compile error, no cache
                    _loaded = _failure(err)
    if isinstance(_loaded, BuildError):
        raise _loaded.with_traceback(None)
    return _loaded

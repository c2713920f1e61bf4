"""Counter-based random number streams.

Every random object in this package is generated from a Philox4x64-10
bit generator keyed by ``(seed, stream)``.  Philox is counter based, so a
stream can be regenerated from scratch at any time and never depends on
how many draws other streams have consumed.  This is what makes
environments bit-reproducible under parallel fan-out: a worker only needs
the key, never a shared generator state.

Streams are identified by small integer ids; the conventions used by the
rest of the package are listed in ``Stream``.

The stream is compiled: ``uniforms`` fills its array in one call to
``philox_uniforms`` in the package's extension module (``_kernels.c``,
loaded by ``_native``), which gives exactly the words of numpy's
``Philox(key=[seed, stream]).random(n)`` (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  numpy's generator is the
reference of the tests, and the stream imports no ``numpy.random``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _native
from .errors import ParameterError


class Stream:
    """Stream ids, one per independent random object."""

    POISSON_COUNT = 0
    POISSON_POINTS = 1
    LATTICE_WEIGHTS = 2
    ORACLE_CLOUD = 3


def _key(seed, stream):
    """The Philox key (seed, stream) as ints; each must be an integer in
    [0, 2^64)."""
    return _word("seed", seed), _word("stream", stream)


def _word(name, value) -> int:
    """value as an int, checked to be an integer in [0, 2^64)."""
    try:
        word = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= word < 2**64:
        raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return word


def uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1) from the (seed, stream) Philox stream."""
    seed, stream = _key(seed, stream)
    out = np.empty(int(n))
    _native.library().philox_uniforms(seed, stream, out)
    return out


def poisson_count(seed: int, stream: int, mean: float) -> int:
    """Draw one Poisson(mean) count by CDF inversion of a single uniform.

    Inversion keeps the draw a pure function of one uniform, which makes
    the count trivially reproducible and independent of any library
    rejection-sampler details.  Works in log space so large means do not
    underflow.
    """
    if not (mean >= 0 and math.isfinite(mean)):
        raise ParameterError(f"mean must be finite and nonnegative, got {mean}")
    if mean == 0:
        return 0
    u = float(uniforms(seed, stream, 1)[0])
    # log pmf(k) = k log(mean) - mean - log(k!), accumulated to a log CDF.
    kmax = int(mean + 12.0 * np.sqrt(mean) + 30.0)
    k = np.arange(kmax + 1, dtype=np.float64)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, kmax + 1)))))
    log_pmf = k * np.log(mean) - mean - log_fact
    log_cdf = np.logaddexp.accumulate(log_pmf)
    return int(np.searchsorted(log_cdf, np.log(u), side="left"))


def geometric_weights(seed: int, stream: int, n: int, p: float) -> np.ndarray:
    """``n`` geometric(p) integers with P(w = k) = p (1-p)^k, k >= 0.

    Mean (1-p)/p.  Drawn by inversion so weights are exact integers.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"geometric parameter p must be in (0, 1), got {p}")
    u = uniforms(seed, stream, n)
    w = np.floor(np.log1p(-u) / np.log1p(-p))
    return w.astype(np.int64)


def bernoulli_weights(seed: int, stream: int, n: int, p: float) -> np.ndarray:
    """``n`` Bernoulli(p) integers."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"bernoulli parameter p must be in (0, 1), got {p}")
    return (uniforms(seed, stream, n) < p).astype(np.int64)


def exponential_weights(seed: int, stream: int, n: int) -> np.ndarray:
    """``n`` exponential(1) reals, by inversion."""
    u = uniforms(seed, stream, n)
    return -np.log1p(-u)

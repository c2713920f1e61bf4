"""The numpy twins of the compiled kernels, and a fake kernel module
built on them.

The twins compute what the kernels of ``_kernels.c`` compute, in numpy
and Python, with the same operation order: the lattice sweep step
``_relax`` and its sweeps ``_path_table_py`` and ``_pair_sweep_py``,
the walk ``_walk_py``, the patience kernel ``_pile_counts_py`` and the
Philox ``generator``.  They are the reference of the equivalence tests.

This module is also a stand-in for the compiled module: ``pile_counts``,
``row_pass``, ``path_table``, ``pair_sweep``, ``walk`` and
``philox_uniforms`` take the extension's arguments, write its output
buffers and return what it returns, from the twins.  Its ``row_pass``
always reports the slab out of order, so ``cloud.row_pass`` serves the
row from its Python parts on the twin ``pile_counts``.  Set
``_native._loaded`` to ``twin_kernels()`` and every kernel call of the
package runs a twin; ``Counted`` counts the calls of either module.
"""

from __future__ import annotations

import itertools
import json
import sys
from bisect import bisect_right
from collections import Counter
from types import SimpleNamespace

import numpy as np

from lpplab.errors import InvariantError
from lpplab.lattice import NEG, is_reachable
from lpplab.model import LatticeField
from lpplab.rng import _key

_SHIFTS = (slice(1, None), slice(None, -1))  # index stayed, index moved up
_BORDER = ((1, 0), (1, 0))  # np.pad widths: one border row and column in front


def _relax(out: np.ndarray, prev: np.ndarray, weights) -> None:
    """out = max(predecessors in prev) + weights: one step, one axis per path.

    ``prev`` is out's window at t - 1 widened by one index at the low end
    of every axis; ``weights`` lists (axis, w) in the order of addition.
    """
    views = [prev[s] for s in itertools.product(_SHIFTS, repeat=out.ndim)]
    np.maximum(views[0], views[1], out=out)
    for v in views[2:]:
        np.maximum(out, v, out=out)
    for axis, w in weights:
        out += w.reshape((-1,) + (1,) * (out.ndim - 1 - axis))


def _path_table_py(w: np.ndarray, corner, stop=None) -> np.ndarray:
    """_path_table in numpy, the reference of the compiled one: swept
    over the cells (i, j) >= corner with i <= i1, j <= j1 and
    i + j <= t_stop, for stop = (i1, j1, t_stop) (None: the whole grid)."""
    rows, cols = w.shape
    table = np.full((rows + 1, cols + 1), NEG)
    flat, wflat = table.reshape(-1), np.pad(w, _BORDER).reshape(-1)
    i0, j0 = corner
    i1, j1, t_stop = stop or (rows - 1, cols - 1, rows + cols - 2)
    table[i0 + 1, j0 + 1] = w[i0, j0]
    for t in range(i0 + j0 + 1, t_stop + 1):
        lo, hi = max(i0, t - j1), min(i1, t - j0)
        # padded cell (i, t - i) sits at flat index base + i * cols
        base = cols + t + 2
        live = slice(base + lo * cols, base + hi * cols + 1, cols)
        _relax(flat[live], flat[base - 1 + (lo - 1) * cols:base + hi * cols:cols],
               ((0, wflat[live]),))
    return table


def _antidiagonal(w: np.ndarray, t: int) -> np.ndarray:
    """out[j + 1] = w[t - j, j]: antidiagonal t as a padded row, 0 off-grid."""
    rows, cols = w.shape
    j = np.arange(max(0, t - rows + 1), min(cols - 1, t) + 1)
    out = np.zeros(cols + 1)
    out[j + 1] = w[t - j, j]
    return out


def _pair_sweep_py(w: np.ndarray, start_pair, t_stop: int, record: bool, order,
                   band=None):
    """_pair_sweep in numpy, the reference of the compiled one.  With a
    band (j_lo, j_hi, sep) every step's states outside the window of
    states that can reach the band (left column >= j_lo - r, right column
    <= j_hi, separation <= sep + r, r steps before t_stop) are set to
    NEG, so the kept states are the full sweep's inside the window."""
    rows, cols = w.shape
    j_lo, j_hi, sep = band or (0, cols - 1, cols - 1)
    a, b = np.indices((cols + 1, cols + 1))  # padded columns of the two paths
    (i1, j1), (i2, j2) = start_pair
    t = i1 + j1
    cur = np.full((cols + 1, cols + 1), NEG)
    if (i1, j1) == (i2, j2):
        if i1 + 1 >= rows or j1 + 1 >= cols:
            return []
        t += 1
        cur[j1 + 1, j1 + 2] = 2.0 * w[i1, j1] + w[i1 + 1, j1] + w[i1, j1 + 1]
    else:
        cur[j1 + 1, j2 + 1] = w[i1, j1] + w[i2, j2]
    if t_stop < t:
        return []
    trail = [(t, cur)]
    spare = np.full_like(cur, NEG)
    lo = 0
    for t in range(t + 1, t_stop + 1):
        # live columns (padded): j >= j1 and inside the grid, i >= min(i1, i2)
        lo, hi = max(j1, t - rows + 1) + 1, min(cols - 1, t - min(i1, i2)) + 1
        if lo > hi:
            return []
        nxt = np.full_like(cur, NEG) if record else spare
        out, w_t = nxt[lo:hi + 1, lo:hi + 1], _antidiagonal(w, t)[lo:hi + 1]
        _relax(out, cur[lo - 1:hi + 1, lo - 1:hi + 1], [(axis, w_t) for axis in order])
        np.fill_diagonal(out, NEG)
        r = t_stop - t
        nxt[(a < j_lo + 1 - r) | (b > j_hi + 1) | (b - a > sep + r)] = NEG
        if not record:
            trail.clear()
        trail.append((t, nxt))
        cur, spare = nxt, cur
    cur[:lo] = NEG  # rows that left the window may hold stale states
    if not is_reachable(float(cur[(a >= j_lo + 1) & (b <= j_hi + 1) & (b - a <= sep)].max())):
        return []
    return trail


def _walk_py(field: LatticeField, B: np.ndarray, start, end, side: str) -> np.ndarray:
    """The walk of geodesic_cells_from_B in numpy, the reference of the
    compiled one; the caller has checked start, end and B."""
    (i, j), (i1, j1) = start, end
    Bs = B[i:i1 + 1, j:j1 + 1]
    ws = field.weights[i:i1 + 1, j:j1 + 1]
    # B was computed as max(children) + w, so test in the same order
    right, down = np.zeros((2, *Bs.shape), dtype=bool)
    right[:, :-1] = Bs[:, 1:] + ws[:, :-1] == Bs[:, :-1]
    down[:-1] = Bs[1:] + ws[:-1] == Bs[:-1]
    # flat index step of the preferred allowed move: 1 right, width down, 0 none
    width = Bs.shape[1]
    if side == "right":
        step = np.where(right, 1, np.where(down, width, 0))
    else:
        step = np.where(down, width, np.where(right, 1, 0))
    step = step.ravel().tolist()
    ks = [0]  # flat indices of the cells walked, one per chart time
    for _ in range(i1 - i + j1 - j):
        if not step[ks[-1]]:
            r, c = divmod(ks[-1], width)
            raise InvariantError("geodesic walk lost the optimum", field,
                                 start=start, end=end, side=side, at=(i + r, j + c))
        ks.append(ks[-1] + step[ks[-1]])
    k = np.array(ks, dtype=np.int64)
    return np.column_stack((k // width + i, k % width + j))


def _pile_counts_py(vs, k: int, stops, bounds) -> np.ndarray:
    """The patience kernel in Python, the reference of the compiled one."""
    vs = np.asarray(vs, dtype=np.float64).tolist()
    rows = [[] for _ in range(k)]
    out = []
    pos = 0
    for stop, bound in zip(np.asarray(stops, dtype=np.int64).tolist(),
                           np.asarray(bounds, dtype=np.float64).tolist()):
        for item in vs[pos:stop]:
            for row in rows:
                spot = bisect_right(row, item)
                if spot == len(row):
                    row.append(item)
                    break
                item, row[spot] = row[spot], item
        pos = stop
        out.append([bisect_right(row, bound) for row in rows])
    return np.array(out, dtype=np.int64).reshape(len(out), k)


def generator(seed: int, stream: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, stream)``.

    The key is the pair itself, so distinct (seed, stream) pairs index
    provably disjoint Philox streams.
    """
    bitgen = np.random.Philox(key=np.array(_key(seed, stream), dtype=np.uint64))
    return np.random.Generator(bitgen)


# ------------------------------------------------ the extension's entry points

def pile_counts(vs, k, stops, bounds, rows, lens, out):
    out[...] = _pile_counts_py(vs, k, stops, bounds)


def row_pass(xs, ts, lo, hi, sx, st, U, V, tu, tv, scratch, out):
    return True  # "out of order": the caller's Python parts serve the row


def path_table(w, i0, j0, reads, table):
    """The window of the read cells reachable from (i0, j0) is their last
    row, column and chart time; the corner alone when none is."""
    stop = None
    if reads is not None:
        i, j = reads[(reads[:, 0] >= i0) & (reads[:, 1] >= j0)].T
        stop = (i.max(), j.max(), (i + j).max()) if i.size else (i0, j0, i0 + j0)
    table[...] = _path_table_py(w, (i0, j0), stop)


def pair_sweep(w, i1, j1, i2, j2, t_stop, swap, reads, states, row):
    """Fills states as the compiled sweep does: every step when it holds
    one buffer per step, else the last step in buffer (steps - 1) % 2.
    The band of the read states (j1, j2) is their least j1, greatest j2
    and greatest j2 - j1; no state read, no pair."""
    band = None
    if reads is not None:
        if not len(reads):
            return False
        band = (reads[:, 0].min(), reads[:, 1].max(), (reads[:, 1] - reads[:, 0]).max())
    steps = t_stop - (i1 + j1 + ((i1, j1) == (i2, j2))) + 1
    record = len(states) == steps
    trail = _pair_sweep_py(w, ((i1, j1), (i2, j2)), t_stop, record, (1, 0) if swap else (0, 1),
                           band)
    if not trail:
        return False
    if record:
        states[...] = [S for _, S in trail]
    else:
        states[(steps - 1) % 2] = trail[-1][1]
    return True


def walk(B, w, i, j, i1, j1, right, out):
    """Writes the walk's rows and columns to out and returns -1, or
    returns the index of the cell where it lost the optimum, written to
    out at that index."""
    field = SimpleNamespace(weights=w, descriptor=dict)
    try:
        cells = _walk_py(field, B, (i, j), (i1, j1), "right" if right else "left")
    except InvariantError as err:
        r, c = json.loads(err.replay)["at"]
        at = r - i + c - j
        out[:, at] = r, c
        return at
    out[...] = cells.T
    return -1


def philox_uniforms(seed, stream, out):
    out[...] = generator(seed, stream).random(out.size)


class Counted:
    """A kernel module whose entry points count their calls in ``calls``."""

    def __init__(self, module):
        self.module, self.calls = module, Counter()

    def __getattr__(self, name):
        entry = getattr(self.module, name)

        def counted(*args):
            self.calls[name] += 1
            return entry(*args)
        return counted


def twin_kernels() -> Counted:
    """This module as the kernel module, counting its calls."""
    return Counted(sys.modules[__name__])

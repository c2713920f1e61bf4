"""Dynamic programming kernels for the lattice model.

Conventions
-----------
Cells are 0-indexed (i, j).  A path from cell a to cell b moves down or
right one cell at a time, so it visits exactly one cell per chart time
t = i + j.  Path values sum the weights of all visited cells, endpoints
included.

Pair kernels track two vertex-disjoint paths.  At every chart time the
two paths occupy distinct cells on the same antidiagonal; writing j1, j2
for their column indices, interior states satisfy j1 < j2 (two disjoint
monotone paths cannot exchange sides without sharing a cell).  A doubled
endpoint means the two paths share exactly that cell and its weight is
counted once per path.

The sweep
---------
Every table comes from one antidiagonal step, ``_relax``: a state at
chart time t is the best of its predecessors at t - 1 (each path stayed
on its index or came from the one below) plus each path's cell weight,
added path by path.  Single-path tables index antidiagonals by row i,
pair states by columns (j1, j2).

Live window: a sweep from corner (i0, j0) reaches only cells with
i >= i0 and j >= j0, so the live indices at time t form a window
[lo(t), hi(t)] whose ends never decrease.  A step updates that window
only, in place, in buffers padded with a NEG border at index 0.  The
pair step clears the diagonal j1 == j2: while every state on or below
it is dead, only the diagonal can be fed from a live state, so the
lower triangle stays dead.  The pair sweep swaps two buffers; lo is
constant until the grid's bottom edge cuts in and then rises by one per
step, so a step reads only rows the step before wrote or rows never
written.  Rows left behind go stale and are cleared once, at the end.

Compiled kernel: ``_path_table`` and ``_pair_sweep`` each run a whole
sweep, and ``geodesic_cells_from_B`` a whole walk, as one call into the
package's C library (``_kernels.c``, loaded by ``cloud._compiled`` on
first use, never at import; the call releases the GIL).  The C sweeps
take the operands in numpy's order, the max of the predecessors as
``_relax`` takes them, then the weights path by path, so every
reachable state is bit-identical to numpy's for every law (weights are
finite, see ``LatticeField``).  The pair sweep computes only the live
upper triangle j1 < j2 and clears the diagonal; the lower triangle is
never read, so it is never written and stays NEG.  Each step copies its
weights at (t - j, j), read through the field's strides (a reflected
view included), into one contiguous scratch row, so the inner loop
vectorises; no table of antidiagonal rows is built.  When the library
is missing, the numpy routines ``_path_table_py``, ``_pair_sweep_py``
and ``_walk_py`` run instead; they are the reference.  ``kernel_ran``
names the kernel of the last sweep or walk.

Mirrors come from reflection: backward tables and backward pair sweeps
are forward sweeps of the field reflected by (i, j) -> (rows-1-i,
cols-1-j).  Reflection swaps a pair's paths, so the mirrored sweep adds
the reflected right path's weight first; either way the left path's
weight is added before the right path's, as in a literal backward
recurrence, and values are bit-identical to it.

Read-outs: a doubled anchor c is read from the pair state next to it,
with the two paths on c's neighbours, plus c's weight once per path
(``doubled_values``).  The time of the states picks the neighbours: one
step before c (forward states, a doubled end) above and left of c, one
step after c (backward states, a doubled start) below and right of c.

Walks: an extremal geodesic from a to b is walked on B = backward
values to b (``geodesic_cells_from_B``).  A move from c to its right or
lower neighbour c' is allowed iff B[c'] + w[c] == B[c], in B's own
operand order, so the test is the recurrence that built B, bit for
bit.  The walk stays in the rectangle from a to b: at each cell it
tests only that cell's two moves, the right one while j < j(b), the
down one while i < i(b), and takes the allowed move its side prefers,
O(T) work for T cells.  The compiled walk reads B and the weights
through their strides, so the reflected view ``backward_values``
returns is walked without a copy; ``_walk_py`` builds both moves' masks
over the rectangle in one numpy pass instead.  The rectangle suffices:
every entry of B right of or below b is dead, so no move out of the
rectangle is ever allowed, and the walk takes the moves a walk over the
whole grid would take, failing (InvariantError) at the same cell when B
is inconsistent inside it.  Before either kernel runs, start and end
must be on the grid and B a float64 table of the grid's shape: the
compiled walk reads B and w by index, with no bounds of its own.

Only values above _VALID (see is_reachable) are meaningful.  Dead
states hold NEG plus rounding noise from the weights added to them.
Reachable values are bit-exact functions of the weights, whatever the
window, which the geodesic walks rely on.  Weights are float64;
integer-law values stay exact (they are far below 2^53).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import cloud
from .errors import InvariantError
from .model import DomainError, LatticeField, reflect_cell

NEG = -1.0e18
_VALID = NEG / 2.0
_SHIFTS = (slice(1, None), slice(None, -1))  # index stayed, index moved up
_BORDER = ((1, 0), (1, 0))  # np.pad widths: one border row and column in front
kernel_ran = None  # "compiled" or "python": the kernel of the last table or pair sweep


def is_reachable(value: float) -> bool:
    return value > _VALID


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


def _library():
    """The compiled library, or None when the numpy sweeps must serve;
    records which kernel runs in ``kernel_ran``."""
    global kernel_ran
    lib = cloud._compiled()
    kernel_ran = "python" if lib is None else "compiled"
    return lib


def _strides(w: np.ndarray):
    """w's row and column strides in elements (negative for a reflection)."""
    return w.strides[0] // w.itemsize, w.strides[1] // w.itemsize


def _path_table(w: np.ndarray, corner, seeds=None) -> np.ndarray:
    """Padded best-path table, swept from corner to the grid's far end.

    Without seeds the corner cell starts with its own weight.  With seeds
    (NEG where unseeded) every cell takes max(seed, swept value); the
    corner must then lie weakly above-left of every seeded cell.
    """
    lib = _library()
    if lib is None:
        return _path_table_py(w, corner, seeds)
    rows, cols = w.shape
    table = np.full((rows + 1, cols + 1), NEG)
    if seeds is not None:
        seeds = np.ascontiguousarray(seeds, dtype=np.float64)
    lib.path_table(w.ctypes.data, rows, cols, *_strides(w), int(corner[0]), int(corner[1]),
                   None if seeds is None else seeds.ctypes.data, table.ctypes.data)
    return table


def _path_table_py(w: np.ndarray, corner, seeds=None) -> np.ndarray:
    """_path_table in numpy, the reference of the compiled one."""
    rows, cols = w.shape
    table = np.full((rows + 1, cols + 1), NEG)
    flat, wflat = table.reshape(-1), np.pad(w, _BORDER).reshape(-1)
    i0, j0 = corner
    if seeds is None:
        table[i0 + 1, j0 + 1] = w[i0, j0]
    else:
        sflat = np.pad(seeds, _BORDER, constant_values=NEG).reshape(-1)
    for t in range(i0 + j0 + (seeds is None), rows + cols - 1):
        lo, hi = max(i0, t - cols + 1), min(rows - 1, t - j0)
        # padded cell (i, t - i) sits at flat index base + i * cols
        base = cols + t + 2
        live = slice(base + lo * cols, base + hi * cols + 1, cols)
        out = flat[live]
        _relax(out, flat[base - 1 + (lo - 1) * cols:base + hi * cols:cols],
               ((0, wflat[live]),))
        if seeds is not None:
            np.maximum(out, sflat[live], out=out)
    return table


def forward_values(field: LatticeField, start) -> np.ndarray:
    """F[c] = best path value start -> c, both endpoint weights included."""
    if not field.in_grid(start):
        raise DomainError(f"start cell {start} outside {field.rows}x{field.cols} grid")
    return _path_table(field.weights, start)[1:, 1:]


def backward_values(field: LatticeField, end) -> np.ndarray:
    """B[c] = best path value c -> end, both endpoint weights included."""
    if not field.in_grid(end):
        raise DomainError(f"end cell {end} outside grid")
    corner = reflect_cell(field, end)
    return _path_table(field.weights[::-1, ::-1], corner)[:0:-1, :0:-1]


def seeded_forward(field: LatticeField, seeds: np.ndarray) -> np.ndarray:
    """Best over paths that start at any seeded cell.

    seeds[c] is the value credited for starting at c (already including
    the weight of c), or NEG.  Returns A with
    A[c] = max(seeds[c], max(A[up], A[left]) + w[c]), evaluated literally.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.shape != field.weights.shape:
        raise DomainError(f"seeds of shape {seeds.shape} on a {field.rows}x{field.cols} grid")
    seeded = np.argwhere(seeds > _VALID)
    if not len(seeded):
        return np.full(field.weights.shape, NEG)
    corner = tuple(int(k) for k in seeded.min(axis=0))
    return _path_table(field.weights, corner, seeds)[1:, 1:]


def passage_value(field: LatticeField, start, end) -> float:
    ia, ja = start
    ib, jb = end
    if not (field.in_grid(start) and field.in_grid(end)):
        raise DomainError(f"endpoints {start}->{end} outside grid")
    if ib < ia or jb < ja:
        raise DomainError(f"end {end} not reachable from start {start}")
    return float(forward_values(field, start)[ib, jb])


def profile(field: LatticeField, start, chart_time: int) -> dict:
    """Values from start to every cell at the given chart time."""
    F = forward_values(field, start)
    out = {}
    for j in range(field.cols):
        i = chart_time - j
        if 0 <= i < field.rows and is_reachable(F[i, j]):
            out[field.chart_of((i, j))[0]] = float(F[i, j])
    return out


def _antidiagonals(w: np.ndarray) -> np.ndarray:
    """out[t, j + 1] = w[t - j, j]: antidiagonals as padded rows, 0 off-grid."""
    rows, cols = w.shape
    out = np.zeros((rows + cols - 1, cols + 1))
    i, j = np.indices(w.shape)
    out[i + j, j + 1] = w
    return out


def _pair_step(cur, nxt, w_t, lo, hi, order) -> None:
    """Advance padded pair states cur (t - 1) -> nxt (t) on [lo, hi]^2."""
    out = nxt[lo:hi + 1, lo:hi + 1]
    _relax(out, cur[lo - 1:hi + 1, lo - 1:hi + 1],
           [(axis, w_t[lo:hi + 1]) for axis in order])
    np.fill_diagonal(out, NEG)


def _pair_sweep(w: np.ndarray, start_pair, t_stop: int, record: bool, order):
    """Two-path sweep on weights w from an ordered start pair to t_stop.

    Returns the trail [(t, padded states)], holding every step with
    record and only the last one without; [] if no pair is feasible.
    ``order`` is the axis order in which the paths' weights are added.
    """
    lib = _library()
    if lib is None:
        return _pair_sweep_py(w, start_pair, t_stop, record, order)
    rows, cols = w.shape
    (i1, j1), (i2, j2) = start_pair
    t = i1 + j1 + ((i1, j1) == (i2, j2))
    if t_stop < t:
        return []
    steps = t_stop - t + 1
    states = np.full((steps if record else min(steps, 2), cols + 1, cols + 1), NEG)
    row = np.empty(cols + 1)
    if not lib.pair_sweep(w.ctypes.data, rows, cols, *_strides(w),
                          *(int(k) for k in (i1, j1, i2, j2, t_stop)),
                          int(order == (1, 0)), states.ctypes.data, len(states),
                          row.ctypes.data):
        return []
    if record:
        return list(zip(range(t, t_stop + 1), states))
    return [(t_stop, states[(steps - 1) % 2])]


def _pair_sweep_py(w: np.ndarray, start_pair, t_stop: int, record: bool, order):
    """_pair_sweep in numpy, the reference of the compiled one."""
    rows, cols = w.shape
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
    diags = _antidiagonals(w)
    trail = [(t, cur)]
    spare = np.full_like(cur, NEG)
    lo = 0
    for t in range(t + 1, t_stop + 1):
        # live columns (padded): j >= j1 and inside the grid, i >= min(i1, i2)
        lo, hi = max(j1, t - rows + 1) + 1, min(cols - 1, t - min(i1, i2)) + 1
        if lo > hi:
            return []
        nxt = np.full_like(cur, NEG) if record else spare
        _pair_step(cur, nxt, diags[t], lo, hi, order)
        if not record:
            trail.clear()
        trail.append((t, nxt))
        cur, spare = nxt, cur
    cur[:lo] = NEG  # rows that left the window may hold stale states
    if not is_reachable(float(cur.max())):
        return []
    return trail


def _check_pair(field: LatticeField, pair, role: str) -> None:
    c1, c2 = pair
    for c in pair:
        if not field.in_grid(c):
            raise DomainError(f"{role} cell {c} outside grid")
    if c1[0] + c1[1] != c2[0] + c2[1]:
        raise DomainError(f"{role} pair must share a chart time")
    if c1 != c2 and not c1[1] < c2[1]:
        raise DomainError(f"{role} pair must be ordered left to right")


def _pair_result(trail, t_stop: int, record: bool):
    if record:
        return [S for _, S in trail], [t for t, _ in trail]
    return (trail[-1][1], t_stop) if trail else (None, t_stop)


def pair_forward(field: LatticeField, start_pair, t_stop: int,
                 record: bool = False):
    """Sweep the two-path DP from a start pair up to chart time t_stop.

    start_pair is (a, a) for a doubled start or (a1, a2) with a1 left of
    a2 at the same chart time.  Returns (states, t) where states[j1, j2]
    is the best pair value with paths currently at columns j1 < j2 of
    antidiagonal t = t_stop, or (None, t) if no pair is feasible.  With
    record=True returns (list_of_states, times) for backtracking.
    """
    _check_pair(field, start_pair, "start")
    trail = _pair_sweep(field.weights, start_pair, t_stop, record, (0, 1))
    return _pair_result([(t, S[1:, 1:]) for t, S in trail], t_stop, record)


def pair_backward(field: LatticeField, end_pair, t_stop: int,
                  record: bool = False):
    """Mirror of pair_forward: sweep from an end pair down to chart time t_stop.

    The forward sweep of the reflected field, from the reflected end pair
    (whose paths trade sides); states and times are reflected back.
    """
    _check_pair(field, end_pair, "end")
    t_max = field.rows + field.cols - 2
    flipped = [reflect_cell(field, c) for c in end_pair[::-1]]
    trail = _pair_sweep(field.weights[::-1, ::-1], flipped, t_max - t_stop,
                        record, (1, 0))
    return _pair_result([(t_max - t, S[:0:-1, :0:-1].T) for t, S in trail],
                        t_stop, record)


def pair_step(field: LatticeField, states: np.ndarray, t: int) -> np.ndarray:
    """Advance full pair states from chart time t - 1 to t by one step."""
    rows, cols = field.weights.shape
    cur = np.pad(states, _BORDER, constant_values=NEG)
    nxt = np.full_like(cur, NEG)
    lo, hi = max(0, t - rows + 1), min(cols - 1, t)
    if lo <= hi:
        _pair_step(cur, nxt, _antidiagonals(field.weights)[t], lo + 1, hi + 1, (0, 1))
    return nxt[1:, 1:]


def disjoint2_value(field: LatticeField, start_pair, end_pair):
    """Best total value of two disjoint ordered paths, or None if infeasible.

    Paths may share only doubled endpoints; each path includes both of
    its endpoint weights, so a doubled endpoint weight is counted twice.
    """
    b1, b2 = end_pair
    for c in (*start_pair, *end_pair):
        if not field.in_grid(c):
            raise DomainError(f"cell {c} outside grid")
    t = b1[0] + b1[1] - (b1 == b2)
    S, _ = pair_forward(field, start_pair, t)
    if b1 == b2:
        v = doubled_values(field, S, t, [b1])[0]
        return None if np.isnan(v) else float(v)
    v = NEG if S is None else S[b1[1], b2[1]]
    return float(v) if is_reachable(v) else None


def doubled_values(field: LatticeField, states, t: int, cells) -> np.ndarray:
    """Pair values with both paths sharing each cell, read from pair states.

    ``states`` are full pair states at chart time t, next to the cells'
    common time t_c: t = t_c - 1 (forward states, a doubled end) reads
    S[j - 1, j], t = t_c + 1 (backward states, a doubled start) reads
    S[j, j + 1]; each value is that state + 2 * w[c].  NaN where a
    neighbour of c is off the grid, the state is dead or states is None.
    """
    out = np.full(len(cells), np.nan)
    if not len(cells):
        return out
    i, j = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    if (i + j != i[0] + j[0]).any():
        raise DomainError("doubled cells must share a chart time")
    d = t - int(i[0] + j[0])
    if d not in (-1, 1):
        raise DomainError(f"pair states at time {t} are not next to cell {tuple(cells[0])}")
    if states is None:
        return out
    rows, cols = field.weights.shape
    on = np.flatnonzero((0 <= i + d) & (i + d < rows) & (0 <= j + d) & (j + d < cols))
    v = states[j[on] + min(d, 0), j[on] + max(d, 0)]
    on, v = on[v > _VALID], v[v > _VALID]
    out[on] = v + 2.0 * field.weights[i[on], j[on]]
    return out


def geodesic_cells(field: LatticeField, start, end, side: str) -> list:
    """Extremal geodesic as a cell list.

    side='left' prefers down moves (smaller chart x at every time),
    side='right' prefers right moves.  The greedy walk stays optimal by
    construction: a move to c' is allowed iff B[c'] = B[c] - w[c].
    """
    B = backward_values(field, end)
    return geodesic_cells_from_B(field, B, start, end, side)


def geodesic_cells_from_B(field: LatticeField, B: np.ndarray, start, end,
                          side: str) -> list:
    """geodesic_cells on B = backward_values(field, end); see Walks above."""
    w = field.weights
    B = np.asarray(B)
    for role, c in (("start", start), ("end", end)):
        if not field.in_grid(c):
            raise DomainError(f"{role} cell {c} outside {field.rows}x{field.cols} grid")
    if B.shape != w.shape or B.dtype != np.float64:
        raise DomainError(f"B of shape {B.shape} and type {B.dtype} on a "
                          f"{field.rows}x{field.cols} float64 grid")
    (i, j), (i1, j1) = start, end
    if not is_reachable(B[start]) or i > i1 or j > j1:
        raise DomainError(f"end {end} not reachable from start {start}")
    lib = _library()
    if lib is None:
        return _walk_py(field, B, start, end, side)
    out = np.empty((2, i1 - i + j1 - j + 1), np.int64)
    at = lib.walk(B.ctypes.data, *_strides(B), w.ctypes.data, *_strides(w),
                  *(int(k) for k in (i, j, i1, j1)), int(side == "right"), out.ctypes.data)
    if at >= 0:
        raise InvariantError("geodesic walk lost the optimum", field, start=start,
                             end=end, side=side, at=(int(out[0, at]), int(out[1, at])))
    return list(zip(*out.tolist()))


def _walk_py(field: LatticeField, B: np.ndarray, start, end, side: str) -> list:
    """The walk of geodesic_cells_from_B in numpy, the reference of the
    compiled one; the caller has checked start, end and B."""
    (i, j), (i1, j1) = start, end
    Bs = B[i:i1 + 1, j:j1 + 1]
    ws = field.weights[i:i1 + 1, j:j1 + 1]
    # B was computed as max(children) + w, so test in the same order
    right = np.zeros(Bs.shape, dtype=bool)
    down = np.zeros(Bs.shape, dtype=bool)
    right[:, :-1] = Bs[:, 1:] + ws[:, :-1] == Bs[:, :-1]
    down[:-1] = Bs[1:] + ws[:-1] == Bs[:-1]
    # flat index step of the preferred allowed move: 1 right, width down, 0 none
    width = Bs.shape[1]
    if side == "right":
        step = np.where(right, 1, np.where(down, width, 0))
    else:
        step = np.where(down, width, np.where(right, 1, 0))
    step = step.ravel().tolist()
    k, last, cells = 0, Bs.size - 1, [start]
    while k != last:
        d = step[k]
        if not d:
            raise InvariantError("geodesic walk lost the optimum", field,
                                 start=start, end=end, side=side, at=(i, j))
        if d == width:  # a one-column rectangle has no right move
            i += 1
        else:
            j += 1
        k += d
        cells.append((i, j))
    return cells


def _merge_index(a, b) -> int:
    """Smallest k with a[k:] == b[k:], for two sequences of one length:
    the index from which two walks agree (len(a) when their ends differ)."""
    k = len(a)
    while k > 0 and a[k - 1] == b[k - 1]:
        k -= 1
    return k


def bridge_exists(field: LatticeField, from_cells, to_cells,
                  F: np.ndarray, B: np.ndarray, total: float) -> bool:
    """Is there an optimal connector from one geodesic to another?

    True iff some p in from_cells and q in to_cells (both interior,
    p strictly before q) satisfy
    F(p) + value(p -> q) + B(q) - w(p) - w(q) = total.
    """
    w = field.weights
    seeds = np.full(w.shape, NEG)
    for c in from_cells[1:-1]:
        seeds[c] = F[c]
    if not np.any(seeds > _VALID):
        return False
    A = seeded_forward(field, seeds)
    for q in to_cells[1:-1]:
        aq = A[q]
        if is_reachable(aq) and aq > seeds[q] and aq + B[q] - w[q] == total:
            return True
    return False


def optimizer_pair(field: LatticeField, start_pair, end_pair, side: str):
    """Extract an extremal optimal disjoint pair as two cell lists.

    Walks forward through the recorded backward pair tables, taking the
    componentwise extremal valid move at every step (optimal pairs form
    a lattice under the componentwise order, so the greedy join/meet
    stays optimal).  Returns (cells1, cells2, value) or None.
    """
    a1, a2 = start_pair
    b1, b2 = end_pair
    t0 = a1[0] + a1[1]
    w = field.weights
    trail, times = pair_backward(field, end_pair, t0 + (1 if a1 == a2 else 0),
                                 record=True)
    if not trail:
        return None
    states = dict(zip(times, trail))  # swept down to exactly t0 (+1 if doubled)
    t_last = max(times)
    if a1 == a2:
        i, j = a1
        value = float(doubled_values(field, states[t0 + 1], t0 + 1, [a1])[0])
        if np.isnan(value):
            return None
        cells1, cells2 = [a1, (i + 1, j)], [a2, (i, j + 1)]
        j1, j2, t = j, j + 1, t0 + 1
    else:
        j1, j2 = a1[1], a2[1]
        if not is_reachable(states[t0][j1, j2]):
            return None
        value = float(states[t0][j1, j2])
        cells1, cells2 = [a1], [a2]
        t = t0
    order = ([(1, 1), (0, 1), (1, 0), (0, 0)] if side == "right"
             else [(0, 0), (1, 0), (0, 1), (1, 1)])
    while t < t_last:
        S_next = states[t + 1]
        here, w1, w2 = states[t][j1, j2], w[t - j1, j1], w[t - j2, j2]
        for d1, d2 in order:
            n1, n2 = j1 + d1, j2 + d2
            # the sweep added the left path's weight first: test in its order
            if n1 < n2 and n1 < field.cols and n2 < field.cols \
                    and is_reachable(S_next[n1, n2]) and S_next[n1, n2] + w1 + w2 == here:
                j1, j2, t = n1, n2, t + 1
                cells1.append((t - j1, j1))
                cells2.append((t - j2, j2))
                break
        else:
            raise InvariantError("pair backtracking lost the optimum", field,
                                 start_pair=start_pair, end_pair=end_pair,
                                 side=side, at_time=t)
    if b1 == b2:
        cells1.append(b1)
        cells2.append(b2)
    return cells1, cells2, value

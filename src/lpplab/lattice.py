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
Every table comes from one antidiagonal step: a state at chart time t
is the best of its predecessors at t - 1 (each path stayed on its index
or came from the one below) plus each path's cell weight, added path by
path.  Single-path tables index antidiagonals by row i, pair states by
columns (j1, j2).

Live window: a sweep from corner (i0, j0) reaches only cells with
i >= i0 and j >= j0, so the live indices at time t form a window
[lo(t), hi(t)] whose ends never decrease.  A step updates that window
only, in buffers padded with a NEG border at index 0.  The pair step
clears the diagonal j1 == j2: while every state on or below it is dead,
only the diagonal can be fed from a live state, so the lower triangle
stays dead.

Read window: a sweep also stops at what its caller reads.  A table
swept for read cells stops at the latest chart time, last row and last
column of those it can reach.  A pair sweep whose read states at t_stop
span the band j_lo <= j1 < j2 <= j_hi, j2 - j1 <= sep (the least j1,
the greatest j2 and the greatest j2 - j1 of the reads) updates, r steps
before t_stop, only the states with j1 >= j_lo - r, j2 <= j_hi and
j2 - j1 <= sep + r.  Each path stays on its column or moves by one per
step, so both windows are closed under predecessors: every state inside
keeps its full-sweep value bit for bit, in particular every state that
can reach a read one, and a pair sweep reports a feasible pair when a
state of the band is live.  The kernel derives the window from the read
array and refuses a read off the grid or out of order (ValueError).
Without reads the window is the whole grid.

The kernels write every entry they return, so no buffer is filled
before a sweep.  A table gets NEG at its border and at every cell
outside the window.  The pair sweep swaps two buffers; a step writes
NEG just right of each of its rows and along the row below its window,
which is all the next step reads beyond the states this step wrote.  A
pair buffer the caller keeps (the last step's, or every step's when
recording) is NEG-filled before its step writes it, so its entries
outside the window are NEG, never states of two steps back.

Compiled kernel: ``_path_table`` and ``_pair_sweep`` each run a whole
sweep, and ``geodesic_cells_from_B`` a whole walk, as one call into the
package's extension module (``_kernels.c``, built and loaded by
``_native`` on first use, never at import), the only implementation of
each.  A call passes the numpy arrays themselves; the module reads their
strides, checks types, shapes, cells and windows, and releases the GIL,
so a walk's fixed cost is about 2 µs.  The C sweeps take the operands in
numpy's order, the max of the predecessors as their numpy references
take them, then the weights path by path, so every reachable state is
bit-identical to numpy's for every law (weights are finite, see
``LatticeField``).  The references live with the tests, which compare
them with these kernels.  The pair sweep computes only the window's
upper triangle j1 < j2 and clears the diagonal; the lower triangle is
never read and never written.  Each step copies its weights at
(t - j, j), read through the field's strides (a reflected view
included), into one contiguous scratch row, so the inner loop
vectorises; no table of antidiagonal rows is built.

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

Pair API: every pair value is read from the states of one sweep.
``pair_forward`` and ``pair_backward`` return the pair states at
t_stop, or None when no pair is feasible there; with record=True they
return the trail [(t, states), ...] of every step instead, [] when
infeasible.  Given ``reads``, the (j1, j2) states the caller will read
at t_stop, a sweep runs in their read window: the states that can reach
a read one hold their full-sweep values, every other entry its
full-sweep value or NEG, and None ([]) means no state of the reads'
band is feasible; an empty ``reads`` reads nothing and gives None.
``forward_values`` takes its read cells the same way.
``doubled_reads`` names the states ``doubled_values`` reads.
``gaplab`` windows each gap-sheet row's table to its sinks and its pair
sweep to the states next to them, ``disjoint2_value`` reads a forward
sweep windowed to its end pair, and ``optimizer_pair`` walks a recorded
backward sweep windowed to its start pair (each state it visits is a
predecessor of the one before, so the walk stays in the window).  Each
pair is checked once, by ``_check_pair``: both cells on the grid, at
one chart time, and doubled or ordered left to right, else DomainError.
A sweep checks the pair it starts from; ``disjoint2_value`` checks its
end pair and ``optimizer_pair`` its start pair, so a direct call is
checked as fully as one through ``engine``, which leaves lattice pairs
to this check.

Walks: an extremal geodesic from a to b is walked on B = backward
values to b (``geodesic_cells_from_B``).  A move from c to its right or
lower neighbour c' is allowed iff B[c'] + w[c] == B[c], in B's own
operand order, so the test is the recurrence that built B, bit for
bit.  The walk stays in the rectangle from a to b: at each cell it
tests only that cell's two moves, the right one while j < j(b), the
down one while i < i(b), and takes the allowed move its side prefers,
O(T) work for T cells.  The walk reads B and the weights through their
strides, so the reflected view ``backward_values`` returns is walked
without a copy.  The rectangle suffices: every entry of B right of or
below b is dead, so no move out of the rectangle is ever allowed, and
the walk takes the moves a walk over the whole grid would take, failing
(InvariantError) at the same cell when B is inconsistent inside it.
Before the walk runs, start and end must be on the grid and B a float64
table of the grid's shape: the compiled walk reads B and w by index,
with no bounds of its own.  A walk is an (n, 2) int64 array of (row,
column), one cell per chart time: the transpose of the compiled walk's
own (2, n) buffer.  Callers read it as it is; only
``engine._lattice_chain`` turns a walk into (row, column) tuples.

Bridges: ``bridge_exists`` asks whether a geodesic a -> b (B the
backward values to b, the ``to`` walk's end) visits an interior cell
of the ``from`` walk and later one of the ``to`` walk off the ``from``
walk.  Both walks are extremal from a: the left and right walks to b,
or (``busemann``) walks to two ends.  Walk lambda, the extremal
geodesic a -> b on the ``from`` side; every geodesic lies between it
and the ``to`` walk, so the ``from`` walk is on a geodesic only where
it meets lambda.  From p*, the first such interior cell (none: no
bridge), walk the extremal continuation on the ``to`` side.  Two
extremal continuations that meet stay together, and moving at most
one column per step they cannot cross without meeting, so this one
bounds every geodesic through the ``from`` walk after p*: a bridge
exists iff it visits an interior ``to`` cell off the ``from`` walk.

Only values above _VALID (see is_reachable) are meaningful.  Dead
states hold NEG plus rounding noise from the weights added to them.
Reachable values are bit-exact functions of the weights, whatever the
window, which the geodesic walks rely on.  Weights are float64;
integer-law values stay exact (they are far below 2^53).
"""

from __future__ import annotations

import numpy as np

from . import _native
from .errors import InvariantError
from .model import DomainError, LatticeField, check_side, reflect_cell

NEG = -1.0e18
_VALID = NEG / 2.0


def is_reachable(value: float) -> bool:
    return value > _VALID


def _path_table(w: np.ndarray, corner, reads=None) -> np.ndarray:
    """Padded best-path table, swept from corner over the read window of
    the cells in reads (None: to the grid's far end); see Read window
    above."""
    rows, cols = w.shape
    table = np.empty((rows + 1, cols + 1))
    _native.library().path_table(w, corner[0], corner[1], _pairs(reads), table)
    return table


def _pairs(reads):
    """reads as a contiguous (k, 2) int64 array, None for None."""
    return None if reads is None else np.ascontiguousarray(reads, dtype=np.int64).reshape(-1, 2)


def forward_values(field: LatticeField, start, reads=None) -> np.ndarray:
    """F[c] = best path value start -> c, both endpoint weights included.

    With reads (cells), the sweep stops at their read window: every cell
    that can reach a read cell holds its whole-grid value, every other
    cell its whole-grid value or NEG (see Read window above)."""
    if not field.in_grid(start):
        raise DomainError(f"start cell {start} outside {field.rows}x{field.cols} grid")
    return _path_table(field.weights, start, reads=reads)[1:, 1:]


def backward_values(field: LatticeField, end) -> np.ndarray:
    """B[c] = best path value c -> end, both endpoint weights included."""
    if not field.in_grid(end):
        raise DomainError(f"end cell {end} outside grid")
    corner = reflect_cell(field, end)
    return _path_table(field.weights[::-1, ::-1], corner)[:0:-1, :0:-1]


def connected_backward(field: LatticeField, start, end) -> np.ndarray:
    """backward_values to end, once start and end are on the grid and end
    is reachable from start (DomainError, naming the endpoints then)."""
    if not field.in_grid(start):
        raise DomainError(f"start cell {start} outside {field.rows}x{field.cols} grid")
    B = backward_values(field, end)
    if not is_reachable(B[start]):
        raise DomainError(f"endpoints {start}->{end} not connected")
    return B


def endpoint_tables(field: LatticeField, start, end):
    """(F, B, total): forward_values from start, connected_backward's B to
    end, and total = F[end]."""
    B = connected_backward(field, start, end)
    F = forward_values(field, start)
    return F, B, F[end]


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


def _pair_sweep(w: np.ndarray, start_pair, t_stop: int, record: bool, order,
                reads=None):
    """Two-path sweep on weights w from an ordered start pair to t_stop.

    Returns the trail [(t, padded states)], holding every step with
    record and only the last one without; [] if no pair is feasible.
    ``order`` is the axis order in which the paths' weights are added.
    ``reads`` are the (j1, j2) states the caller reads at t_stop (see
    Pair API above), None for all of them.
    """
    cols = w.shape[1]
    (i1, j1), (i2, j2) = start_pair
    t = i1 + j1 + ((i1, j1) == (i2, j2))
    if t_stop < t:
        return []
    steps = t_stop - t + 1
    states = np.empty((steps if record else min(steps, 2), cols + 1, cols + 1))
    row = np.empty(cols + 1)
    swap = order == (1, 0)
    if not _native.library().pair_sweep(w, i1, j1, i2, j2, t_stop, swap, _pairs(reads), states,
                                        row):
        return []
    if record:
        return list(zip(range(t, t_stop + 1), states))
    return [(t_stop, states[(steps - 1) % 2])]


def _check_pair(field: LatticeField, pair, role: str) -> None:
    c1, c2 = pair
    for c in pair:
        if not field.in_grid(c):
            raise DomainError(f"{role} cell {c} outside grid")
    if c1[0] + c1[1] != c2[0] + c2[1]:
        raise DomainError(f"{role} pair must share a chart time")
    if c1 != c2 and not c1[1] < c2[1]:
        raise DomainError(f"{role} pair must be ordered left to right")


def pair_forward(field: LatticeField, start_pair, t_stop: int,
                 record: bool = False, reads=None):
    """Sweep the two-path DP from a start pair up to chart time t_stop.

    start_pair is (a, a) for a doubled start or (a1, a2) with a1 left of
    a2 at the same chart time.  Returns the states at t_stop, S[j1, j2]
    the best pair value with the paths at columns j1 < j2 of antidiagonal
    t_stop, or None if no pair is feasible.  With record=True returns the
    trail [(t, states), ...] of every step up to t_stop, [] if infeasible.
    With reads, (j1, j2) pairs at t_stop, the sweep runs in their read
    window (see Pair API above).
    """
    _check_pair(field, start_pair, "start")
    trail = [(t, S[1:, 1:]) for t, S in
             _pair_sweep(field.weights, start_pair, t_stop, record, (0, 1), reads)]
    return trail if record else (trail[-1][1] if trail else None)


def pair_backward(field: LatticeField, end_pair, t_stop: int,
                  record: bool = False, reads=None):
    """Mirror of pair_forward: sweep from an end pair down to chart time t_stop.

    The forward sweep of the reflected field, from the reflected end pair
    (whose paths trade sides); states and times are reflected back, and
    so are the reads, (j1, j2) pairs at t_stop.  Returns the states at
    t_stop or None, and with record=True the trail [(t, states), ...]
    from the end pair's time down to t_stop.
    """
    _check_pair(field, end_pair, "end")
    t_max = field.rows + field.cols - 2
    flipped = [reflect_cell(field, c) for c in end_pair[::-1]]
    if reads is not None:  # reflected, the paths trade sides
        reads = field.cols - 1 - _pairs(reads)[:, ::-1]
    trail = [(t_max - t, S[:0:-1, :0:-1].T) for t, S in
             _pair_sweep(field.weights[::-1, ::-1], flipped, t_max - t_stop, record, (1, 0),
                         reads)]
    return trail if record else (trail[-1][1] if trail else None)


def disjoint2_value(field: LatticeField, start_pair, end_pair):
    """Best total value of two disjoint ordered paths, or None if infeasible.

    Paths may share only doubled endpoints; each path includes both of
    its endpoint weights, so a doubled endpoint weight is counted twice.
    One forward pair sweep from start_pair serves, windowed to the one
    state it reads: a distinct end pair is read from the states at its
    chart time, a doubled end from the states one step before it
    (doubled_values).  Raises DomainError for a pair off the grid, at two
    chart times or out of order.
    """
    _check_pair(field, end_pair, "end")  # pair_forward checks start_pair
    b1, b2 = end_pair
    t = b1[0] + b1[1] - (b1 == b2)
    reads = doubled_reads(field, [b1], -1) if b1 == b2 else [(b1[1], b2[1])]
    S = pair_forward(field, start_pair, t, reads=reads)
    if b1 == b2:
        v = doubled_values(field, S, t, [b1])[0]
        return None if np.isnan(v) else float(v)
    v = NEG if S is None else S[b1[1], b2[1]]
    return float(v) if is_reachable(v) else None


def _doubled_states(field: LatticeField, i, j, d: int):
    """(on, j1, j2): the indices of the cells (i, j) whose two neighbours
    at their time + d are on the grid, and the states (j1, j2) next to
    them, (j - 1, j) for d = -1 and (j, j + 1) for d = +1."""
    on = np.flatnonzero((0 <= i + d) & (i + d < field.rows) & (0 <= j + d) & (j + d < field.cols))
    return on, j[on] + min(d, 0), j[on] + max(d, 0)


def doubled_reads(field: LatticeField, cells, d: int) -> np.ndarray:
    """The pair states doubled_values reads for cells from states at
    their time + d (d = -1 forward, +1 backward), as a (k, 2) int64
    array of (j1, j2)."""
    i, j = np.asarray(cells, dtype=np.int64).reshape(-1, 2).T
    return np.column_stack(_doubled_states(field, i, j, d)[1:])


def doubled_values(field: LatticeField, states, t: int, cells) -> np.ndarray:
    """Pair values with both paths sharing each cell, read from pair states.

    ``states`` are pair states at chart time t, next to the cells'
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
        raise DomainError(f"pair states at time {t} are not next to cell "
                          f"{(int(i[0]), int(j[0]))}")
    if states is None:
        return out
    on, j1, j2 = _doubled_states(field, i, j, d)
    v = states[j1, j2]
    on, v = on[v > _VALID], v[v > _VALID]
    out[on] = v + 2.0 * field.weights[i[on], j[on]]
    return out


def geodesic_cells(field: LatticeField, start, end, side: str) -> np.ndarray:
    """Extremal geodesic as an (n, 2) int64 array of (row, column) cells:
    side='left' prefers down moves (smaller chart x at every time),
    side='right' prefers right moves; see Walks above."""
    check_side(side)
    B = backward_values(field, end)
    return geodesic_cells_from_B(field, B, start, end, side)


def geodesic_cells_from_B(field: LatticeField, B: np.ndarray, start, end,
                          side: str) -> np.ndarray:
    """geodesic_cells on B = backward_values(field, end): an (n, 2) int64
    array of (row, column), one cell per chart time; see Walks above."""
    check_side(side)
    w = field.weights
    if not isinstance(B, np.ndarray):
        B = np.asarray(B)
    rows, cols = w.shape
    (i, j), (i1, j1) = start, end
    # bounds inline: a classify run makes thousands of walks
    for role, c, r, k in (("start", start, i, j), ("end", end, i1, j1)):
        if not (0 <= r < rows and 0 <= k < cols):
            raise DomainError(f"{role} cell {c} outside {rows}x{cols} grid")
    if B.shape != w.shape or B.dtype != np.float64:
        raise DomainError(f"B of shape {B.shape} and type {B.dtype} on a "
                          f"{rows}x{cols} float64 grid")
    if not is_reachable(B[start]) or i > i1 or j > j1:
        raise DomainError(f"end {end} not reachable from start {start}")
    out = np.empty((2, i1 - i + j1 - j + 1), dtype=np.int64)  # the rows, then the columns
    at = _native.library().walk(B, w, i, j, i1, j1, side == "right", out)
    if at >= 0:
        raise InvariantError("geodesic walk lost the optimum", field, start=start,
                             end=end, side=side, at=(int(out[0, at]), int(out[1, at])))
    return out.T


def _merge_index(a, b) -> int:
    """Smallest k with a[k:] == b[k:], for two sequences of one length:
    the index from which two walks agree (len(a) when their ends differ),
    of columns, or of cells or (x, t) nodes compared whole."""
    differ = np.asarray(a) != np.asarray(b)
    if differ.ndim > 1:
        differ = differ.any(axis=1)
    last = np.flatnonzero(differ)
    return int(last[-1]) + 1 if last.size else 0


def bridge_exists(field: LatticeField, from_cells, to_cells, B: np.ndarray) -> bool:
    """Does a geodesic from to_cells' start to its end (B = backward_values
    there) visit an interior cell of from_cells and later one of to_cells
    off from_cells?  Walks are cell arrays or lists; see Bridges above."""
    frm, to = np.asarray(from_cells), np.asarray(to_cells)
    apart = np.flatnonzero(frm[:, 1] != to[:, 1])  # one chart time per index
    if not apart.size:
        return False
    side, other = ("left", "right") if frm[apart[0], 1] < to[apart[0], 1] else ("right", "left")
    end = tuple(to[-1])
    lam = geodesic_cells_from_B(field, B, tuple(to[0]), end, side)
    on = np.flatnonzero(lam[1:-1, 1] == frm[1:-1, 1])
    if not on.size:
        return False
    k = int(on[0]) + 1  # p*: the first interior cell of from_cells on a geodesic
    rest = geodesic_cells_from_B(field, B, tuple(lam[k]), end, other)[:-1, 1]
    return bool(np.any((rest == to[k:-1, 1]) & (to[k:-1, 1] != frm[k:-1, 1])))


def optimizer_pair(field: LatticeField, start_pair, end_pair, side: str):
    """Extract an extremal optimal disjoint pair as two cell lists.

    Walks forward through the recorded backward pair tables, taking the
    componentwise extremal valid move at every step (optimal pairs form
    a lattice under the componentwise order, so the greedy join/meet
    stays optimal).  Returns (cells1, cells2, value) or None.
    """
    check_side(side)
    _check_pair(field, start_pair, "start")  # pair_backward checks end_pair
    a1, a2 = start_pair
    b1, b2 = end_pair
    t0 = a1[0] + a1[1]
    w = field.weights
    # the walk tests only moves into the recorded states' predecessors,
    # so a window to the start pair's state serves it
    reads = doubled_reads(field, [a1], 1) if a1 == a2 else [(a1[1], a2[1])]
    trail = pair_backward(field, end_pair, t0 + (a1 == a2), record=True, reads=reads)
    if not trail:
        return None
    states = dict(trail)  # swept down to exactly t0 (+1 if doubled)
    t_last = max(states)
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

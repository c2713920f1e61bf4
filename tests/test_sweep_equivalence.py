"""Equivalence gate: the banded sweep against the dense sweeps it replaced
(once per kernel: compiled and its numpy twin), the compiled lattice
sweeps against the numpy twins on gap sheets and at every window width,
the sweeps windowed to their reads against the full sweeps (and against
the twins given the same reads), with no fill before a sweep,
the compiled Philox stream against numpy's, the walk against the
per-cell walk it replaced (once per kernel: compiled and numpy twin),
the one patience kernel of the cloud against the three chain kernels it
replaced (once per kernel: compiled and Python twin), the compiled
kernel against its Python twin, its build and the one error of a failed
build, the cloud's one point order
against the full sort of every cone and its sort against lexsort, the
compiled row against the Python
row, the one merge read-out against the four loops it replaced, the one
chain track and probe grid against the chain comparisons they replaced,
the one optimal-step graph of the cloud against the level scan and
successor loop it replaced, the one network assembly against the
lattice and cloud assemblies it replaced, the one pass per sink of the
agreement matrix and its window minima (whole sheets, and one point's
row and column in ``classify_gap``) against the per-pair loop and
per-point minimum they replaced, and the heatmap and CSV writers against
the per-cell loops they replaced.

The reference kernels below are the earlier implementations, kept
here verbatim as the specification; the twins and the fake kernel module
that runs them live in ``twins``.  Dead states are only meaningful as
"at most _VALID", so both sides map those entries to NEG before
comparing; every reachable entry must be bit-identical.
"""

import itertools
import json
import os
import subprocess
import sys
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import _native, busemann, classify, cli, engine, flow, gaplab, lattice, rng, svg
from lpplab import cloud as cloud_mod
from lpplab.config import parse_config
from lpplab.errors import DomainError, InvariantError
from lpplab.lattice import NEG, _VALID
from lpplab.model import (LatticeField, Region, ScalingFrame, _xy, anchor_layout, causal_leq,
                          cloud_from_points, environment_for, make_lattice_field,
                          make_poisson_cloud)

import twins
from twins import Counted


# ---------------------------------------------------------------- reference

def _diag_span(rows, cols, t):
    return max(0, t - rows + 1), min(cols - 1, t)


def ref_forward_values(field, start):
    w = field.weights
    rows, cols = w.shape
    ia, ja = start
    F = np.full((rows, cols), NEG)
    F[ia, ja] = w[ia, ja]
    vec = np.full(cols, NEG)
    vec[ja] = w[ia, ja]
    shifted = np.empty(cols)
    for t in range(ia + ja + 1, rows + cols - 1):
        shifted[0] = NEG
        shifted[1:] = vec[:-1]
        np.maximum(vec, shifted, out=vec)
        jlo, jhi = _diag_span(rows, cols, t)
        jj = np.arange(jlo, jhi + 1)
        new = np.full(cols, NEG)
        new[jlo:jhi + 1] = vec[jlo:jhi + 1] + w[t - jj, jj]
        np.clip(new, NEG, None, out=new)
        F[t - jj, jj] = new[jlo:jhi + 1]
        vec = new
    return F


def ref_backward_values(field, end):
    rev = LatticeField(field.weights[::-1, ::-1], "explicit")
    i, j = end
    Fr = ref_forward_values(rev, (field.rows - 1 - i, field.cols - 1 - j))
    return Fr[::-1, ::-1].copy()


def ref_seeded_forward(field, seeds):
    w = field.weights
    rows, cols = w.shape
    A = np.full((rows, cols), NEG)
    vec = np.full(cols, NEG)
    shifted = np.empty(cols)
    for t in range(0, rows + cols - 1):
        shifted[0] = NEG
        shifted[1:] = vec[:-1]
        np.maximum(vec, shifted, out=vec)
        jlo, jhi = _diag_span(rows, cols, t)
        jj = np.arange(jlo, jhi + 1)
        new = np.full(cols, NEG)
        new[jlo:jhi + 1] = vec[jlo:jhi + 1] + w[t - jj, jj]
        np.clip(new, NEG, None, out=new)
        np.maximum(new[jlo:jhi + 1], seeds[t - jj, jj], out=new[jlo:jhi + 1])
        A[t - jj, jj] = new[jlo:jhi + 1]
        vec = new
    return A


class RefPairSweep:
    def __init__(self, field):
        self.w = field.weights
        self.rows, self.cols = self.w.shape
        jj = np.arange(self.cols)
        self.strict = jj[:, None] < jj[None, :]

    def wrow(self, t):
        out = np.full(self.cols, NEG)
        jlo = max(0, t - self.rows + 1)
        jhi = min(self.cols - 1, t)
        if jlo <= jhi:
            j = np.arange(jlo, jhi + 1)
            out[jlo:jhi + 1] = self.w[t - j, j]
        return out

    def step(self, S, t_new, forward):
        cols = self.cols
        P = np.full((cols + 1, cols + 1), NEG)
        if forward:
            P[1:, 1:] = S
            M = np.maximum(np.maximum(P[1:, 1:], P[:-1, 1:]),
                           np.maximum(P[1:, :-1], P[:-1, :-1]))
        else:
            P[:cols, :cols] = S
            M = np.maximum(np.maximum(P[:cols, :cols], P[1:, :cols]),
                           np.maximum(P[:cols, 1:], P[1:, 1:]))
        wr = self.wrow(t_new)
        M += wr[:, None]
        M += wr[None, :]
        M[~self.strict] = NEG
        np.clip(M, NEG, None, out=M)
        return M


def ref_pair_forward(field, start_pair, t_stop, record=False):
    sweep = RefPairSweep(field)
    a1, a2 = start_pair
    t0 = a1[0] + a1[1]
    S = np.full((field.cols, field.cols), NEG)
    if a1 == a2:
        i, j = a1
        t_init = t0 + 1
        down, right = (i + 1, j), (i, j + 1)
        if field.in_grid(down) and field.in_grid(right):
            S[j, j + 1] = 2.0 * field.weights[i, j] + field.weights[down] + field.weights[right]
    else:
        t_init = t0
        S[a1[1], a2[1]] = field.weights[a1] + field.weights[a2]
    if t_stop < t_init:
        return [] if record else None
    trail = [(t_init, S)]
    for t in range(t_init + 1, t_stop + 1):
        S = sweep.step(S, t, forward=True)
        trail.append((t, S))
    if not lattice.is_reachable(float(S.max())):
        return [] if record else None
    return trail if record else S


def ref_pair_backward(field, end_pair, t_stop, record=False):
    sweep = RefPairSweep(field)
    b1, b2 = end_pair
    t1 = b1[0] + b1[1]
    S = np.full((field.cols, field.cols), NEG)
    if b1 == b2:
        i, j = b1
        t_init = t1 - 1
        up, left = (i - 1, j), (i, j - 1)
        if field.in_grid(up) and field.in_grid(left):
            S[j - 1, j] = 2.0 * field.weights[i, j] + field.weights[up] + field.weights[left]
    else:
        t_init = t1
        S[b1[1], b2[1]] = field.weights[b1] + field.weights[b2]
    if t_stop > t_init:
        return [] if record else None
    trail = [(t_init, S)]
    for t in range(t_init - 1, t_stop - 1, -1):
        S = sweep.step(S, t, forward=False)
        trail.append((t, S))
    if not lattice.is_reachable(float(S.max())):
        return [] if record else None
    return trail if record else S


def ref_geodesic_cells_from_B(field, B, start, end, side):
    if not lattice.is_reachable(B[start]):
        raise DomainError(f"end {end} not reachable from start {start}")
    w = field.weights
    cells = [start]
    c = start
    while c != end:
        i, j = c
        # B was computed as max(children) + w, so test in the same order
        right, down = (i, j + 1), (i + 1, j)
        right_ok = field.in_grid(right) and B[right] + w[i, j] == B[i, j]
        down_ok = field.in_grid(down) and B[down] + w[i, j] == B[i, j]
        if not (right_ok or down_ok):
            raise InvariantError("geodesic walk lost the optimum", field,
                                 start=start, end=end, side=side, at=c)
        if side == "right":
            c = right if right_ok else down
        else:
            c = down if down_ok else right
        cells.append(c)
    return cells


# ---------------------------------------------------------------- helpers

def canon(a):
    """Reachable entries as they are, every dead entry as exactly NEG."""
    a = np.array(a, dtype=np.float64)
    a[a <= _VALID] = NEG
    return a


def assert_same(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(canon(got), canon(want))
    # bit-identical, not merely equal: compare the raw float64 patterns
    assert canon(got).tobytes() == canon(want).tobytes()


def fields():
    rng = np.random.default_rng(7)
    yield make_lattice_field(3, 9, 9, "geometric", 0.5)
    yield make_lattice_field(4, 7, 12, "exponential")
    yield make_lattice_field(5, 13, 6, "exponential")
    yield make_lattice_field(6, 8, 10, "bernoulli", 0.3)
    yield make_lattice_field(0, 6, 7, "explicit",
                             weights=rng.uniform(0.0, 100.0, (6, 7)))
    # weights large enough that dead states drift visibly off NEG
    yield make_lattice_field(0, 5, 9, "explicit",
                             weights=rng.uniform(0.0, 1e6, (5, 9)))
    yield make_lattice_field(1, 1, 6, "exponential")
    yield make_lattice_field(2, 6, 1, "exponential")
    yield make_lattice_field(3, 2, 2, "geometric", 0.5)


FIELDS = list(fields())
IDS = [f"{f.law}-{f.rows}x{f.cols}-{k}" for k, f in enumerate(FIELDS)]


def cells(f):
    return [(i, j) for i in range(f.rows) for j in range(f.cols)]


def start_pairs(f):
    """Doubled pairs at every cell, and distinct ordered pairs (edges included)."""
    out = [(c, c) for c in cells(f)]
    for t in range(f.rows + f.cols - 1):
        diag = [(t - j, j) for j in range(f.cols) if 0 <= t - j < f.rows]
        for k1 in range(len(diag)):
            for k2 in range(k1 + 1, len(diag)):
                if (k2 - k1) % 2 or k1 == 0 or k2 == len(diag) - 1:
                    out.append((diag[k1], diag[k2]))
    return out


# ---------------------------------------------------------------- kernels

KERNELS = ("compiled", "python")


@contextmanager
def one_kernel(name):
    """Serve every kernel call from one kernel: the compiled library or
    its Python (numpy) twins; yields the calls counted on it."""
    saved = _native.library()
    _native._loaded = Counted(saved) if name == "compiled" else twins.twin_kernels()
    try:
        yield _native._loaded.calls
    finally:
        _native._loaded = saved


@pytest.fixture
def each_kernel(monkeypatch):
    """``for _ in each_kernel():`` runs a test body once per kernel."""
    def each():
        yield "compiled"
        monkeypatch.setattr(_native, "_loaded", twins.twin_kernels())
        yield "python"
    return each


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_single_tables_match_dense_reference(f, each_kernel):
    for _ in each_kernel():
        for c in cells(f):
            assert_same(lattice.forward_values(f, c), ref_forward_values(f, c))
            assert_same(lattice.backward_values(f, c), ref_backward_values(f, c))


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_seeded_reference_is_the_max_of_single_seed_tables(f):
    """ref_seeded_forward, the seeded definition ref_bridge_exists checks
    bridges against, is bit for bit the max over its seeds p of the forward
    table from p with p's weight replaced by the seed: adding one weight
    to two floats keeps their order, so taking the max first rounds alike."""
    rng = np.random.default_rng(f.rows * 31 + f.cols)
    F = lattice.forward_values(f, (0, 0))
    for trial in range(6):
        seeds = np.full(f.weights.shape, NEG)
        mask = rng.random(f.weights.shape) < (0.1 + 0.15 * trial)
        seeds[mask] = F[mask] + rng.integers(0, 4, size=mask.sum())
        want = np.full(f.weights.shape, NEG)
        for p in zip(*np.nonzero(mask)):
            w = f.weights.copy()
            w[p] = seeds[p]
            np.maximum(want, lattice.forward_values(LatticeField(w, "explicit"), p), out=want)
        assert_same(ref_seeded_forward(f, seeds), want)
    empty = np.full(f.weights.shape, NEG)
    assert_same(ref_seeded_forward(f, empty), empty)


def _check_pair_results(got, want, record):
    if record:
        assert [t for t, _ in got] == [t for t, _ in want]
        assert len(got) == len(want)
        for (_, g), (_, w) in zip(got, want):
            assert_same(g, w)
    else:
        assert (got is None) == (want is None)
        if want is not None:
            assert_same(got, want)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_pair_forward_matches_dense_reference(f, each_kernel):
    t_max = f.rows + f.cols - 2
    for _ in each_kernel():
        for pair in start_pairs(f):
            t0 = pair[0][0] + pair[0][1]
            for t_stop in sorted({t0 - 1, t0, t0 + 1, t0 + 3, t_max - 1, t_max, t_max + 1}):
                _check_pair_results(lattice.pair_forward(f, pair, t_stop),
                                    ref_pair_forward(f, pair, t_stop), False)
            _check_pair_results(lattice.pair_forward(f, pair, t_max, record=True),
                                ref_pair_forward(f, pair, t_max, record=True), True)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_pair_backward_matches_dense_reference(f, each_kernel):
    for _ in each_kernel():
        for pair in start_pairs(f):
            t1 = pair[0][0] + pair[0][1]
            for t_stop in sorted({-1, 0, 1, t1 - 3, t1 - 1, t1, t1 + 1}):
                _check_pair_results(lattice.pair_backward(f, pair, t_stop),
                                    ref_pair_backward(f, pair, t_stop), False)
            _check_pair_results(lattice.pair_backward(f, pair, 0, record=True),
                                ref_pair_backward(f, pair, 0, record=True), True)


def _diag_cells(f, t):
    return [(t - j, j) for j in range(f.cols) if 0 <= t - j < f.rows]


def _want_doubled(f, R, t_c, d):
    """Dense read-out: both paths on c's neighbours at t_c + d, plus 2 w[c]."""
    want = []
    for i, j in _diag_cells(f, t_c):
        j1 = min(j, j + d)
        ok = R is not None and f.in_grid((i + d, j)) and f.in_grid((i, j + d)) \
            and R[j1, j1 + 1] > _VALID
        want.append(R[j1, j1 + 1] + 2.0 * f.weights[i, j] if ok else np.nan)
    return np.array(want)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_doubled_values_match_dense_reference(f):
    t_max = f.rows + f.cols - 2
    for pair in start_pairs(f):
        t0 = pair[0][0] + pair[0][1]
        for t in sorted({t0, t0 + 1, t0 + 2, t_max - 1}):
            if t + 1 <= t_max:  # forward states, doubled end at t + 1
                S = lattice.pair_forward(f, pair, t)
                R = ref_pair_forward(f, pair, t)
                got = lattice.doubled_values(f, S, t, _diag_cells(f, t + 1))
                assert got.tobytes() == _want_doubled(f, R, t + 1, -1).tobytes()
        for t in sorted({t0, t0 - 1, t0 - 2, 1}):
            if t - 1 >= 0:  # backward states, doubled start at t - 1
                S = lattice.pair_backward(f, pair, t)
                R = ref_pair_backward(f, pair, t)
                got = lattice.doubled_values(f, S, t, _diag_cells(f, t - 1))
                assert got.tobytes() == _want_doubled(f, R, t - 1, 1).tobytes()


def test_doubled_values_need_adjacent_states():
    f = FIELDS[0]
    c = (4, 4)
    S = lattice.pair_forward(f, ((0, 0), (0, 0)), 7)
    for t in (6, 8, 10):
        with pytest.raises(DomainError, match=rf"^pair states at time {t} are not next "
                                              r"to cell \(4, 4\)$"):
            lattice.doubled_values(f, S, t, [c, (3, 5)])
    with pytest.raises(DomainError, match="^doubled cells must share a chart time$"):
        lattice.doubled_values(f, S, 7, [c, (4, 3)])
    assert lattice.doubled_values(f, S, 7, []).shape == (0,)
    assert np.isnan(lattice.doubled_values(f, None, 7, _diag_cells(f, 8))).all()
    assert np.isnan(lattice.doubled_values(f, None, 9, _diag_cells(f, 8))).all()


def test_acceptance_size_sweeps_match_dense_reference(each_kernel):
    """One gap-sheet row and one mirrored sweep on a field of benchmark shape."""
    f = make_lattice_field(11, 60, 64, "exponential")
    a = f.cell_at(0, 30)
    b1, b2 = f.cell_at(-4, 100), f.cell_at(6, 100)
    for _ in each_kernel():
        assert_same(lattice.forward_values(f, a), ref_forward_values(f, a))
        S = lattice.pair_forward(f, (a, a), 100)
        R = ref_pair_forward(f, (a, a), 100)
        assert_same(S, R)
        S = lattice.pair_backward(f, (b1, b2), 31)
        R = ref_pair_backward(f, (b1, b2), 31)
        assert_same(S, R)


def _lattice_gap_sheet(model, seed):
    """The gap sheet of the lattice_gap benchmark configuration."""
    doc = {"command": "gap", "model": model, "n": 128, "grid_points": 64, "seed": seed}
    return cli._sheet(parse_config(json.dumps(doc)), seed)[1]


@pytest.mark.parametrize("model, seed", [("geometric", s) for s in range(8)]
                         + [("exponential", 0)])
def test_compiled_sweeps_give_the_numpy_gap_sheets(model, seed):
    """The lattice_gap sheets, from the compiled sweeps and from numpy."""
    assert _native.library() is not None
    sheets = []
    for kernel in KERNELS:
        with one_kernel(kernel) as calls:
            sheets.append(_lattice_gap_sheet(model, seed))
        assert calls["path_table"] > 0 and calls["pair_sweep"] > 0
    got, want = sheets
    assert np.isfinite(want.values).any()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.to_binary() == want.to_binary()


def test_compiled_pair_sweep_reads_the_weights_directly():
    f = FIELDS[1]
    with one_kernel("compiled") as calls:
        S = lattice.pair_forward(f, ((0, 0), (0, 0)), f.rows + f.cols - 3)
    R = ref_pair_forward(f, ((0, 0), (0, 0)), f.rows + f.cols - 3)
    assert_same(S, R)
    assert calls == {"pair_sweep": 1}


WINDOW_FIELDS = [make_lattice_field(40 + cols, cols + 2, cols, law)
                 for cols in range(1, 10) for law in ("geometric", "exponential")]


@pytest.mark.parametrize("f", WINDOW_FIELDS,
                         ids=[f"{f.law}-{f.rows}x{f.cols}" for f in WINDOW_FIELDS])
def test_pair_sweeps_agree_on_both_kernels_at_every_window_width(f):
    """Live windows 1 to 9 columns wide, from every start pair: the
    vectorised inner loop and its remainders, in both operand orders
    (pair_forward adds the left path's weight first, pair_backward the
    right one's), recorded and last-step, compiled against numpy."""
    t_max = f.rows + f.cols - 2
    runs = []
    for kernel in KERNELS:
        with one_kernel(kernel) as calls:
            got = []
            for pair in start_pairs(f):
                t = pair[0][0] + pair[0][1]
                got.append((lattice.pair_forward(f, pair, t_max, record=True), True))
                got.append((lattice.pair_backward(f, pair, 0, record=True), True))
                for t_stop in sorted({t + 1, t + 2, t_max - 1, t_max}):
                    got.append((lattice.pair_forward(f, pair, t_stop), False))
                for t_stop in sorted({t - 2, t - 1, 1, 0}):
                    got.append((lattice.pair_backward(f, pair, t_stop), False))
        assert calls["pair_sweep"] > 0
        runs.append(got)
    assert f.rows >= f.cols + 1  # the doubled start at (0, 0) reaches a window of f.cols
    for (g, record), (w, _) in zip(*runs):
        _check_pair_results(g, w, record)


def test_min_formula_batch_unchanged_by_pair_step():
    f = make_lattice_field(3, 40, 40, "exponential")
    t0, t1 = 20, 44
    ys = list(range(-10, 11, 2))
    got = gaplab.min_formula_residuals_batch(f, 0, ys, (t0, t1))
    a = f.cell_at(0, t0)
    F = ref_forward_values(f, a)
    S1 = ref_pair_forward(f, (a, a), t1 - 1)
    S2 = RefPairSweep(f).step(S1, t1, forward=True)
    cells_ = [f.cell_at(w, t1) for w in ys]
    L = np.array([F[c] for c in cells_])
    L2 = np.array([S1[j - 1, j] + 2.0 * f.weights[i, j] for i, j in cells_])
    G = 2.0 * L - L2
    assert got
    for (y, z), v in got.items():
        ky, kz = ys.index(y), ys.index(z)
        jy, jz = cells_[ky][1], cells_[kz][1]
        want = float(S2[jy, jz] - (L[ky] + L[kz] - np.min(G[ky:kz + 1])))
        assert v == want


# ---------------------------------------------------------------- read windows

def _exact_or_neg(got, full, cone, what):
    """Inside the cone of the reads the windowed sweep's entries are the
    full sweep's, bit for bit; outside it each is the full sweep's or
    exactly NEG, never a stale or unwritten value."""
    assert got.shape == full.shape, what
    same = got.view(np.int64) == full.view(np.int64)
    assert same[cone].all(), what
    assert (same | (got == NEG)).all(), what


def _table_read_sets(f, start):
    """Each antidiagonal's cells (a gap-sheet row's sinks), every single
    cell, the last row and the last column, and cells above-left of start
    that no path from start reaches, alone and with reachable ones."""
    out = [_diag_cells(f, t) for t in range(f.rows + f.cols - 1)]
    out += [[c] for c in cells(f)]
    out += [[(f.rows - 1, j) for j in range(f.cols)], [(i, f.cols - 1) for i in range(f.rows)]]
    behind = [c for c in cells(f) if c[0] < start[0] or c[1] < start[1]]
    if behind:
        out += [behind[:3], behind[:2] + [(f.rows - 1, f.cols - 1)]]
    return out


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_windowed_tables_match_full_tables_at_every_read(f):
    """forward_values with reads: from every start cell, every cell that
    can reach a read cell (the cone of the reads) holds its full-table
    value bit for bit, and every other entry its full-table value or NEG."""
    for start in cells(f):
        full = lattice.forward_values(f, start)
        for reads in _table_read_sets(f, start):
            got = lattice.forward_values(f, start, reads)
            cone = np.zeros(full.shape, dtype=bool)
            for i, j in reads:
                cone[start[0]:i + 1, start[1]:j + 1] = True
            _exact_or_neg(got, full, cone, (start, reads))


def _pair_read_sets(f, t, d):
    """Read sets of pair states at time t: the doubled read-out of the
    cells at t - d (d = -1 forward, +1 backward), one state next to each
    edge of antidiagonal t, its widest state, the two edge states
    together (a wide band of separation 1) and all three, and the state
    on the grid's first and last columns, on antidiagonal t or not."""
    out = [[(0, f.cols - 1)]] if f.cols > 1 else []
    doubled = lattice.doubled_reads(f, _diag_cells(f, t - d), d)
    if len(doubled):
        out.append([tuple(r) for r in doubled])
    lo, hi = max(0, t - f.rows + 1), min(f.cols - 1, t)
    if lo < hi:
        left, right, wide = (lo, lo + 1), (hi - 1, hi), (lo, hi)
        out += [[left], [right], [wide], [left, right], [left, wide, right]]
    return out


def _pair_cone(cols, reads, r, forward):
    """States r steps before the reads' time (in the sweep's direction)
    from which both paths can reach some read state: each path moves by
    at most one column per step, right going forward, left backward."""
    j1, j2 = np.indices((cols, cols))
    cone = np.zeros((cols, cols), dtype=bool)
    for k1, k2 in reads:
        if forward:
            cone |= (j1 <= k1) & (k1 <= j1 + r) & (j2 <= k2) & (k2 <= j2 + r)
        else:
            cone |= (j1 - r <= k1) & (k1 <= j1) & (j2 - r <= k2) & (k2 <= j2)
    return cone


def _check_windowed_pair(f, sweep, pair, t_stop, reads, forward):
    """One windowed sweep against the full one, last step and recorded."""
    what = (pair, t_stop, reads, forward)
    full, got = sweep(f, pair, t_stop), sweep(f, pair, t_stop, reads=reads)
    live = full is not None and any(full[r] > _VALID for r in reads)
    assert (got is not None) >= live, what
    if got is not None:
        assert full is not None, what
        _exact_or_neg(got, full, _pair_cone(f.cols, reads, 0, forward), what)
    full = sweep(f, pair, t_stop, record=True)
    got = sweep(f, pair, t_stop, record=True, reads=reads)
    assert bool(got) >= live, what
    if got:
        assert [t for t, _ in got] == [t for t, _ in full], what
        for (t, g), (_, S) in zip(got, full):
            _exact_or_neg(g, S, _pair_cone(f.cols, reads, abs(t_stop - t), forward), what)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_windowed_pair_sweeps_match_full_sweeps_at_every_read(f):
    """pair_forward and pair_backward with reads, from every start pair
    (doubled at every cell, and distinct) to several times, for doubled
    read-outs and distinct target states: every state that can reach a
    read state holds its full-sweep value bit for bit, at the last step
    and at every recorded step, every other state its full-sweep value
    or NEG, and the sweep reports a pair wherever a read state is live."""
    t_max = f.rows + f.cols - 2
    checked = 0
    for pair in start_pairs(f):
        t0 = pair[0][0] + pair[0][1]
        for t_stop in sorted({t0, t0 + 1, t0 + 3, t_max - 1, t_max} & set(range(t_max + 1))):
            for reads in _pair_read_sets(f, t_stop, -1):
                _check_windowed_pair(f, lattice.pair_forward, pair, t_stop, reads, True)
                checked += 1
        for t_stop in sorted({t0, t0 - 1, t0 - 3, 1, 0} & set(range(t_max + 1))):
            for reads in _pair_read_sets(f, t_stop, 1):
                _check_windowed_pair(f, lattice.pair_backward, pair, t_stop, reads, False)
                checked += 1
    assert checked > 0 or f.cols == 1


@pytest.mark.parametrize("f", WINDOW_FIELDS[:8] + FIELDS[6:8],
                         ids=[f"{f.law}-{f.rows}x{f.cols}" for f in WINDOW_FIELDS[:8] + FIELDS[6:8]])
def test_windowed_sweeps_agree_on_both_kernels(f):
    """Windowed tables and pair sweeps, compiled against the numpy twins
    given the same window: every entry, recorded and last-step."""
    t_max = f.rows + f.cols - 2
    runs = []
    for kernel in KERNELS:
        with one_kernel(kernel) as calls:
            got = []
            for start in cells(f):
                got += [lattice.forward_values(f, start, reads)
                        for reads in _table_read_sets(f, start)[:t_max + 1]]
            for pair in start_pairs(f):
                t = pair[0][0] + pair[0][1]
                for reads in _pair_read_sets(f, t_max - 1, -1):
                    got.append(lattice.pair_forward(f, pair, t_max - 1, True, reads))
                for reads in _pair_read_sets(f, 1, 1):
                    got.append(lattice.pair_backward(f, pair, 1, True, reads))
        assert calls["path_table"] > 0 and (calls["pair_sweep"] > 0 or f.cols == 1)
        runs.append(got)
    for g, w in zip(*runs):
        if isinstance(w, list):
            _check_pair_results(g, w, True)
        else:
            assert_same(g, w)


def test_sweeps_write_every_entry_they_return():
    """The compiled sweeps need no NEG fill before the call: buffers
    filled with a live-looking value give the bytes of NEG-filled ones,
    in every table and in every pair-state buffer the caller keeps (the
    last step's, or all of them when recording)."""
    lib = _native.library()
    for f in FIELDS[:6]:
        rows, cols = f.weights.shape
        for w in (f.weights, f.weights[::-1, ::-1]):
            for corner, reads in (((0, 0), None), ((1, 2), np.array([[rows - 2, cols - 2]]))):
                tables = [np.full((rows + 1, cols + 1), v) for v in (NEG, 7.0)]
                for table in tables:
                    lib.path_table(w, *corner, reads, table)
                assert tables[0].tobytes() == tables[1].tobytes()
            for (i, j), t_stop, reads in (((0, 0), rows + cols - 3, None),
                                          ((1, 0), rows + cols - 4, [[1, 2], [cols - 3, cols - 2]]),
                                          ((0, 1), rows, [[0, 2]])):
                reads = None if reads is None else np.array(reads)
                steps = t_stop - (i + j + 1) + 1
                for nbuf in (2, steps):
                    out = []
                    for v in (NEG, 7.0):
                        states = np.full((nbuf, cols + 1, cols + 1), v)
                        live = lib.pair_sweep(w, i, j, i, j, t_stop, 0, reads, states,
                                              np.empty(cols + 1))
                        kept = states if nbuf == steps else states[(steps - 1) % 2]
                        out.append((live, kept.tobytes()))
                    assert out[0] == out[1], (f.law, corner, reads, nbuf)
                    assert out[0][0] == 1


def test_read_windows_are_checked():
    f = FIELDS[0]
    for cell in ((0, 9), (-1, 3)):
        with pytest.raises(ValueError, match=r"^read cell \(-?\d, \d\) outside a 9 x 9 grid$"):
            lattice.forward_values(f, (0, 0), [(2, 2), cell])
    for sweep, t_stop in ((lattice.pair_forward, 12), (lattice.pair_backward, 4)):
        for reads in ([(3, 3)], [(4, 2)], [(-1, 2)], [(2, 9)]):
            with pytest.raises(ValueError, match=r"^read state .* is not a column pair "
                                                 r"0 <= j1 < j2 < 9$"):
                sweep(f, ((4, 4), (4, 4)), t_stop, reads=[(3, 5)] + reads)
        # nothing read, nothing feasible to read
        assert sweep(f, ((4, 4), (4, 4)), t_stop, reads=[(3, 5)]) is not None
        assert sweep(f, ((4, 4), (4, 4)), t_stop, reads=[]) is None
        assert sweep(f, ((4, 4), (4, 4)), t_stop, record=True, reads=[]) == []
    # no read cell reachable: only the start cell is swept
    F = lattice.forward_values(f, (4, 4), [(3, 8), (8, 3)])
    assert F[4, 4] == f.weights[4, 4] and (np.delete(F.ravel(), 4 * 9 + 4) == NEG).all()


def walk_list(walk, start, end):
    """A lattice walk from start to end as a list of (row, column) tuples,
    after checking that it is the (n, 2) int64 array both kernels return,
    n the walk's number of chart times."""
    n = end[0] - start[0] + end[1] - start[1] + 1
    assert type(walk) is np.ndarray and walk.dtype == np.int64 and walk.shape == (n, 2)
    return [tuple(c) for c in walk.tolist()]


def _walk_outcome(walk, f, B, start, end, side):
    """The cell list, or the kind of error with the InvariantError replay;
    a lattice walk's array is read through walk_list."""
    try:
        cells = walk(f, B, start, end, side)
    except InvariantError as err:
        return ("InvariantError", err.replay)
    except DomainError:
        return ("DomainError",)
    return cells if walk is ref_geodesic_cells_from_B else walk_list(cells, start, end)


def _tables(B):
    """B as backward_values gives it, a reflected view, and as a
    contiguous copy."""
    assert B.strides[0] < 0 and B.strides[1] < 0
    return B, np.ascontiguousarray(B)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_walks_match_per_cell_reference(f, each_kernel):
    for _ in each_kernel():
        walks = 0
        for end in cells(f):
            for B in _tables(lattice.backward_values(f, end)):
                for start in cells(f):
                    for side in ("left", "right"):
                        got = _walk_outcome(lattice.geodesic_cells_from_B, f, B, start, end, side)
                        assert got == _walk_outcome(ref_geodesic_cells_from_B, f, B, start, end,
                                                    side)
                        walks += got[0] != "DomainError"
        # every start above-left of every end is reachable
        assert walks == 4 * sum((i + 1) * (j + 1) for i, j in cells(f))


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_walks_on_corrupted_tables_fail_at_the_same_cell(f, each_kernel):
    start, end = (0, 0), (f.rows - 1, f.cols - 1)
    for _ in each_kernel():
        failures = 0
        for honest in _tables(lattice.backward_values(f, end)):
            for side in ("left", "right"):
                for c in ref_geodesic_cells_from_B(f, honest, start, end, side):
                    for delta in (-1.0, 1.0):
                        B = honest.copy()
                        B[c] += delta
                        got = _walk_outcome(lattice.geodesic_cells_from_B, f, B, start, end, side)
                        assert got == _walk_outcome(ref_geodesic_cells_from_B, f, B, start, end,
                                                    side)
                        failures += got[0] == "InvariantError"
        assert failures > 0


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_walks_to_an_earlier_end_agree_on_both_kernels(f, each_kernel):
    """Walks on B to the far corner, stopped at an earlier end: the walk
    stays in the rectangle from start to end, on either kernel, though B
    allows moves out of it."""
    far = (f.rows - 1, f.cols - 1)
    outcomes = []
    for _ in each_kernel():
        outcomes.append([])
        for B in _tables(lattice.backward_values(f, far)):
            for start in cells(f):
                for end in cells(f):
                    for side in ("left", "right"):
                        got = _walk_outcome(lattice.geodesic_cells_from_B, f, B, start, end, side)
                        assert got[0] == "DomainError" or got[0] == "InvariantError" or (
                            got[0] == start and got[-1] == end)
                        outcomes[-1].append(got)
    assert outcomes[0] == outcomes[1]
    if f.rows > 1 and f.cols > 1:
        assert sum(got[0] == "InvariantError" for got in outcomes[0]) > 0


def test_walks_reject_an_off_grid_end_and_a_table_of_another_shape_or_type(each_kernel):
    f = FIELDS[1]
    B = lattice.backward_values(f, (f.rows - 1, f.cols - 1))
    bad = [(B, (f.rows, f.cols - 1)), (B, (f.rows - 1, f.cols)), (B, (-1, 2)),
           (B[:, :-1], (f.rows - 1, f.cols - 2)), (B[:-1], (f.rows - 2, f.cols - 1)),
           (np.pad(B, 1), (f.rows - 1, f.cols - 1)),
           (B.astype(np.float32), (f.rows - 1, f.cols - 1))]
    for _ in each_kernel():
        for table, end in bad:
            for side in ("left", "right"):
                with pytest.raises(DomainError):
                    lattice.geodesic_cells_from_B(f, table, (0, 0), end, side)


# ------------------------------------------------- patience kernel references
# The three chain kernels the cloud had before one insertion routine served
# them all: k pile rows, the inline two-row loop of the row pass, and the
# Fenwick prefix-maximum tables.

def ref_rel_uv(cloud, origin):
    x0, t0 = _xy(origin)
    u = (cloud.ts - t0) + (cloud.xs - x0)
    v = (cloud.ts - t0) - (cloud.xs - x0)
    return u, v


def ref_diamond_order(cloud, start, end):
    sx, st = _xy(start)
    ex, et = _xy(end)
    if not causal_leq(start, end):
        raise DomainError(f"end {end} not causally reachable from start {start}")
    u, v = ref_rel_uv(cloud, start)
    U = (et - st) + (ex - sx)
    V = (et - st) - (ex - sx)
    keep = (u >= 0) & (v >= 0) & (u <= U) & (v <= V)
    keep &= ~((u == 0) & (v == 0))
    keep &= ~((u == U) & (v == V))
    idx = np.nonzero(keep)[0]
    order = np.lexsort((v[idx], u[idx]))
    return idx[order], u, v


def ref_patience_rows(vs, k):
    rows = [[] for _ in range(k)]
    for v in vs:
        item = v
        for row in rows:
            pos = bisect_right(row, item)
            if pos == len(row):
                row.append(item)
                item = None
                break
            item, row[pos] = row[pos], item
        # an item bumped out of the last row is discarded
    return rows


def ref_greene_partial_sums(cloud, start, end, k):
    idx, u, v = ref_diamond_order(cloud, start, end)
    kk = min(k, max(1, idx.size))
    rows = ref_patience_rows(v[idx], kk)
    sums, acc = [], 0
    for r in range(k):
        acc += len(rows[r]) if r < kk else 0
        sums.append(acc)
    return sums


def ref_row_pass(cloud, start, target_xs, target_t):
    sx, st = _xy(start)
    ys = np.asarray(target_xs, dtype=np.float64)
    dt = target_t - st
    if dt <= 0:
        raise DomainError("targets must lie strictly after the source")
    Us = dt + (ys - sx)
    Vs = dt - (ys - sx)
    if np.any(np.abs(ys - sx) > dt):
        raise DomainError("some target lies outside the causal cone of the source")
    u, v = ref_rel_uv(cloud, start)
    keep = (u >= 0) & (v >= 0) & (u <= Us.max()) & (v <= Vs.max())
    keep &= ~((u == 0) & (v == 0))
    idx = np.nonzero(keep)[0]
    order = np.lexsort((v[idx], u[idx]))
    pu = u[idx][order]
    pv = v[idx][order]
    stops = np.searchsorted(pu + 1j * pv, Us + 1j * Vs).tolist()

    read_order = np.lexsort((Vs, Us))
    L = np.zeros(ys.size, dtype=np.int64)
    L2 = np.zeros(ys.size, dtype=np.int64)
    row1 = []
    row2 = []
    pos = 0
    for k in read_order:
        stop = stops[k]
        while pos < stop:
            item = pv[pos]
            spot = bisect_right(row1, item)
            if spot == len(row1):
                row1.append(item)
            else:
                item, row1[spot] = row1[spot], item
                spot2 = bisect_right(row2, item)
                if spot2 == len(row2):
                    row2.append(item)
                else:
                    row2[spot2] = item
            pos += 1
        c1 = bisect_right(row1, Vs[k])
        c2 = bisect_right(row2, Vs[k])
        L[k] = c1
        L2[k] = c1 + c2
    return L, L2


class RefFenwickMax:
    def __init__(self, n):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def update(self, i, value):
        i += 1
        while i <= self.n:
            if self.tree[i] < value:
                self.tree[i] = value
            i += i & (-i)

    def query(self, i):
        i += 1
        best = 0
        while i > 0:
            if self.tree[i] > best:
                best = self.tree[i]
            i -= i & (-i)
        return best


def ref_chain_tables(cloud, start, end):
    idx, u, v = ref_diamond_order(cloud, start, end)
    n = idx.size
    F = np.zeros(n, dtype=np.int64)
    B = np.zeros(n, dtype=np.int64)
    if n == 0:
        return idx, F, B, 0
    vv = v[idx]
    ranks = np.argsort(np.argsort(vv, kind="stable"), kind="stable")
    fw = RefFenwickMax(n)
    for m in range(n):
        F[m] = fw.query(int(ranks[m])) + 1
        fw.update(int(ranks[m]), int(F[m]))
    bw = RefFenwickMax(n)
    for m in range(n - 1, -1, -1):
        r = n - 1 - int(ranks[m])
        B[m] = bw.query(r) + 1
        bw.update(r, int(B[m]))
    return idx, F, B, int(F.max())


def integer_clouds(count, seed):
    """Small clouds on an integer grid: ties in u and v everywhere, points
    on both anchors, and the empty cloud.  A cloud's points are distinct,
    so repeats are dropped."""
    rng = np.random.default_rng(seed)
    yield cloud_from_points([]), (0.0, 0.0), (0.0, 2.0)
    for _ in range(count):
        T = int(rng.integers(1, 7))
        sx = float(rng.integers(-2, 3))
        ex = sx + float(rng.integers(-T, T + 1))
        n = int(rng.integers(0, 28))
        pts = list(zip(rng.integers(-6, 7, n).astype(float),
                       rng.integers(0, T + 1, n).astype(float)))
        pts += [(sx, 0.0)] * int(rng.integers(0, 2))
        pts += [(ex, float(T))] * int(rng.integers(0, 2))
        yield cloud_from_points(list(dict.fromkeys(pts))), (sx, 0.0), (ex, float(T))


CLOUD_CASES = list(integer_clouds(300, 0))


def test_pile_kernel_passage_and_greene_match_patience_rows(each_kernel):
    for _ in each_kernel():
        for cl, start, end in CLOUD_CASES:
            n = ref_diamond_order(cl, start, end)[0].size
            want = ref_greene_partial_sums(cl, start, end, n + 3)
            assert cloud_mod.passage_value(cl, start, end) == want[0]
            for k in (1, 2, 3, n + 3):
                got = cloud_mod.greene_partial_sums(cl, start, end, k)
                assert got == want[:k]
                assert all(type(s) is int for s in got)


def test_pile_kernel_row_pass_matches_two_row_loop(each_kernel):
    for _ in each_kernel():
        rng = np.random.default_rng(1)
        for cl, start, end in CLOUD_CASES:
            sx, T = start[0], end[1]
            cone = np.arange(sx - T, sx + T + 1)
            between = cone[:-1] + 0.5
            for ys in (cone, rng.choice(cone, 12), np.full(9, rng.choice(cone)),
                       np.concatenate([between, between[::-1]])):
                for g, w in zip(cloud_mod.row_pass(cl, start, ys, T),
                                ref_row_pass(cl, start, ys, T)):
                    assert g.dtype == np.int64 and np.array_equal(g, w)


def test_pile_kernel_chain_tables_match_fenwick_tables(each_kernel):
    for _ in each_kernel():
        for cl, start, end in CLOUD_CASES:
            got = cloud_mod.chain_tables(cl, start, end)
            want = ref_chain_tables(cl, start, end)
            for g, w in zip(got[:3], want[:3]):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert got[3] == want[3] and type(got[3]) is int


def test_pile_kernel_matches_references_on_a_poisson_cloud(each_kernel):
    n = 64
    half = 2.0 * n ** (2.0 / 3.0)
    pad = n / 2 + 1
    cl = make_poisson_cloud(0, 2.0, Region(-(half + pad), half + pad, 0, n))
    ys = np.linspace(-half, half, 257)
    start, end = (0.0, 0.0), (0.0, float(n))
    for _ in each_kernel():
        for g, w in zip(cloud_mod.row_pass(cl, start, ys, float(n)),
                        ref_row_pass(cl, start, ys, float(n))):
            assert np.array_equal(g, w)
        for g, w in zip(cloud_mod.chain_tables(cl, start, end),
                        ref_chain_tables(cl, start, end)):
            assert np.array_equal(g, w)
        assert (cloud_mod.greene_partial_sums(cl, start, end, 4)
                == ref_greene_partial_sums(cl, start, end, 4))


def pile_inputs(count, seed):
    """(vs, k, stops, bounds) for the kernel itself: integer ties with -0.0
    next to 0.0, or distinct floats; k in {0, 1, 2, 3, n + 3}; empty
    values and empty stops; stops at 0 and n and repeated; +-inf bounds."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = 0 if case % 25 == 0 else int(rng.integers(1, 40))
        if case % 2:
            vs = rng.integers(-3, 4, n).astype(np.float64)
            vs[rng.random(n) < 0.3] *= 0.0  # -0.0 where negative, 0.0 elsewhere
            vs[rng.random(n) < 0.1] = -0.0
        else:
            vs = rng.normal(size=n)
        m = 0 if case % 25 == 1 else int(rng.integers(1, 12))
        stops = np.sort(rng.integers(0, n + 1, m))
        if m > 2:
            stops[0], stops[-1], stops[1] = 0, n, 0
        bounds = rng.choice(np.concatenate([vs, [0.0, -0.0, np.inf, -np.inf, 1.5]]), m)
        for k in (0, 1, 2, 3, n + 3):
            yield vs, k, stops, bounds


def test_compiled_pile_counts_match_python_kernel():
    assert _native.library() is not None
    for vs, k, stops, bounds in pile_inputs(1000, 2):
        got = cloud_mod._pile_counts(vs, k, stops, bounds)
        want = twins._pile_counts_py(vs, k, stops, bounds)
        assert got.shape == want.shape == (stops.size, k)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (vs, k, stops, bounds)


def long_pile_inputs(seed):
    """(vs, k, stops, bounds, length) whose first pile row holds exactly
    length = 2^m - 1, 2^m or 2^m + 1 values (up to 4097) before a tail
    bumps values into the rows below: nondecreasing values with long
    plateaus of ties, -0.0 next to 0.0, read at every value of the row,
    between values, at +-inf and at NaN; k in {1, 2, n + 3}."""
    rng = np.random.default_rng(seed)
    for m in range(13):
        for length in {2 ** m - 1, 2 ** m, 2 ** m + 1} - {0}:
            span = max(1, length // 8)
            head = np.sort(rng.integers(-span, span + 1, length)).astype(np.float64)
            head[head == 0] = rng.choice([0.0, -0.0], int((head == 0).sum()))
            tail = rng.choice(head, min(length, 64))
            vs = np.concatenate([head, tail])
            probes = np.concatenate([np.unique(head), np.unique(head) + 0.5,
                                     [0.0, -0.0, -span - 1.0, span + 1.0,
                                      np.inf, -np.inf, np.nan]])
            bounds = np.concatenate([probes, rng.choice(probes, 32)])
            stops = np.repeat([length, vs.size], [probes.size, 32])
            for k in (1, 2, vs.size + 3):
                yield vs, k, stops, bounds, length


def test_compiled_pile_counts_match_python_kernel_on_long_rows():
    """The search past six halvings: every read of a row of 2^m +- 1
    values, ties and signed zeros included, matches bisect_right."""
    assert _native.library() is not None
    lengths = set()
    for vs, k, stops, bounds, length in long_pile_inputs(5):
        got = cloud_mod._pile_counts(vs, k, stops, bounds)
        want = twins._pile_counts_py(vs, k, stops, bounds)
        # the head fills the first row alone: +inf and NaN read its length
        assert (want[stops == length][~(bounds[stops == length] < np.inf), 0] == length).all()
        assert np.array_equal(got, want), (length, k)
        lengths.add(length)
    assert max(lengths) == 4097 and {1, 2, 3, 255, 256, 257} <= lengths


PHILOX_SEEDS = (0, 1, 2, 3, 7, 12345, 2**32, 2**63, 2**64 - 1)
PHILOX_SIZES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1001, 27_000)


def numpy_philox(seed, stream, n):
    """The reference stream: numpy's own Philox4x64-10 generator."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def test_compiled_philox_matches_numpy():
    """Each ``uniforms`` call is one call of the compiled stream, and no
    other kernel runs."""
    with one_kernel("compiled") as calls:
        for seed in PHILOX_SEEDS:
            for stream in (0, 1, 2, 5):
                for n in PHILOX_SIZES:
                    got = rng.uniforms(seed, stream, n)
                    assert got.dtype == np.float64 and got.shape == (n,)
                    assert got.tobytes() == numpy_philox(seed, stream, n).tobytes(), (
                        seed, stream, n)
    assert calls == {"philox_uniforms": len(PHILOX_SEEDS) * 4 * len(PHILOX_SIZES)}


def test_compiled_kernel_loads_here():
    """gcc is part of this project's toolchain: the library builds and
    loads here, and the patience kernel, a table, a pair sweep and a walk
    each reach it."""
    assert _native.library() is not None
    f = FIELDS[0]
    B = lattice.backward_values(f, (4, 4))
    with one_kernel("compiled") as calls:
        cloud_mod._pile_counts(np.zeros(3), 2, [3], [0.0])
        lattice.forward_values(f, (0, 0))
        lattice.pair_forward(f, ((0, 0), (0, 0)), 5)
        lattice.geodesic_cells_from_B(f, B, (0, 0), (4, 4), "left")
    assert calls == {"pile_counts": 1, "path_table": 1, "pair_sweep": 1, "walk": 1}


BREAKAGES = ["missing compiler", "compile error", "unwritable cache", "missing Python headers"]

# Breaks the build of lpplab._native as named, with its cache under tmp;
# run in-process, or in a child interpreter as its sitecustomize.
BREAK = """
from pathlib import Path
from lpplab import _native
breakage, tmp = {breakage!r}, Path({tmp!r})
_native._CACHE = tmp / "cache"
if breakage == "missing compiler":
    _native._BUILD = (str(tmp / "no-cc"),) + _native._BUILD[1:]
elif breakage == "compile error":
    _native._BUILD += ("-Dpile_counts=",)
elif breakage == "missing Python headers":
    _native._include = lambda: str(tmp / "no-headers")
else:
    (tmp / "file").write_text("")
    _native._CACHE = tmp / "file" / "cache"
"""

CAUSES = {"missing compiler": "No such file or directory: ", "compile error": "error: ",
          "unwritable cache": "Not a directory: ", "missing Python headers": "Python.h"}


@pytest.mark.parametrize("breakage", BREAKAGES)
def test_failed_build_raises_one_error(breakage, monkeypatch, tmp_path, capfd):
    """Without gcc, with a compile error, an unwritable cache or without
    the Python headers, every kernel call raises the same one-line
    BuildError, naming its cause, the build command and the include
    directory.  The build is tried once: gcc runs at most once (not at
    all when the cache cannot be made), and no file is left in the
    cache.  The program entry exits 2 with that one line on stderr."""
    cli_tmp = tmp_path / "cli"
    (tmp_path / "site").mkdir()
    cli_tmp.mkdir()
    (tmp_path / "site" / "sitecustomize.py").write_text(
        BREAK.format(breakage=breakage, tmp=str(cli_tmp)))
    src = str(Path(cloud_mod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path / "site"), src]))
    done = subprocess.run([sys.executable, "-m", "lpplab.cli", "gap", "--out",
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("lpplab cannot build")
    assert CAUSES[breakage] in done.stderr
    assert not (tmp_path / "out").exists()
    assert not (cli_tmp / "cache").exists() or list((cli_tmp / "cache").iterdir()) == []

    cl = make_poisson_cloud(0, 2.0, Region(-4, 4, 0, 4))
    f = FIELDS[0]
    B = lattice.backward_values(f, (4, 4))
    for name in ("_loaded", "_CACHE", "_BUILD", "_include"):
        monkeypatch.setattr(_native, name, getattr(_native, name))
    _native._loaded = None
    exec(BREAK.format(breakage=breakage, tmp=str(tmp_path)), {})
    runs, builds = [], []
    run, build = subprocess.run, _native._build
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    monkeypatch.setattr(_native, "_build", lambda: builds.append(1) or build())
    kernel_calls = [lambda: cloud_mod._pile_counts(np.zeros(3), 2, [3], [0.0]),
                    lambda: cloud_mod.row_pass(cl, (0.0, 0.0), [0.0, 1.0], 3.0),
                    lambda: rng.uniforms(0, 2, 9),
                    lambda: lattice.forward_values(f, (0, 0)),
                    lambda: lattice.pair_forward(f, ((0, 0), (0, 0)), 5),
                    lambda: lattice.geodesic_cells_from_B(f, B, (0, 0), (4, 4), "left")]
    messages = set()
    for _ in range(3):
        for call in kernel_calls:
            with pytest.raises(_native.BuildError) as err:
                call()
            messages.add(str(err.value))
    assert len(messages) == 1
    message = messages.pop()
    command = " ".join([*_native._BUILD, f"-I{_native._include()}", str(_native._SOURCE)])
    assert "\n" not in message and command in message
    assert message.endswith(f"needs gcc and Python.h in {_native._include()}")
    assert CAUSES[breakage] in message
    assert len(builds) == 1
    assert len(runs) == (0 if breakage == "unwritable cache" else 1)
    assert capfd.readouterr() == ("", "")
    cache = tmp_path / "cache"
    assert not cache.exists() or list(cache.iterdir()) == []


BUILDER = """
import sys, time
from pathlib import Path
from lpplab import _native
_native._CACHE, me, other = (Path(arg) for arg in sys.argv[1:])
me.touch()
deadline = time.monotonic() + 60
while not other.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
fn = _native.library()
print(_native._build(), fn is not None)
"""


def test_two_processes_build_one_cache(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(Path(cloud_mod.__file__).parents[1]))
    ready = [tmp_path / "a", tmp_path / "b"]
    procs = [subprocess.Popen([sys.executable, "-c", BUILDER, str(cache), str(me), str(other)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for me, other in (ready, ready[::-1])]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    lines = {out.strip() for out, _ in outs}
    assert len(lines) == 1
    lib, loaded = lines.pop().rsplit(" ", 1)
    assert loaded == "True"
    assert [p.name for p in cache.iterdir()] == [Path(lib).name]


cloud_points = st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 5)), max_size=30)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=150, deadline=None)
@given(pts=cloud_points, x0=st.integers(-2, 2), x1=st.integers(-5, 5),
       targets=st.lists(st.integers(-5, 5), min_size=1, max_size=8), T=st.integers(1, 5))
def test_mirror_transposes_the_row_pass(kernel, pts, x0, x1, targets, T):
    """x -> -x maps (u, v) to (v, u) exactly; chain values do not see it."""
    pts = list(dict.fromkeys((float(x), float(t)) for x, t in pts))
    cl = cloud_from_points(pts)
    mirror = cloud_from_points([(-x, t) for x, t in pts])
    ys = np.array([y for y in targets if abs(y - x0) <= T], dtype=np.float64)
    x1 = float(np.clip(x1, x0 - T, x0 + T))
    with one_kernel(kernel):
        for g, w in zip(cloud_mod.row_pass(mirror, (-float(x0), 0.0), -ys, float(T)),
                        cloud_mod.row_pass(cl, (float(x0), 0.0), ys, float(T))):
            assert np.array_equal(g, w)
        assert (cloud_mod.greene_partial_sums(mirror, (-float(x0), 0.0), (-x1, float(T)), 3)
                == cloud_mod.greene_partial_sums(cl, (float(x0), 0.0), (x1, float(T)), 3))


# ---------------------------------------------------- cloud order references
# Before each cloud kept one point order, every cone selection computed the
# keys of the whole cloud, masked them and sorted what was kept.

def ref_sorted_cone(cloud, start, U, V):
    u, v = ref_rel_uv(cloud, start)
    keep = (u >= 0) & (v >= 0) & (u <= U) & (v <= V)
    keep &= ~((u == 0) & (v == 0))
    idx = np.nonzero(keep)[0]
    idx = idx[np.lexsort((v[idx], u[idx]))]
    return idx, u[idx], v[idx]


def _edge_points(x0, t0, t, key, level):
    """Points at time t whose key is level, and the nearest ones with the
    key on either side: x is scanned over 40 floats each way of the guess."""
    dt = t - t0
    guess = x0 + (level - dt) if key == "u" else x0 + (dt - level)
    xs = {guess}
    for way in (np.inf, -np.inf):
        x = guess
        for _ in range(40):
            x = float(np.nextafter(x, way))
            xs.add(x)
    xs = sorted(xs)
    keys = [(dt + (x - x0)) if key == "u" else (dt - (x - x0)) for x in xs]
    below = [k for k in keys if k < level]
    above = [k for k in keys if k > level]
    near = {max(below, default=None), min(above, default=None), level}
    return [(x, t) for x, k in zip(xs, keys) if k in near]


def edge_cloud(x0, t0, U, V):
    """Points on the four edges of the rectangle [0, U] x [0, V] of the
    source (x0, t0), the nearest points outside and inside each edge, the
    source and the far corner."""
    pts = [(x0, t0), (x0 + (U - V) / 2, t0 + (U + V) / 2)]
    for t in np.linspace(t0, t0 + (U + V) / 2, 9).tolist():
        for key, level in (("u", 0.0), ("u", U), ("v", 0.0), ("v", V)):
            pts += _edge_points(x0, t0, t, key, level)
    return cloud_from_points(list(dict.fromkeys(pts)))


def fallback_cloud():
    """A cloud whose order by (t + x, t - x) disagrees with the exact keys
    of the source (0, 1e8 - 10): near 1e8 one float step is about 1.5e-8,
    so the two middle points get equal t + x and t - x orders them, while
    their keys from the source order them the other way."""
    t1 = 1e8
    pts = [(0.7e-8, t1), (-1e-8, float(np.nextafter(t1, np.inf))), (0.5, t1 - 3), (-0.25, t1 + 2)]
    return cloud_from_points(pts), (0.0, t1 - 10), 30.0, 30.0


def cone_cases():
    """(cloud, start, U, V): rectangle edges at several scales, ties in u
    and in v, distinct points with equal rounded (u, v), points on the
    anchors, sources at both grid ends of a Poisson cloud, and the
    integer clouds."""
    for x0, t0, U, V in ((0.1, 0.3, 4.7, 3.1), (-7.3, 2.9, 2.0, 6.0),
                         (1000.1, 500.3, 3.25, 3.5), (0.0, 0.0, 1.0, 1.0)):
        yield edge_cloud(x0, t0, U, V), (x0, t0), U, V
    grid = [(0.1 * i, 0.1 * j) for i in range(-12, 13) for j in range(0, 25)]
    for start in ((0.3, 0.1), (0.0, 0.0), (-0.7, 0.4)):
        yield cloud_from_points(grid), start, 1.3, 1.1
    third, one = (float(np.nextafter(a, np.inf)) for a in (3.0, 1.0))
    twins = [(x, t) for x in (1e-17, 2e-17, -1e-17, 0.0, 1.0, one) for t in (3.0, third)]
    for start in ((0.0, 0.0), (0.1, 0.2), (-1.0, 1.0)):
        yield cloud_from_points(twins), start, 8.0, 8.0
    n = 32
    half = 2.0 * n ** (2.0 / 3.0)
    pad = n / 2 + 1
    cl = make_poisson_cloud(0, 2.0, Region(-(half + pad), half + pad, 0, n))
    for x0 in (-half, half, -(half + pad), half + pad):
        yield cl, (x0, 0.0), float(2 * n), float(2 * n)
        yield cl, (x0, 0.0), float(n), float(n)
    yield fallback_cloud()
    for cl, start, end in CLOUD_CASES:
        (sx, st), (ex, et) = start, end
        yield cl, start, (et - st) + (ex - sx), (et - st) - (ex - sx)


CONE_CASES = list(cone_cases())


def _same_cone(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_cone_cases_are_adversarial():
    """The edge clouds (the first four cases) put points on u = 0 and
    u = U and one float outside each; the twin clouds (cases 7-9) hold
    distinct points with equal (u, v)."""
    for cl, start, U, V in CONE_CASES[:4]:
        u, _ = ref_rel_uv(cl, start)
        assert (u == 0).any() and (u == U).any()
        assert ((u < 0) & (u > -1e-9)).any() and ((u > U) & (u < U + 1e-9)).any()
    for cl, start, U, V in CONE_CASES[7:10]:
        _, u, v = ref_sorted_cone(cl, start, U, V)
        assert ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any()


def test_sorted_cone_matches_the_full_sort():
    for cl, start, U, V in CONE_CASES:
        _same_cone(cloud_mod._sorted_cone(cl, start, U, V), ref_sorted_cone(cl, start, U, V))


def test_cloud_order_is_checked_and_restored(monkeypatch):
    cl, start, U, V = fallback_cloud()
    want = ref_sorted_cone(cl, start, U, V)
    kept = cl.u_order[np.isin(cl.u_order, want[0])]
    assert not np.array_equal(kept, want[0])  # the cloud's order is not the source's
    checks = []
    check = cloud_mod._in_order
    monkeypatch.setattr(cloud_mod, "_in_order", lambda *a: checks.append(check(*a)) or checks[-1])
    _same_cone(cloud_mod._sorted_cone(cl, start, U, V), want)
    assert checks == [False]


def ref_cloud_order(xs, ts):
    """xs, ts, u_order and u_keys as the cloud built them with two lexsorts."""
    order = np.lexsort((xs, ts))
    xs, ts = xs[order], ts[order]
    u = ts + xs
    u_order = np.lexsort((ts - xs, u))
    return xs, ts, u_order, u[u_order]


def _shuffled(cl, seed):
    """The cloud's points in a fixed shuffled order, as a new cloud's input."""
    perm = np.random.default_rng(seed).permutation(len(cl))
    return cl.xs[perm], cl.ts[perm]


def _has_ties(key):
    key = np.sort(key)
    return bool(np.any(key[1:] == key[:-1]))


def test_cloud_sorts_match_lexsort():
    """The cloud sorts by argsort unless a key repeats, then by lexsort:
    both give the lexsort order, on tied grid clouds (the fallback), on
    the cone cases and on criterion 6 clouds (seeds 0-3, no ties)."""
    n = 256
    half = 2.0 * n ** (2.0 / 3.0)
    pad = n / 2 + 1
    region = Region(-(half + pad), half + pad, 0, n)
    grid = cloud_from_points([(0.1 * i, 0.1 * j) for i in range(-12, 13) for j in range(25)])
    clouds = [grid] + list({id(c): c for c, *_ in CONE_CASES}.values())
    crit6 = [make_poisson_cloud(seed, 2.0, region) for seed in range(4)]
    for cl in clouds + crit6:
        xs, ts = _shuffled(cl, len(cl))
        got = type(cl)(xs, ts, cl.region)
        for g, w in zip((got.xs, got.ts, got.u_order, got.u_keys), ref_cloud_order(xs, ts)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert _has_ties(grid.ts) and _has_ties(grid.ts + grid.xs)
    for cl in crit6:
        assert not _has_ties(cl.ts) and not _has_ties(cl.u_keys)


def test_compiled_row_falls_back_where_the_cloud_order_disagrees(monkeypatch):
    assert _native.library() is not None
    cl, (x0, t0), U, V = fallback_cloud()
    ys = np.linspace(x0 - 12, x0 + 12, 9)
    cone = cloud_mod._sorted_cone
    calls = []
    monkeypatch.setattr(cloud_mod, "_sorted_cone", lambda *a: calls.append(a) or cone(*a))
    for g, w in zip(cloud_mod.row_pass(cl, (x0, t0), ys, t0 + 15),
                    ref_row_pass(cl, (x0, t0), ys, t0 + 15)):
        assert np.array_equal(g, w)
    assert len(calls) == 1  # the compiled row found the order broken
    calls.clear()
    cloud_mod.row_pass(cl, (x0, t0), [x0], t0 + 8)  # one point in reach: in order
    assert calls == []


def _row_targets(start, U, V):
    """Targets at the time of the far corner: the corner, the cone's ends
    and points between."""
    x0, t0 = start
    dt = (U + V) / 2
    ys = np.concatenate([[x0 + (U - V) / 2, x0 - dt, x0 + dt], np.linspace(x0 - dt, x0 + dt, 13)])
    T = t0 + dt
    return ys[np.abs(ys - x0) <= T - t0], T


def test_row_pass_matches_the_reference_on_adversarial_clouds(each_kernel):
    for _ in each_kernel():
        for cl, start, U, V in CONE_CASES:
            ys, T = _row_targets(start, U, V)
            if T <= start[1]:
                continue
            for g, w in zip(cloud_mod.row_pass(cl, start, ys, T),
                            ref_row_pass(cl, start, ys, T)):
                assert g.dtype == np.int64 and np.array_equal(g, w)


@pytest.mark.parametrize("n, count", [(128, 256), (256, 1025)])
def test_compiled_row_matches_python_row_on_acceptance_seeds(n, count):
    """The clouds of criteria 5 (n = 128) and 6 (n = 256), seeds 0-19:
    criterion 6's row from (0, 0) and, for criterion 5, the rows from
    both grid ends and two inner sources."""
    half = 2.0 * n ** (2.0 / 3.0)
    pad = n / 2 + 1
    ys = np.linspace(-half, half, count)
    for seed in range(20):
        cl = make_poisson_cloud(seed, 2.0, Region(-(half + pad), half + pad, 0, n))
        for x0 in [0.0] if n == 256 else ys[[0, 85, 170, -1]].tolist():
            _same_cone(cloud_mod._sorted_cone(cl, (x0, 0.0), 2.0 * n, 2.0 * n),
                       ref_sorted_cone(cl, (x0, 0.0), 2.0 * n, 2.0 * n))
            reach = ys[np.abs(ys - x0) <= n]
            rows = []
            for kernel in KERNELS:
                with one_kernel(kernel):
                    rows.append(cloud_mod.row_pass(cl, (x0, 0.0), reach, float(n)))
            for g, w in zip(*rows):
                assert np.array_equal(g, w)


# ------------------------------------------------- merge read-out references
# The four loops that each found where two lattice walks agree before one
# read-out, lattice._merge_index, served them all.

def ref_merge_time(cols_a, cols_b, t0):
    """busemann._merge_time: first chart time of two same-span walks' agreement."""
    n = cols_a.size
    k = n - 1
    while k >= 0 and cols_a[k] == cols_b[k]:
        k -= 1
    return t0 + k + 1


def ref_coalescence_time(a, b):
    """busemann.coalescence_time with its suffix scan."""
    pa = a.spacetime_nodes()
    pb = b.spacetime_nodes()
    if pa[-1] != pb[-1]:
        raise DomainError("coalescence needs a common terminal point")
    if pa == pb:
        return pa[0][1]
    k = 0
    while k < min(len(pa), len(pb)) and pa[-1 - k] == pb[-1 - k]:
        k += 1
    merge = pa[-k][1]
    if k == 1:
        return None  # shares only the terminal node
    return merge


def ref_one_sided_scan(cols_geo, cols_opt):
    """classify.one_sided_diag: the first index from which the columns agree."""
    span = len(cols_geo)
    k = span
    while k > 0 and cols_geo[k - 1] == cols_opt[k - 1]:
        k -= 1
    return k


def ref_stem_split(cl_cells, cr_cells):
    """busemann._semi_inf_geometric: the last index of the common stem."""
    split = 0
    for m, (ca, cb) in enumerate(zip(cl_cells, cr_cells)):
        if ca != cb:
            break
        split = m
    return split


def ref_seeded(field, from_cells, F):
    """(seeds, A): F on the interior cells of from_cells and NEG elsewhere,
    and the dense seeded table over them; None when nothing is seeded."""
    seeds = np.full(field.weights.shape, NEG)
    for c in map(tuple, from_cells[1:-1]):
        seeds[c] = F[c]
    if not np.any(seeds > _VALID):
        return None
    return seeds, ref_seeded_forward(field, seeds)


def ref_bridge_exists(field, seeded, to_cells, B, total):
    """lattice.bridge_exists by the seeded definition it replaced, with
    per-cell testing loops: some interior q of to_cells, not seeded, where
    the best path through a seeded cell before q continues optimally to
    B's end.  ``seeded`` is ref_seeded of the from walk."""
    if seeded is None:
        return False
    seeds, A = seeded
    w = field.weights
    for q in map(tuple, to_cells[1:-1]):
        aq = A[q]
        if lattice.is_reachable(aq) and aq > seeds[q] and aq + B[q] - w[q] == total:
            return True
    return False


@pytest.fixture(scope="module", params=FIELDS, ids=IDS)
def field_walks(request):
    """A field and {(start, end, side): the walk's (n, 2) array} for every
    reachable start, end and side."""
    f, walks = request.param, {}
    for end in cells(f):
        B = lattice.backward_values(f, end)
        for start in cells(f):
            if start[0] <= end[0] and start[1] <= end[1]:
                for side in ("left", "right"):
                    walks[start, end, side] = lattice.geodesic_cells_from_B(f, B, start, end, side)
    return f, walks


def _groups(walks, key):
    out = {}
    for k, c in walks.items():
        out.setdefault(key(k), []).append((k, c))
    return out.values()


def test_merge_index_matches_suffix_scans(field_walks):
    """Walks to one end from starts of one chart time: every pair, itself included."""
    f, walks = field_walks
    seen = set()
    for group in _groups(walks, lambda k: (k[0][0] + k[0][1], k[1])):
        end = group[0][0][1]
        B = lattice.backward_values(f, end)
        lists = [walk_list(wa, start, end) for (start, _, _), wa in group]
        ref = np.array([j for _, j in lists[0]], dtype=np.int64)
        for m, ((start, _, side), wa) in enumerate(group):
            t0 = start[0] + start[1]
            ca = lists[m]
            cols_a = np.array([j for _, j in ca], dtype=np.int64)
            # cells, not columns: the same walk shifted by one row or column
            for shift in ((1, 0), (0, 1)):
                assert lattice._merge_index(wa, wa + shift) == len(ca)
            for (_, wb), cb in zip(group[m:], lists[m:]):
                cols_b = np.array([j for _, j in cb], dtype=np.int64)
                k = lattice._merge_index(cols_a, cols_b)
                assert k == lattice._merge_index(cols_b, cols_a) == lattice._merge_index(ca, cb)
                assert k == lattice._merge_index(wa, wb) == lattice._merge_index(wb, wa)
                assert t0 + k == ref_merge_time(cols_a, cols_b, t0)
                assert k == ref_one_sided_scan(list(cols_a), list(cols_b))
                seen.add("identical" if k == 0 else "terminal" if k == len(ca) - 1 else "merged")
            # the walk-and-merge read-out walks again and agrees with the scan
            assert busemann._join_time(f, B, start, end, side, ref) \
                == ref_merge_time(cols_a, ref, t0)
    if min(f.rows, f.cols) > 1:  # a one-line grid has a single walk per pair of cells
        assert {"identical", "terminal"} <= seen


def test_merge_index_matches_stem_scan(field_walks):
    """Walks from one start to ends of one chart time: every pair, itself included."""
    f, walks = field_walks
    for group in _groups(walks, lambda k: (k[0], k[1][0] + k[1][1])):
        lists = [walk_list(wa, start, end) for (start, end, _), wa in group]
        for m, (_, wa) in enumerate(group):
            ca = lists[m]
            for (_, wb), cb in zip(group[m:], lists[m:]):
                split = len(ca) - 1 - lattice._merge_index(ca[::-1], cb[::-1])
                assert split == ref_stem_split(ca, cb)
                assert split == len(wa) - 1 - lattice._merge_index(wa[::-1], wb[::-1])
                # forwards, walks to two ends agree from no index: the length
                assert lattice._merge_index(ca, cb) == ref_one_sided_scan(ca, cb)
                assert lattice._merge_index(wa, wb) == ref_one_sided_scan(ca, cb)


def test_coalescence_time_matches_suffix_scan(field_walks):
    """Chains to one end from starts of any chart time, so of any two lengths."""
    f, walks = field_walks
    rng = np.random.default_rng(f.rows * 17 + f.cols)
    kinds = set()
    for group in _groups(walks, lambda k: k[1]):
        chains = [engine.Chain("lattice", s, e, walk_list(w, s, e), 0)
                  for (s, e, _), w in group]
        picks = [(a, a) for a in chains] + [
            (chains[p], chains[q]) for p, q in rng.integers(0, len(chains), (4 * len(chains), 2))]
        for a, b in picks:
            got = busemann.coalescence_time(a, b)
            assert got == ref_coalescence_time(a, b)
            kinds.add((len(a.nodes) == len(b.nodes), a.nodes == b.nodes, got is None))
    if min(f.rows, f.cols) > 1:
        assert {(True, True, False), (True, False, True), (False, False, False)} <= kinds


def test_bridge_exists_matches_per_cell_loops(field_walks):
    """The left and right walks of every start and end, each pair in both
    directions (a walk with itself included), as lists and as the walks'
    own arrays; on integer fields also every start with two ends pl left
    of pr at one chart time, the leftmost walk to pl against the
    rightmost walk to pr and back, as ``busemann`` asks."""
    f, walks = field_walks
    seen = set()
    tables, seeded = {}, {}
    for key, wa in walks.items():
        start, end, _ = key
        if start not in tables:
            tables[start] = lattice.forward_values(f, start)
        seeded[key] = ref_seeded(f, walk_list(wa, start, end), tables[start])
    for (start, end, side), wa in walks.items():
        if side != "left":
            continue
        F = tables[start]
        B = lattice.backward_values(f, end)
        wb = walks[start, end, "right"]
        both = [(walk_list(wa, start, end), wa, (start, end, "left")),
                (walk_list(wb, start, end), wb, (start, end, "right"))]
        for (p, wp, kp), (q, wq, _) in itertools.product(both, repeat=2):
            want = ref_bridge_exists(f, seeded[kp], q, B, F[end])
            assert lattice.bridge_exists(f, p, q, B) is want
            assert lattice.bridge_exists(f, wp, wq, B) is want
            seen.add((len(p) > 2, want))
    assert (False, False) in seen  # walks of one or two cells: no interior, no bridge
    if f.integer_valued and min(f.rows, f.cols) > 2:  # ties make bridges
        assert {(True, False), (True, True)} <= seen
    if not f.integer_valued:
        return
    ends = {}
    for start, end, side in walks:
        ends.setdefault((start, end[0] + end[1]), set()).add(end)
    backward = {end: lattice.backward_values(f, end) for end in cells(f)}
    two_end = set()
    for (start, _), group in ends.items():
        F = tables[start]
        for pl, pr in itertools.combinations(sorted(group, key=lambda c: c[1]), 2):
            cl, cr = walks[start, pl, "left"], walks[start, pr, "right"]
            for (p, kp), q, end in (((cl, (start, pl, "left")), cr, pr),
                                     ((cr, (start, pr, "right")), cl, pl)):
                want = ref_bridge_exists(f, seeded[kp], walk_list(q, start, end),
                                         backward[end], F[end])
                assert lattice.bridge_exists(f, p, q, backward[end]) is want
                two_end.add(want)
    if min(f.rows, f.cols) > 2:
        assert two_end == {False, True}


def test_coalescence_time_matches_suffix_scan_on_clouds():
    for cl, start, end in CLOUD_CASES:
        left = engine.geodesic(cl, start, end, "left")
        right = engine.geodesic(cl, start, end, "right")
        for a, b in ((left, right), (right, left), (left, left)):
            assert busemann.coalescence_time(a, b) == ref_coalescence_time(a, b)


# ------------------------------------------------- chain track references
# The chain comparisons from before one (ts, xs) track and one probe grid
# served them all: flow's crossing check and uncrossing, the per-call
# arrays and grid of engine.overlap, the per-time separation loop of
# classify._classify_cloud, and the run scan of the shape reading.

def ref_position(chain, t):
    pts = chain.spacetime_nodes()
    ts = np.array([p[1] for p in pts], dtype=np.float64)
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    if not ts[0] <= t <= ts[-1]:
        raise DomainError(f"time {t} outside chain span [{ts[0]}, {ts[-1]}]")
    return float(np.interp(t, ts, xs))


def ref_interp(cloud, s, e, chain):
    sx, st = _xy(s)
    ex, et = _xy(e)
    ts = [st] + [float(cloud.ts[m]) for m in chain] + [et]
    xs = [sx] + [float(cloud.xs[m]) for m in chain] + [ex]
    return ts, xs


def ref_first_violation(f1, f2):
    ts = sorted(set(f1[0]) | set(f2[0]))
    grid = []
    for a, b in zip(ts[:-1], ts[1:]):
        grid.extend((a, 0.5 * (a + b)))
    grid.append(ts[-1])
    lo = max(f1[0][0], f2[0][0])
    hi = min(f1[0][-1], f2[0][-1])
    prev_t = None
    for t in grid:
        if t < lo or t > hi:
            continue
        x1 = float(np.interp(t, f1[0], f1[1]))
        x2 = float(np.interp(t, f2[0], f2[1]))
        if x1 > x2 + 1e-9:
            return prev_t if prev_t is not None else t
        prev_t = t
    return None


def ref_uncross(cloud, starts, ends, chains):
    s1, s2 = starts
    e1, e2 = ends
    c1, c2 = [list(c) for c in chains]
    for _ in range(2 * (len(c1) + len(c2)) + 4):
        f1 = ref_interp(cloud, s1, e1, c1)
        f2 = ref_interp(cloud, s2, e2, c2)
        t_cross = ref_first_violation(f1, f2)
        if t_cross is None:
            return c1, c2
        head1 = [m for m in c1 if cloud.ts[m] <= t_cross]
        tail1 = [m for m in c1 if cloud.ts[m] > t_cross]
        head2 = [m for m in c2 if cloud.ts[m] <= t_cross]
        tail2 = [m for m in c2 if cloud.ts[m] > t_cross]
        c1 = head1 + tail2
        c2 = head2 + tail1
    raise InvariantError("uncrossing did not order the pair", cloud)


def ref_overlap(a, b):
    pa = a.spacetime_nodes()
    pb = b.spacetime_nodes()
    ta = np.array([p[1] for p in pa])
    xa = np.array([p[0] for p in pa])
    tb = np.array([p[1] for p in pb])
    xb = np.array([p[0] for p in pb])
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if lo > hi:
        return []
    ts = sorted({float(lo), float(hi)}
                | {float(t) for t in ta if lo <= t <= hi}
                | {float(t) for t in tb if lo <= t <= hi})
    grid = []
    for u, v in zip(ts[:-1], ts[1:]):
        grid.extend((u, 0.5 * (u + v)))
    grid.append(ts[-1])
    eq = [abs(float(np.interp(t, ta, xa)) - float(np.interp(t, tb, xb))) == 0.0
          for t in grid]
    intervals = []
    k = 0
    while k < len(grid):
        if eq[k]:
            k2 = k
            while k2 + 1 < len(grid) and eq[k2 + 1]:
                k2 += 1
            intervals.append((grid[k], grid[k2]))
            k = k2 + 1
        else:
            k += 1
    return intervals


def ref_cloud_separation(left, right, t0, t1):
    grid = np.linspace(t0, t1, 257)
    return np.array([ref_position(right, t) - ref_position(left, t) for t in grid])


def ref_shape_from_separation(sep, threshold, frame):
    n = sep.size
    unit = frame.space_unit if frame is not None else 1.0
    cut = threshold * unit
    apart = sep > cut
    apart[0] = apart[-1] = False
    comps = []
    k = 1
    while k < n - 1:
        if apart[k]:
            k2 = k
            while k2 + 1 < n - 1 and apart[k2 + 1]:
                k2 += 1
            comps.append((k, k2))
            k = k2 + 1
        else:
            k += 1
    merged = []
    gap_tol = max(1, int(classify.MERGE_GAP * n))
    for c in comps:
        if merged and c[0] - merged[-1][1] <= gap_tol:
            merged[-1] = (merged[-1][0], c[1])
        else:
            merged.append(list(c))
    merged = [tuple(c) for c in merged]
    if not merged:
        return "I", merged
    m = max(1, int(classify.MARGIN * n))
    touches_start = merged[0][0] <= m
    touches_end = merged[-1][1] >= n - 1 - m
    if len(merged) == 1:
        if touches_end and not touches_start:
            return "IIa", merged
        if touches_start and not touches_end:
            return "IIb", merged
        return "other", merged
    if len(merged) == 2 and touches_start and touches_end:
        return "III", merged
    return "other", merged


def flow_cases():
    """Anchor pairs on the integer clouds (doubled and distinct, ties
    everywhere) and on float clouds without ties."""
    for cl, (sx, _), (ex, T) in CLOUD_CASES:
        yield cl, ((sx, 0.0), (sx, 0.0)), ((ex, T), (ex, T))
        yield cl, ((sx - 1, 0.0), (sx + 1, 0.0)), ((ex, T), (ex, T))
        yield cl, ((sx, 0.0), (sx, 0.0)), ((ex - 1, T), (ex + 1, T))
        yield cl, ((sx - 1, 0.0), (sx, 0.0)), ((ex, T), (ex + 2, T))
    rng = np.random.default_rng(3)
    for _ in range(300):
        cl = cloud_from_points(list(zip(rng.uniform(-1, 1, 12), rng.uniform(0.05, 0.95, 12))))
        yield cl, ((0.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))
        yield cl, ((-0.2, 0.0), (0.3, 0.0)), ((-0.3, 1.0), (0.4, 1.0))


# The flow_cases pairs (numbered in flow_cases order) whose envelope
# order differs from the old loop: the old loop read a swapped tail
# toward the wrong end anchor and returned a non-causal chain on 30 of
# them; on the other 5 (two with doubled ends) it returned a valid
# ordered pair, and the envelopes, with a point on the other track kept
# on the side its flow chain starts from, give another.
ENVELOPE_CHANGED = {14, 31, 46, 114, 118, 127, 218, 298, 359, 446, 478, 546, 547,
                    571, 619, 646, 715, 738, 762, 870, 934, 975, 992, 1038, 1178,
                    1231, 1235, 1249, 1323, 1481, 1559, 1591, 1705, 1777, 1782}
OLD_LOOP_VALID_CHANGED = {546, 715, 975, 992, 1782}


def _causal(chain):
    nodes = chain.spacetime_nodes()
    return all(causal_leq(p, q) and p != q for p, q in zip(nodes, nodes[1:]))


def test_optimizer2_on_clouds_matches_old_uncrossing():
    pairs = 0
    changed, old_valid = set(), set()
    for case, (cl, starts, ends) in enumerate(flow_cases()):
        res = flow.disjoint_pair(cl, starts, ends)
        got = engine.optimizer2(cl, starts, ends)
        if res is None:
            assert got is None
            continue
        value, c1, c2, reached = res
        pairs += 1
        assert sorted(reached) == sorted(ends)
        assert got.value == value and type(got.value) is int
        index = {(float(cl.xs[m]), float(cl.ts[m])): m for m in c1 + c2}
        idx = []
        for chain, s, e in ((got.left, starts[0], ends[0]), (got.right, starts[1], ends[1])):
            assert (chain.start, chain.end, chain.value) == (s, e, len(chain.nodes))
            assert _causal(chain)
            idx.append([index[n] for n in chain.nodes])
        assert not set(idx[0]) & set(idx[1])
        assert sorted(idx[0] + idx[1]) == sorted(c1 + c2)
        assert len(c1) + len(c2) == value
        grid = engine._probe_grid(got.left, got.right)
        assert (got.left.position(grid) <= got.right.position(grid)).all()
        assert engine.disjoint2_value(cl, starts, ends) == value
        w1, w2 = ref_uncross(cl, starts, ends, (c1, c2))
        if idx != [w1, w2]:
            changed.add(case)
            old = [engine._cloud_chain(cl, s, e, w) for s, e, w in zip(starts, ends, (w1, w2))]
            if all(map(_causal, old)):
                old_valid.add(case)
    assert pairs == 1509
    assert changed == ENVELOPE_CHANGED and old_valid == OLD_LOOP_VALID_CHANGED
    print(f"{pairs} flow pairs, {len(changed)} ordered differently from the old loop")


def _assert_overlap_matches(a, b):
    got = engine.overlap(a, b).intervals
    want = ref_overlap(a, b)
    assert got == want
    assert all(type(u) is float and type(v) is float for u, v in got)
    return got


def test_overlap_matches_old_probe_loop_on_clouds():
    kinds = set()
    for cl, starts, ends in flow_cases():
        chains = [engine.geodesic(cl, s, e, side)
                  for s, e, side in ((starts[0], ends[0], "left"), (starts[1], ends[1], "right"))
                  if causal_leq(s, e)]
        pair = engine.optimizer2(cl, starts, ends)
        if pair is not None:
            chains += [pair.left, pair.right]
        for a in chains:
            for b in chains:
                got = _assert_overlap_matches(a, b)
                kinds.add(len(got) if len(got) < 3 else 3)
    assert kinds == {0, 1, 2, 3}


def test_overlap_matches_old_probe_loop_on_lattices(field_walks):
    f, walks = field_walks
    chains = [engine.Chain("lattice", s, e, c, 0) for (s, e, _), c in walks.items()]
    rng = np.random.default_rng(f.rows * 31 + f.cols)
    picks = [(a, a) for a in chains[:20]] + [
        (chains[p], chains[q]) for p, q in rng.integers(0, len(chains), (400, 2))]
    for a, b in picks:
        _assert_overlap_matches(a, b)


def test_cloud_separations_and_tags_match_per_time_loop():
    # the 600 anchor pairs of the exact zero split test in test_classify.py
    pairs = [((-1.0, 0.0), (1.0, 8.0)), ((0.0, 0.0), (0.0, 8.0)), ((1.0, 0.0), (-1.0, 8.0))]
    tags = set()
    for seed in range(1000, 1200):
        cl = make_poisson_cloud(seed, 1.0, Region(-5, 5, 0, 8))
        for start, end in pairs:
            got = classify.classify_geometric(cl, start, end)
            left = engine.geodesic(cl, start, end, "left")
            right = engine.geodesic(cl, start, end, "right")
            sep = ref_cloud_separation(left, right, start[1], end[1])
            assert got.separation.dtype == sep.dtype
            assert got.separation.tobytes() == sep.tobytes()
            if not got.gap_is_zero:
                assert (got.tag, got.components) == ref_shape_from_separation(sep, 1.0, None)
            for threshold in (0.0, 0.5):
                want = ref_shape_from_separation(sep, threshold, None)
                assert classify._shape_from_separation(sep, threshold, None) == want
                tags.add(want[0])
    assert {"I", "IIa", "IIb", "III", "other"} <= tags


def test_shape_runs_match_old_scan_on_random_separations():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        sep = rng.choice([-1.0, 0.0, 0.5, 1.0, 3.0], int(rng.integers(1, 60)))
        for threshold, frame in ((0.0, None), (0.5, None), (0.25, ScalingFrame(8.0))):
            assert (classify._shape_from_separation(sep, threshold, frame)
                    == ref_shape_from_separation(sep, threshold, frame))


# ------------------------------------------- agreement matrix references
# The per-pair loop of classify.agreement_matrix before one pass per sink:
# a forward table for every source that reaches a sink, classify_gap for
# every pair, and the run finder for every separation.

def ref_classify_lattice_cached(model, a, b, F, B, threshold, frame):
    total = F[b]
    cl = lattice.geodesic_cells_from_B(model, B, a, b, "left")
    cr = lattice.geodesic_cells_from_B(model, B, a, b, "right")
    sep = 2.0 * (np.array([j for _, j in cr]) - np.array([j for _, j in cl]))
    zero = bool(np.all(sep[1:-1] > 0)) if sep.size > 2 else False
    if zero:
        lr = ref_bridge_exists(model, ref_seeded(model, cl, F), cr, B, total)
        rl = ref_bridge_exists(model, ref_seeded(model, cr, F), cl, B, total)
        tag = classify.crossing_tag(lr, rl)
    else:
        lr = rl = False
        tag, _ = ref_shape_from_separation(sep, threshold, frame)
    return tag, zero, (lr, rl)


def ref_agreement_matrix(model, x_grid, y_grid, times, frame, threshold=1.0):
    """The old loop, its bridges decided by the seeded definition."""
    t0, t1 = times
    sheet = gaplab.gap_sheet(model, x_grid, y_grid, frame, times)
    zeros = gaplab.zero_set(sheet)
    out = classify.AgreementMatrix(meta={"n": frame.n, "threshold": threshold,
                                         "times": list(times)})
    spacing = float(x_grid[1] - x_grid[0]) if len(x_grid) > 1 else 1.0
    window = max(1, int(round(threshold * frame.space_unit / spacing)))
    starts = [model.cell_at(int(x), t0) for x in x_grid]
    fwd = {}
    for j, y in enumerate(y_grid):
        b = model.cell_at(int(y), t1)
        B = lattice.backward_values(model, b)
        for i, x in enumerate(x_grid):
            a = starts[i]
            if not lattice.is_reachable(B[a]):
                continue
            if i not in fwd:
                fwd[i] = lattice.forward_values(model, a)
            geo_tag, geo_zero, bridges = ref_classify_lattice_cached(
                model, a, b, fwd[i], B, threshold, frame)
            gap = classify.classify_gap(sheet, i, j, zeros=zeros, window=window)
            if gap.tag == "other" and gap.gap is None:
                continue
            gap_zero = gap.gap == 0.0
            out.record(geo_tag, gap.tag, geo_zero, gap_zero)
            out.records.append((int(x), int(y), gap.gap, geo_tag, gap.tag))
            if bridges[0] and bridges[1]:
                out.double_bridges += 1
    return out


def _anchor_grid(n, half, t0):
    t1 = t0 + n
    xs = [x for x in range(-half, half + 1, 2) if (x + t0) % 2 == 0]
    ys = [y for y in range(-half, half + 1, 2) if (y + t1) % 2 == 0]
    return xs, ys, (t0, t1)


def agreement_cases():
    """Bernoulli lattices, full of zero gaps, double bridges and all three
    crossing types; a geometric one with fewer ties; and the size of a
    classify run at n = 64."""
    for seed in range(4):
        yield make_lattice_field(seed, 30, 30, "bernoulli", 0.2), 12, _anchor_grid(12, 8, 8)
        yield make_lattice_field(seed, 20, 20, "bernoulli", 0.3), 4, _anchor_grid(4, 6, 6)
    yield make_lattice_field(0, 24, 24, "geometric", 0.5), 8, _anchor_grid(8, 6, 6)
    n, a, t0 = 64, *anchor_layout(64, 2.0)
    xs, ys = cli._lattice_grids(n, 2.0, 10 ** 9, t0)
    yield environment_for(3, "geometric", t0, n, -a, a, 0.5), n, (xs, ys, (t0, t0 + n))


def test_agreement_matrix_matches_per_pair_loop(monkeypatch):
    built, walks, bridges = [], [], []
    forward, walk = lattice.forward_values, lattice.geodesic_cells_from_B
    bridge = lattice.bridge_exists
    monkeypatch.setattr(lattice, "forward_values",
                        lambda model, a, reads=None: built.append(a) or forward(model, a, reads))
    monkeypatch.setattr(lattice, "geodesic_cells_from_B",
                        lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(lattice, "bridge_exists",
                        lambda *args: bridges.append(1) or bridge(*args))
    skipped = 0
    seen = {"zeros": 0, "double": 0, "tags": set()}
    for f, n, (xs, ys, times) in agreement_cases():
        frame = ScalingFrame(float(n))
        for threshold in (0.0, 0.5, 1.0):
            walks.clear()
            want = ref_agreement_matrix(f, xs, ys, times, frame, threshold)
            walked = len(walks)  # two per reachable pair
            built.clear()
            gaplab.gap_sheet(f, xs, ys, frame, times)
            sheet_tables = len(built)
            built.clear()
            walks.clear()
            bridges.clear()
            got = classify.agreement_matrix(f, xs, ys, times, frame, threshold)
            # two walks per recorded pair (a pair without a verdict is not
            # walked) and two per bridge, one for each pair with disjoint walks
            assert len(walks) == 2 * len(got.records) + 2 * len(bridges)
            skipped += walked - 2 * len(got.records)
            assert got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.counts, want.counts)
            assert got.records == want.records
            assert [type(r[2]) for r in got.records] == [type(r[2]) for r in want.records]
            assert got.records_csv() == want.records_csv()
            assert (got.samples, got.zero_split_disagreements, got.double_bridges) == (
                want.samples, want.zero_split_disagreements, want.double_bridges)
            assert got.meta == want.meta
            # no table after the sheet's own: bridges walk the sink's table
            assert len(built) == sheet_tables
            seen["zeros"] += sum(r[2] == 0.0 for r in got.records)
            seen["double"] += got.double_bridges
            seen["tags"] |= {r[3] for r in got.records}
    assert seen["zeros"] > 0 and seen["double"] > 0 and skipped > 0
    assert set(classify.TAGS) <= seen["tags"]


def test_agreement_matrix_matches_per_pair_loop_on_odd_sheet_values(monkeypatch):
    """Lattice sheets hold no infinite gap, but the pass must still read
    one as classify_gap does: the planted +-inf and NaN entries go
    through classify_gap, and the finite entries next to them still read
    their window minima."""
    build = gaplab.gap_sheet

    def planted(*args):
        sheet = build(*args)
        v = sheet.values
        rng = np.random.default_rng(v.size)
        for bad in (np.inf, -np.inf, np.nan):
            v[rng.random(v.shape) < 0.08] = bad
        return sheet

    monkeypatch.setattr(gaplab, "gap_sheet", planted)
    f = make_lattice_field(1, 24, 24, "geometric", 0.5)
    xs, ys, times = _anchor_grid(8, 6, 6)
    frame = ScalingFrame(8.0)
    for threshold in (0.0, 0.5, 1.0):
        want = ref_agreement_matrix(f, xs, ys, times, frame, threshold)
        got = classify.agreement_matrix(f, xs, ys, times, frame, threshold)
        assert np.array_equal(got.counts, want.counts)
        assert got.records == want.records
        assert (got.samples, got.zero_split_disagreements, got.double_bridges) == (
            want.samples, want.zero_split_disagreements, want.double_bridges)


def window_sheets():
    """Integer sheets full of ties, with NaN and +-inf entries, thin
    sheets of 1-3 columns (and rows), and a sheet with no finite entry."""
    rng = np.random.default_rng(19)
    for shape in [(1, 1), (1, 3), (3, 1), (7, 1), (9, 2), (2, 9), (8, 3), (12, 12), (6, 17)]:
        for _ in range(4):
            v = rng.integers(0, 4, shape).astype(np.float64)
            v[rng.random(shape) < 0.2] = np.nan
            v[rng.random(shape) < 0.05] = np.inf
            v[rng.random(shape) < 0.05] = -np.inf
            yield v
    yield np.full((4, 3), np.nan)


def ref_window_minimum(slice_values, j, window):
    lo = max(0, j - window)
    seg = slice_values[lo:j + window + 1]
    seg = seg[np.isfinite(seg)]
    return seg.size > 0 and slice_values[j] == seg.min()


def test_window_minima_match_per_point_minimum():
    checked = 0
    for v in window_sheets():
        for window in range(1, 7):
            rows, cols = classify._window_minima(v, window)
            assert rows.shape == cols.shape == v.shape and rows.dtype == cols.dtype == bool
            for i, j in zip(*np.nonzero(np.isfinite(v))):
                assert rows[i, j] == ref_window_minimum(v[i], j, window)
                assert cols[i, j] == ref_window_minimum(v[:, j], i, window)
                checked += 1
    assert checked > 0


def test_windowed_gap_verdicts_match_per_point_minimum():
    """classify_gap(window=w) on a sheet's positive interior entries gives the
    tag the per-point window minimum of its row and column gives."""
    checked = 0
    for v in window_sheets():
        v = np.where(v < 0, np.nan, v)  # a negative gap is refused, not classified
        sheet = gaplab.GapSheet(np.arange(v.shape[0]), np.arange(v.shape[1]), v,
                                ScalingFrame(8.0), (0.0, 8.0), True)
        for window in range(1, 7):
            for i in range(1, v.shape[0] - 1):
                for j in range(1, v.shape[1] - 1):
                    if not 0 < v[i, j] < np.inf:
                        continue
                    got = classify.classify_gap(sheet, i, j, window=window)
                    row_min = ref_window_minimum(v[i], j, window)
                    col_min = ref_window_minimum(v[:, j], i, window)
                    assert (got.row_min, got.col_min) == (row_min, col_min)
                    assert got.tag == classify.SHAPES[bool(row_min) + 2 * bool(col_min)]
                    checked += 1
    assert checked > 100


# --------------------------------------------- optimal-step graph references
# The level scan of cloud.extremal_chain and the successor loop of
# engine._cloud_network, each with its own optimal-step test, before one
# graph (cloud.OptimalSteps) served both; and the stateful run loop of
# busemann.excursions before model._runs served it.

def ref_extremal_chain(cloud, start, end, side):
    idx, F, B, total = cloud_mod.chain_tables(cloud, start, end)
    if total == 0:
        return []
    xs = cloud.xs[idx]
    ts = cloud.ts[idx]
    on_opt = (F + B - 1) == total
    chosen = []
    cx, ct = _xy(start)
    level = 0
    cur = -1
    while level < total:
        best_m = -1
        best_key = None
        for m in np.nonzero(on_opt & (F == level + 1))[0]:
            if cur >= 0 and B[m] != B[cur] - 1:
                continue
            dt = ts[m] - ct
            dx = xs[m] - cx
            if dt <= 0 or abs(dx) > dt:
                continue
            slope = dx / dt
            key = (slope, ts[m]) if side == "left" else (-slope, ts[m])
            if best_key is None or key < best_key:
                best_key = key
                best_m = m
        if best_m < 0:
            raise InvariantError("chain extraction lost the optimum", cloud,
                                 start=start, end=end, side=side)
        chosen.append(best_m)
        cx, ct = xs[best_m], ts[best_m]
        cur = best_m
        level += 1
    return [int(idx[m]) for m in chosen]


def ref_compress(vertices: list, succ: dict) -> list:
    """Edges (from index, to index, node segment) of the successor graph,
    following each out-edge of a vertex through non-vertex nodes."""
    vindex = {v: k for k, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        for s in succ[v]:
            seg = [v, s]
            while seg[-1] not in vindex:
                seg.append(succ[seg[-1]][0])
            edges.append((vindex[v], vindex[seg[-1]], seg))
    return edges


def ref_lattice_network(model, start, end):
    F = lattice.forward_values(model, start)
    B = lattice.backward_values(model, end)
    total = F[end]
    if not lattice.is_reachable(total):
        raise DomainError(f"endpoints {start}->{end} not connected")
    w = model.weights

    def successors(c):
        # both tables were computed as max(neighbors) + w, so the edge
        # tests reproduce exactly the additions the sweeps performed
        i, j = c
        out = []
        for cc in ((i + 1, j), (i, j + 1)):
            if (model.in_grid(cc) and cc[0] <= end[0] and cc[1] <= end[1]
                    and F[cc] == F[c] + w[cc] and B[c] == B[cc] + w[c]):
                out.append(cc)
        return out

    succ = {}
    stack = [start]
    while stack:
        c = stack.pop()
        if c in succ:
            continue
        succ[c] = successors(c) if c != end else []
        stack.extend(succ[c])
    pred = {c: 0 for c in succ}
    for c, outs in succ.items():
        for cc in outs:
            pred[cc] += 1
    branch = {c for c in succ
              if c not in (start, end) and (len(succ[c]) >= 2 or pred[c] >= 2)}
    vertices = [start] + sorted(branch, key=lambda c: (c[0] + c[1], c[1])) + [end]
    edges = ref_compress(vertices, succ)
    left, right = (engine._lattice_chain(model, start, end,
                                         lattice.geodesic_cells_from_B(model, B, start, end, side))
                   for side in ("left", "right"))
    # cell degree is structurally capped at 2 on the lattice
    violations = sum(1 for c in succ if len(succ[c]) >= 3)
    return engine.GeodesicNetwork(start, end, vertices, edges, left, right, violations)


def ref_cloud_network(model, start, end):
    idx, F, B, total = cloud_mod.chain_tables(model, start, end)
    source = tuple(_xy(start))
    sink = tuple(_xy(end))
    left, right = (engine._cloud_chain(model, start, end,
                                       ref_extremal_chain(model, start, end, side))
                   for side in ("left", "right"))
    if total == 0:
        return engine.GeodesicNetwork(source, sink, [source, sink],
                                      [(0, 1, [source, sink])], left, right)
    on = (F + B - 1) == total
    pts = {m: (float(model.xs[i]), float(model.ts[i]))
           for m, i in enumerate(idx) if on[m]}
    succ = {"src": [], "snk": [], **{m: [] for m in pts}}
    for m in pts:
        if F[m] == 1:
            succ["src"].append(m)
        if B[m] == 1:
            succ[m].append("snk")
    for a in pts:
        for b in pts:
            if (F[b] == F[a] + 1 and B[b] == B[a] - 1
                    and causal_leq(pts[a], pts[b]) and pts[a] != pts[b]):
                succ[a].append(b)
    pred = {node: [] for node in succ}
    for a, outs in succ.items():
        for b in outs:
            pred[b].append(a)
    coord = {"src": source, "snk": sink, **pts}
    branch = {m for m in pts if len(succ[m]) >= 2 or len(pred[m]) >= 2}
    vertex_nodes = (["src"]
                    + sorted(branch, key=lambda m: (pts[m][1], pts[m][0]))
                    + ["snk"])
    vertices = [coord[node] for node in vertex_nodes]
    edges = [(a, b, [coord[q] for q in seg])
             for a, b, seg in ref_compress(vertex_nodes, succ)]
    violations = sum(1 for node in succ if len(succ[node]) >= 3)
    violations += sum(1 for node in pred if len(pred[node]) >= 3)
    return engine.GeodesicNetwork(source, sink, vertices, edges, left, right, violations)


def ref_excursions(xs, vs, step, min_len):
    runs = []
    current = []
    prev_x = None
    for x, v in zip(xs, vs):
        broken = (prev_x is not None and x - prev_x != step)
        if v == 0 or broken:
            if len(current) > min_len:
                runs.append(np.array(current))
            current = [] if v == 0 else [v]
        else:
            current.append(v)
        prev_x = x
    if len(current) > min_len:
        runs.append(np.array(current))
    return runs


POISSON_PAIRS = [((-1.0, 0.0), (1.0, 8.0)), ((0.0, 0.0), (0.0, 8.0)), ((1.0, 0.0), (-1.0, 8.0))]


def chain_cases():
    """Anchors on the integer clouds, the flow cases (each start with its
    end) and the 600 Poisson pairs of the exact cloud zero split test."""
    for cl, start, end in CLOUD_CASES:
        yield cl, start, end
    for cl, starts, ends in flow_cases():
        for s, e in zip(starts, ends):
            if causal_leq(s, e):
                yield cl, s, e
    for seed in range(1000, 1200):
        cl = make_poisson_cloud(seed, 1.0, Region(-5, 5, 0, 8))
        for start, end in POISSON_PAIRS:
            yield cl, start, end


def test_extremal_chains_match_level_scan():
    cases = steps = 0
    for cl, start, end in chain_cases():
        for side in ("left", "right"):
            got = cloud_mod.extremal_chain(cl, start, end, side)
            assert got == ref_extremal_chain(cl, start, end, side)
            assert all(type(m) is int for m in got)
            steps += len(got)
        cases += 1
    assert cases >= 2000 and steps > 0


def test_cloud_networks_match_successor_loop():
    shapes = set()
    for cl, start, end in chain_cases():
        got = engine.network(cl, start, end)
        want = ref_cloud_network(cl, start, end)
        assert got.to_jsonable() == want.to_jsonable()
        assert got.leftmost.nodes == want.leftmost.nodes
        assert got.rightmost.nodes == want.rightmost.nodes
        coords = got.vertices + [q for _, _, seg in got.edges for q in seg]
        assert all(type(x) is float and type(t) is float for x, t in coords)
        assert type(got.degree_violations) is int
        shapes.add((min(len(got.vertices), 4), min(len(got.edges), 4),
                    got.degree_violations > 0))
    # single edges, branch vertices and degree violations all occur
    assert {(2, 1, False), (4, 4, False)} <= shapes and any(s[2] for s in shapes)


def test_extremal_chain_slope_ties_go_to_the_earlier_point():
    # two incomparable points whose step slopes from the start round to the
    # same float: the earlier one wins on both sides, whichever of them
    # comes first in (u, v) order
    ties = [(-0.12308153603318761, 0.7275345148463459,
             3.573133173009497, 7.551174833346407, 3.5731331730094964, 7.5511748333464075),
            (0.774534518215545, 0.8622534546812017,
             -0.9639941755761237, 3.658277377734706, -0.9639941755761234, 3.6582773777347066)]
    firsts = set()
    for sx, st, x1, t1, x2, t2 in ties:
        assert (x1 - sx) / (t1 - st) == (x2 - sx) / (t2 - st) and t1 < t2
        cl = cloud_from_points([(x1, t1), (x2, t2)])
        start, end = (sx, st), (sx, st + 20.0)
        steps = cloud_mod.OptimalSteps(cl, start, end)
        assert sorted(steps.succ[steps.source]) == [0, 1]
        firsts.add(float(cl.ts[steps.idx[0]]) == t1)
        earlier = int(np.flatnonzero(cl.ts == t1)[0])
        for side in ("left", "right"):
            assert cloud_mod.extremal_chain(cl, start, end, side) == [earlier]
            assert ref_extremal_chain(cl, start, end, side) == [earlier]
    assert firsts == {True, False}


def _outcome(fn, *args):
    """fn's result as JSON, or the message of the DomainError it raised."""
    try:
        return fn(*args).to_jsonable()
    except DomainError as err:
        return str(err)


def test_lattice_networks_match_the_lattice_assembly():
    connected = shapes = 0
    seen = set()
    for f in FIELDS:
        for start in cells(f):
            for end in cells(f):
                got = _outcome(engine.network, f, start, end)
                assert got == _outcome(ref_lattice_network, f, start, end), (f.law, start, end)
                if isinstance(got, dict):
                    connected += 1
                    seen.add((min(len(got["vertices"]), 4), min(len(got["edges"]), 4)))
                else:
                    assert got == f"endpoints {start}->{end} not connected"
    # single cells, single edges and branch vertices all occur
    assert connected > 9000 and {(2, 0), (2, 1), (4, 4)} <= seen


def test_lattice_network_chains_match_geodesics():
    for f in FIELDS:
        end = (f.rows - 1, f.cols - 1)
        for start in cells(f):
            net = engine.network(f, start, end)
            for chain, side in ((net.leftmost, "left"), (net.rightmost, "right")):
                want = engine.geodesic(f, start, end, side)
                assert chain.to_jsonable() == want.to_jsonable()
                assert type(chain.value) is type(want.value)


def test_excursions_match_stateful_loop():
    rng = np.random.default_rng(5)
    for _ in range(3000):
        n = int(rng.integers(0, 40))
        # grid steps of 2, broken by steps of 1 and 4; int and float grids
        xs = np.cumsum(rng.choice([2, 2, 2, 2, 4, 1], n))
        xs = xs.astype(rng.choice([np.int64, np.float64]))
        vs = rng.choice([0.0, 0.0, 1.0, 2.5, -1.0, np.nan], n)
        for min_len in (0, 1, 3):
            got = busemann.excursions(xs, vs, 2, min_len)
            want = ref_excursions(xs, vs, 2, min_len)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# --------------------------------------------------- artifact references
# The per-cell loops that wrote a gap sheet's heatmap and CSV.  The CSV
# loop carries one fix: a non-integer value is written as repr(float(v)),
# where it once wrote the repr of a numpy scalar.

def ref_heatmap(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    finite = m[np.isfinite(m)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    body = []
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            v = m[i, j]
            if np.isfinite(v):
                level = int(round(255 * (1.0 - (v - lo) / span)))
                fill = f"rgb({level},{level},{level})"
            else:
                fill = "rgb(255,200,200)"
            body.append(f'<rect x="{j * svg.CELL:.2f}" y="{i * svg.CELL:.2f}" '
                        f'width="{svg.CELL:.2f}" height="{svg.CELL:.2f}" fill="{fill}"/>')
    return svg._doc(m.shape[1] * svg.CELL, m.shape[0] * svg.CELL, body)


def ref_sheet_csv(sheet):
    lines = ["x,y,G"]
    for i, x in enumerate(sheet.x_grid):
        for j, y in enumerate(sheet.y_grid):
            v = sheet.values[i, j]
            sv = "" if np.isnan(v) else (str(int(v)) if sheet.integer_valued else repr(float(v)))
            lines.append(f"{x},{y},{sv}")
    return "\n".join(lines) + "\n"


def artifact_matrices():
    """NaN cells, all NaN, constant, negative values, -0.0 next to 0.0,
    levels that round half to even, +-inf, one cell, and two sheets."""
    rng = np.random.default_rng(7)
    a = rng.integers(-5, 6, (9, 7)).astype(np.float64)
    a[rng.random(a.shape) < 0.2] = np.nan
    yield a
    yield np.full((3, 4), np.nan)
    yield np.full((4, 3), 2.0)
    yield -np.abs(rng.normal(size=(6, 5))) * 100
    yield np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, np.nan]])
    yield np.arange(511.0).reshape(7, 73) / 2  # 255 * k / 510 hits every .5
    yield np.array([[np.inf, 1.0], [-np.inf, 3.0]])
    yield np.array([[5.0]])
    yield rng.exponential(size=(8, 8)) * 3
    frame = ScalingFrame(16.0)
    cl = make_poisson_cloud(3, 2.0, Region(-20.0, 20.0, 0.0, 16.0))
    xs = np.linspace(-9.0, 9.0, 12)
    yield gaplab.gap_sheet(cl, xs, xs, frame, (0.0, 16.0)).values
    f = make_lattice_field(2, 30, 30, "geometric", 0.5)
    yield gaplab.gap_sheet(f, list(range(-8, 9, 2)), list(range(-8, 9, 2)),
                           frame, (16, 40)).values


def test_heatmap_matches_per_cell_loop():
    for m in artifact_matrices():
        assert svg.heatmap(m) == ref_heatmap(m)


def test_sheet_csv_matches_per_cell_loop():
    for m in artifact_matrices():
        rows, cols = m.shape
        v = m[~np.isnan(m)]
        whole = np.isfinite(v).all() and np.array_equal(v, np.rint(v))
        for integer in (True, False) if whole else (False,):  # an integer sheet holds integers
            sheet = gaplab.GapSheet(np.linspace(-1.5, 2.25, rows), np.arange(cols) * 0.1 - 0.3,
                                    m, ScalingFrame(16.0), (0.0, 16.0), integer)
            assert sheet.to_csv() == ref_sheet_csv(sheet)

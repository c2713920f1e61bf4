"""Chain kernels for the Poisson model.

In rotated coordinates u = t + x, v = t - x the causal order becomes the
coordinatewise order, so maximal causal chains are longest nondecreasing
chains and patience piles compute passage values.  The pile tops carry
more than the plain count: after inserting all points with u <= U in
u-order, row r of the pile structure sorted by v has the property that
the number of tops <= V in rows 1..k equals the largest union of k
disjoint chains inside the rectangle [0, U] x [0, V].  One insertion
sweep therefore serves a whole family of nested targets, which is how
gap-sheet rows are amortized.

Kernel: one routine, ``_pile_counts``, inserts v-values in (u, v) order
into k pile rows and reads the counts of tops <= a bound at given stops.
Every chain value is such a read-out: ``passage_value`` and
``greene_partial_sums`` read once at the end of the diamond,
``row_pass`` reads two rows at each target, whose stop is the number of
points before it in (u, v) order, and ``chain_tables`` reads one row
before each point, so F is the count plus one.  B comes from the same
call on the reflected diamond (reversed order, negated v), as the
lattice gets its backward tables.

One point order per cloud.  Each cloud stores its points sorted by the
absolute keys (t + x, t - x).  Every read-out takes its points from
``_sorted_cone``: a slab, an index range found by binary search on
t + x with a margin that covers float64 rounding (see ``_slab``), then
the exact per-source keys (t - t0) +- (x - x0) and the cone mask on the
slab alone.  Rounding can order the absolute and the per-source keys
differently, so an O(n) check confirms that the kept points are in
(u, v) order; where it fails, a stable sort restores it.  Either way
equal (u, v) stay in cloud order.

The kernel is compiled, and required (see ``_native``): ``_kernels.c``
holds the insertion in C, comparing doubles as Python compares floats,
so it gives the counts of its Python reference, which lives with the
tests, and a whole row pass (keys, mask and order check on the slab,
stops, two-row insertion) in one call over the slab's contiguous
range.  Its pile search is branch-free:
it halves the range with a conditional select on the same predicate
x < row[i], so it returns ``bisect_right``'s index and leaves the CPU no
comparison outcome to mispredict.  Each call passes the numpy arrays
themselves to the extension module, which checks their types and sizes
and releases the GIL, so a ``_pile_counts`` call costs a few
microseconds.  When the compiled row finds the slab out of order, the
Python parts (``_sorted_cone``, ``_before``, ``_pile_counts``) serve
that row.

Optimal steps.  ``OptimalSteps`` builds one graph from one
``chain_tables`` call: its nodes are the points with F + B - 1 equal to
the passage value and the anchors (the start with F = 0, the end with
B = 0), and a -> b is an optimal step iff F[b] == F[a] + 1,
B[b] == B[a] - 1 and b lies strictly causally after a.  Its paths from
start to end are the optimal chains.  Extremal chains walk it, networks
compress it, and a crossing bridge is a path in it.

Anchors carry no weight: a cloud point coinciding with an anchor is
dropped from the chain problem.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf

import numpy as np

from . import _native
from .errors import InvariantError
from .model import DomainError, PoissonCloud, causal_leq, check_side, _xy


def _slab(cloud: PoissonCloud, x0: float, t0: float, U: float):
    """The index range [lo, hi) of the cloud points whose key
    u = (t - t0) + (x - x0) relative to the source may lie in [0, U].

    The slab is read from the sorted absolute keys a = t + x with
    c = t0 + x0 and a margin m = 2^-48 s, where s bounds |x| and |t| on
    the cloud's region (its points lie in it), |x0|, |t0| and U.  With eps = 2^-53 each rounded
    sum or difference is off by at most eps times its size: u is within
    9 s eps of the exact (t - t0) + (x - x0), and a - c within 4 s eps
    of it, so 0 <= u <= U puts a within [c - 13 s eps, c + U + 13 s eps].
    The rounded bounds fl(c - m) and fl(fl(c + U) + m) lie outside that
    range, since m = 32 s eps.
    """
    r = cloud.region
    s = max(abs(r.x_lo), abs(r.x_hi), abs(r.t_lo), abs(r.t_hi), abs(x0), abs(t0), abs(U))
    c, m = t0 + x0, 2.0 ** -48 * s
    lo = int(np.searchsorted(cloud.u_keys, c - m, side="left"))
    hi = int(np.searchsorted(cloud.u_keys, (c + U) + m, side="right"))
    return lo, hi


def _in_order(u, v) -> bool:
    """Are the points in (u, v) order?"""
    a, b = slice(None, -1), slice(1, None)
    return bool(((u[a] < u[b]) | ((u[a] == u[b]) & (v[a] <= v[b]))).all())


def _sorted_cone(cloud: PoissonCloud, start, U, V):
    """Cloud points in the rectangle [0, U] x [0, V] relative to the start,
    start anchor excluded, as (idx, u, v) in (u, v) order, equal (u, v)
    in index order.

    Only the slab within t0 + x0 - m <= t + x <= t0 + x0 + U + m is
    read, with the float64 rounding margin m = 2^-48 s of ``_slab``.
    The keys are exact per source, the slab's order is the cloud's: a
    check confirms that it is the (u, v) order of the kept points, and a
    stable sort restores that order where rounding made the two disagree.
    """
    x0, t0 = _xy(start)
    lo, hi = _slab(cloud, x0, t0, U)
    dt, dx = cloud.ts[lo:hi] - t0, cloud.xs[lo:hi] - x0
    u, v = dt + dx, dt - dx
    keep = (u >= 0) & (v >= 0) & (u <= U) & (v <= V) & ~((u == 0) & (v == 0))
    idx, u, v = np.flatnonzero(keep) + lo, u[keep], v[keep]
    if not _in_order(u, v):
        order = np.lexsort((v, u))
        idx, u, v = idx[order], u[order], v[order]
    return idx, u, v


def _before(pu, pv, U, V):
    """How many sorted points precede each target (U, V) in (u, v) order.

    Complex numbers order as (u, v), so a target's own anchor is never
    counted; points at u = U, v > V cannot change a count <= V.
    """
    return np.searchsorted(pu + 1j * pv, U + 1j * V)


def _pile_counts(vs, k: int, stops, bounds) -> np.ndarray:
    """The patience kernel: one k-row insertion over the floats ``vs``.

    ``vs`` holds no NaN (every caller passes keys the cone mask kept), so
    each pile row stays sorted, the condition under which the compiled
    search returns ``bisect_right``'s index.  ``stops`` is nondecreasing
    in [0, len(vs)].  Row m of the result holds, for each pile row, how
    many of its tops are <= bounds[m] once the first stops[m] values are
    inserted.  A value bumped out of row k is dropped.
    """
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    stops = np.ascontiguousarray(stops, dtype=np.int64)
    bounds = np.ascontiguousarray(bounds, dtype=np.float64)
    out = np.empty((stops.size, k), dtype=np.int64)
    rows, lens = np.empty(k * vs.size), np.empty(k, dtype=np.int64)  # scratch
    _native.library().pile_counts(vs, k, stops, bounds, rows, lens, out)
    return out


def diamond_order(cloud: PoissonCloud, start, end):
    """Indices and v of the cloud points strictly usable between two
    anchors, sorted by (u, v) relative to the start."""
    sx, st = _xy(start)
    ex, et = _xy(end)
    if not causal_leq(start, end):
        raise DomainError(f"end {end} not causally reachable from start {start}")
    U = (et - st) + (ex - sx)
    V = (et - st) - (ex - sx)
    idx, pu, pv = _sorted_cone(cloud, start, U, V)
    n = _before(pu, pv, U, V)
    return idx[:n], pv[:n]


def passage_value(cloud: PoissonCloud, start, end) -> int:
    idx, pv = diamond_order(cloud, start, end)
    return int(_pile_counts(pv, 1, [idx.size], [inf])[0, 0])


def greene_partial_sums(cloud: PoissonCloud, start, end, k: int) -> list:
    """lambda_1, lambda_1+lambda_2, ... for the diamond point set.

    Row sizes beyond the point count contribute nothing, so requesting
    k larger than the number of points pads with the total count.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    idx, pv = diamond_order(cloud, start, end)
    kk = min(k, idx.size)
    counts = _pile_counts(pv, kk, [idx.size], [inf])[0].tolist()
    return list(accumulate(counts + [0] * (k - kk)))


def row_pass(cloud: PoissonCloud, start, target_xs, target_t: float):
    """Passage and disjoint-pair values from one source to many targets.

    Targets (y, target_t) must all be causally reachable.  Returns
    (L, L2) integer arrays where L[k] is the passage value to target k
    and L2[k] the best disjoint ordered pair value to the doubled
    target.  One patience sweep serves every target.
    """
    sx, st = _xy(start)
    ys = np.asarray(target_xs, dtype=np.float64)
    if ys.ndim != 1:
        raise DomainError(f"target positions must be a 1-d array, got shape {ys.shape}")
    if not (np.isfinite([sx, st, target_t]).all() and np.isfinite(ys).all()):
        raise DomainError("source, target positions and target time must be finite")
    dt = target_t - st
    if dt <= 0:
        raise DomainError("targets must lie strictly after the source")
    if np.any(np.abs(ys - sx) > dt):
        raise DomainError("some target lies outside the causal cone of the source")
    Us = dt + (ys - sx)
    Vs = dt - (ys - sx)
    L, L2 = np.zeros((2, ys.size), dtype=np.int64)
    if ys.size == 0:
        return L, L2
    read = np.lexsort((Vs, Us))
    U, V, tu, tv = Us.max(), Vs.max(), Us[read], Vs[read]
    lo, hi = _slab(cloud, sx, st, U)
    counts = np.empty((ys.size, 2), dtype=np.int64)
    # the compiled row in one call, or its Python parts where it finds the slab out of order
    if _native.library().row_pass(cloud.xs, cloud.ts, lo, hi, sx, st, U, V, tu, tv,
                                  np.empty(2 * (hi - lo)), counts):
        idx, pu, pv = _sorted_cone(cloud, (sx, st), U, V)
        counts = _pile_counts(pv, 2, _before(pu, pv, tu, tv), tv)
    L[read] = counts[:, 0]
    L2[read] = counts[:, 0] + counts[:, 1]
    return L, L2


def chain_tables(cloud: PoissonCloud, start, end):
    """Per-point chain statistics inside a diamond.

    Returns (idx, F, B, total): idx indexes cloud points in (u, v) order;
    F[m]/B[m] are the longest chain lengths ending/starting at idx[m]
    (inclusive); total is the passage value.
    """
    idx, pv = diamond_order(cloud, start, end)
    n = idx.size
    F = _pile_counts(pv, 1, np.arange(n), pv)[:, 0] + 1
    # chains starting at a point are chains ending there in the reflection
    neg = -pv[::-1]
    B = _pile_counts(neg, 1, np.arange(n), neg)[::-1, 0] + 1
    return idx, F, B, int(F.max()) if n else 0


class OptimalSteps:
    """The graph of optimal steps inside a diamond (see above).

    Nodes 0..n-1 are the on-optimal points in (u, v) order, with cloud
    indices ``idx``; node n is the start anchor and n + 1 the end anchor.
    ``xs``/``ts`` place every node; ``succ[a]`` lists a's successors.
    """

    def __init__(self, cloud: PoissonCloud, start, end):
        idx, F, B, total = chain_tables(cloud, start, end)
        on = (F + B - 1) == total
        self.cloud, self.start, self.end = cloud, start, end
        self.idx = idx[on]
        n = self.idx.size
        self.source, self.sink = n, n + 1
        (sx, st), (ex, et) = _xy(start), _xy(end)
        xs = self.xs = cloud.xs[self.idx].tolist() + [sx, ex]
        ts = self.ts = cloud.ts[self.idx].tolist() + [st, et]
        F = F[on].tolist() + [0, total + 1]
        B = B[on].tolist() + [total + 1, 0]
        levels = [[] for _ in range(total + 2)]
        for node, level in enumerate(F):
            levels[level].append(node)
        self.succ = [[] for _ in range(n + 2)]
        for a in range(n + 1):
            for b in levels[F[a] + 1]:
                dt = ts[b] - ts[a]
                # the diamond already puts every point between its anchors
                causal = a == n or b == n + 1 or (dt > 0 and abs(xs[b] - xs[a]) <= dt)
                if B[b] == B[a] - 1 and causal:
                    self.succ[a].append(b)

    def walk(self, side: str) -> list:
        """Point nodes of the pointwise-extremal optimal chain.

        Greedy: from the current node take the successor whose step
        slope is extremal (a crossing-swap argument shows the
        pointwise-extremal chain always makes this local choice).  Ties
        in slope go to the earlier point.
        """
        check_side(side)
        sign = 1.0 if side == "left" else -1.0
        chain, a = [], self.source
        while True:
            nxt = self.succ[a]
            if not nxt:
                raise InvariantError("chain extraction lost the optimum", self.cloud,
                                     start=self.start, end=self.end, side=side)
            if nxt[0] == self.sink:
                return chain
            x, t = self.xs[a], self.ts[a]
            a = min(nxt, key=lambda b: (sign * (self.xs[b] - x) / (self.ts[b] - t), self.ts[b]))
            chain.append(a)

    def bridge(self, chain_from, chain_to) -> bool:
        """Does some node of chain_from off chain_to reach a node of
        chain_to off chain_from along optimal steps?"""
        targets = set(chain_to) - set(chain_from)
        stack, seen = list(set(chain_from) - set(chain_to)), set()
        while stack:
            a = stack.pop()
            if a in targets:
                return True
            if a not in seen:
                seen.add(a)
                stack.extend(self.succ[a])
        return False


def extremal_chain(cloud: PoissonCloud, start, end, side: str) -> list:
    """Point indices of the pointwise-extremal maximal chain."""
    check_side(side)
    steps = OptimalSteps(cloud, start, end)
    return steps.idx[steps.walk(side)].tolist()

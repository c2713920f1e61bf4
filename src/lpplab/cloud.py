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

Anchors carry no weight: a cloud point coinciding with an anchor is
dropped from the chain problem.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InvariantError
from .model import DomainError, PoissonCloud, causal_leq, _xy


def rel_uv(cloud: PoissonCloud, origin) -> tuple:
    x0, t0 = _xy(origin)
    u = (cloud.ts - t0) + (cloud.xs - x0)
    v = (cloud.ts - t0) - (cloud.xs - x0)
    return u, v


def diamond_order(cloud: PoissonCloud, start, end):
    """Indices of cloud points strictly usable between two anchors,
    sorted by (u, v) relative to the start."""
    sx, st = _xy(start)
    ex, et = _xy(end)
    if not causal_leq(start, end):
        raise DomainError(f"end {end} not causally reachable from start {start}")
    u, v = rel_uv(cloud, start)
    U = (et - st) + (ex - sx)
    V = (et - st) - (ex - sx)
    keep = (u >= 0) & (v >= 0) & (u <= U) & (v <= V)
    keep &= ~((u == 0) & (v == 0))
    keep &= ~((u == U) & (v == V))
    idx = np.nonzero(keep)[0]
    order = np.lexsort((v[idx], u[idx]))
    return idx[order], u, v


def patience_rows(vs, k: int) -> list:
    """First k pile rows (sorted top lists) for nondecreasing chains."""
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


def passage_value(cloud: PoissonCloud, start, end) -> int:
    idx, u, v = diamond_order(cloud, start, end)
    rows = patience_rows(v[idx], 1)
    return len(rows[0])


def greene_partial_sums(cloud: PoissonCloud, start, end, k: int) -> list:
    """lambda_1, lambda_1+lambda_2, ... for the diamond point set.

    Row sizes beyond the point count contribute nothing, so requesting
    k larger than the number of points pads with the total count.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    idx, u, v = diamond_order(cloud, start, end)
    kk = min(k, max(1, idx.size))
    rows = patience_rows(v[idx], kk)
    sums, acc = [], 0
    for r in range(k):
        acc += len(rows[r]) if r < kk else 0
        sums.append(acc)
    return sums


def row_pass(cloud: PoissonCloud, start, target_xs, target_t: float):
    """Passage and disjoint-pair values from one source to many targets.

    Targets (y, target_t) must all be causally reachable.  Returns
    (L, L2) integer arrays where L[k] is the passage value to target k
    and L2[k] the best disjoint ordered pair value to the doubled
    target.  One patience sweep serves every target.
    """
    sx, st = _xy(start)
    ys = np.asarray(target_xs, dtype=np.float64)
    dt = target_t - st
    if dt <= 0:
        raise DomainError("targets must lie strictly after the source")
    Us = dt + (ys - sx)
    Vs = dt - (ys - sx)
    if np.any(np.abs(ys - sx) > dt):
        raise DomainError("some target lies outside the causal cone of the source")
    u, v = rel_uv(cloud, start)
    keep = (u >= 0) & (v >= 0) & (u <= Us.max()) & (v <= Vs.max())
    keep &= ~((u == 0) & (v == 0))
    idx = np.nonzero(keep)[0]
    order = np.lexsort((v[idx], u[idx]))
    pu = u[idx][order]
    pv = v[idx][order]
    # complex numbers order as (u, v): a target is read after the points before
    # it, so none on its anchor; those at u = U, v > V cannot change a count <= V
    stops = np.searchsorted(pu + 1j * pv, Us + 1j * Vs).tolist()

    read_order = np.lexsort((Vs, Us))
    L = np.zeros(ys.size, dtype=np.int64)
    L2 = np.zeros(ys.size, dtype=np.int64)
    row1: list = []
    row2: list = []
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


class _FenwickMax:
    """Prefix-maximum Fenwick tree over integer ranks."""

    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def update(self, i: int, value: int) -> None:
        i += 1
        while i <= self.n:
            if self.tree[i] < value:
                self.tree[i] = value
            i += i & (-i)

    def query(self, i: int) -> int:
        """Max over ranks 0..i inclusive."""
        i += 1
        best = 0
        while i > 0:
            if self.tree[i] > best:
                best = self.tree[i]
            i -= i & (-i)
        return best


def chain_tables(cloud: PoissonCloud, start, end):
    """Per-point chain statistics inside a diamond.

    Returns (idx, F, B, total): idx indexes cloud points in (u, v) order;
    F[m]/B[m] are the longest chain lengths ending/starting at idx[m]
    (inclusive); total is the passage value.
    """
    idx, u, v = diamond_order(cloud, start, end)
    n = idx.size
    F = np.zeros(n, dtype=np.int64)
    B = np.zeros(n, dtype=np.int64)
    if n == 0:
        return idx, F, B, 0
    vv = v[idx]
    ranks = np.argsort(np.argsort(vv, kind="stable"), kind="stable")
    fw = _FenwickMax(n)
    for m in range(n):
        F[m] = fw.query(int(ranks[m])) + 1
        fw.update(int(ranks[m]), int(F[m]))
    bw = _FenwickMax(n)
    for m in range(n - 1, -1, -1):
        r = n - 1 - int(ranks[m])
        B[m] = bw.query(r) + 1
        bw.update(r, int(B[m]))
    return idx, F, B, int(F.max())


def extremal_chain(cloud: PoissonCloud, start, end, side: str) -> list:
    """Point indices of the pointwise-extremal maximal chain.

    Greedy: from the current node, among optimal continuations take the
    one whose initial segment slope is extremal (a crossing-swap argument
    shows the pointwise-extremal chain always makes this local choice).
    Ties in slope are broken toward the earlier point.
    """
    idx, F, B, total = chain_tables(cloud, start, end)
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
            slope = dx / dt if dt > 0 else 0.0
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

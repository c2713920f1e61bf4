"""Disjoint chain pairs on point clouds via min-cost flow.

Each cloud point becomes a unit-capacity split node of cost -1; anchors
become capacity-1 terminals.  A flow of value 2 then selects two
point-disjoint chains of maximum total size.  This is the independent
route used to cross-check the patience/pile values, and the extraction
route for explicit 2-optimizers on clouds.

Intended for modest instances (the edge set is quadratic in the number
of points inside the anchor cones).
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError
from .model import PoissonCloud, causal_leq, _xy


class _MinCostFlow:
    def __init__(self, n: int):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []
        self.cost = []

    def add(self, a: int, b: int, cap: int, cost: float) -> None:
        self.head[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)
        self.cost.append(-cost)

    def send(self, s: int, t: int, amount: int):
        """Successive shortest augmenting paths (Bellman-Ford)."""
        total_cost = 0.0
        sent = 0
        while sent < amount:
            dist = [np.inf] * self.n
            prev_edge = [-1] * self.n
            dist[s] = 0.0
            changed = True
            while changed:
                changed = False
                for a in range(self.n):
                    if dist[a] == np.inf:
                        continue
                    for e in self.head[a]:
                        if self.cap[e] > 0 and dist[a] + self.cost[e] < dist[self.to[e]] - 1e-12:
                            dist[self.to[e]] = dist[a] + self.cost[e]
                            prev_edge[self.to[e]] = e
                            changed = True
            if dist[t] == np.inf:
                break
            node = t
            while node != s:
                e = prev_edge[node]
                self.cap[e] -= 1
                self.cap[e ^ 1] += 1
                node = self.to[e ^ 1]
            total_cost += dist[t]
            sent += 1
        return sent, total_cost


def disjoint_pair(cloud: PoissonCloud, starts, ends):
    """Best ordered disjoint chain pair between anchor pairs.

    starts and ends are pairs of space-time anchors (members may
    coincide).  Returns (value, chain1, chain2) where the chains are
    lists of cloud point indices ordered in time, chain1 assigned to
    the left anchors, or None when no pair of paths exists.

    The flow ignores the left/right assignment; crossing tails are
    swapped afterwards, which preserves the total value.
    """
    s1, s2 = starts
    e1, e2 = ends
    usable = [m for m in range(len(cloud))
              if _in_cone(cloud, m, s1, e1) or _in_cone(cloud, m, s2, e2)]
    n = len(usable)
    # node layout: 0 = S, 1..2 = start anchors, 3..4 = end anchors, 5 = T,
    # then in/out pairs for points.
    S, A1, A2, E1, E2, T = 0, 1, 2, 3, 4, 5
    g = _MinCostFlow(6 + 2 * n)
    node_in = lambda k: 6 + 2 * k
    node_out = lambda k: 7 + 2 * k
    g.add(S, A1, 1, 0.0)
    g.add(S, A2, 1, 0.0)
    g.add(E1, T, 1, 0.0)
    g.add(E2, T, 1, 0.0)
    for A, s in ((A1, s1), (A2, s2)):
        for E, e in ((E1, e1), (E2, e2)):
            if causal_leq(s, e):
                g.add(A, E, 1, 0.0)
    for k, m in enumerate(usable):
        g.add(node_in(k), node_out(k), 1, -1.0)
        for A, s in ((A1, s1), (A2, s2)):
            if _strict_cone_from(cloud, m, s):
                g.add(A, node_in(k), 1, 0.0)
        for E, e in ((E1, e1), (E2, e2)):
            if _strict_cone_to(cloud, m, e):
                g.add(node_out(k), E, 1, 0.0)
    for ka in range(n):
        for kb in range(n):
            if ka != kb and _point_leq(cloud, usable[ka], usable[kb]):
                g.add(node_out(ka), node_in(kb), 1, 0.0)
    sent, cost = g.send(S, T, 2)
    if sent < 2:
        return None
    chains = [_trace(g, cloud, usable, A, node_in, node_out) for A in (A1, A2)]
    chain1, chain2 = _uncross(cloud, starts, ends, chains)
    return int(round(-cost)), chain1, chain2


def _point_leq(cloud, a, b) -> bool:
    dt = cloud.ts[b] - cloud.ts[a]
    return dt > 0 and abs(cloud.xs[b] - cloud.xs[a]) <= dt


def _strict_cone_from(cloud, m, s) -> bool:
    sx, st = _xy(s)
    dt = cloud.ts[m] - st
    if dt < 0 or abs(cloud.xs[m] - sx) > dt:
        return False
    return not (dt == 0 and cloud.xs[m] == sx)


def _strict_cone_to(cloud, m, e) -> bool:
    ex, et = _xy(e)
    dt = et - cloud.ts[m]
    if dt < 0 or abs(ex - cloud.xs[m]) > dt:
        return False
    return not (dt == 0 and cloud.xs[m] == ex)


def _in_cone(cloud, m, s, e) -> bool:
    return _strict_cone_from(cloud, m, s) and _strict_cone_to(cloud, m, e)


def _trace(g, cloud, usable, A, node_in, node_out):
    chain = []
    node = A
    while True:
        nxt = None
        for e in g.head[node]:
            if e % 2 == 0 and g.cap[e ^ 1] > 0 and g.cost[e] <= 0.0:
                target = g.to[e]
                if target >= 6 or target in (3, 4):
                    g.cap[e ^ 1] -= 1
                    nxt = target
                    break
        if nxt is None or nxt in (3, 4):
            break
        if nxt >= 6 and (nxt - 6) % 2 == 0:
            chain.append(usable[(nxt - 6) // 2])
            node = nxt + 1
        else:
            node = nxt
    return chain


def _uncross(cloud, starts, ends, chains):
    """Swap crossing tails until the pair is ordered left to right."""
    s1, s2 = starts
    e1, e2 = ends
    c1, c2 = [list(c) for c in chains]
    for _ in range(2 * (len(c1) + len(c2)) + 4):
        f1 = _interp(cloud, s1, e1, c1)
        f2 = _interp(cloud, s2, e2, c2)
        t_cross = _first_violation(f1, f2)
        if t_cross is None:
            return c1, c2
        head1 = [m for m in c1 if cloud.ts[m] <= t_cross]
        tail1 = [m for m in c1 if cloud.ts[m] > t_cross]
        head2 = [m for m in c2 if cloud.ts[m] <= t_cross]
        tail2 = [m for m in c2 if cloud.ts[m] > t_cross]
        c1 = head1 + tail2
        c2 = head2 + tail1
    raise InvariantError("uncrossing did not order the pair", cloud,
                         starts=starts, ends=ends,
                         chains=[[int(m) for m in c] for c in chains])


def _interp(cloud, s, e, chain):
    sx, st = _xy(s)
    ex, et = _xy(e)
    ts = [st] + [float(cloud.ts[m]) for m in chain] + [et]
    xs = [sx] + [float(cloud.xs[m]) for m in chain] + [ex]
    return ts, xs


def _first_violation(f1, f2):
    """Earliest time where chain 1 runs strictly right of chain 2."""
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

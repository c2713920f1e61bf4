"""Disjoint chain pairs on point clouds via min-cost flow.

Each cloud point becomes a unit-capacity split node of cost -1; anchors
become capacity-1 terminals.  A flow of value 2 then selects two
point-disjoint chains of maximum total size.  This is the independent
route used to cross-check the patience/pile values, and the extraction
route for explicit 2-optimizers on clouds.  Costs are integers, so
every comparison of path costs is exact.

The flow ignores which start anchor feeds which end anchor, so the two
chains come back unordered: they may cross, and each reports the end
anchor its unit of flow reached.  ``engine`` orders them by their
envelopes when it returns a pair; a value alone needs no ordering.

Intended for modest instances (the edge set is quadratic in the number
of points inside the anchor cones).
"""

from __future__ import annotations

import math

from .model import PoissonCloud, causal_leq, _xy

# node layout: source, start anchors, end anchors, sink, then an in/out
# pair per point: point k enters at POINTS + 2k and leaves at POINTS + 2k + 1
S, A1, A2, E1, E2, T, POINTS = range(7)


class _MinCostFlow:
    def __init__(self, n: int):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []
        self.cost = []

    def add(self, a: int, b: int, cap: int, cost: int) -> None:
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
        total_cost = 0
        sent = 0
        while sent < amount:
            dist = [math.inf] * self.n
            prev_edge = [-1] * self.n
            dist[s] = 0
            changed = True
            while changed:
                changed = False
                for a in range(self.n):
                    if dist[a] == math.inf:
                        continue
                    for e in self.head[a]:
                        if self.cap[e] > 0 and dist[a] + self.cost[e] < dist[self.to[e]]:
                            dist[self.to[e]] = dist[a] + self.cost[e]
                            prev_edge[self.to[e]] = e
                            changed = True
            if dist[t] == math.inf:
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
    """Best disjoint chain pair between anchor pairs.

    starts and ends are pairs of space-time anchors (members may
    coincide).  Returns (value, chain1, chain2, reached), or None when
    no pair of paths exists.  The chains are lists of cloud point
    indices ordered in time, chain1 traced from the first start anchor
    and chain2 from the second; reached holds the member of ends each
    one reaches.  The value is an int.  The chains are not ordered left
    to right, and chain1 may reach the second end anchor.
    """
    s1, s2 = (_xy(s) for s in starts)
    e1, e2 = (_xy(e) for e in ends)
    pts = list(zip(cloud.xs.tolist(), cloud.ts.tolist()))
    # strictly inside a cone: causally between the anchors, on neither
    inside = lambda p, s, e: causal_leq(s, p) and p != s and causal_leq(p, e) and p != e
    usable = [m for m, p in enumerate(pts) if inside(p, s1, e1) or inside(p, s2, e2)]
    n = len(usable)
    g = _MinCostFlow(POINTS + 2 * n)
    node_in = lambda k: POINTS + 2 * k
    node_out = lambda k: POINTS + 2 * k + 1
    g.add(S, A1, 1, 0)
    g.add(S, A2, 1, 0)
    g.add(E1, T, 1, 0)
    g.add(E2, T, 1, 0)
    for A, s in ((A1, s1), (A2, s2)):
        for E, e in ((E1, e1), (E2, e2)):
            if causal_leq(s, e):
                g.add(A, E, 1, 0)
    upts = [pts[m] for m in usable]
    for k, p in enumerate(upts):
        g.add(node_in(k), node_out(k), 1, -1)
        for A, s in ((A1, s1), (A2, s2)):
            if causal_leq(s, p) and p != s:
                g.add(A, node_in(k), 1, 0)
        for E, e in ((E1, e1), (E2, e2)):
            if causal_leq(p, e) and p != e:
                g.add(node_out(k), E, 1, 0)
    for ka, p in enumerate(upts):
        for kb, q in enumerate(upts):
            if causal_leq(p, q) and p != q:
                g.add(node_out(ka), node_in(kb), 1, 0)
    sent, cost = g.send(S, T, 2)
    if sent < 2:
        return None
    (chain1, end1), (chain2, end2) = [_trace(g, usable, A) for A in (A1, A2)]
    return -cost, chain1, chain2, (ends[end1 - E1], ends[end2 - E1])


def _trace(g, usable, A):
    """Cloud point indices of the unit of flow leaving start anchor A, and
    the end anchor node (E1 or E2) it reaches."""
    chain = []
    node = A
    while node not in (E1, E2):
        # a forward edge (even index) carries flow iff its reverse has capacity
        e = next(e for e in g.head[node] if e % 2 == 0 and g.cap[e ^ 1] > 0)
        g.cap[e ^ 1] -= 1
        node = g.to[e]
        if node >= POINTS:
            chain.append(usable[(node - POINTS) // 2])
            node += 1  # through the point to its out-node
    return chain, node

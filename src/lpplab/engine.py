"""Passage values, geodesics, disjoint pairs, and geodesic networks.

The operations dispatch on the environment type:

* ``LatticeField`` endpoints are cells (i, j), 0-indexed.
* ``PoissonCloud`` endpoints are space-time points (x, t).

Values are exact: integers for integer-weight models (chain counts on
clouds, integer lattice laws), plain float sums for exponential weights.
Infeasible disjoint-pair problems return None rather than a value.

Tracks.  A chain's graph is the piecewise-linear curve through its
space-time nodes, read once as a ``(ts, xs)`` track (``Chain._track``).
``Chain.position`` interpolates that track at one time or at an array of
times.  Two chains are compared on one probe grid (``_probe_grid``): the
knots of both tracks inside their common span and the midpoints between
them.  Both graphs are linear between consecutive knots, so the two
positions at these times decide where the chains coincide (``overlap``).
``optimizer2`` orders the flow's cloud pair by the envelopes of its two
tracks: each point goes to the side of the other track it lies on, so
the left chain runs on the lower envelope and the right chain on the
upper one.  No other module compares chains in space; the oracle keeps
its own comparison as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Tuple

import numpy as np

from . import cloud as _cloud
from . import flow as _flow
from . import lattice as _lattice
from .model import (DomainError, LatticeField, Model, PoissonCloud,
                    causal_leq, _xy)


@dataclass
class Chain:
    """A geodesic: endpoints, traversed nodes, and its value.

    For lattice models nodes are the full cell list (endpoints included);
    for clouds they are the cloud points on the chain and the endpoints
    are off-cloud anchors.  The graph of the chain is the linear
    interpolation through its space-time nodes.
    """

    kind: str
    start: Tuple
    end: Tuple
    nodes: List
    value: float

    def spacetime_nodes(self) -> List[Tuple[float, float]]:
        """(x, t) node sequence including anchor endpoints."""
        if self.kind == "lattice":
            return [(j - i, i + j) for (i, j) in self.nodes]
        sx, st = _xy(self.start)
        ex, et = _xy(self.end)
        return [(sx, st)] + [(float(x), float(t)) for x, t in self.nodes] + [(ex, et)]

    def _track(self) -> Tuple[np.ndarray, np.ndarray]:
        """The graph as float arrays (ts, xs), anchor endpoints included."""
        xs, ts = np.array(self.spacetime_nodes(), dtype=np.float64).T
        return ts, xs

    def position(self, t):
        """Interpolated spatial position at time t, a float; an array of
        times gives an array of positions."""
        ts, xs = self._track()
        tt = np.asarray(t, dtype=np.float64)
        if not (np.all(ts[0] <= tt) and np.all(tt <= ts[-1])):
            raise DomainError(f"time {t} outside chain span [{ts[0]}, {ts[-1]}]")
        x = np.interp(tt, ts, xs)
        return float(x) if x.ndim == 0 else x

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "start": list(self.start),
            "end": list(self.end),
            "nodes": [list(n) for n in self.nodes],
            "value": self.value,
        }


@dataclass
class DisjointPair:
    left: Chain
    right: Chain
    value: float


@dataclass
class GeodesicNetwork:
    """The union of all geodesics between a point pair, as a graph.

    Vertices are the source, the sink, and every branch point of the
    on-optimal structure; each edge carries its embedded chain segment.
    """

    source: Tuple
    sink: Tuple
    vertices: List
    edges: List  # (vertex_index_from, vertex_index_to, node_segment)
    leftmost: Chain
    rightmost: Chain
    degree_violations: int = 0

    def to_jsonable(self) -> dict:
        return {
            "source": list(self.source),
            "sink": list(self.sink),
            "vertices": [list(v) for v in self.vertices],
            "edges": [[a, b, [list(n) for n in seg]] for a, b, seg in self.edges],
            "leftmost": self.leftmost.to_jsonable(),
            "rightmost": self.rightmost.to_jsonable(),
            "degree_violations": self.degree_violations,
        }


@dataclass
class OverlapInterval:
    intervals: List[Tuple[float, float]] = dataclass_field(default_factory=list)

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))


def passage_value(model: Model, start, end) -> float:
    """Exact maximum over monotone paths / causal chains."""
    if isinstance(model, LatticeField):
        v = _lattice.passage_value(model, start, end)
        return int(v) if model.integer_valued else v
    return _cloud.passage_value(model, start, end)


def passage_profile(model: Model, start, time, target_xs=None):
    """Values from one source to every endpoint at a fixed time.

    Lattice: returns {chart_x: value} for all reachable cells at chart
    time ``time``.  Cloud: requires an explicit target grid and returns
    an integer array aligned with it.
    """
    if isinstance(model, LatticeField):
        out = _lattice.profile(model, start, int(time))
        if model.integer_valued:
            out = {x: int(v) for x, v in out.items()}
        return out
    if target_xs is None:
        raise DomainError("cloud profiles need an explicit target grid")
    L, _ = _cloud.row_pass(model, start, target_xs, float(time))
    return L


def geodesic(model: Model, start, end, side: str = "left") -> Chain:
    """Extremal geodesic; 'left'/'right' take the pointwise spatial
    minimum/maximum over all optimal chains."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(model, LatticeField):
        return _lattice_chain(model, start, end, _lattice.geodesic_cells(model, start, end, side))
    return _cloud_chain(model, start, end, _cloud.extremal_chain(model, start, end, side))


def _cloud_chain(model: PoissonCloud, start, end, idx) -> Chain:
    """A cloud chain through the points idx, valued by its point count."""
    nodes = [(float(model.xs[m]), float(model.ts[m])) for m in idx]
    return Chain("poisson", tuple(_xy(start)), tuple(_xy(end)), nodes, len(nodes))


def _lattice_chain(model: LatticeField, start, end, cells) -> Chain:
    """A lattice chain through cells, valued as an int on integer fields."""
    value = float(sum(model.weights[c] for c in cells))
    return Chain("lattice", start, end, cells,
                 int(round(value)) if model.integer_valued else value)


def disjoint2_value(model: Model, start_pair, end_pair):
    """Best summed value over interior-disjoint ordered path pairs.

    Returns None when no disjoint pair exists.  Doubled endpoints are
    shared by both paths and their weights count once per path (lattice);
    cloud anchors carry no weight and disjointness means no shared point.
    """
    _check_pair_order(model, start_pair)
    _check_pair_order(model, end_pair)
    if isinstance(model, LatticeField):
        v = _lattice.disjoint2_value(model, start_pair, end_pair)
        if v is None:
            return None
        return int(round(v)) if model.integer_valued else v
    s1, s2 = start_pair
    e1, e2 = end_pair
    if tuple(_xy(s1)) == tuple(_xy(s2)) and tuple(_xy(e1)) == tuple(_xy(e2)):
        sums = _cloud.greene_partial_sums(model, s1, e1, 2)
        return int(sums[1])
    res = _flow.disjoint_pair(model, start_pair, end_pair)
    return None if res is None else res[0]


def greene_values(model: Model, start, end, k: int) -> list:
    """Partial sums of the chain spectrum: the j-th entry is the largest
    total size of j disjoint chains between the anchors (cloud models)."""
    if isinstance(model, LatticeField):
        raise DomainError("greene_values applies to point models; lattice weights are not unit")
    return _cloud.greene_partial_sums(model, start, end, k)


def optimizer2(model: Model, start_pair, end_pair, side: str = "right"):
    """Extract an optimal disjoint pair, ordered left to right, or None if
    infeasible.

    On a lattice ``side`` picks the leftmost or rightmost optimal pair.
    On a cloud it selects nothing: both sides return the flow's optimal
    pair ordered by its envelopes, which need not be extremal.  Each point
    of a flow chain goes left when it lies left of the other flow chain's
    track at its time and right when it lies right of it; a point on that
    track goes left when its flow chain leaves the first start anchor and
    right when it leaves the second.

    This is exact.  The lower and upper envelopes of the two 1-Lipschitz
    tracks are 1-Lipschitz and run between the left anchors and between
    the right anchors.  Between consecutive left nodes the lower envelope
    kinks only where the tracks meet, and there it is concave, so the
    left chain runs on or below it; mirrored, the right chain runs on or
    above the upper envelope.  Both chains are causal and ordered, and
    together they hold the flow's points.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    _check_pair_order(model, start_pair)
    _check_pair_order(model, end_pair)
    if isinstance(model, LatticeField):
        res = _lattice.optimizer_pair(model, start_pair, end_pair, side)
        if res is None:
            return None
        cells1, cells2, value = res
        if model.integer_valued:
            value = int(round(value))
        return DisjointPair(_lattice_chain(model, cells1[0], cells1[-1], cells1),
                            _lattice_chain(model, cells2[0], cells2[-1], cells2), value)
    res = _flow.disjoint_pair(model, start_pair, end_pair)
    if res is None:
        return None
    value, c1, c2, reached = res
    tracks = [_cloud_chain(model, s, e, c) for s, e, c in zip(start_pair, reached, (c1, c2))]
    sides = ([], [])
    for c, other, tie in ((c1, tracks[1], 0), (c2, tracks[0], 1)):
        x_other = other.position(model.ts[c])
        for m, x, xo in zip(c, model.xs[c].tolist(), x_other.tolist()):
            sides[tie if x == xo else int(x > xo)].append(m)  # 0 left, 1 right
    left, right = (sorted(idx, key=lambda m: model.ts[m]) for idx in sides)
    return DisjointPair(_cloud_chain(model, start_pair[0], end_pair[0], left),
                        _cloud_chain(model, start_pair[1], end_pair[1], right), value)


def _probe_grid(a: Chain, b: Chain) -> np.ndarray:
    """The knots of two tracks inside their common span, in time order,
    with the midpoint of each consecutive pair between them."""
    ta, tb = a._track()[0], b._track()[0]
    lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    knots = np.union1d(ta, tb)
    knots = knots[(knots >= lo) & (knots <= hi)]
    grid = np.empty(max(2 * knots.size - 1, 0))
    grid[0::2] = knots
    grid[1::2] = 0.5 * (knots[:-1] + knots[1:])
    return grid


def on_optimal(model: Model, start, end, p) -> bool:
    """True iff p lies on some geodesic between the endpoints."""
    if isinstance(model, LatticeField):
        F = _lattice.forward_values(model, start)
        B = _lattice.backward_values(model, end)
        total = F[end]
        if not _lattice.is_reachable(total):
            raise DomainError("endpoints not connected")
        return bool(_lattice.is_reachable(F[p]) and _lattice.is_reachable(B[p])
                    and F[p] + B[p] - model.weights[p] == total)
    px, pt = _xy(p)
    if not (causal_leq(start, p) and causal_leq(p, end)):
        return False
    a = _cloud.passage_value(model, start, p)
    b = _cloud.passage_value(model, p, end)
    total = _cloud.passage_value(model, start, end)
    extra = 1 if _is_cloud_point(model, px, pt) else 0
    return a + b + extra == total


def _is_cloud_point(model: PoissonCloud, x, t) -> bool:
    return bool(np.any((model.xs == x) & (model.ts == t)))


def network(model: Model, start, end) -> GeodesicNetwork:
    """Build the geodesic network between two endpoints."""
    if isinstance(model, LatticeField):
        return _lattice_network(model, start, end)
    return _cloud_network(model, start, end)


def _lattice_network(model: LatticeField, start, end) -> GeodesicNetwork:
    F = _lattice.forward_values(model, start)
    B = _lattice.backward_values(model, end)
    total = F[end]
    if not _lattice.is_reachable(total):
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
    edges = _compress(vertices, succ)
    left, right = (_lattice_chain(model, start, end,
                                  _lattice.geodesic_cells_from_B(model, B, start, end, side))
                   for side in ("left", "right"))
    # cell degree is structurally capped at 2 on the lattice
    violations = sum(1 for c in succ if len(succ[c]) >= 3)
    return GeodesicNetwork(start, end, vertices, edges, left, right, violations)


def _cloud_network(model: PoissonCloud, start, end) -> GeodesicNetwork:
    steps = _cloud.OptimalSteps(model, start, end)
    succ = steps.succ
    pred = [0] * len(succ)
    for outs in succ:
        for b in outs:
            pred[b] += 1
    coord = list(zip(steps.xs, steps.ts))
    branch = [m for m in range(steps.source) if len(succ[m]) >= 2 or pred[m] >= 2]
    vertex_nodes = ([steps.source]
                    + sorted(branch, key=lambda m: (coord[m][1], coord[m][0]))
                    + [steps.sink])
    vertices = [coord[node] for node in vertex_nodes]
    edges = [(a, b, [coord[q] for q in seg]) for a, b, seg in _compress(vertex_nodes, succ)]
    violations = sum(len(outs) >= 3 for outs in succ) + sum(k >= 3 for k in pred)
    left, right = (_cloud_chain(model, start, end, steps.idx[steps.walk(side)])
                   for side in ("left", "right"))
    return GeodesicNetwork(coord[steps.source], coord[steps.sink], vertices, edges,
                           left, right, violations)


def _compress(vertices: list, succ: dict) -> list:
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


def overlap(a: Chain, b: Chain) -> OverlapInterval:
    """Closure of the set of times where the two chains coincide."""
    grid = _probe_grid(a, b)
    eq = a.position(grid) == b.position(grid)
    return OverlapInterval([(float(grid[i]), float(grid[k])) for i, k in _runs(eq)])


def _runs(mask) -> List[Tuple[int, int]]:
    """(first, last) indices of each maximal run of True in mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return [(int(i), int(k) - 1) for i, k in zip(edges[0::2], edges[1::2])]


def _check_pair_order(model, pair) -> None:
    p1, p2 = pair
    if isinstance(model, LatticeField):
        t1, t2 = p1[0] + p1[1], p2[0] + p2[1]
        if t1 != t2:
            raise DomainError("pair members must share a chart time")
        x1, x2 = p1[1] - p1[0], p2[1] - p2[0]
    else:
        (x1, t1), (x2, t2) = _xy(p1), _xy(p2)
        if t1 != t2:
            raise DomainError("pair members must share a time")
    if x1 > x2:
        raise DomainError("pair members must be weakly ordered left to right")

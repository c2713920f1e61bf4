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

Networks.  Both models' networks come from one assembly (``_assemble``)
over a graph of optimal steps: ``cloud.OptimalSteps.succ`` on a cloud,
and on a lattice c -> c' where F[c'] == F[c] + w[c'] and B[c] == B[c'] +
w[c].  Vertices are the endpoints and the nodes of in- or out-degree
>= 2; a degree violation is a node of in- or out-degree >= 3, which a
lattice cell never is.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Tuple

import numpy as np

from . import cloud as _cloud
from . import flow as _flow
from . import lattice as _lattice
from .model import (DomainError, LatticeField, Model, PoissonCloud,
                    causal_leq, check_side, _runs, _xy)


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
    if isinstance(model, LatticeField):
        return _lattice_chain(model, start, end, _lattice.geodesic_cells(model, start, end, side))
    return _cloud_chain(model, start, end, _cloud.extremal_chain(model, start, end, side))


def _cloud_chain(model: PoissonCloud, start, end, idx) -> Chain:
    """A cloud chain through the points idx, valued by its point count."""
    nodes = [(float(model.xs[m]), float(model.ts[m])) for m in idx]
    return Chain("poisson", tuple(_xy(start)), tuple(_xy(end)), nodes, len(nodes))


def _lattice_chain(model: LatticeField, start, end, cells) -> Chain:
    """A lattice chain through cells (a walk's (n, 2) array or a cell list) as
    (row, column) tuples of ints, valued as an int on integer fields."""
    nodes = [tuple(c) for c in np.asarray(cells).tolist()]
    value = float(sum(model.weights[c] for c in nodes))
    return Chain("lattice", start, end, nodes,
                 int(round(value)) if model.integer_valued else value)


def disjoint2_value(model: Model, start_pair, end_pair):
    """Best summed value over interior-disjoint ordered path pairs.

    Returns None when no disjoint pair exists.  Doubled endpoints are
    shared by both paths and their weights count once per path (lattice);
    cloud anchors carry no weight and disjointness means no shared point.
    """
    if isinstance(model, LatticeField):
        v = _lattice.disjoint2_value(model, start_pair, end_pair)
        if v is None:
            return None
        return int(round(v)) if model.integer_valued else v
    _check_pair_order(start_pair, end_pair)
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
    check_side(side)
    if isinstance(model, LatticeField):
        res = _lattice.optimizer_pair(model, start_pair, end_pair, side)
        if res is None:
            return None
        cells1, cells2, value = res
        if model.integer_valued:
            value = int(round(value))
        return DisjointPair(_lattice_chain(model, cells1[0], cells1[-1], cells1),
                            _lattice_chain(model, cells2[0], cells2[-1], cells2), value)
    _check_pair_order(start_pair, end_pair)
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
        F, B, total = _lattice.endpoint_tables(model, start, end)
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
    """Build the geodesic network between two endpoints (see Networks above)."""
    if isinstance(model, LatticeField):
        F, B, _ = _lattice.endpoint_tables(model, start, end)
        w = model.weights
        succ, stack = {}, [start]
        while stack:
            c = stack.pop()
            if c in succ:
                continue
            i, j = c
            # both tables were computed as max(neighbors) + w, so the edge
            # tests reproduce exactly the additions the sweeps performed
            succ[c] = [] if c == end else [
                cc for cc in ((i + 1, j), (i, j + 1))
                if cc[0] <= end[0] and cc[1] <= end[1]
                and F[cc] == F[c] + w[cc] and B[c] == B[cc] + w[c]]
            stack.extend(succ[c])
        chains = [_lattice_chain(model, start, end,
                                 _lattice.geodesic_cells_from_B(model, B, start, end, side))
                  for side in ("left", "right")]
        return _assemble(succ, start, end, lambda c: c, lambda c: (c[0] + c[1], c[1]), chains)
    steps = _cloud.OptimalSteps(model, start, end)
    coord = list(zip(steps.xs, steps.ts))
    chains = [_cloud_chain(model, start, end, steps.idx[steps.walk(side)])
              for side in ("left", "right")]
    return _assemble(dict(enumerate(steps.succ)), steps.source, steps.sink,
                     coord.__getitem__, lambda m: (coord[m][1], coord[m][0]), chains)


def _assemble(succ: dict, source, sink, place, order, chains) -> GeodesicNetwork:
    """The network of a successor graph ``succ`` (node -> successor list)
    from source to sink: vertices are the source, the branch nodes in
    ``order`` and the sink; each edge follows a vertex's out-edge through
    non-vertex nodes.  ``place`` maps a node to its coordinates."""
    indeg = dict.fromkeys(succ, 0)
    for outs in succ.values():
        for b in outs:
            indeg[b] += 1
    branch = [v for v, outs in succ.items()
              if v not in (source, sink) and (len(outs) >= 2 or indeg[v] >= 2)]
    vertex_nodes = [source] + sorted(branch, key=order) + [sink]
    vindex = {v: k for k, v in enumerate(vertex_nodes)}
    edges = []
    for v in vertex_nodes:
        for s in succ[v]:
            seg = [v, s]
            while seg[-1] not in vindex:
                seg.append(succ[seg[-1]][0])
            edges.append((vindex[v], vindex[seg[-1]], [place(q) for q in seg]))
    violations = (sum(len(outs) >= 3 for outs in succ.values())
                  + sum(k >= 3 for k in indeg.values()))
    return GeodesicNetwork(place(source), place(sink), [place(v) for v in vertex_nodes],
                           edges, *chains, violations)


def overlap(a: Chain, b: Chain) -> OverlapInterval:
    """Closure of the set of times where the two chains coincide."""
    grid = _probe_grid(a, b)
    eq = a.position(grid) == b.position(grid)
    return OverlapInterval([(float(grid[i]), float(grid[k])) for i, k in _runs(eq)])


def _check_pair_order(*pairs) -> None:
    """Cloud anchor pairs: one time each, weakly ordered left to right
    (lattice pairs are checked in lattice)."""
    for p1, p2 in pairs:
        (x1, t1), (x2, t2) = _xy(p1), _xy(p2)
        if t1 != t2:
            raise DomainError("pair members must share a time")
        if x1 > x2:
            raise DomainError("pair members must be weakly ordered left to right")

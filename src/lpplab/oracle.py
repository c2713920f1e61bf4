"""Exhaustive ground truth for tiny instances.

Everything here enumerates: all monotone lattice paths or causal chains,
all interior-disjoint ordered pairs, and the best weakly-ordered pair.
The engines are validated against these enumerations before any
large-scale run.  Size caps keep enumeration in the millisecond range.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from . import engine
from .errors import serialize_instance
from .model import (Factory, LatticeField, PoissonCloud, _xy, cloud_from_points,
                    make_lattice_field, record)
from .rng import Stream, uniforms

MAX_LATTICE = 5
MAX_CLOUD = 12


class InstanceTooLarge(ValueError):
    pass


@record
class EnumerationResult:
    paths: List = Factory(list)          # node lists
    values: List = Factory(list)
    optimum: float = 0.0
    optimal_paths: List = Factory(list)
    disjoint_pairs: List = Factory(list)  # (nodes1, nodes2, value)
    pair_optimum: Optional[float] = None
    optimal_pairs: List = Factory(list)
    weak_pair_value: Optional[float] = None


def _check_lattice(model: LatticeField) -> None:
    if model.rows > MAX_LATTICE or model.cols > MAX_LATTICE:
        raise InstanceTooLarge(
            f"lattice {model.rows}x{model.cols} exceeds the {MAX_LATTICE}x{MAX_LATTICE} oracle cap")


def _check_cloud(model: PoissonCloud) -> None:
    if len(model) > MAX_CLOUD:
        raise InstanceTooLarge(f"cloud of {len(model)} points exceeds the {MAX_CLOUD}-point oracle cap")


def lattice_paths(model: LatticeField, start, end):
    """All monotone cell paths from start to end."""
    _check_lattice(model)
    ia, ja = start
    ib, jb = end
    if ib < ia or jb < ja:
        return []
    out = []

    def grow(path):
        c = path[-1]
        if c == (ib, jb):
            out.append(list(path))
            return
        i, j = c
        if j + 1 <= jb:
            grow(path + [(i, j + 1)])
        if i + 1 <= ib:
            grow(path + [(i + 1, j)])

    grow([start])
    return out


def cloud_chains(model: PoissonCloud, start, end):
    """All maximal causal chains of cloud points between the anchors.

    A chain is maximal when no usable point can be inserted anywhere.
    The empty diamond yields the single empty chain.
    """
    _check_cloud(model)
    pts = [(float(x), float(t)) for x, t in zip(model.xs, model.ts)]
    sx, st = _xy(start)
    ex, et = _xy(end)
    usable = [m for m, (x, t) in enumerate(pts)
              if _leq((sx, st), (x, t)) and _leq((x, t), (ex, et))
              and (x, t) != (sx, st) and (x, t) != (ex, et)]

    def extendable(chain) -> bool:
        seq = [(sx, st)] + [pts[m] for m in chain] + [(ex, et)]
        for m in usable:
            if m in chain:
                continue
            p = pts[m]
            for a, b in zip(seq[:-1], seq[1:]):
                if _leq(a, p) and _leq(p, b) and p != a and p != b:
                    return True
        return False

    subchains = _all_subchains(model, start, end)
    return [c for c in subchains if not extendable(c)]


def _leq(p, q) -> bool:
    return q[1] >= p[1] and abs(q[0] - p[0]) <= q[1] - p[1]


def _strictly_after(p, q) -> bool:
    return _leq(p, q) and q != p


def enumerate_paths(model, start, end) -> EnumerationResult:
    """All paths/chains with values; the optimum and its achievers."""
    res = EnumerationResult()
    if isinstance(model, LatticeField):
        paths = lattice_paths(model, start, end)
        res.paths = paths
        res.values = [float(sum(model.weights[c] for c in p)) for p in paths]
    else:
        chains = cloud_chains(model, start, end)
        res.paths = [list(c) for c in chains]
        res.values = [float(len(c)) for c in chains]
    if res.values:
        res.optimum = max(res.values)
        res.optimal_paths = [p for p, v in zip(res.paths, res.values) if v == res.optimum]
    return res


def enumerate_disjoint_pairs(model, start_pair, end_pair) -> EnumerationResult:
    """All interior-disjoint ordered pairs with the argmax set."""
    res = EnumerationResult()
    if isinstance(model, LatticeField):
        _check_lattice(model)
        a1, a2 = start_pair
        b1, b2 = end_pair
        paths1 = lattice_paths(model, a1, b1)
        paths2 = lattice_paths(model, a2, b2)
        for p1, p2 in itertools.product(paths1, paths2):
            interior1 = set(p1) - {a1, a2, b1, b2}
            interior2 = set(p2) - {a1, a2, b1, b2}
            if interior1 & interior2:
                continue
            if not _cells_ordered(p1, p2):
                continue
            v = float(sum(model.weights[c] for c in p1) + sum(model.weights[c] for c in p2))
            res.disjoint_pairs.append((p1, p2, v))
    else:
        _check_cloud(model)
        s1, s2 = start_pair
        e1, e2 = end_pair
        chains1 = _all_subchains(model, s1, e1)
        chains2 = _all_subchains(model, s2, e2)
        for c1, c2 in itertools.product(chains1, chains2):
            if set(c1) & set(c2):
                continue
            if not _chains_ordered(model, s1, e1, c1, s2, e2, c2):
                continue
            res.disjoint_pairs.append((list(c1), list(c2), float(len(c1) + len(c2))))
    if res.disjoint_pairs:
        res.pair_optimum = max(v for _, _, v in res.disjoint_pairs)
        res.optimal_pairs = [(p1, p2) for p1, p2, v in res.disjoint_pairs
                             if v == res.pair_optimum]
    return res


def _cells_ordered(p1, p2) -> bool:
    """p1 weakly left of p2 at every shared chart time (columns compare)."""
    t0 = p1[0][0] + p1[0][1]
    q0 = p2[0][0] + p2[0][1]
    for k1, c1 in enumerate(p1):
        t = c1[0] + c1[1]
        k2 = t - q0
        if 0 <= k2 < len(p2):
            if c1[1] > p2[k2][1]:
                return False
    return True


def _all_subchains(model, start, end):
    """Every causal chain (not only maximal) between the anchors."""
    pts = [(float(x), float(t)) for x, t in zip(model.xs, model.ts)]
    sx, st = _xy(start)
    ex, et = _xy(end)
    usable = [m for m, (x, t) in enumerate(pts)
              if _leq((sx, st), (x, t)) and _leq((x, t), (ex, et))
              and (x, t) != (sx, st) and (x, t) != (ex, et)]
    usable.sort(key=lambda m: (pts[m][1], pts[m][0]))
    chains = [()]
    def grow(chain, rest):
        for k, m in enumerate(rest):
            if not chain or _strictly_after(pts[chain[-1]], pts[m]):
                nxt = chain + (m,)
                chains.append(nxt)
                grow(nxt, rest[k + 1:])
    grow((), usable)
    return sorted(set(chains))


def _chain_fn(model, s, e, chain):
    ts = [_xy(s)[1]] + [float(model.ts[m]) for m in chain] + [_xy(e)[1]]
    xs = [_xy(s)[0]] + [float(model.xs[m]) for m in chain] + [_xy(e)[0]]
    return np.array(ts), np.array(xs)


def _chains_ordered(model, s1, e1, c1, s2, e2, c2) -> bool:
    """Chain 1 weakly left of chain 2 wherever both are defined."""
    t1, x1 = _chain_fn(model, s1, e1, c1)
    t2, x2 = _chain_fn(model, s2, e2, c2)
    lo, hi = max(t1[0], t2[0]), min(t1[-1], t2[-1])
    probe = sorted({float(v) for v in np.concatenate([t1, t2]) if lo <= v <= hi})
    mids = [0.5 * (a + b) for a, b in zip(probe[:-1], probe[1:])]
    for t in probe + mids:
        if np.interp(t, t1, x1) > np.interp(t, t2, x2) + 1e-12:
            return False
    return True


def weak_pair_value(model, start_pair, end_pair):
    """Best weakly-ordered pair, shared interior nodes counted once.

    Endpoint cells keep the per-path convention (a doubled anchor is
    counted by both paths), so every disjoint pair is also a weak pair
    with the same value and the weak optimum dominates the disjoint one.
    """
    if isinstance(model, LatticeField):
        _check_lattice(model)
        a1, a2 = start_pair
        b1, b2 = end_pair
        anchors = {a1, a2, b1, b2}
        paths1 = lattice_paths(model, a1, b1)
        paths2 = lattice_paths(model, a2, b2)
        best = None
        for p1, p2 in itertools.product(paths1, paths2):
            if not _cells_ordered(p1, p2):
                continue
            shared = (set(p1) & set(p2)) - anchors
            v = float(sum(model.weights[c] for c in p1)
                      + sum(model.weights[c] for c in p2)
                      - sum(model.weights[c] for c in shared))
            best = v if best is None else max(best, v)
        return best
    _check_cloud(model)
    s1, s2 = start_pair
    e1, e2 = end_pair
    chains1 = _all_subchains(model, s1, e1)
    chains2 = _all_subchains(model, s2, e2)
    best = None
    for c1, c2 in itertools.product(chains1, chains2):
        if not _chains_ordered(model, s1, e1, c1, s2, e2, c2):
            continue
        v = float(len(set(c1) | set(c2)))
        best = v if best is None else max(best, v)
    return best


def tiny_batch(seed: int, n_lattice: int, n_cloud: int) -> list:
    """(model, start, end) instances within the enumeration caps: corner to
    corner on 2-4 x 2-4 geometric fields, and 4-10 uniform points between
    (0, 0) and (0, 1), x in [-1, 1) and t in [0.05, 0.95), from the
    Philox stream (seed + k, ORACLE_CLOUD); instance k is a pure function
    of (seed, k)."""
    batch = []
    for k in range(n_lattice):
        rows = 2 + (seed + k) % 3
        cols = 2 + ((seed + k) // 3) % 3
        f = make_lattice_field(seed + k, rows, cols, "geometric", 0.5)
        batch.append((f, (0, 0), (rows - 1, cols - 1)))
    for k in range(n_cloud):
        npts = 4 + k % 7
        u = uniforms(seed + k, Stream.ORACLE_CLOUD, 2 * npts)
        pts = list(zip(-1.0 + 2.0 * u[:npts], 0.05 + 0.9 * u[npts:]))
        batch.append((cloud_from_points(pts), (0.0, 0.0), (0.0, 1.0)))
    return batch


def verify_engine(instances, funcs=None) -> dict:
    """Assert engine results equal enumeration on a batch of instances.

    ``instances`` is a list of (model, start, end) triples; the disjoint
    pair and gap checks use doubled endpoints.  ``funcs`` allows fault
    injection in tests: a mapping with optional overrides for
    'passage_value' and 'disjoint2_value'.

    Returns a report dict; raises AssertionError with a serialized
    counterexample on the first mismatch.
    """
    funcs = funcs or {}
    p_fn = funcs.get("passage_value", engine.passage_value)
    d_fn = funcs.get("disjoint2_value", engine.disjoint2_value)
    report = {"instances": len(instances), "checked": 0, "weak_equal": 0,
              "weak_greater": 0, "pair_feasible": 0}
    if not instances:
        report["warning"] = "empty batch: vacuous pass"
        return report
    for model, start, end in instances:
        res = enumerate_paths(model, start, end)
        got = p_fn(model, start, end)
        if float(got) != float(res.optimum):
            raise AssertionError("passage mismatch: " + serialize_instance(
                model, {"start": start, "end": end, "want": res.optimum, "got": got}))
        pair = enumerate_disjoint_pairs(model, (start, start), (end, end))
        got2 = d_fn(model, (start, start), (end, end))
        want2 = pair.pair_optimum
        if (got2 is None) != (want2 is None) or (
                got2 is not None and float(got2) != float(want2)):
            raise AssertionError("disjoint pair mismatch: " + serialize_instance(
                model, {"start": start, "end": end, "want": want2, "got": got2}))
        if want2 is not None:
            report["pair_feasible"] += 1
            weak = weak_pair_value(model, (start, start), (end, end))
            if weak == want2:
                report["weak_equal"] += 1
            elif weak > want2:
                report["weak_greater"] += 1
        report["checked"] += 1
    return report

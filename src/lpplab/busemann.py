"""Finite-horizon Busemann machinery on lattice environments.

A direction theta is realized as the family of targets (theta * h, h) at
increasing horizons h; a Busemann value is the passage difference between
two sources to the same target.  Every quantity is computed at two
horizons.  A value is certified when the relevant geodesics have
coalesced strictly before each horizon and the two horizon values agree
exactly; certified values are exact horizon-independent statements about
the realized noise, uncertified ones are finite-horizon artifacts and
are excluded from acceptance statistics.

Directions with two macroscopically separated geodesics are detected as
jumps of the map (target column) -> (mid-horizon geodesic position); the
two geodesics bracketing a jump are the witnesses and play the role of
the leftmost/rightmost semi-infinite geodesics in that direction.

Coalescence: ``lattice._merge_index`` is the one read-out of where two
walks agree.  Certificates take it through ``_join_time``, the one
walk-and-merge: walk a source to a sink on a backward table, and return
the chart time from which that walk agrees with a reference walk.  A
column walk is ``walk[:, 1]`` of the kernel's (n, 2) cell array.
"""

from __future__ import annotations

import numbers
from functools import cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cloud as _cloud
from . import gaplab
from . import lattice as _lattice
from .classify import check_resolution, crossing_tag
from .errors import DomainError, ParameterError
from .model import Factory, LatticeField, ScalingFrame, _runs, record, reflect

if TYPE_CHECKING:
    from .engine import Chain

ORIGIN_X = 0  # chart x of the Busemann reference source and of every scan origin
MIN_CERTIFIED = 64  # certified points a reflected-walk diagnostic needs
WALK_LAGS = range(1, 9)  # increment lags of the reflected-walk regression


def _parity_round(x: float, t: int) -> int:
    k = int(np.floor(x))
    if (k + t) % 2 != 0:
        k += 1
    return k


def _grid_columns(model: LatticeField, t: int, lo: int, hi: int) -> Tuple[int, int]:
    """[lo, hi] clipped to the chart positions of antidiagonal t of the grid,
    whose two ends have the parity of t."""
    return max(lo, -t, t - 2 * (model.rows - 1)), min(hi, t, 2 * (model.cols - 1) - t)


@record
class DirectionTarget:
    theta: float
    horizon: int
    t0: int
    x: int          # chart position of the target cell
    cell: Tuple[int, int]


def direction_target(model: LatticeField, theta: float, horizon: int,
                     t0: int = 0) -> DirectionTarget:
    if not -1.0 < theta < 1.0:
        raise ParameterError(f"direction {theta} lies outside the causal cone")
    t1 = t0 + horizon
    x = _parity_round(theta * horizon, t1)
    return DirectionTarget(theta, horizon, t0, x, model.cell_at(x, t1))


def coalescence_time(a: Chain, b: Chain):
    """Earliest time after which the chains' node sequences agree.

    Requires a common terminal point; returns None when the chains meet
    only at the terminal.  Identical chains coalesce at their start.
    """
    pa = a.spacetime_nodes()
    pb = b.spacetime_nodes()
    if pa[-1] != pb[-1]:
        raise DomainError("coalescence needs a common terminal point")
    if pa == pb:
        return pa[0][1]
    n = min(len(pa), len(pb))
    k = _lattice._merge_index(pa[-n:], pb[-n:])
    if k == n - 1:
        return None  # shares only the terminal node
    return pa[len(pa) - n + k][1]


def _walk_to(model: LatticeField, origin, c: int, t1: int, side: str):
    """Backward table to the cell at chart (c, t1) and the column walk of
    the ``side`` geodesic from origin to it."""
    end = model.cell_at(c, t1)
    B = _lattice.backward_values(model, end)
    return B, _lattice.geodesic_cells_from_B(model, B, origin, end, side)[:, 1]


def _join_time(model: LatticeField, B: np.ndarray, start, end, side: str,
               ref_cols: np.ndarray) -> int:
    """Chart time from which the ``side`` geodesic start -> end on B agrees
    with ref_cols, a column walk of the same span."""
    cols = _lattice.geodesic_cells_from_B(model, B, start, end, side)[:, 1]
    return start[0] + start[1] + _lattice._merge_index(cols, ref_cols)


@record
class BusemannProfile:
    theta: float
    side: str
    horizons: Tuple[int, int]
    t0: int
    x_grid: np.ndarray
    values: np.ndarray          # shape (2, len(x_grid)); exact ints in floats
    coalesced: np.ndarray       # bool, shape (2, len(x_grid))
    coal_times: np.ndarray      # float, NaN when not coalesced
    certified: np.ndarray       # bool per x

    def to_csv(self) -> str:
        lines = ["theta,x,value,certified,coalescence_time"]
        for k, x in enumerate(self.x_grid):
            ct = self.coal_times[0, k]
            lines.append(f"{self.theta},{int(x)},{self.values[0, k]:.0f},"
                         f"{int(self.certified[k])},"
                         f"{'' if np.isnan(ct) else int(ct)}")
        return "\n".join(lines) + "\n"


def busemann_profile(model: LatticeField, theta: float, x_grid: Sequence[int],
                     horizons: Tuple[int, int], side: str = "right",
                     t0: int = 0) -> BusemannProfile:
    """Busemann values B(x) = L(x -> target) - L(ORIGIN_X -> target) at two
    horizons, with per-x coalescence certificates."""
    horizons = check_horizons(horizons)
    xs = sorted(x_grid)
    starts = [model.cell_at(x, t0) for x in xs]  # integral anchors on the grid
    xs = np.asarray(xs, dtype=np.int64)
    nv = np.full((2, xs.size), np.nan)
    co = np.zeros((2, xs.size), dtype=bool)
    ct = np.full((2, xs.size), np.nan)
    for hi, h in enumerate(horizons):
        tgt = direction_target(model, theta, h, t0)
        B = _lattice.backward_values(model, tgt.cell)
        ref_cell = model.cell_at(ORIGIN_X, t0)
        if not _lattice.is_reachable(B[ref_cell]):
            raise DomainError("reference source cannot reach the target")
        ref_cols = _lattice.geodesic_cells_from_B(model, B, ref_cell, tgt.cell, side)[:, 1]
        for k, a in enumerate(starts):
            if not _lattice.is_reachable(B[a]):
                continue
            nv[hi, k] = B[a] - B[ref_cell]
            merge = _join_time(model, B, a, tgt.cell, side, ref_cols)
            if merge < t0 + h:
                co[hi, k] = True
                ct[hi, k] = merge
    certified = co[0] & co[1] & (nv[0] == nv[1])
    return BusemannProfile(theta, side, tuple(horizons), t0, xs, nv, co, ct, certified)


def busemann(model: LatticeField, theta: float, x: int,
             horizons: Tuple[int, int], t0: int = 0):
    """Single-point Busemann value (rightmost geodesics); see busemann_profile."""
    prof = busemann_profile(model, theta, [x], horizons, "right", t0)
    return {
        "values": {int(h): float(prof.values[i, 0]) for i, h in enumerate(horizons)},
        "coalescence_times": {int(h): (None if np.isnan(prof.coal_times[i, 0])
                                       else float(prof.coal_times[i, 0]))
                              for i, h in enumerate(horizons)},
        "certified": bool(prof.certified[0]),
    }


def cloud_busemann_values(cloud, theta: float, x_grid, horizon: float) -> np.ndarray:
    """Point-model Busemann values B(x) = d((x, 0) -> target) - d((ORIGIN_X, 0) -> target).

    Computed in one reflected patience sweep; no certificates (the point
    model here serves shape statistics rather than certified identities).
    """
    if not -1.0 < theta < 1.0:
        raise ParameterError(f"direction {theta} outside the causal cone")
    xs = np.asarray(x_grid, dtype=np.float64)
    target = (ORIGIN_X + theta * horizon, horizon)
    mirrored = reflect(cloud)
    sources = np.concatenate([xs, [ORIGIN_X]])
    L, _ = _cloud.row_pass(mirrored, (-target[0], -target[1]), -sources, 0.0)
    return (L[:-1] - L[-1]).astype(np.float64)


@record
class ExceptionalDirection:
    theta: float
    column_below: int
    column_above: int
    horizon: int
    t0: int
    mid_time: int
    jump: float                 # mid-position separation, unscaled
    witness_left_cols: np.ndarray
    witness_right_cols: np.ndarray


def check_window(theta_window: Tuple[float, float]) -> Tuple[float, float]:
    """The direction window (lo, hi), checked to satisfy -1 < lo < hi < 1."""
    lo, hi = theta_window
    if not (-1.0 < lo < hi < 1.0):
        raise ParameterError(f"window {theta_window} must sit inside the cone")
    return lo, hi


def check_horizons(horizons) -> Tuple[int, int]:
    """The two horizons, checked to be distinct integers >= 1: a
    certificate compares the values at two horizons."""
    hs = tuple(horizons) if isinstance(horizons, (tuple, list)) else ()
    if len(hs) != 2 or hs[0] == hs[1] or not all(
            isinstance(h, numbers.Integral) and not isinstance(h, bool) and h >= 1 for h in hs):
        raise ParameterError(f"horizons must be two distinct integers >= 1, got {horizons!r}")
    return hs


def exceptional_scan(model: LatticeField, theta_window: Tuple[float, float],
                     horizon: int, t0: int = 0, threshold: float = 1.0,
                     coarse: int = 8) -> List[ExceptionalDirection]:
    """Detect directions with two macroscopically separated geodesics.

    Scans the map (target column) -> (mid-horizon position of the rightmost
    geodesic from ORIGIN_X); brackets whose endpoints differ by more than
    threshold * horizon^(2/3) are refined by binary search down to
    adjacent target columns.  Witnesses are the rightmost geodesic to the
    below-column and the leftmost geodesic to the above-column.
    ``coarse`` is the first scan's step in target columns.
    """
    lo, hi = check_window(theta_window)
    check_resolution(threshold, coarse)
    t1 = t0 + horizon
    mid = t0 + horizon // 2
    mid_index = mid - t0
    origin = model.cell_at(ORIGIN_X, t0)
    c_lo, c_hi = _grid_columns(model, t1, _parity_round(lo * horizon, t1),
                               _parity_round(hi * horizon, t1))
    if c_lo >= c_hi:
        raise DomainError("scan window falls outside the grid")
    cut = threshold * float(horizon) ** (2.0 / 3.0)

    def mid_x(cols: np.ndarray) -> int:
        return int(2 * cols[mid_index] - (origin[0] + origin[1] + mid_index))

    @cache
    def right_walk(c: int) -> np.ndarray:
        return _walk_to(model, origin, c, t1, "right")[1]

    def pos(c: int) -> int:
        return mid_x(right_walk(c))

    brackets = []
    cs = list(range(c_lo, c_hi + 1, 2 * coarse))
    if cs[-1] != c_hi:
        cs.append(c_hi)
    for a, b in zip(cs[:-1], cs[1:]):
        if abs(pos(b) - pos(a)) > cut:
            brackets.append((a, b))
    found = []
    for a, b in brackets:
        stack = [(a, b)]
        while stack:
            u, v = stack.pop()
            if v - u <= 2:
                if abs(pos(v) - pos(u)) > cut:
                    found.append((u, v))
                continue
            m = u + ((v - u) // 2 // 2) * 2
            if abs(pos(m) - pos(u)) > cut:
                stack.append((u, m))
            if abs(pos(v) - pos(m)) > cut:
                stack.append((m, v))
    out = []
    last_above = None
    for u, v in sorted(set(found)):
        if last_above is not None and u < last_above:
            continue
        # the above-limit leftmost geodesic: advance until the leftmost
        # route has switched to the far side of the jump
        half = 0.5 * (pos(u) + pos(v))
        c = v
        wr = None
        for _ in range(16):
            if c > c_hi:
                break
            cols = _walk_to(model, origin, c, t1, "left")[1]
            if mid_x(cols) > half:
                wr = cols
                break
            c += 2
        if wr is None:
            continue
        wl = right_walk(u)
        jump = float(mid_x(wr) - mid_x(wl))
        if jump <= cut:
            continue
        out.append(ExceptionalDirection(
            theta=(u + c) / 2.0 / horizon, column_below=u, column_above=c,
            horizon=horizon, t0=t0, mid_time=mid, jump=jump,
            witness_left_cols=wl, witness_right_cols=wr))
        last_above = c
    return out


@record
class BusemannGapProfile:
    theta: float
    horizons: Tuple[int, int]
    t0: int
    x_grid: np.ndarray
    values: np.ndarray          # shape (2, m)
    certified: np.ndarray       # per x
    witness_columns: Dict[int, Tuple[int, int]]
    frame: ScalingFrame = Factory(lambda: ScalingFrame(1.0))

    def certified_series(self) -> Tuple[np.ndarray, np.ndarray]:
        mask = self.certified & np.isfinite(self.values[0])
        return self.x_grid[mask], self.values[0][mask]

    def to_csv(self) -> str:
        lines = ["theta,x,value,certified"]
        for k, x in enumerate(self.x_grid):
            v = self.values[0, k]
            sv = "" if np.isnan(v) else str(int(v))
            lines.append(f"{self.theta},{int(x)},{sv},{int(self.certified[k])}")
        return "\n".join(lines) + "\n"


def _local_witnesses(model: LatticeField, direction: ExceptionalDirection,
                     horizon: int, t0: int):
    """Continue the direction's witness families to another horizon.

    The far witness targets bracket the same bifurcation: the below
    target is the rightmost far column whose rightmost geodesic still
    passes through the near below-witness target, and symmetrically for
    the above target.  Returns equal columns when the families cannot be
    tracked, which leaves the far horizon undefined (and the profile
    uncertified).
    """
    t1 = t0 + horizon
    center = _parity_round(direction.theta * horizon, t1)
    span = 2 * max(2, int(float(horizon) ** (2.0 / 3.0)))
    lo, hi = _grid_columns(model, t1, center - span, center + span)
    origin = model.cell_at(ORIGIN_X, t0)
    # track each family at the scan's mid time, where the two bundles are
    # macroscopically separated and anchor bending is irrelevant
    mid_index = direction.mid_time - t0
    jl = int(direction.witness_left_cols[mid_index])
    jr = int(direction.witness_right_cols[mid_index])

    def passes(c: int, side: str, j_want: int) -> bool:
        return int(_walk_to(model, origin, c, t1, side)[1][mid_index]) == j_want

    c_below = None
    for c in range(hi, lo - 1, -2):
        if passes(c, "right", jl):
            c_below = c
            break
    c_above = None
    if c_below is not None:
        for c in range(c_below + 2, hi + 1, 2):
            if passes(c, "left", jr):
                c_above = c
                break
    if c_below is None or c_above is None:
        return center, center
    return c_below, c_above


def busemann_gap(model: LatticeField, direction: ExceptionalDirection,
                 x_grid: Sequence[int], horizons: Tuple[int, int],
                 frame: Optional[ScalingFrame] = None) -> BusemannGapProfile:
    """Gap profile anchored on the direction's witness geodesics.

    The witness families are continued to the larger horizon and every
    anchor is the witness chain's own position at that horizon:
    G_h(x) = L(x -> W_L(h)) + L(x -> W_R(h)) - pair(x -> (W_L(h), W_R(h))).
    Anchoring on the chains makes the value telescope: once the
    geodesics from x have merged with both witness chains before the
    smaller horizon, the two horizon values agree exactly.  That merge
    (plus exact agreement) is the certificate.  One backward pair sweep
    per horizon serves the whole grid.
    """
    horizons = check_horizons(horizons)
    t0 = direction.t0
    frame = frame or ScalingFrame(float(horizons[0]))
    xs = sorted(x_grid)
    starts = [model.cell_at(x, t0) for x in xs]  # integral anchors on the grid
    xs = np.asarray(xs, dtype=np.int64)
    vals = np.full((2, xs.size), np.nan)
    coal = np.zeros((2, xs.size), dtype=bool)
    h_near, h_far = sorted(horizons)
    if h_far == direction.horizon:
        cu, cv = direction.column_below, direction.column_above
        tracked = True
    else:
        cu, cv = _local_witnesses(model, direction, h_far, t0)
        tracked = cu != cv
    witness_cols: Dict[int, Tuple[int, int]] = {h_far: (cu, cv)}
    if not tracked:
        # the witness families could not be continued: leave the far
        # horizon undefined and the profile uncertified
        return BusemannGapProfile(direction.theta, tuple(horizons), t0, xs, vals,
                                  np.zeros(xs.size, dtype=bool), witness_cols, frame)
    t1f = t0 + h_far
    origin = model.cell_at(ORIGIN_X, t0)
    B_far_l, W_L = _walk_to(model, origin, cu, t1f, "right")
    B_far_r, W_R = _walk_to(model, origin, cv, t1f, "left")

    def anchor(cols: np.ndarray, h: int) -> Tuple[int, int]:
        j = int(cols[h])
        return (t0 + h - j, j)

    witness_cols[h_near] = (model.chart_of(anchor(W_L, h_near))[0],
                            model.chart_of(anchor(W_R, h_near))[0])
    order = list(horizons)
    for hi_idx, h in enumerate(order):
        pl = anchor(W_L, h)
        pr = anchor(W_R, h)
        if pl[1] > pr[1]:
            continue
        # pl == pr is the degenerate-witness case: the pair sweep then
        # runs with a doubled end and the profile reduces to gap values
        BL = B_far_l if h == h_far else _lattice.backward_values(model, pl)
        BR = B_far_r if h == h_far else _lattice.backward_values(model, pr)
        S = _lattice.pair_backward(model, (pl, pr), t0 + 1,
                                   reads=_lattice.doubled_reads(model, starts, 1))
        pairs = _lattice.doubled_values(model, S, t0 + 1, starts)
        for k, a in enumerate(starts):
            if not (_lattice.is_reachable(BL[a]) and _lattice.is_reachable(BR[a])) \
                    or np.isnan(pairs[k]):
                continue
            vals[hi_idx, k] = BL[a] + BR[a] - pairs[k]
            if h == h_far:
                coal[hi_idx, k] = max(_join_time(model, BL, a, pl, "right", W_L),
                                      _join_time(model, BR, a, pr, "left", W_R)) < t0 + h_near
    far_slot = order.index(h_far)
    certified = coal[far_slot] & (vals[0] == vals[1]) & np.isfinite(vals[0]) \
        & np.isfinite(vals[1])
    return BusemannGapProfile(direction.theta, tuple(horizons), t0, xs, vals,
                              certified, witness_cols, frame)


@record
class SemiInfiniteTags:
    gap_tag: str
    geo_tag: str


def classify_semi_infinite(model: LatticeField, direction: ExceptionalDirection,
                           x: int, profile: BusemannGapProfile,
                           radius: float = 1.0) -> SemiInfiniteTags:
    """Dictionary and geometric tags for (x, direction).

    Dictionary side: plateau minima of the gap profile when positive,
    one-sided isolation of the profile zero set when zero.  Geometric
    side: the chains from x to the two witnesses either share a stem
    (IIa / III by a start bubble) or split immediately (IV / Va / Vb by
    crossing bridges).
    """
    xs = profile.x_grid
    k = _grid_index(profile, x)
    g = profile.values[0, k]
    if not np.isfinite(g):
        return SemiInfiniteTags("other", "other")
    vals = profile.values[0]
    if g > 0:
        mins = gaplab.slice_minima(np.nan_to_num(vals, nan=np.inf))
        gap_tag = "III-inf" if gaplab.minimum_at(mins, k) else "IIa-inf"
    else:
        unit = profile.frame.space_unit
        zeros = xs[np.isfinite(vals) & (vals == 0)]
        left = zeros[(zeros < x) & (x - zeros <= radius * unit)]
        right = zeros[(zeros > x) & (zeros - x <= radius * unit)]
        gap_tag = crossing_tag(left.size == 0, right.size == 0, "-inf")
    geo_tag = _semi_inf_geometric(model, direction, x, profile)
    return SemiInfiniteTags(gap_tag, geo_tag)


def _grid_index(profile: BusemannGapProfile, x: int) -> int:
    """The index of x in profile.x_grid; DomainError when x is not on it."""
    xs = profile.x_grid
    k = int(np.searchsorted(xs, x))
    if k >= xs.size or xs[k] != x:
        raise DomainError(f"x={x} is not on the profile grid")
    return k


def _semi_inf_geometric(model, direction, x, profile):
    t0 = direction.t0
    h = profile.horizons[0]
    t1 = t0 + h
    cu, cv = profile.witness_columns[h]
    a = model.cell_at(x, t0)
    pl = model.cell_at(cu, t1)
    pr = model.cell_at(cv, t1)
    BL = _lattice.backward_values(model, pl)
    BR = _lattice.backward_values(model, pr)
    if not (_lattice.is_reachable(BL[a]) and _lattice.is_reachable(BR[a])):
        return "other"
    cl_cells = _lattice.geodesic_cells_from_B(model, BL, a, pl, "left")
    cr_cells = _lattice.geodesic_cells_from_B(model, BR, a, pr, "right")
    # both chains span t0..t1: the last index of their common stem
    split = len(cl_cells) - 1 - _lattice._merge_index(cl_cells[::-1], cr_cells[::-1])
    if split > 0:
        split_cell = tuple(cl_cells[split])
        bubble = gaplab.gap_value(model, a, split_cell)
        return "III-inf" if bubble == 0 else "IIa-inf"
    # bridges between the two witness chains decide the crossing types;
    # each direction is walked on the table of its target chain's end
    lr = _lattice.bridge_exists(model, cl_cells, cr_cells, BR)
    rl = _lattice.bridge_exists(model, cr_cells, cl_cells, BL)
    return crossing_tag(lr, rl, "-inf")


def two_path_busemann(model: LatticeField, theta1: float, theta2: float,
                      x: int, horizon: int, t0: int = 0):
    """Pair value to two direction targets minus the single-path
    references from ORIGIN_X: pair(x^2 -> (p1, p2)) - L(ref -> p1) - L(ref -> p2)."""
    if not theta1 < theta2:
        raise ParameterError("need theta1 < theta2")
    p1 = direction_target(model, theta1, horizon, t0).cell
    p2 = direction_target(model, theta2, horizon, t0).cell
    a = model.cell_at(x, t0)
    ref = model.cell_at(ORIGIN_X, t0)
    pair = _lattice.disjoint2_value(model, (a, a), (p1, p2))
    if pair is None:
        return None
    B1 = _lattice.backward_values(model, p1)
    B2 = _lattice.backward_values(model, p2)
    return float(pair - B1[ref] - B2[ref])


def horizon_identity_residual(model: LatticeField, direction: ExceptionalDirection,
                              theta1: float, theta2: float, x: int,
                              horizon: int, profile: BusemannGapProfile,
                              t0: int = 0) -> dict:
    """Residual of G(x) = B_L(x; theta1) + B_R(x; theta2) - twopath(x).

    Inputs are finite-horizon quantities; the residual is flagged
    provisional when the gap value at x is not certified.  x must be on
    profile.x_grid (DomainError).
    """
    if not theta1 < direction.theta < theta2:
        raise ParameterError("need theta1 < theta < theta2")
    k = _grid_index(profile, x)
    horizons = profile.horizons
    bl = busemann_profile(model, theta1, [x], horizons, side="left", t0=t0)
    br = busemann_profile(model, theta2, [x], horizons, side="right", t0=t0)
    tp = two_path_busemann(model, theta1, theta2, x, horizon, t0)
    g = profile.values[0, k]
    if tp is None or not np.isfinite(g):
        return {"residual": np.nan, "provisional": True}
    resid = float(g - (bl.values[0, 0] + br.values[0, 0] - tp))
    provisional = not (profile.certified[k] and bl.certified[0] and br.certified[0])
    return {"residual": resid, "provisional": provisional}


def stationary_horizon_tests(model: LatticeField, thetas: Sequence[float],
                             x_grid: Sequence[int], horizons: Tuple[int, int],
                             t0: int = 0, delta: Optional[float] = None,
                             coal_schedule: Sequence[int] = ()) -> dict:
    """Marginal diagnostics of the direction-indexed Busemann family.

    (a) drift and increment-variance regression per direction on
    certified values; (b) exact quadrangle-inequality check across
    direction pairs; (c) fraction of the grid where the value is locally
    constant under a small direction shift; (d) anti-coalescence
    frequencies for a schedule of times.
    """
    profiles = {th: busemann_profile(model, th, x_grid, horizons, "right", t0)
                for th in thetas}
    report: dict = {"drift": {}, "increment_variance": {}, "certified_fraction": {}}
    for th, prof in profiles.items():
        xs, vs = prof.x_grid, prof.values[0]
        mask = prof.certified & np.isfinite(vs)
        report["certified_fraction"][th] = float(np.mean(mask))
        if int(mask.sum()) >= 3:
            report["drift"][th] = gaplab.linear_fit(xs[mask], vs[mask])[0]
            report["increment_variance"][th] = float(np.var(np.diff(vs[mask])))
    violations = 0
    comparisons = 0
    ordered = sorted(thetas)
    for ta, tb in zip(ordered[:-1], ordered[1:]):
        pa, pb = profiles[ta], profiles[tb]
        both = pa.certified & pb.certified & np.isfinite(pa.values[0]) & np.isfinite(pb.values[0])
        idx = np.nonzero(both)[0]
        for u, v in zip(idx[:-1], idx[1:]):
            comparisons += 1
            da = pa.values[0, v] - pa.values[0, u]
            db = pb.values[0, v] - pb.values[0, u]
            if db < da:
                violations += 1
    report["quadrangle"] = {"violations": violations, "comparisons": comparisons}
    if delta is not None:
        fracs = []
        for th in thetas:
            up = busemann_profile(model, th + delta, x_grid, horizons, "right", t0)
            same = up.values[0] == profiles[th].values[0]
            fracs.append(float(np.mean(same[np.isfinite(profiles[th].values[0])])))
        report["local_constancy_fraction"] = float(np.mean(fracs)) if fracs else 1.0
    if coal_schedule:
        anti = {}
        th = ordered[0]
        prof = profiles[th]
        for m in coal_schedule:
            times = prof.coal_times[0]
            anti[int(m)] = float(np.mean(np.nan_to_num(times, nan=np.inf) > m))
        report["anti_coalescence_fraction"] = anti
    return report


def excursions(xs: np.ndarray, vs: np.ndarray, step: float,
               min_len: int) -> List[np.ndarray]:
    """Runs of nonzero values between zeros of a profile.

    A run also ends where consecutive grid points are not ``step`` apart.
    Runs of ``min_len`` values or fewer are dropped.
    """
    breaks = np.flatnonzero(np.diff(xs) != step) + 1
    runs = []
    for i, k in _runs(vs != 0):
        cuts = breaks[(breaks > i) & (breaks <= k)] - i
        runs += [r for r in np.split(vs[i:k + 1], cuts) if r.size > min_len]
    return runs


def reflected_walk_diag(profile: BusemannGapProfile,
                        scales: Optional[Sequence[float]] = None) -> dict:
    """Reflected-walk diagnostics of a certified gap profile: zero-set
    box dimension, increment variance regression away from zeros, and
    the sign check."""
    xs, vs = profile.certified_series()
    out: dict = {"certified_points": int(xs.size)}
    if xs.size < MIN_CERTIFIED:
        out["warning"] = f"only {xs.size} certified points (< {MIN_CERTIFIED})"
        return out
    out["nonnegative"] = bool(np.all(vs >= 0))
    unit = profile.frame.space_unit
    zeros = xs[vs == 0] / unit
    if zeros.size >= 2:
        if scales is None:
            span = float(xs.max() - xs.min()) / unit
            scales = [span / 2 ** k for k in range(2, 7)]
        est = gaplab.box_dimension(zeros, scales)
        out["zero_dimension"] = est.estimate
        out["zero_dimension_r2"] = est.r2
        out["zero_count"] = int(zeros.size)
    else:
        out["zero_dimension"] = None
        out["warning"] = "zero set too small for a dimension estimate"
    step = float(np.min(np.diff(xs))) if xs.size > 1 else 1.0
    runs = excursions(xs, vs, step, max(WALK_LAGS) + 1)
    sx, sy = [], []
    for lag in WALK_LAGS:
        incs = np.concatenate([r[lag:] - r[:-lag] for r in runs if r.size > lag]) \
            if runs else np.array([])
        if incs.size >= 8:
            sx.append(float(lag))
            sy.append(float(np.var(incs / profile.frame.value_unit)))
    if len(sx) >= 3 and any(v > 0 for v in sy):
        slope, _, out["increment_r2"] = gaplab.linear_fit(sx, sy)
        out["increment_slope"] = slope
    else:
        out["increment_r2"] = None
    return out

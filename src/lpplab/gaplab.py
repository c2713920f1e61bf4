"""The disjointness-gap sheet and its analysis toolbox.

The gap G at an endpoint pair is 2 * (single path optimum) minus the
best interior-disjoint ordered pair; it is nonnegative, and zero exactly
when two interior-disjoint geodesics exist.  Sheets tabulate G over
endpoint anchor grids.  On integer-weight models every sheet entry is an
exact integer, so zeros are detected by equality, never by tolerance.

Sheet rows are amortized: one two-path DP pass (lattice) or one patience
sweep (cloud) per source anchor yields the whole row.
"""

from __future__ import annotations

import numbers
from math import isnan
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import lattice as _lattice
from . import cloud as _cloud
from .errors import DomainError, ParameterError
from .model import Factory, LatticeField, Model, PoissonCloud, ScalingFrame, record


def gap_value(model: Model, start, end):
    """2 * passage - disjoint pair value at doubled anchors; None if the
    disjoint problem is infeasible."""
    from . import engine  # loaded on first use, see lpplab.__init__
    two_l = 2 * engine.passage_value(model, start, end)
    l2 = engine.disjoint2_value(model, (start, start), (end, end))
    if l2 is None:
        return None
    return two_l - l2


def _lattice_row(model: LatticeField, a, cells, reads):
    """(L, L2) from source a to the cells of one chart time, an (n, 2)
    int64 array: passage values and doubled-anchor pair values (NaN where
    infeasible).  One forward table, to the cells, and one pair sweep, to
    the states next to them at the time before (reads, from
    ``doubled_reads``: the same for every row of a sheet), serve the row."""
    t = int(cells[0].sum()) - 1
    F = _lattice.forward_values(model, a, cells)
    S = _lattice.pair_forward(model, (a, a), t, reads=reads)
    return F[cells[:, 0], cells[:, 1]], _lattice.doubled_values(model, S, t, cells)


@record
class GapSheet:
    x_grid: np.ndarray        # source anchor positions (chart x / real x)
    y_grid: np.ndarray        # sink anchor positions
    values: np.ndarray        # G[x index, y index]; NaN where undefined
    frame: ScalingFrame
    times: Tuple[float, float]
    integer_valued: bool
    model_descriptor: dict = Factory(dict)

    def row(self, i: int) -> np.ndarray:
        return self.values[i]

    def col(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def to_csv(self) -> str:
        """One line x,y,G per entry; G is empty where NaN."""
        text = (lambda v: str(int(v))) if self.integer_valued else repr
        ys = [f",{y}," for y in self.y_grid]
        lines = ["x,y,G"]
        for x, row in zip(self.x_grid, self.values.tolist()):
            head = f"{x}"
            lines += [head + y + ("" if isnan(v) else text(v)) for y, v in zip(ys, row)]
        return "\n".join(lines) + "\n"

    def to_binary(self) -> Tuple[dict, bytes]:
        header = {
            "shape": list(self.values.shape),
            "dtype": "float64",
            "order": "C",
            "x_grid": self.x_grid.tolist(),
            "y_grid": self.y_grid.tolist(),
            "frame_n": self.frame.n,
            "times": list(self.times),
            "integer_valued": self.integer_valued,
            "model": self.model_descriptor,
        }
        return header, np.ascontiguousarray(self.values).tobytes()


def gap_sheet(model: Model, x_grid: Sequence, y_grid: Sequence,
              frame: ScalingFrame, times: Tuple[float, float]) -> GapSheet:
    """Tabulate G over the anchor grids, one row pass per source."""
    t0, t1 = times
    if not t1 > t0:
        raise ParameterError(f"need t0 < t1, got {times}")
    xs = np.asarray(x_grid, dtype=np.float64)
    ys = np.asarray(y_grid, dtype=np.float64)
    values = np.full((xs.size, ys.size), np.nan)
    if isinstance(model, LatticeField):
        cells = np.array([model.cell_at(y, t1) for y in ys], dtype=np.int64).reshape(-1, 2)
        reads = _lattice.doubled_reads(model, cells, -1)
        for i, x in enumerate(xs if len(cells) else ()):  # no sinks, no sweep
            L, L2 = _lattice_row(model, model.cell_at(x, t0), cells, reads)
            values[i] = 2.0 * L - L2
    elif isinstance(model, PoissonCloud):
        dt = t1 - t0
        for i, x in enumerate(xs):
            in_cone = np.abs(ys - x) <= dt
            L, L2 = _cloud.row_pass(model, (float(x), t0), ys[in_cone], t1)
            row = np.full(ys.size, np.nan)
            row[in_cone] = 2.0 * L - L2
            values[i] = row
    else:
        raise ParameterError(f"unsupported model {type(model).__name__}")
    integer = model.integer_valued if isinstance(model, LatticeField) else True
    return GapSheet(xs, ys, values, frame, (float(t0), float(t1)), integer,
                    model.descriptor())


@record
class PlateauMinimum:
    """A maximal constant run recorded as a minimum of a slice.

    Interior records require both neighbors strictly larger ('strict'; on
    integer plateaus all interior local minima are strict by construction).
    Runs touching a slice boundary whose one neighbor is larger are
    one-sided records named after the boundary side ('left_sided' /
    'right_sided'); a constant slice is a single 'weak' record.
    """

    start: int
    stop: int          # inclusive
    value: float
    kind: str
    at_boundary: bool

    def contains(self, index: int) -> bool:
        return self.start <= index <= self.stop


def slice_minima(slice_values: Sequence[float]) -> List[PlateauMinimum]:
    v = np.asarray(slice_values, dtype=np.float64)
    if v.size < 3:
        raise ParameterError("slices need at least 3 entries")
    out: List[PlateauMinimum] = []
    i = 0
    n = v.size
    while i < n:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        left = v[i - 1] if i > 0 else None
        right = v[j + 1] if j + 1 < n else None
        kind = None
        if left is None and right is None:
            kind = "weak"
        elif left is None:
            if right > v[i]:
                kind = "left_sided"
        elif right is None:
            if left > v[i]:
                kind = "right_sided"
        elif left > v[i] and right > v[i]:
            kind = "strict"
        if kind is not None:
            out.append(PlateauMinimum(i, j, float(v[i]), kind,
                                      at_boundary=(left is None or right is None)))
        i = j + 1
    return out


def one_sided_minimum(slice_values: Sequence[float], index: int, side: str) -> bool:
    """Epsilon-sense one-sided minimum at a grid index.

    'right' means the value of the run containing the index is strictly
    below the next run to the right (vacuously true at the boundary);
    'left' mirrors.  Strict minima qualify on both sides.
    """
    v = np.asarray(slice_values, dtype=np.float64)
    i = j = index
    while i - 1 >= 0 and v[i - 1] == v[index]:
        i -= 1
    while j + 1 < v.size and v[j + 1] == v[index]:
        j += 1
    if side == "right":
        return j + 1 >= v.size or v[j + 1] > v[index]
    if side == "left":
        return i - 1 < 0 or v[i - 1] > v[index]
    raise ParameterError(f"side must be 'left' or 'right', got {side!r}")


def minimum_at(minima: List[PlateauMinimum], index: int) -> bool:
    """Does index lie in a strict plateau minimum?"""
    return any(m.contains(index) and m.kind == "strict" for m in minima)


@record
class ZeroSet:
    indices: List[Tuple[int, int]]
    xs: np.ndarray
    ys: np.ndarray
    frame: ScalingFrame

    def __len__(self) -> int:
        return len(self.indices)

    def rescaled_points(self) -> np.ndarray:
        s = self.frame.space_unit
        return np.column_stack([self.xs / s, self.ys / s])


CONTINUOUS_ZERO_TOL = 1e-9


def zero_set(sheet: GapSheet) -> ZeroSet:
    """Zeros of the sheet.

    Integer-valued sheets threshold exactly at 0.  Continuous-weight
    sheets fall back to a 1e-9 tolerance and are excluded from zero-set
    acceptance statistics (a continuous gap has no exact zeros).
    """
    with np.errstate(invalid="ignore"):
        if sheet.integer_valued:
            ii, jj = np.nonzero(sheet.values == 0)
        else:
            ii, jj = np.nonzero(np.abs(sheet.values) <= CONTINUOUS_ZERO_TOL)
    idx = list(zip(ii.tolist(), jj.tolist()))
    return ZeroSet(idx, sheet.x_grid[ii], sheet.y_grid[jj], sheet.frame)


def quadrant_isolated(z: ZeroSet, anchor: Tuple[int, int], quadrant: str,
                      radii: Optional[Sequence[float]] = None) -> dict:
    """Isolation of an anchor zero inside an open quadrant.

    quadrant '-+' is x' < x, y' > y; '+-' the mirror.  Radii are in
    rescaled (n^(2/3)) units, by default three dyadic radii.  The
    returned dict maps radius -> isolated?, plus 'isolated' at the
    smallest radius.
    """
    if quadrant not in ("-+", "+-"):
        raise ParameterError(f"quadrant must be '-+' or '+-', got {quadrant!r}")
    if anchor not in z.indices:
        raise DomainError(f"anchor {anchor} is not a zero of the sheet")
    radii = [0.25, 0.5, 1.0] if radii is None else sorted(_positive("radius", radii))
    if not radii:
        raise ParameterError(f"radii must be nonempty, got {radii}")
    k = z.indices.index(anchor)
    s = z.frame.space_unit
    dx = (z.xs - z.xs[k]) / s
    dy = (z.ys - z.ys[k]) / s
    if quadrant == "-+":
        in_quad = (dx < 0) & (dy > 0)
    else:
        in_quad = (dx > 0) & (dy < 0)
    dist = np.maximum(np.abs(dx), np.abs(dy))
    report = {}
    for r in radii:
        report[r] = not bool(np.any(in_quad & (dist <= r)))
    report["isolated"] = report[radii[0]]
    return report


def _positive(name: str, values):
    """values, after checking that each is finite and > 0."""
    for v in values:
        if not 0 < v < np.inf:
            raise ParameterError(f"{name} must be finite and > 0, got {v}")
    return values


@record
class BoxDimension:
    estimate: float
    r2: float
    scales: List[float]
    counts: List[int]
    warning: Optional[str] = None


def linear_fit(x, y) -> Tuple[float, float, float]:
    """Least squares line through (x, y): (slope, intercept, R^2), R^2 = 1 for constant y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def box_counts(points, scales: Sequence[float]) -> List[int]:
    """Occupied boxes of side eps, for each eps in scales.  Points are rows;
    a 1-d array holds 1-d points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return [int(np.unique(np.floor(pts / eps), axis=0).shape[0]) for eps in scales]


def box_dimension(points, scales: Sequence[float]) -> BoxDimension:
    """Least squares slope of log(occupied boxes) against log(1/scale)."""
    if np.size(points) == 0:
        raise ParameterError("box_dimension needs a nonempty point set")
    if not np.isfinite(np.asarray(points, dtype=np.float64)).all():
        raise ParameterError("box_dimension needs finite points")
    if len(scales) < 2 or len(set(scales)) < len(scales):
        raise ParameterError(f"box_dimension needs at least 2 distinct scales, got {list(scales)}")
    counts = box_counts(points, _positive("scale", scales))
    if all(c == 1 for c in counts):
        return BoxDimension(0.0, 1.0, list(scales), counts,
                            warning="all points share one box at every scale")
    slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(scales, dtype=np.float64)),
                              np.log(np.asarray(counts, dtype=np.float64)))
    return BoxDimension(slope, r2, list(scales), counts)


@record
class MinFormulaResult:
    residual: float
    pair_value: float
    l_y: float
    l_z: float
    min_gap: float
    argmin_w: float


def min_formula_residual(model: Model, x, y, z,
                         times: Tuple[float, float]) -> Optional[MinFormulaResult]:
    """Residual of the two-endpoint pair identity.

    Compares the disjoint pair value to x -> (y, z) against
    L(x,y) + L(x,z) - min_w G(x,w) with w on the anchor grid between y
    and z.  The identity is a continuum statement; here the residual is
    measured, not assumed zero.
    """
    t0, t1 = times
    if y > z:
        raise ParameterError("need y <= z")
    if isinstance(model, LatticeField):
        grid, cells, L, L2, S2 = _lattice_min_formula(model, x, (y, z), times)
        if not np.all(np.isfinite(L2)) or (y != z and S2 is None):
            return None
        pair = L2[0] if y == z else S2[cells[0][1], cells[-1][1]]
        if not _lattice.is_reachable(pair):
            return None
    else:  # cloud model: exhaustive pair via flow at small scale
        start = (float(x), float(t0))
        ey, ez = (float(y), float(t1)), (float(z), float(t1))
        grid = np.linspace(float(y), float(z), 33)
        L, L2 = _cloud.row_pass(model, start, grid, float(t1))
        pair = L2[0]
        if y != z:
            from . import engine  # loaded on first use, see lpplab.__init__
            pair = engine.disjoint2_value(model, (start, start), (ey, ez))
            if pair is None:
                return None
    grow = 2.0 * L - L2
    kmin = int(np.argmin(grow))
    resid = float(pair - (L[0] + L[-1] - grow[kmin]))
    return MinFormulaResult(resid, float(pair), float(L[0]), float(L[-1]),
                            float(grow[kmin]), float(grid[kmin]))


def _lattice_min_formula(model: LatticeField, x, ys: Sequence[int],
                         times: Tuple[float, float]):
    """(ws, cells, L, L2, S2) on the parity grid ws from ys[0] to ys[-1] at
    t1: the gap row from source x, and the pair states at t1 between the
    first and the last cell (None if no such pair is feasible).  S2 comes
    from a second pair sweep from x, to t1, windowed to those states; the
    row's own sweep stops at t1 - 1, where the doubled ends are read.
    x, every y and both times go to ``cell_at`` as given, so a
    non-integral one is refused, not truncated."""
    a = model.cell_at(x, times[0])
    ends = [model.cell_at(y, times[1]) for y in ys]
    (i0, j0), (i1, j1) = ends[0], ends[-1]
    t1 = i0 + j0
    ws = list(range(j0 - i0, j1 - i1 + 1, 2))
    cells = np.array([model.cell_at(w, t1) for w in ws], dtype=np.int64)
    L, L2 = _lattice_row(model, a, cells, _lattice.doubled_reads(model, cells, -1))
    span = [(cells[0, 1], cells[-1, 1])] if len(cells) > 1 else []
    return ws, cells, L, L2, _lattice.pair_forward(model, (a, a), t1, reads=span)


def min_formula_residuals_batch(model: LatticeField, x: int, ys: Sequence[int],
                                times: Tuple[float, float]) -> dict:
    """Residuals for every endpoint pair from one source, in one sweep.

    ys are chart positions on the end line; the minimum of G runs over
    the full parity grid between each pair.  Returns {(y, z): residual},
    empty for fewer than two ys (no pair).
    """
    ys = sorted(ys)
    if len(ys) < 2:
        return {}
    full, cells, L, L2, S2 = _lattice_min_formula(model, x, ys, times)
    if S2 is None:
        return {}
    G = 2.0 * L - L2
    pos = {w: k for k, w in enumerate(full)}
    out = {}
    for ky, y in enumerate(ys):
        for z in ys[ky + 1:]:
            jy, jz = cells[pos[y]][1], cells[pos[z]][1]
            pair = S2[jy, jz]
            seg = G[pos[y]:pos[z] + 1]
            if not _lattice.is_reachable(pair) or not np.all(np.isfinite(seg)):
                continue
            out[(y, z)] = float(pair - (L[pos[y]] + L[pos[z]] - np.min(seg)))
    return out


@record
class RegressionReport:
    slope: float
    intercept: float
    r2: float
    lags: List[float]
    variances: List[float]
    degenerate: bool = False


def brownianity(slice_values: Sequence[float], spacing: float,
                frame: ScalingFrame, lags: Optional[Sequence[int]] = None) -> RegressionReport:
    """Variance of rescaled slice increments against lag.

    A locally Brownian slice gives variance linear in the lag; the
    report carries the fitted slope (diffusivity per rescaled spatial
    unit) and R^2 over one decade of lags.  spacing must be finite and > 0.
    """
    _positive("spacing", [spacing])
    v = np.asarray(slice_values, dtype=np.float64)
    v = v[np.isfinite(v)]
    if v.size < 64:
        raise ParameterError("brownianity needs at least 64 usable entries")
    lags = list(range(1, 11)) if lags is None else sorted(lags)
    if len(set(lags)) < len(lags) or not all(
            isinstance(k, numbers.Integral) and not isinstance(k, bool) and 1 <= k < v.size
            for k in lags):
        raise ParameterError(f"lags must be distinct integers in [1, {v.size}), got {lags}")
    scaled = v / frame.value_unit
    dx = spacing / frame.space_unit
    xs, ys = [], []
    for lag in lags:
        inc = scaled[lag:] - scaled[:-lag]
        xs.append(lag * dx)
        ys.append(float(np.var(inc)))
    if all(y == 0.0 for y in ys):
        return RegressionReport(0.0, 0.0, 1.0, xs, ys, degenerate=True)
    return RegressionReport(*linear_fit(xs, ys), xs, ys)


def bowtie_stat(z: ZeroSet, eps_list: Sequence[float]) -> dict:
    """Frequency of coordinatewise-comparable zero pairs within rescaled
    distance eps.  The continuum excludes such pairs locally; the decay
    of this statistic with n is reported, never asserted."""
    pts = z.rescaled_points()
    n = pts.shape[0]
    out = {}
    for eps in eps_list:
        hits = 0
        pairs = 0
        for a in range(n):
            d = pts - pts[a]
            near = (np.max(np.abs(d), axis=1) <= eps)
            comparable = ((d[:, 0] > 0) & (d[:, 1] > 0)) | ((d[:, 0] < 0) & (d[:, 1] < 0))
            hits += int(np.sum(near & comparable))
            pairs += int(np.sum(near)) - 1
        out[eps] = hits / pairs if pairs > 0 else 0.0
    return out


def decreasing_decomposition(model: Model, sheet: GapSheet,
                             max_zeros: int = 400) -> dict:
    """Group sheet zeros by the midpoints of their extremal geodesics and
    count order violations within groups.

    In the continuum, zeros sharing both geodesic midpoints lie on the
    graph of a strictly decreasing function; the violation count
    measures how well the discrete sheet reproduces that.
    """
    from . import engine  # loaded on first use, see lpplab.__init__
    z = zero_set(sheet)
    t0, t1 = sheet.times
    mid = 0.5 * (t0 + t1)
    items = z.indices[:max_zeros]
    groups: dict = {}
    for (i, j) in items:
        x, y = sheet.x_grid[i], sheet.y_grid[j]
        if isinstance(model, LatticeField):
            a = model.cell_at(x, t0)
            b = model.cell_at(y, t1)
        else:
            a, b = (float(x), t0), (float(y), t1)
        gl = engine.geodesic(model, a, b, "left")
        gr = engine.geodesic(model, a, b, "right")
        key = (gl.position(mid), gr.position(mid))
        groups.setdefault(key, []).append((float(x), float(y)))
    violations = 0
    comparisons = 0
    for key, pts in groups.items():
        pts.sort()
        for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
            comparisons += 1
            if x2 > x1 and y2 >= y1:
                violations += 1
            elif x2 == x1 and y2 != y1:
                violations += 1
    return {"zeros": len(items), "groups": len(groups),
            "comparisons": comparisons, "violations": violations}

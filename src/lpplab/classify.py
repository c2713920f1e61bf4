"""Geodesic network classification, geometrically and via the gap sheet.

The geometric route inspects where the leftmost and rightmost geodesics
separate.  With D the set of interior times where they differ:
empty -> I; a terminal interval -> IIa; an initial interval -> IIb;
initial and terminal pieces around a shared middle -> III; the whole
interior -> IV, Va or Vb depending on optimal crossing bridges; any
other pattern -> other.  The zero split is exact: the extremal geodesics
are disjoint on the whole interior exactly when the gap vanishes.

A left-to-right bridge is a geodesic through a node of the leftmost
geodesic off the rightmost and, later, a node of the rightmost off the
leftmost (right-to-left: the reverse).  On a cloud it is a path of
optimal steps (``cloud.OptimalSteps.bridge``) from the one to the other.
No bridge -> IV, only left-to-right -> Va, only right-to-left -> Vb.

Integer weights produce microscopic excursions (two equal-weight routes
around one cell) that would push every instance to "other" under the
literal reading, so the I-III shape analysis runs at a configurable
spatial resolution: separations of at most ``threshold`` are treated
as coincidence (in spatial units for ``classify_geometric``, in units of
the frame, one correlation length n^(2/3), for ``agreement_matrix``).
threshold=0 recovers the literal reading used for small exact tests.
The zero split never uses the threshold, which must be finite and >= 0.

The gap route implements the sheet dictionary: row/column plateau minima
for the nonzero types, open-quadrant isolation of sheet zeros for the
zero types.  Window minima have one implementation, ``_window_minima``,
run on a whole sheet or on one point's row and column.

``agreement_matrix`` runs both routes over an anchor grid in one pass
per sink: one backward table per sink, and per pair its left and right
walks, one ``lattice.geodesic_cells_from_B`` call each, because the
benchmark's tracer counts walks by that call.  The separation is the
difference of the two walks' column arrays.  The nonzero verdicts of
the whole sheet come from two window-minimum arrays; a pair is walked
only when the sheet gives it a verdict, and a source's forward table is
built only for the bridges of a recorded pair with disjoint extremal
walks.  The run finder it shares with ``engine`` and
``busemann`` lives in ``model``, so a lattice classify run imports
neither ``engine`` nor ``flow``.
"""

from __future__ import annotations

import math
import numbers
from functools import cache, partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cloud as _cloud
from . import gaplab
from . import lattice as _lattice
from .errors import DomainError, ParameterError
from .model import Factory, LatticeField, Model, ScalingFrame, _runs, record

TAGS = ("I", "IIa", "IIb", "III", "IV", "Va", "Vb", "other")
# the nonzero-gap types, indexed by row minimum + 2 * column minimum
SHAPES = TAGS[:4]
# fractions of the time span: a separated stretch within MARGIN of an end
# touches it, and stretches at most MERGE_GAP apart are one stretch
MARGIN = 0.15
MERGE_GAP = 0.10


def crossing_tag(a: bool, b: bool, suffix: str = "") -> str:
    """Crossing type of a zero gap from two flags (the crossing bridges, or
    the one-sided isolations of the zero): (False, False) -> IV, (True,
    False) -> Va, (False, True) -> Vb, each + suffix; both -> other."""
    tag = {(False, False): "IV", (True, False): "Va", (False, True): "Vb"}.get((a, b))
    return "other" if tag is None else tag + suffix


def check_resolution(threshold=0.0, coarse=1, window=1) -> None:
    """ParameterError naming the value unless threshold is a finite number
    >= 0 and coarse (``exceptional_scan``) and window are integers >= 1."""
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) \
            or not 0 <= threshold < math.inf:
        raise ParameterError(f"threshold must be a finite number >= 0, got {threshold!r}")
    for name, k in (("coarse", coarse), ("window", window)):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {k!r}")


@record
class GeometricClassification:
    tag: str
    gap_is_zero: bool
    separation: np.ndarray      # rightmost minus leftmost position per time
    bridges: Tuple[bool, bool]  # (left-to-right, right-to-left)
    components: List[Tuple[int, int]]


def classify_geometric(model: Model, start, end,
                       threshold: float = 1.0) -> GeometricClassification:
    """Classify the network shape of an endpoint pair.

    threshold is in unscaled spatial units.  MARGIN and MERGE_GAP decide
    whether a separated stretch touches an endpoint and merge stretches
    split by microscopic coincidences.
    """
    check_resolution(threshold)
    if not isinstance(model, LatticeField):
        return _classify_cloud(model, start, end, threshold)
    F, B, _ = _lattice.endpoint_tables(model, start, end)
    return _classify_lattice(model, start, end, B, lambda: F, threshold, None)


def _classify_cloud(model, start, end, threshold):
    from . import engine  # loaded on first use, see lpplab.__init__
    steps = _cloud.OptimalSteps(model, start, end)
    lw, rw = steps.walk("left"), steps.walk("right")
    left = engine._cloud_chain(model, start, end, steps.idx[lw])
    right = engine._cloud_chain(model, start, end, steps.idx[rw])
    t0, t1 = float(start[1]), float(end[1])
    grid = np.linspace(t0, t1, 257)
    sep = right.position(grid) - left.position(grid)
    # the gap vanishes exactly when the extremal chains share no cloud point;
    # the sampled separation serves only the I-III shape reading
    zero = not set(lw) & set(rw)
    return _classify_separation(sep, zero, lw, rw, steps.bridge, threshold, None)


def _classify_separation(sep, zero, left, right, bridge,
                         threshold, frame) -> GeometricClassification:
    """Zero gap: crossing bridges ``bridge(from, to)`` decide IV / Va / Vb;
    otherwise the shape of the separation decides I-III."""
    if zero:
        lr, rl = bridge(left, right), bridge(right, left)
        tag, comps = crossing_tag(lr, rl), []
    else:
        lr = rl = False
        tag, comps = _shape_from_separation(sep, threshold, frame)
    return GeometricClassification(tag, zero, sep, (lr, rl), comps)


def _shape_from_separation(sep, threshold, frame):
    n = sep.size
    unit = frame.space_unit if frame is not None else 1.0
    cut = threshold * unit
    apart = sep > cut
    apart[0] = apart[-1] = False
    if not apart.any():  # most pairs: no run to find
        return "I", []
    merged = []
    gap_tol = max(1, int(MERGE_GAP * n))
    for c in _runs(apart):
        if merged and c[0] - merged[-1][1] <= gap_tol:
            merged[-1] = (merged[-1][0], c[1])
        else:
            merged.append(list(c))
    merged = [tuple(c) for c in merged]
    m = max(1, int(MARGIN * n))
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


@record
class GapClassification:
    tag: str
    gap: Optional[float]
    row_min: Optional[bool] = None
    col_min: Optional[bool] = None
    isolated: Optional[Tuple[bool, bool]] = None


def _window_minima(values: np.ndarray, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Window minima of a whole sheet: (rows, cols), where rows[i, j]
    says whether values[i, j] is the minimum of row i's entries at most
    ``window`` columns away, and cols[i, j] the same down column j, with
    non-finite entries read as +inf.  A finite entry is a minimum when
    it equals the smallest finite entry within the window."""
    check_resolution(window=window)

    def along_rows(u):
        low = u.copy()  # the minimum over the window, grown one offset at a time
        for d in range(1, min(window, u.shape[1] - 1) + 1):  # wider sees the whole row
            np.minimum(low[:, d:], u[:, :-d], out=low[:, d:])
            np.minimum(low[:, :-d], u[:, d:], out=low[:, :-d])
        return u == low

    v = np.where(np.isfinite(values), values, np.inf)
    return along_rows(v), along_rows(v.T).T


def classify_gap(sheet: gaplab.GapSheet, i: int, j: int,
                 radii: Optional[Sequence[float]] = None,
                 zeros: Optional[gaplab.ZeroSet] = None,
                 window: Optional[int] = None) -> GapClassification:
    """Sheet-dictionary classification of grid point (i, j).

    Nonzero gap: minima of the row and column slices through the point
    decide I / IIa / IIb / III.  With window=None the literal reading is
    used (a strict plateau minimum at the point); a positive window
    instead asks whether the point achieves the minimum of its window,
    the scale-matched surrogate used when comparing against geometric
    classification at a separation threshold.  Zero gap: open-quadrant
    isolation of the zero decides IV / Va / Vb.  Grid-boundary points
    are 'other' (one-sided data cannot witness two-sided minima).  A
    finite negative gap, anywhere on the sheet, raises DomainError
    naming the point and the value.
    """
    if window is not None:
        check_resolution(window=window)
    nx, ny = sheet.values.shape
    g = sheet.values[i, j]
    if -math.inf < g < 0:
        raise DomainError(f"gap at ({i}, {j}) is negative: {float(g)!r}")
    if i in (0, nx - 1) or j in (0, ny - 1):
        return GapClassification("other", None)
    if not np.isfinite(g):
        return GapClassification("other", None)
    if g > 0:
        if window is None:
            row_min = gaplab.minimum_at(gaplab.slice_minima(sheet.row(i)), j)
            col_min = gaplab.minimum_at(gaplab.slice_minima(sheet.col(j)), i)
        else:  # the point's row and column, as agreement_matrix reads whole sheets
            row_min = bool(_window_minima(sheet.values[i:i + 1], window)[0][0, j])
            col_min = bool(_window_minima(sheet.values[:, j:j + 1], window)[1][i, 0])
        tag = SHAPES[bool(row_min) + 2 * bool(col_min)]
        return GapClassification(tag, float(g), row_min, col_min)
    z = zeros if zeros is not None else gaplab.zero_set(sheet)
    iso_mp = gaplab.quadrant_isolated(z, (i, j), "-+", radii)["isolated"]
    iso_pm = gaplab.quadrant_isolated(z, (i, j), "+-", radii)["isolated"]
    return GapClassification(crossing_tag(iso_mp, iso_pm), 0.0, isolated=(iso_mp, iso_pm))


@record
class AgreementMatrix:
    counts: np.ndarray = Factory(lambda: np.zeros((len(TAGS), len(TAGS)), dtype=np.int64))
    samples: int = 0
    zero_split_disagreements: int = 0
    double_bridges: int = 0
    meta: dict = Factory(dict)
    records: List[Tuple] = Factory(list)

    def merge(self, other: "AgreementMatrix") -> None:
        """Add another matrix's tallies and records; ``meta`` stays as it is."""
        self.counts += other.counts
        self.samples += other.samples
        self.zero_split_disagreements += other.zero_split_disagreements
        self.double_bridges += other.double_bridges
        self.records.extend(other.records)

    def record(self, geo_tag: str, gap_tag: str, geo_zero: bool, gap_zero: bool) -> None:
        self.counts[TAGS.index(geo_tag), TAGS.index(gap_tag)] += 1
        self.samples += 1
        if geo_zero != gap_zero:
            self.zero_split_disagreements += 1

    def records_csv(self) -> str:
        lines = ["x,y,G,geometric,gap"]
        for x, y, g, geo, gap in self.records:
            lines.append(f"{x},{y},{'' if g is None else int(g)},{geo},{gap}")
        return "\n".join(lines) + "\n"

    def zero_split_agreement(self) -> float:
        return 1.0 - self.zero_split_disagreements / self.samples if self.samples else 1.0

    def subpopulation_agreement(self) -> Tuple[float, int]:
        """Agreement rate and sample count among geometric I, IIa, IIb, III."""
        idx = [TAGS.index(t) for t in SHAPES]
        total = int(self.counts[idx, :].sum())
        agree = int(sum(self.counts[k, k] for k in idx))
        return (agree / total if total else float("nan")), total

    def to_csv(self) -> str:
        lines = ["geometric\\gap," + ",".join(TAGS)]
        for k, tag in enumerate(TAGS):
            lines.append(tag + "," + ",".join(str(int(v)) for v in self.counts[k]))
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {"tags": list(TAGS), "counts": self.counts.tolist(),
                "samples": self.samples,
                "zero_split_disagreements": self.zero_split_disagreements,
                "double_bridges": self.double_bridges, "meta": self.meta}


def agreement_matrix(model: LatticeField, x_grid: Sequence[int],
                     y_grid: Sequence[int], times: Tuple[int, int],
                     frame: ScalingFrame, threshold: float = 1.0) -> AgreementMatrix:
    """Run both classifiers over an anchor grid and tally agreement.

    One pass per sink.  Each sink has one backward table, and each source
    that reaches it has its left and right walks, one
    ``lattice.geodesic_cells_from_B`` call each: the benchmark's tracer
    counts walks by those calls, so batching them waits for a benchmark
    that counts walks another way.  Around the walks nothing runs per
    pair that a whole sheet or a whole source can do once.  One sheet
    build serves every gap verdict: a nonzero gap reads the row and
    column window minima from two arrays computed once per sheet, and
    every other entry goes through ``classify_gap``.  A pair is walked
    only once it has a dictionary verdict: a boundary pair or a
    non-finite gap has none and is neither walked nor recorded.  A
    source's forward table is built only when one of its recorded pairs
    has disjoint extremal walks, the case where the bridges decide.  A
    negative gap raises ``DomainError``.
    """
    check_resolution(threshold)
    t0, t1 = times
    sheet = gaplab.gap_sheet(model, x_grid, y_grid, frame, times)
    zeros = gaplab.zero_set(sheet)
    out = AgreementMatrix(meta={"n": frame.n, "threshold": threshold,
                                "times": list(times)})
    # match the dictionary's spatial scale to the geometric threshold
    spacing = float(x_grid[1] - x_grid[0]) if len(x_grid) > 1 else 1.0
    window = max(1, int(round(threshold * frame.space_unit / spacing)))
    row_min, col_min = _window_minima(sheet.values, window)
    kinds = (row_min + 2 * col_min).tolist()  # indices into SHAPES
    values = sheet.values.tolist()
    nx, ny = sheet.values.shape
    starts = [model.cell_at(x, t0) for x in x_grid]

    @cache
    def forward(i):
        return _lattice.forward_values(model, starts[i])

    for j, y in enumerate(y_grid):
        b = model.cell_at(y, t1)
        B = _lattice.backward_values(model, b)
        for i, x in enumerate(x_grid):
            a = starts[i]
            if not _lattice.is_reachable(B[a]):
                continue
            g = values[i][j]
            if 0 < g < math.inf and 0 < i < nx - 1 and 0 < j < ny - 1:
                gap_tag, gap_value = SHAPES[kinds[i][j]], g
            else:  # zero, undefined or on the boundary
                gap = classify_gap(sheet, i, j, zeros=zeros, window=window)
                if gap.tag == "other" and gap.gap is None:
                    continue  # boundary or undefined: no verdict, no walks
                gap_tag, gap_value = gap.tag, gap.gap
            geo = _classify_lattice(model, a, b, B, partial(forward, i), threshold, frame)
            out.record(geo.tag, gap_tag, geo.gap_is_zero, gap_value == 0.0)
            out.records.append((int(x), int(y), gap_value, geo.tag, gap_tag))
            if geo.bridges[0] and geo.bridges[1]:
                out.double_bridges += 1
    return out


def _classify_lattice(model, a, b, B, forward, threshold, frame):
    """classify_geometric of a -> b on B = backward_values(model, b);
    forward() gives forward_values(model, a), asked for only when the
    extremal walks are disjoint and the bridges decide."""
    cl = _lattice.geodesic_cells_from_B(model, B, a, b, "left")
    cr = _lattice.geodesic_cells_from_B(model, B, a, b, "right")
    sep = 2.0 * (cr[:, 1] - cl[:, 1])
    zero = bool(np.all(sep[1:-1] > 0)) if sep.size > 2 else False

    def bridge(p, q):
        F = forward()
        return _lattice.bridge_exists(model, p, q, F, B, F[b])

    return _classify_separation(sep, zero, cl, cr, bridge, threshold, frame)


@record
class RightMinIdentity:
    holds: bool
    residual: float


def right_min_identity(model: LatticeField, x: int, y: int, eps: int,
                       times: Tuple[int, int]) -> RightMinIdentity:
    """Residual of the local pair identity at a right perturbation.

    Compares the pair value gain L(x^2 -> (y, y+eps)) - L(x^2 -> y^2)
    against the single gain L(x -> y+eps) - L(x -> y); the two agree
    exactly at one-sided minima of the gap slice in the continuum.
    """
    if eps < 0 or eps % 2 != 0:
        raise ParameterError("eps must be a nonnegative even chart offset")
    t0, t1 = times
    model.cell_at(x, t0)  # every anchor must lie on the grid, also at eps == 0
    by = model.cell_at(y, t1)
    bz = model.cell_at(y + eps, t1)
    if eps == 0:
        return RightMinIdentity(True, 0.0)
    # L and L2 run from y to y + eps; S2 holds the pair values at t1
    _, _, L, L2, S2 = gaplab._lattice_min_formula(model, x, (y, y + eps), times)
    pair_yz = _lattice.NEG if S2 is None else S2[by[1], bz[1]]
    if np.isnan(L2[0]) or not _lattice.is_reachable(pair_yz):
        raise DomainError("disjoint pair infeasible for the identity")
    residual = float((pair_yz - L2[0]) - (L[-1] - L[0]))
    return RightMinIdentity(residual == 0.0, residual)


@record
class OneSidedReport:
    coincides: bool
    from_time: Optional[int]
    span: int
    interval: int


def one_sided_diag(model: LatticeField, x: int, y: int,
                   times: Tuple[int, int]) -> OneSidedReport:
    """Does the right member of the rightmost 2-optimizer end on the
    rightmost geodesic, and from when?"""
    from . import engine  # loaded on first use, see lpplab.__init__
    t0, t1 = times
    a = model.cell_at(x, t0)
    b = model.cell_at(y, t1)
    pair = engine.optimizer2(model, (a, a), (b, b), side="right")
    if pair is None:
        raise DomainError("no disjoint pair at these anchors")
    geo = engine.geodesic(model, a, b, "right")
    span = len(geo.nodes)  # both chains hold one cell per chart time
    k = _lattice._merge_index(geo.nodes, pair.right.nodes)
    coincides = k < span - 1
    from_time = t0 + k if coincides else None
    return OneSidedReport(coincides, from_time, span - k, t1 - t0)

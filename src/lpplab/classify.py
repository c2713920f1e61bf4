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
The zero split never uses the threshold.

The gap route implements the sheet dictionary: row/column plateau minima
for the nonzero types, open-quadrant isolation of sheet zeros for the
zero types.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cloud as _cloud
from . import gaplab
from . import lattice as _lattice
from .errors import DomainError, ParameterError
from .model import LatticeField, Model, ScalingFrame

TAGS = ("I", "IIa", "IIb", "III", "IV", "Va", "Vb", "other")
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


@dataclass
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
    if not isinstance(model, LatticeField):
        return _classify_cloud(model, start, end, threshold)
    F = _lattice.forward_values(model, start)
    B = _lattice.backward_values(model, end)
    if not _lattice.is_reachable(F[end]):
        raise DomainError(f"endpoints {start}->{end} not connected")
    return _classify_lattice_cached(model, start, end, F, B, threshold, None)


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
    from . import engine  # loaded on first use, see lpplab.__init__
    n = sep.size
    unit = frame.space_unit if frame is not None else 1.0
    cut = threshold * unit
    apart = sep > cut
    apart[0] = apart[-1] = False
    merged = []
    gap_tol = max(1, int(MERGE_GAP * n))
    for c in engine._runs(apart):
        if merged and c[0] - merged[-1][1] <= gap_tol:
            merged[-1] = (merged[-1][0], c[1])
        else:
            merged.append(list(c))
    merged = [tuple(c) for c in merged]
    if not merged:
        return "I", merged
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


@dataclass
class GapClassification:
    tag: str
    gap: Optional[float]
    row_min: Optional[bool] = None
    col_min: Optional[bool] = None
    isolated: Optional[Tuple[bool, bool]] = None


def _window_minimum(slice_values: np.ndarray, j: int, window: int) -> bool:
    lo = max(0, j - window)
    seg = slice_values[lo:j + window + 1]
    seg = seg[np.isfinite(seg)]
    return seg.size > 0 and slice_values[j] == seg.min()


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
    are 'other' (one-sided data cannot witness two-sided minima).
    """
    nx, ny = sheet.values.shape
    if i in (0, nx - 1) or j in (0, ny - 1):
        return GapClassification("other", None)
    g = sheet.values[i, j]
    if not np.isfinite(g):
        return GapClassification("other", None)
    if g > 0:
        row = sheet.row(i)
        col = sheet.col(j)
        if window is None:
            row_min = gaplab.minimum_at(gaplab.slice_minima(row), j)
            col_min = gaplab.minimum_at(gaplab.slice_minima(col), i)
        else:
            row_min = _window_minimum(row, j, window)
            col_min = _window_minimum(col, i, window)
        tag = ("I", "IIa", "IIb", "III")[bool(row_min) + 2 * bool(col_min)]
        return GapClassification(tag, float(g), row_min, col_min)
    z = zeros if zeros is not None else gaplab.zero_set(sheet)
    iso_mp = gaplab.quadrant_isolated(z, (i, j), "-+", radii)["isolated"]
    iso_pm = gaplab.quadrant_isolated(z, (i, j), "+-", radii)["isolated"]
    return GapClassification(crossing_tag(iso_mp, iso_pm), 0.0, isolated=(iso_mp, iso_pm))


@dataclass
class AgreementMatrix:
    counts: np.ndarray = dataclass_field(
        default_factory=lambda: np.zeros((len(TAGS), len(TAGS)), dtype=np.int64))
    samples: int = 0
    zero_split_disagreements: int = 0
    double_bridges: int = 0
    meta: dict = dataclass_field(default_factory=dict)
    records: List[Tuple] = dataclass_field(default_factory=list)

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
        idx = [TAGS.index(t) for t in ("I", "IIa", "IIb", "III")]
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

    One sheet build amortizes every gap classification; geometric
    classifications share one backward table per sink.
    """
    t0, t1 = times
    sheet = gaplab.gap_sheet(model, x_grid, y_grid, frame, times)
    zeros = gaplab.zero_set(sheet)
    out = AgreementMatrix(meta={"n": frame.n, "threshold": threshold,
                                "times": list(times)})
    # match the dictionary's spatial scale to the geometric threshold
    spacing = float(x_grid[1] - x_grid[0]) if len(x_grid) > 1 else 1.0
    window = max(1, int(round(threshold * frame.space_unit / spacing)))
    starts = [model.cell_at(int(x), t0) for x in x_grid]
    fwd = {}
    for j, y in enumerate(y_grid):
        b = model.cell_at(int(y), t1)
        B = _lattice.backward_values(model, b)
        for i, x in enumerate(x_grid):
            a = starts[i]
            if not _lattice.is_reachable(B[a]):
                continue
            if i not in fwd:
                fwd[i] = _lattice.forward_values(model, a)
            geo = _classify_lattice_cached(model, a, b, fwd[i], B, threshold, frame)
            gap = classify_gap(sheet, i, j, zeros=zeros, window=window)
            if gap.tag == "other" and gap.gap is None:
                continue  # boundary or undefined: no dictionary verdict
            gap_zero = gap.gap == 0.0
            out.record(geo.tag, gap.tag, geo.gap_is_zero, gap_zero)
            out.records.append((int(x), int(y), gap.gap, geo.tag, gap.tag))
            if geo.bridges[0] and geo.bridges[1]:
                out.double_bridges += 1
    return out


def _classify_lattice_cached(model, a, b, F, B, threshold, frame):
    total = F[b]
    cl = _lattice.geodesic_cells_from_B(model, B, a, b, "left")
    cr = _lattice.geodesic_cells_from_B(model, B, a, b, "right")
    sep = 2.0 * (np.array([j for _, j in cr]) - np.array([j for _, j in cl]))
    zero = bool(np.all(sep[1:-1] > 0)) if sep.size > 2 else False
    return _classify_separation(
        sep, zero, cl, cr, lambda p, q: _lattice.bridge_exists(model, p, q, F, B, total),
        threshold, frame)


@dataclass
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
    model.cell_at(int(x), int(t0))  # every anchor must lie on the grid, also at eps == 0
    by = model.cell_at(int(y), int(t1))
    bz = model.cell_at(int(y + eps), int(t1))
    if eps == 0:
        return RightMinIdentity(True, 0.0)
    # L and L2 run from y to y + eps; S2 holds the pair values at t1
    _, _, L, L2, S2 = gaplab._lattice_min_formula(model, x, (int(y), int(y + eps)), times)
    pair_yz = _lattice.NEG if S2 is None else S2[by[1], bz[1]]
    if np.isnan(L2[0]) or not _lattice.is_reachable(pair_yz):
        raise DomainError("disjoint pair infeasible for the identity")
    residual = float((pair_yz - L2[0]) - (L[-1] - L[0]))
    return RightMinIdentity(residual == 0.0, residual)


@dataclass
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
    a = model.cell_at(int(x), int(t0))
    b = model.cell_at(int(y), int(t1))
    pair = engine.optimizer2(model, (a, a), (b, b), side="right")
    if pair is None:
        raise DomainError("no disjoint pair at these anchors")
    geo = engine.geodesic(model, a, b, "right")
    span = len(geo.nodes)  # both chains hold one cell per chart time
    k = _lattice._merge_index(geo.nodes, pair.right.nodes)
    coincides = k < span - 1
    from_time = t0 + k if coincides else None
    return OneSidedReport(coincides, from_time, span - k, t1 - t0)

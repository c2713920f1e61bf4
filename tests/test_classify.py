import itertools
import re

import numpy as np
import pytest

from lpplab import (Region, ScalingFrame, cloud_from_points, geodesic,
                    make_lattice_field, make_poisson_cloud)
from lpplab import classify, cli, cloud, gaplab, lattice, oracle
from lpplab.errors import DomainError, ParameterError
from lpplab.model import anchor_layout, environment_for, reflect


def field(mat):
    return make_lattice_field(0, len(mat), len(mat[0]), "explicit", weights=mat)


ONES = field([[1, 1], [1, 1]])

IIA = field([[9, 0, 0],
             [9, 9, 5],
             [0, 5, 9]])

III = field([[1, 7, 0, 0, 0],
             [7, 8, 0, 0, 0],
             [0, 9, 9, 0, 0],
             [0, 0, 9, 8, 6],
             [0, 0, 0, 6, 1]])

VA = field([[5, 5, 5, 5],
            [5, 5, 5, 5],
            [5, 0, 0, 5],
            [5, 5, 5, 5]])


def literal(model, start, end):
    return classify.classify_geometric(model, start, end, threshold=0.0)


def test_geometric_type_i_unique_geodesic():
    f = make_lattice_field(3, 5, 5, "exponential")
    res = literal(f, (0, 0), (4, 4))
    assert res.tag == "I"
    assert not res.gap_is_zero


def test_geometric_type_iv_all_ones():
    res = literal(ONES, (0, 0), (1, 1))
    assert res.tag == "IV"
    assert res.gap_is_zero
    assert res.bridges == (False, False)


def test_geometric_type_iia_terminal_split():
    res = literal(IIA, (0, 0), (2, 2))
    assert res.tag == "IIa"
    # oracle confirms the separation structure: exactly two optimal paths
    paths = oracle.enumerate_paths(IIA, (0, 0), (2, 2))
    best = [p for p, v in zip(paths.paths, paths.values) if v == paths.optimum]
    assert len(best) == 2


def test_geometric_type_iib_initial_split():
    rev = reflect(IIA)
    res = literal(rev, (0, 0), (2, 2))
    assert res.tag == "IIb"


def test_geometric_type_iii_double_bubble():
    res = literal(III, (0, 0), (4, 4))
    assert res.tag == "III"


def test_geometric_type_va_crossing_bridge():
    res = literal(VA, (0, 0), (3, 3))
    assert res.tag == "Va"
    assert res.bridges == (True, False)


def test_geometric_type_vb_mirror():
    f = field(VA.weights.T.tolist())
    res = literal(f, (0, 0), (3, 3))
    assert res.tag == "Vb"
    assert res.bridges == (False, True)


def test_zero_split_exact_against_gap_value():
    # hard implication: zero class iff G == 0, on random instances
    for seed in range(150):
        f = make_lattice_field(seed, 4, 4, "geometric", 0.5)
        res = literal(f, (0, 0), (3, 3))
        g = gaplab.gap_value(f, (0, 0), (3, 3))
        if g is None:
            assert not res.gap_is_zero
        else:
            assert res.gap_is_zero == (g == 0)
        if res.tag in ("IV", "Va", "Vb"):
            assert g == 0


def test_cloud_zero_split_exact_against_gap_value():
    # zero class iff G == 0 on clouds too: shared points are found, not sampled
    pairs = [((-1.0, 0.0), (1.0, 8.0)), ((0.0, 0.0), (0.0, 8.0)), ((1.0, 0.0), (-1.0, 8.0))]
    zeros = 0
    for seed in range(1000, 1200):
        cl = make_poisson_cloud(seed, 1.0, Region(-5, 5, 0, 8))
        for start, end in pairs:
            g = gaplab.gap_value(cl, start, end)
            assert classify.classify_geometric(cl, start, end).gap_is_zero == (g == 0)
            zeros += g == 0
    assert 0 < zeros < len(pairs) * 200
    # a shared point between two times of the separation grid
    cl = make_poisson_cloud(25, 2.0, Region(-6, 6, 0, 12))
    assert gaplab.gap_value(cl, (0.0, 0.0), (0.0, 12.0)) == 1
    assert not classify.classify_geometric(cl, (0.0, 0.0), (0.0, 12.0)).gap_is_zero
    # the empty diamond: two empty chains are disjoint, G = 0
    empty = cloud_from_points([])
    assert gaplab.gap_value(empty, (0.0, 0.0), (0.0, 1.0)) == 0
    assert classify.classify_geometric(empty, (0.0, 0.0), (0.0, 1.0)).gap_is_zero


def synthetic_sheet(values, frame_n=16.0):
    v = np.asarray(values, dtype=np.float64)
    xs = np.arange(v.shape[0], dtype=np.float64)
    ys = np.arange(v.shape[1], dtype=np.float64)
    return gaplab.GapSheet(xs, ys, v, ScalingFrame(frame_n), (0.0, 1.0), True)


def test_gap_dictionary_nonzero_types():
    base = np.array([
        [9, 9, 9, 9, 9],
        [9, 5, 4, 5, 9],
        [9, 4, 3, 6, 9],
        [9, 5, 6, 9, 9],
        [9, 9, 9, 9, 9],
    ], dtype=float)
    sheet = synthetic_sheet(base)
    # (2,2): row [9,4,3,6,9] strict min at j=2; col strict min at i=2 -> III
    assert classify.classify_gap(sheet, 2, 2).tag == "III"
    # (1,2): row [9,5,4,5,9] min at j=2; col [9,4,3,6,9] at i=1 not a min -> IIa
    assert classify.classify_gap(sheet, 1, 2).tag == "IIa"
    # (2,1): col min, row not -> IIb
    assert classify.classify_gap(sheet, 2, 1).tag == "IIb"
    # (3,3): neither -> I
    assert classify.classify_gap(sheet, 3, 3).tag == "I"
    # boundary -> other
    assert classify.classify_gap(sheet, 0, 2).tag == "other"


def test_a_point_off_the_sheet_names_itself():
    """Negative indices once wrapped around (a verdict for another point,
    or a zero-set error) and indices past the end raised IndexError."""
    v = np.array([[9, 9, 9, 9], [9, 5, 4, 9], [9, 0, 3, 9], [9, 9, 9, 9]], dtype=float)
    sheet = synthetic_sheet(v, frame_n=1.0)
    for i, j in ((1, -2), (-2, 1), (4, 1), (1, 4), (-1, -1)):
        for window in (None, 1):
            with pytest.raises(DomainError, match=rf"^point \({i}, {j}\) is off the 4x4 sheet$"):
                classify.classify_gap(sheet, i, j, window=window)
    assert classify.classify_gap(sheet, 1, 2).tag == "IIa"


@pytest.mark.parametrize("window", [0, -1, -3, 1.5, 2.0, True, "2", np.int64(0)],
                         ids=repr)
def test_window_must_be_an_integer_of_at_least_one(window):
    # a negative window once gave an empty segment: every point silently
    # read as "not a minimum"
    sheet = synthetic_sheet(np.arange(25.0).reshape(5, 5) + 1)
    with pytest.raises(ParameterError, match="window must be an integer >= 1"):
        classify.classify_gap(sheet, 2, 2, window=window)
    with pytest.raises(ParameterError, match="window must be an integer >= 1"):
        classify._window_minima(sheet.values, window)


def test_window_accepts_integers_of_at_least_one_and_none():
    base = np.array([[9, 9, 9, 9, 9], [9, 5, 4, 5, 9], [9, 4, 3, 6, 9],
                     [9, 5, 6, 9, 9], [9, 9, 9, 9, 9]], dtype=float)
    sheet = synthetic_sheet(base)
    for window in (None, 1, np.int64(2), 7):
        assert classify.classify_gap(sheet, 2, 2, window=window).tag == "III"
        if window is not None:
            rows, cols = classify._window_minima(base, window)
            assert rows[2, 2] and cols[2, 2]


def test_gap_dictionary_zero_types():
    v = np.full((7, 7), 9.0)
    # a cluster of zeros along an antidiagonal: the middle one is
    # non-isolated in both open quadrants -> IV
    v[2, 4] = v[3, 3] = v[4, 2] = 0.0
    sheet = synthetic_sheet(v, frame_n=1.0)
    radii = [2.0]
    assert classify.classify_gap(sheet, 3, 3, radii=radii).tag == "IV"
    # the top-left zero of the diagonal sees a zero only in its (+,-)
    # quadrant -> isolated in (-,+) -> Va
    assert classify.classify_gap(sheet, 2, 4, radii=radii).tag == "Va"
    assert classify.classify_gap(sheet, 4, 2, radii=radii).tag == "Vb"


def test_gap_dictionary_isolated_zero_is_other():
    v = np.full((5, 5), 3.0)
    v[2, 2] = 0.0
    sheet = synthetic_sheet(v, frame_n=1.0)
    assert classify.classify_gap(sheet, 2, 2, radii=[2.0]).tag == "other"


def grid_for(model, n, half, t0):
    t1 = t0 + n
    xs = [x for x in range(-half, half + 1, 2) if (x + t0) % 2 == 0]
    ys = [y for y in range(-half, half + 1, 2) if (y + t1) % 2 == 0]
    return xs, ys, (t0, t1)


@pytest.mark.parametrize("threshold", [-1.0, -1e-9, np.nan, np.inf, -np.inf, True, "1", None],
                         ids=repr)
def test_threshold_must_be_finite_and_at_least_zero(threshold):
    """Unchecked, a threshold of -1 read all 25 records of the n = 16
    classify layout as "other" and a IIb pair as "other", and NaN read the
    pair as "I" and failed the matrix with a bare ValueError."""
    want = f"^threshold must be a finite number >= 0, got {re.escape(repr(threshold))}$"
    with pytest.raises(ParameterError, match=want):
        classify.classify_geometric(reflect(IIA), (0, 0), (2, 2), threshold=threshold)
    n = 16
    a, t0 = anchor_layout(n, 2.0)
    xs, ys = cli._lattice_grids(n, 2.0, 10 ** 9, t0)
    f = environment_for(0, "geometric", t0, n, -a, a, 0.5)
    with pytest.raises(ParameterError, match=want):
        classify.agreement_matrix(f, xs, ys, (t0, t0 + n), ScalingFrame(float(n)), threshold)


def test_threshold_accepts_finite_numbers_of_at_least_zero():
    for threshold in (0, 0.0, np.int64(0), np.float64(0.0)):
        assert classify.classify_geometric(reflect(IIA), (0, 0), (2, 2), threshold).tag == "IIb"
    assert classify.classify_geometric(reflect(IIA), (0, 0), (2, 2), 10 ** 6).tag == "I"


def test_a_negative_gap_names_itself(monkeypatch):
    """A lattice sheet holds no negative gap.  One planted there is named
    with its point and value, by classify_gap (inside the sheet and on
    its boundary) and by agreement_matrix, instead of failing the zero
    branch's isolation check."""
    f = make_lattice_field(2, 40, 40, "geometric", 0.5)
    xs, ys, times = grid_for(f, 16, 8, t0=8)
    frame = ScalingFrame(16.0)
    build = gaplab.gap_sheet
    sheet = build(f, xs, ys, frame, times)
    assert (sheet.values[np.isfinite(sheet.values)] >= 0).all()
    for i, j in ((3, 2), (0, 2)):
        planted = build(f, xs, ys, frame, times)
        planted.values[i, j] = -1.0
        want = rf"^gap at \({i}, {j}\) is negative: -1\.0$"
        for window in (None, 1):
            with pytest.raises(DomainError, match=want):
                classify.classify_gap(planted, i, j, window=window)
        monkeypatch.setattr(gaplab, "gap_sheet", lambda *args: planted)
        with pytest.raises(DomainError, match=want):
            classify.agreement_matrix(f, xs, ys, times, frame)
    # -inf is not a finite gap: it still reads as no verdict
    sheet.values[3, 2] = -np.inf
    assert classify.classify_gap(sheet, 3, 2).tag == "other"


def test_agreement_matrix_zero_split_is_exact():
    n, half = 16, 8
    for seed in range(3):
        size = 40
        f = make_lattice_field(seed, size, size, "geometric", 0.5)
        xs, ys, times = grid_for(f, n, half, t0=half)
        mat = classify.agreement_matrix(f, xs, ys, times, ScalingFrame(float(n)))
        assert mat.samples > 0
        assert mat.zero_split_agreement() == 1.0


def test_agreement_matrix_unique_geodesics_diagonal_mass():
    f = make_lattice_field(5, 40, 40, "exponential")
    xs, ys, times = grid_for(f, 16, 8, t0=8)
    mat = classify.agreement_matrix(f, xs, ys, times, ScalingFrame(16.0))
    k = classify.TAGS.index("I")
    assert mat.counts[k, k] == mat.counts.max()
    assert mat.counts[k, k] > 0


def test_agreement_matrix_csv_row_sums():
    f = make_lattice_field(2, 40, 40, "geometric", 0.5)
    xs, ys, times = grid_for(f, 16, 8, t0=8)
    mat = classify.agreement_matrix(f, xs, ys, times, ScalingFrame(16.0))
    assert mat.counts.sum() == mat.samples
    csv = mat.to_csv()
    assert csv.count("\n") == len(classify.TAGS) + 1


def test_agreement_matrix_rejects_non_integral_anchors():
    # a grid value of 2.5 was once recorded and walked as x = 2
    f = make_lattice_field(2, 40, 40, "geometric", 0.5)
    xs, ys, times = grid_for(f, 16, 8, t0=8)
    for bad_xs, bad_ys in (([*xs[:-1], xs[-1] + 0.5], ys), (xs, [ys[0] + 0.5, *ys[1:]])):
        with pytest.raises(DomainError, match="is not integral"):
            classify.agreement_matrix(f, bad_xs, bad_ys, times, ScalingFrame(16.0))
    floats = classify.agreement_matrix(f, [float(x) for x in xs], [float(y) for y in ys],
                                       times, ScalingFrame(16.0))
    ints = classify.agreement_matrix(f, xs, ys, times, ScalingFrame(16.0))
    assert floats.records == ints.records and floats.records_csv() == ints.records_csv()


def test_lattice_diagnostics_reject_non_integral_anchors():
    f = make_lattice_field(1, 30, 30, "geometric", 0.5)
    for x, y in ((0.5, 0), (0, 1.5)):
        for call in (lambda: classify.right_min_identity(f, x, y, 2, times=(4, 20)),
                     lambda: classify.one_sided_diag(f, x, y, times=(4, 20))):
            with pytest.raises(DomainError, match="is not integral"):
                call()


def test_right_min_identity_zero_eps():
    f = make_lattice_field(1, 30, 30, "geometric", 0.5)
    res = classify.right_min_identity(f, 0, 0, 0, times=(4, 20))
    assert res.holds and res.residual == 0.0


def test_right_min_identity_matches_oracle():
    for seed in range(30):
        f = make_lattice_field(seed, 5, 5, "geometric", 0.5)
        start = (0, 0)
        by, bz = f.cell_at(0, 6), f.cell_at(2, 6)
        pair_yz = oracle.enumerate_disjoint_pairs(f, (start, start), (by, bz)).pair_optimum
        pair_yy = oracle.enumerate_disjoint_pairs(f, (start, start), (by, by)).pair_optimum
        if pair_yz is None or pair_yy is None:
            continue
        ly = oracle.enumerate_paths(f, start, by).optimum
        lz = oracle.enumerate_paths(f, start, bz).optimum
        want = (pair_yz - pair_yy) - (lz - ly)
        res = classify.right_min_identity(f, 0, 0, 2, times=(0, 6))
        assert res.residual == want
        assert res.holds == (want == 0)


def test_one_sided_diag_all_ones():
    rep = classify.one_sided_diag(ONES, 0, 0, times=(0, 2))
    assert rep.coincides
    assert rep.from_time == 0
    assert rep.span == 3


def test_one_sided_diag_terminal_interval_on_iia():
    # chart endpoints of the 3x3 terminal-split instance
    rep = classify.one_sided_diag(IIA, 0, 0, times=(0, 4))
    # after the split the right optimizer member rides the rightmost geodesic
    assert rep.coincides
    assert rep.span >= 2


def test_all_ones_environments_zero_class_mass():
    # all-equal weights at the minimal time span: every feasible pair
    # supports exactly two disjoint geodesics with no crossing bridge,
    # so the geometric mass sits at IV and the zero split is exact;
    # the sheet dictionary has no open-quadrant witnesses at this span
    # and returns no verdict (see the decisions ledger)
    f = make_lattice_field(0, 20, 20, "explicit",
                           weights=np.ones((20, 20)))
    t0 = 10
    tags = []
    for x in range(-8, 9, 2):
        a = f.cell_at(x, t0)
        b = f.cell_at(x, t0 + 2)
        res = literal(f, a, b)
        tags.append(res.tag)
        assert res.gap_is_zero
        assert gaplab.gap_value(f, a, b) == 0
    assert set(tags) == {"IV"}


def test_one_sided_diag_no_terminal_coincidence():
    # on the 2x2 step field the rightmost optimizer member and the
    # rightmost geodesic share only the endpoint cell
    f = field([[1, 2], [3, 4]])
    rep = classify.one_sided_diag(f, 0, 0, times=(0, 2))
    assert not rep.coincides
    assert rep.from_time is None


def tiny_clouds(count, seed):
    """Integer clouds of 4-10 distinct points inside the diamond from
    (0, 0) to (0, 8): ties everywhere, within the oracle's reach."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ts = rng.integers(1, 8, int(rng.integers(4, 11)))
        xs = [int(rng.integers(-min(t, 8 - t), min(t, 8 - t) + 1)) for t in ts]
        yield cloud_from_points(list(dict.fromkeys(zip(map(float, xs), map(float, ts)))))


def oracle_bridges(cl, start, end, left, right):
    """(left-to-right, right-to-left): does an enumerated optimal chain meet
    a point of one chain off the other, and later one of the other?"""
    chains = oracle.enumerate_paths(cl, start, end).optimal_paths

    def bridge(a, b):
        off_a, off_b = set(a) - set(b), set(b) - set(a)
        return any(p in off_a and q in off_b
                   for c in chains for k, p in enumerate(c) for q in c[k + 1:])
    return bridge(left, right), bridge(right, left)


def test_cloud_bridges_match_oracle_on_tiny_clouds():
    start, end = (0.0, 0.0), (0.0, 8.0)
    tags = []
    for cl in tiny_clouds(3000, 2):
        res = literal(cl, start, end)
        if not res.gap_is_zero:
            continue
        left = cloud.extremal_chain(cl, start, end, "left")
        right = cloud.extremal_chain(cl, start, end, "right")
        want = oracle_bridges(cl, start, end, left, right)
        assert res.bridges == want
        assert res.tag == classify.crossing_tag(*want)
        tags.append(res.tag)
    # 460 zero gaps: 70 IV, 115 Va, 106 Vb and 169 with bridges both ways
    assert len(tags) >= 400 and {"IV", "Va", "Vb", "other"} <= set(tags)


def test_optimal_steps_are_the_oracle_optimal_chains():
    start, end = (0.0, 0.0), (0.0, 8.0)
    for cl in tiny_clouds(400, 3):
        steps = cloud.OptimalSteps(cl, start, end)
        node = {steps.source: "start", steps.sink: "end",
                **{m: int(i) for m, i in enumerate(steps.idx)}}
        edges = {(node[a], node[b]) for a, outs in enumerate(steps.succ) for b in outs}
        chains = oracle.enumerate_paths(cl, start, end).optimal_paths
        assert set(steps.idx.tolist()) == {m for c in chains for m in c}
        assert edges == {step for c in chains
                         for step in zip(["start"] + c, c + ["end"])}


def tiny_lattices():
    """Integer lattices within the oracle's reach, full of ties."""
    rng = np.random.default_rng(4)
    for seed in range(8):
        yield make_lattice_field(seed, 5, 5, "geometric", 0.5)
        yield make_lattice_field(seed, 4, 5, "bernoulli", 0.5)
        yield field(rng.integers(0, 3, (5, 4)).tolist())


def oracle_lattice_bridge(f, optimal, frm, to):
    """Does an optimal path of the walks' start and to's end (``optimal``,
    enumerated) visit an interior cell of frm and later an interior cell
    of to that frm does not visit?  Walks and paths hold one cell per
    chart time from the start."""
    inner = range(1, len(to) - 1)
    for path in optimal:
        on_frm = [k for k in inner if path[k] == frm[k]]
        if on_frm and any(path[m] == to[m] != frm[m] for m in inner if m > on_frm[0]):
            return True
    return False


def test_lattice_bridges_match_oracle_on_tiny_lattices():
    """Every start and end, both directions between the left and right
    walks; and every start with two ends pl left of pr at one chart
    time, the leftmost walk to pl against the rightmost walk to pr and
    back, as ``busemann`` asks."""
    seen = set()
    for f in tiny_lattices():
        cells = [(i, j) for i in range(f.rows) for j in range(f.cols)]
        tables = {end: lattice.backward_values(f, end) for end in cells}
        for start in cells:
            ends = [e for e in cells if e[0] >= start[0] and e[1] >= start[1]]
            optimal, walks = {}, {}
            for end in ends:
                paths = oracle.lattice_paths(f, start, end)
                values = [sum(int(f.weights[c]) for c in path) for path in paths]
                optimal[end] = [p for p, v in zip(paths, values) if v == max(values)]
                for side in ("left", "right"):
                    walks[end, side] = [tuple(c) for c in lattice.geodesic_cells_from_B(
                        f, tables[end], start, end, side).tolist()]
            for pl, pr in itertools.product(ends, repeat=2):
                if pl[0] + pl[1] != pr[0] + pr[1] or pl[1] > pr[1]:
                    continue
                cl, cr = walks[pl, "left"], walks[pr, "right"]
                for frm, to, end in ((cl, cr, pr), (cr, cl, pl)):
                    want = oracle_lattice_bridge(f, optimal[end], frm, to)
                    assert lattice.bridge_exists(f, frm, to, tables[end]) is want
                    seen.add((pl == pr, not set(frm[1:-1]) & set(to[1:-1]), want))
                if pl == pr:  # each walk with itself: nothing off the walk
                    for w in (cl, cr):
                        assert lattice.bridge_exists(f, w, w, tables[pl]) is False
    # bridges and none, at one end and at two, between disjoint walks and not
    assert len(seen) == 8


VA_CLOUD = cloud_from_points([(-1.0, 1.0), (-2.0, 2.0), (1.0, 1.0), (1.0, 3.0)])


def test_cloud_type_va_crossing_bridge():
    # leftmost (-1,1),(-2,2) and rightmost (1,1),(1,3) share no point, and
    # (-1,1),(1,3) is an optimal chain from the left one to the right one
    res = literal(VA_CLOUD, (0.0, 0.0), (0.0, 8.0))
    assert res.gap_is_zero
    assert res.bridges == (True, False)
    assert res.tag == "Va"


def test_cloud_type_vb_mirror():
    mirror = cloud_from_points([(-x, t) for x, t in zip(VA_CLOUD.xs, VA_CLOUD.ts)])
    start, end = (0.0, 0.0), (0.0, 8.0)
    res = literal(mirror, start, end)
    assert res.bridges == (False, True)
    assert res.tag == "Vb"
    for side, other in (("left", "right"), ("right", "left")):
        got = geodesic(mirror, start, end, side).nodes
        want = geodesic(VA_CLOUD, start, end, other).nodes
        assert got == [(-x, t) for x, t in want]

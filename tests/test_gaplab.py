import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import (Region, ScalingFrame, cloud_from_points,
                    make_lattice_field, make_poisson_cloud)
from lpplab import gaplab, oracle
from lpplab.errors import DomainError, ParameterError


def field(mat):
    return make_lattice_field(0, len(mat), len(mat[0]), "explicit", weights=mat)


STEP = field([[1, 2], [3, 4]])
ONES = field([[1, 1], [1, 1]])
FRAME = ScalingFrame(16.0)


def test_gap_value_hand_examples():
    assert gaplab.gap_value(STEP, (0, 0), (1, 1)) == 1
    assert gaplab.gap_value(ONES, (0, 0), (1, 1)) == 0


def test_gap_value_matches_oracle_on_random_fields():
    for seed in range(80):
        f = make_lattice_field(seed, 4, 4, "geometric", 0.5)
        res = oracle.enumerate_disjoint_pairs(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        want = 2 * oracle.enumerate_paths(f, (0, 0), (3, 3)).optimum - res.pair_optimum
        assert gaplab.gap_value(f, (0, 0), (3, 3)) == want


def test_gap_value_infeasible_marker():
    f = field([[1], [1]])
    assert gaplab.gap_value(f, (0, 0), (1, 0)) is None


def lattice_sheet(seed=3, n=16, half=8):
    # anchors on chart lines t=half (x even offsets) and t=half+n
    f = make_lattice_field(seed, 40, 40, "geometric", 0.5)
    t0 = half
    t1 = t0 + n
    xs = [x for x in range(-half, half + 1, 2)]
    ys = [y for y in range(-half, half + 1, 2) if (y + t1) % 2 == 0]
    return f, gaplab.gap_sheet(f, xs, ys, ScalingFrame(float(n)), (t0, t1))


def test_sheet_entries_match_pointwise_gap_values():
    f, sheet = lattice_sheet()
    t0, t1 = sheet.times
    for i, x in enumerate(sheet.x_grid):
        for j, y in enumerate(sheet.y_grid):
            a = f.cell_at(int(x), int(t0))
            b = f.cell_at(int(y), int(t1))
            want = gaplab.gap_value(f, a, b)
            got = sheet.values[i, j]
            if want is None:
                assert np.isnan(got)
            else:
                assert got == want


def test_sheet_nonnegative_and_integer():
    _, sheet = lattice_sheet()
    vals = sheet.values[np.isfinite(sheet.values)]
    assert np.all(vals >= 0)
    assert np.all(vals == np.round(vals))


def test_poisson_sheet_matches_pointwise():
    cl = make_poisson_cloud(11, 2.0, Region(-8, 8, 0, 8))
    xs = np.linspace(-1.0, 1.0, 5)
    ys = np.linspace(-1.5, 1.5, 7)
    sheet = gaplab.gap_sheet(cl, xs, ys, ScalingFrame(8.0), (0.0, 8.0))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert sheet.values[i, j] == gaplab.gap_value(cl, (x, 0.0), (y, 8.0))


def test_single_cell_sheet_reduces_to_gap_value():
    f = make_lattice_field(9, 20, 20, "geometric", 0.5)
    sheet = gaplab.gap_sheet(f, [0], [0], ScalingFrame(8.0), (2, 10))
    a, b = f.cell_at(0, 2), f.cell_at(0, 10)
    assert sheet.values[0, 0] == gaplab.gap_value(f, a, b)


def test_lattice_sheet_rejects_non_integral_anchors():
    # the row of x = 0.5 was once the row of x = 0, labelled 0.5
    f = make_lattice_field(9, 20, 20, "geometric", 0.5)
    for xs, ys in (([0.5], [0]), ([0], [2.5]), ([0, 1.5], [0, 2])):
        with pytest.raises(DomainError, match="is not integral"):
            gaplab.gap_sheet(f, xs, ys, ScalingFrame(8.0), (2, 10))
    whole = gaplab.gap_sheet(f, [0.0, 2.0], [0.0], ScalingFrame(8.0), (2.0, 10.0))
    assert whole.values.tobytes() == gaplab.gap_sheet(
        f, [0, 2], [0], ScalingFrame(8.0), (2, 10)).values.tobytes()


def test_slice_minima_examples():
    mins = gaplab.slice_minima([2, 1, 1, 2])
    assert len(mins) == 1 and (mins[0].start, mins[0].stop, mins[0].kind) == (1, 2, "strict")

    mins = gaplab.slice_minima([1, 2, 3, 4, 5])
    assert len(mins) == 1
    assert mins[0].kind == "left_sided" and mins[0].at_boundary

    mins = gaplab.slice_minima([3, 2, 2, 2, 5, 4])
    kinds = {(m.start, m.stop): m.kind for m in mins}
    assert kinds == {(1, 3): "strict", (5, 5): "right_sided"}


def test_slice_minima_constant_slice_weak():
    mins = gaplab.slice_minima([7, 7, 7, 7])
    assert len(mins) == 1 and mins[0].kind == "weak"


def test_one_sided_minimum_epsilon_sense():
    v = [3, 1, 1, 2, 0]
    assert gaplab.one_sided_minimum(v, 1, "right")
    assert gaplab.one_sided_minimum(v, 1, "left")
    assert not gaplab.one_sided_minimum(v, 3, "right")
    assert not gaplab.one_sided_minimum(v, 3, "left")
    assert gaplab.one_sided_minimum(v, 4, "right")  # boundary, vacuous
    assert gaplab.one_sided_minimum(v, 4, "left")


def test_zero_set_membership_matches_values():
    f, sheet = lattice_sheet(seed=5)
    z = gaplab.zero_set(sheet)
    zset = set(z.indices)
    for i in range(sheet.x_grid.size):
        for j in range(sheet.y_grid.size):
            v = sheet.values[i, j]
            assert ((i, j) in zset) == (np.isfinite(v) and v == 0)


def test_zero_set_continuous_sheets_use_tolerance():
    f = make_lattice_field(2, 30, 30, "exponential")
    sheet = gaplab.gap_sheet(f, [0, 2], [0, 2], ScalingFrame(8.0), (4, 12))
    # a continuous gap has no exact zeros; the tolerance set is empty
    assert len(gaplab.zero_set(sheet)) == 0


def synthetic_zero_set(points, frame=None):
    frame = frame or ScalingFrame(1.0)
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    idx = [(k, k) for k in range(len(points))]
    return gaplab.ZeroSet(idx, xs, ys, frame)


def test_quadrant_isolated_singleton():
    z = synthetic_zero_set([(0.0, 0.0)])
    for quad in ("-+", "+-"):
        rep = gaplab.quadrant_isolated(z, (0, 0), quad)
        assert rep["isolated"]


def test_quadrant_isolated_antidiagonal_pair():
    z = synthetic_zero_set([(0.0, 0.0), (-0.1, 0.1)])
    rep = gaplab.quadrant_isolated(z, (0, 0), "-+")
    assert not rep["isolated"]
    rep = gaplab.quadrant_isolated(z, (0, 0), "+-")
    assert rep["isolated"]
    # the partner sees the anchor in its (+,-) quadrant
    rep = gaplab.quadrant_isolated(z, (1, 1), "+-")
    assert not rep["isolated"]


def test_quadrant_isolated_requires_zero_anchor():
    z = synthetic_zero_set([(0.0, 0.0)])
    with pytest.raises(DomainError):
        gaplab.quadrant_isolated(z, (5, 5), "-+")


def test_quadrant_isolated_matches_brute_scan():
    rng = np.random.default_rng(0)
    pts = [(float(a), float(b)) for a, b in rng.uniform(-1, 1, (40, 2))]
    z = synthetic_zero_set(pts)
    for k in range(10):
        for quad, sx, sy in (("-+", -1, 1), ("+-", 1, -1)):
            rep = gaplab.quadrant_isolated(z, (k, k), quad, radii=[0.3])
            brute = True
            for m, (px, py) in enumerate(pts):
                if m == k:
                    continue
                dx, dy = px - pts[k][0], py - pts[k][1]
                if sx * dx > 0 and sy * dy > 0 and max(abs(dx), abs(dy)) <= 0.3:
                    brute = False
            assert rep["isolated"] == brute


def test_quadrant_isolation_needs_a_radius():
    # an empty list once raised IndexError, also through classify_gap
    from lpplab import classify
    z = synthetic_zero_set([(0.0, 0.0)])
    with pytest.raises(ParameterError, match=r"^radii must be nonempty, got \[\]$"):
        gaplab.quadrant_isolated(z, (0, 0), "-+", radii=[])
    v = np.full((3, 3), 5.0)
    v[1, 1] = 0.0
    sheet = gaplab.GapSheet(np.arange(3.0), np.arange(3.0), v, FRAME, (0.0, 1.0), True)
    with pytest.raises(ParameterError, match="^radii must be nonempty"):
        classify.classify_gap(sheet, 1, 1, radii=[])


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_quadrant_isolation_rejects_a_radius_that_is_not_finite(radius):
    # a NaN radius once reported the anchor isolated
    z = synthetic_zero_set([(0.0, 0.0), (-0.1, 0.1)])
    with pytest.raises(ParameterError, match=rf"^radius must be finite and > 0, got {radius}$"):
        gaplab.quadrant_isolated(z, (0, 0), "-+", radii=[0.5, radius])


@pytest.mark.parametrize("radius", [-0.5, 0.0])
def test_quadrant_isolation_rejects_a_radius_that_is_not_positive(radius):
    # a negative radius once reported the anchor isolated
    z = synthetic_zero_set([(0.0, 0.0), (-0.1, 0.1)])
    with pytest.raises(ParameterError, match=rf"^radius must be finite and > 0, got {radius}$"):
        gaplab.quadrant_isolated(z, (0, 0), "-+", radii=[radius, 0.5])


@pytest.mark.parametrize("scale", [0.0, -0.25, float("nan"), float("inf")])
def test_box_dimension_rejects_a_scale_that_is_not_finite_and_positive(scale):
    # a zero scale once ended in numpy's LinAlgError after divide-by-zero warnings
    with pytest.raises(ParameterError, match=rf"^scale must be finite and > 0, got {scale}$"):
        gaplab.box_dimension(np.array([0.1, 0.6]), [0.5, scale])


def test_box_dimension_full_grid():
    pts = np.arange(0.0, 1.0, 2.0 ** -12)
    scales = [2.0 ** -k for k in range(2, 9)]
    est = gaplab.box_dimension(pts, scales)
    assert abs(est.estimate - 1.0) <= 0.02
    assert est.r2 >= 0.99


def cantor_points(depth):
    pts = [0.0]
    for _ in range(depth):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    return np.array(pts)


def test_box_dimension_cantor():
    pts = cantor_points(8)
    scales = [3.0 ** -k for k in range(1, 7)]
    est = gaplab.box_dimension(pts, scales)
    assert abs(est.estimate - np.log(2) / np.log(3)) <= 0.05


def test_box_dimension_reflected_walk_zero_set():
    # zero set of a reflected simple random walk: dimension 1/2
    rng = np.random.default_rng(7)
    steps = rng.choice([-1, 1], size=2 ** 16)
    walk = np.abs(np.cumsum(steps))
    zeros = np.nonzero(walk == 0)[0] / float(2 ** 16)
    scales = [2.0 ** -k for k in range(3, 10)]
    est = gaplab.box_dimension(zeros, scales)
    assert abs(est.estimate - 0.5) <= 0.1


def test_box_dimension_degenerate_warning():
    est = gaplab.box_dimension(np.array([0.5, 0.5001]), [1.0, 2.0])
    assert est.estimate == 0.0
    assert est.warning is not None


@pytest.mark.parametrize("scales", [[1.0, 1.0], [0.5, 0.25, 0.5], [0.5]])
def test_box_dimension_needs_two_distinct_scales(scales):
    # [1.0, 1.0] once died in LAPACK ("SVD did not converge")
    pts = np.random.default_rng(0).random((20, 2))
    with pytest.raises(ParameterError, match="at least 2 distinct scales"):
        gaplab.box_dimension(pts, scales)


def test_box_counts_read_1d_input_as_1d_points():
    assert gaplab.box_counts(np.array([0.5, 3.5]), [1.0, 0.5]) == [2, 2]


def test_lattice_sheet_with_no_sinks_has_empty_rows():
    f = make_lattice_field(3, 40, 40, "geometric", 0.5)
    sheet = gaplab.gap_sheet(f, [-2, 0, 2], [], FRAME, (8, 24))
    assert sheet.values.shape == (3, 0)


def test_each_pair_question_costs_one_sweep(monkeypatch):
    from lpplab import classify, lattice
    calls = []
    sweep = lattice._pair_sweep
    monkeypatch.setattr(lattice, "_pair_sweep",
                        lambda *args: calls.append(1) or sweep(*args))
    f = make_lattice_field(4, 30, 30, "geometric", 0.5)
    # one sweep per chart time read: to t1 - 1 for the doubled ends of the
    # row, to t1 for the pair of distinct ends
    assert gaplab.min_formula_residual(f, 0, -4, 4, times=(4, 20)) is not None
    assert len(calls) == 2
    calls.clear()
    classify.right_min_identity(f, 0, 0, 2, times=(4, 20))
    assert len(calls) == 2


def test_min_formula_batch_without_a_pair_is_empty():
    f = make_lattice_field(3, 30, 30, "geometric", 0.5)
    assert gaplab.min_formula_residuals_batch(f, 0, [], (10, 30)) == {}
    assert gaplab.min_formula_residuals_batch(f, 0, [2], (10, 30)) == {}
    assert gaplab.min_formula_residuals_batch(f, 0, [-2, 2], (10, 30))


def test_min_formula_rejects_non_integral_anchors_and_times():
    # (0.5, -2.5, 2.9, (4, 20.7)) was once the result for (0, -2, 2, (4, 20))
    f = make_lattice_field(1, 30, 30, "geometric", 0.5)
    for x, y, z, times in ((0.5, -2.5, 2.9, (4, 20.7)), (0.5, -2, 2, (4, 20)),
                           (0, -2.5, 2, (4, 20)), (0, -2, 2.5, (4, 20)),
                           (0, -2, 2, (4.5, 20)), (0, -2, 2, (4, 20.7))):
        with pytest.raises(DomainError, match="is not integral"):
            gaplab.min_formula_residual(f, x, y, z, times)
    assert (gaplab.min_formula_residual(f, 0.0, -2.0, 2.0, (4.0, 20.0))
            == gaplab.min_formula_residual(f, 0, -2, 2, (4, 20)))


def test_min_formula_batch_rejects_non_integral_anchors_and_times():
    f = make_lattice_field(1, 30, 30, "geometric", 0.5)
    for x, ys, times in ((0.5, [-2, 2], (4, 20)), (0, [-2, 0.5, 2], (4, 20)),
                         (0, [-2, 2.5], (4, 20)), (0, [-2, 2], (4.5, 20)),
                         (0, [-2, 2], (4, 20.7))):
        with pytest.raises(DomainError, match="is not integral"):
            gaplab.min_formula_residuals_batch(f, x, ys, times)
    with pytest.raises(DomainError, match="mismatched parity"):  # once a KeyError
        gaplab.min_formula_residuals_batch(f, 0, [-2, 1, 2], (4, 20))
    assert (gaplab.min_formula_residuals_batch(f, 0.0, [-2.0, 0.0, 2.0], (4.0, 20.0))
            == gaplab.min_formula_residuals_batch(f, 0, [-2, 0, 2], (4, 20)))


def test_min_formula_collapses_when_y_equals_z():
    f = make_lattice_field(4, 30, 30, "geometric", 0.5)
    res = gaplab.min_formula_residual(f, 0, 0, 0, times=(4, 20))
    assert res.residual == 0.0


def test_min_formula_residual_matches_oracle_on_tiny():
    hits = 0
    for seed in range(40):
        f = make_lattice_field(seed, 5, 5, "geometric", 0.5)
        # chart: start (0,0) x=0,t=0; ends at t=6: x in {-2,0,2} -> cells
        res = gaplab.min_formula_residual(f, 0, -2, 2, times=(0, 6))
        if res is None:
            continue
        start = (0, 0)
        ey, ez = f.cell_at(-2, 6), f.cell_at(2, 6)
        want_pair = oracle.enumerate_disjoint_pairs(f, (start, start), (ey, ez)).pair_optimum
        assert res.pair_value == want_pair
        ws = [f.cell_at(w, 6) for w in (-2, 0, 2)]
        grow = []
        for wcell in ws:
            g = 2 * oracle.enumerate_paths(f, start, wcell).optimum - \
                oracle.enumerate_disjoint_pairs(f, (start, start), (wcell, wcell)).pair_optimum
            grow.append(g)
        want = want_pair - (oracle.enumerate_paths(f, start, ey).optimum
                            + oracle.enumerate_paths(f, start, ez).optimum
                            - min(grow))
        assert res.residual == want
        hits += 1
    assert hits > 10


def test_brownianity_on_simulated_brownian_increments():
    rng = np.random.default_rng(1)
    frame = ScalingFrame(1.0)
    walk = np.cumsum(rng.normal(0, 1, 20000))
    rep = gaplab.brownianity(walk, spacing=1.0, frame=frame)
    assert rep.r2 >= 0.99
    assert rep.slope == pytest.approx(1.0, rel=0.15)


@pytest.mark.parametrize("lags", [[0], [-1, 1], [100, 1], [200, 1], [1, 2, 2], [1, 2.5], [True, 2]])
def test_brownianity_rejects_lags_outside_the_slice(lags):
    # [0] once raised numpy's broadcast error, [-1, 1] gave a negative lag
    # and [200, 1] on 100 entries a NaN slope
    with pytest.raises(ParameterError, match=r"lags must be distinct integers in \[1, 100\)"):
        gaplab.brownianity(np.arange(100, dtype=float), 1.0, ScalingFrame(1.0), lags=lags)


def test_brownianity_accepts_every_lag_below_the_usable_entries():
    v = np.arange(100, dtype=float)
    v[:5] = np.nan  # 95 usable entries
    rep = gaplab.brownianity(v, 1.0, ScalingFrame(1.0), lags=[np.int64(94), 1])
    assert rep.lags == [1.0, 94.0]
    with pytest.raises(ParameterError):
        gaplab.brownianity(v, 1.0, ScalingFrame(1.0), lags=[95, 1])


@pytest.mark.parametrize("spacing", [0.0, -1.0, np.nan, np.inf, -np.inf], ids=repr)
def test_brownianity_rejects_a_spacing_that_is_not_finite_and_positive(spacing):
    # 0, NaN and inf once failed in LAPACK with a LinAlgError, and -1 fitted
    # a slope over negative lags
    with pytest.raises(ParameterError, match=f"^spacing must be finite and > 0, got {spacing}$"):
        gaplab.brownianity(np.cumsum(np.ones(100)), spacing, ScalingFrame(1.0))


def test_brownianity_constant_slice_degenerate():
    rep = gaplab.brownianity(np.full(100, 3.0), 1.0, ScalingFrame(1.0))
    assert rep.degenerate


def test_brownianity_linear_slice_zero_residual_variance():
    rep = gaplab.brownianity(np.arange(100, dtype=float), 1.0, ScalingFrame(1.0))
    # increments are deterministic: zero variance around the drift
    assert all(v == 0.0 for v in rep.variances)
    assert rep.degenerate


def test_bowtie_stat_reports_frequencies():
    z = synthetic_zero_set([(0.0, 0.0), (0.05, 0.05), (-0.5, 0.5)])
    rep = gaplab.bowtie_stat(z, [0.1, 1.0])
    assert rep[0.1] > 0
    assert 0 <= rep[1.0] <= 1


def test_decreasing_decomposition_smoke():
    f, sheet = lattice_sheet(seed=8)
    rep = gaplab.decreasing_decomposition(f, sheet, max_zeros=60)
    assert rep["zeros"] >= 0
    assert rep["violations"] <= rep["comparisons"] or rep["comparisons"] == 0


def doubled_col_values(field, end_pair, start_cells):
    """disjoint2 values from doubled start cells at one chart time to one
    end pair, all from a single backward pair sweep."""
    from lpplab.lattice import is_reachable, pair_backward
    t0 = start_cells[0][0] + start_cells[0][1]
    S = pair_backward(field, end_pair, t0 + 1)
    out = np.full(len(start_cells), np.nan)
    for k, (i, j) in enumerate(start_cells):
        if S is not None and i + 1 < field.rows and j + 1 < field.cols \
                and is_reachable(S[j, j + 1]):
            out[k] = S[j, j + 1] + 2.0 * field.weights[i, j]
    return out


def test_sheet_columns_match_independent_backward_pass():
    from lpplab.lattice import forward_values
    f, sheet = lattice_sheet(seed=12)
    t0, t1 = sheet.times
    j = len(sheet.y_grid) // 2
    y = sheet.y_grid[j]
    b = f.cell_at(int(y), int(t1))
    starts = [f.cell_at(int(x), int(t0)) for x in sheet.x_grid]
    L2 = doubled_col_values(f, (b, b), starts)
    col = sheet.col(j)
    for i, a in enumerate(starts):
        L = forward_values(f, a)[b]
        want = 2.0 * L - L2[i] if np.isfinite(L2[i]) else np.nan
        if np.isnan(want):
            assert np.isnan(col[i])
        else:
            assert col[i] == want


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), law=st.sampled_from(["geometric", "bernoulli"]),
       c=st.integers(1, 1000))
def test_a_constant_added_to_every_weight_leaves_the_gap_sheet_unchanged(seed, law, c):
    """Every path between anchors at times t0 and t1 has t1 - t0 + 1
    cells, so L gains c (t1 - t0 + 1) and the doubled pair twice that:
    on integer fields G = 2 L - L2 is unchanged, entry for entry."""
    f = make_lattice_field(seed, 20, 20, law, 0.5)
    shifted = make_lattice_field(0, 20, 20, "explicit", weights=f.weights + c)
    t0, t1 = 6, 18
    xs = list(range(-6, 7, 2))
    ys = [y for y in range(-6, 7) if (y + t1) % 2 == 0]
    want = gaplab.gap_sheet(f, xs, ys, ScalingFrame(12.0), (t0, t1))
    got = gaplab.gap_sheet(shifted, xs, ys, ScalingFrame(12.0), (t0, t1))
    assert np.isfinite(want.values).any()
    assert got.values.tobytes() == want.values.tobytes()


def test_all_ones_sheet_zeros_wherever_defined():
    f = make_lattice_field(0, 24, 24, "explicit", weights=np.ones((24, 24)))
    t0 = 8
    xs = [x for x in range(-6, 7, 2) if (x + t0) % 2 == 0]
    ys = [y for y in range(-6, 7, 2) if (y + t0 + 8) % 2 == 0]
    sheet = gaplab.gap_sheet(f, xs, ys, ScalingFrame(8.0), (t0, t0 + 8))
    finite = np.isfinite(sheet.values)
    assert finite.any()
    assert np.all(sheet.values[finite] == 0)
    z = gaplab.zero_set(sheet)
    assert len(z) == int(finite.sum())


def test_sixteen_square_sheet_matches_pointwise():
    f = make_lattice_field(31, 46, 46, "geometric", 0.5)
    t0, t1 = 16, 32
    xs = list(range(-16, 15, 2))
    ys = list(range(-16, 15, 2))
    assert len(xs) == len(ys) == 16
    sheet = gaplab.gap_sheet(f, xs, ys, ScalingFrame(16.0), (t0, t1))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            try:
                want = gaplab.gap_value(f, f.cell_at(x, t0), f.cell_at(y, t1))
            except DomainError:
                want = None  # pair outside the causal cone
            got = sheet.values[i, j]
            assert (np.isnan(got) and want is None) or got == want

import numpy as np
import pytest

from lpplab import ScalingFrame, geodesic, make_lattice_field
from lpplab import busemann as bz
from lpplab import gaplab
from lpplab.errors import DomainError, ParameterError
from lpplab.model import environment_for


def tiny_env(seed=0, t0=8, horizon=32):
    return environment_for(seed, "geometric", t0, 2 * horizon, -8, 8, 0.5)


T0 = 8
H = 32
HORIZONS = (H, 2 * H)


def test_direction_target_cone():
    f = tiny_env()
    with pytest.raises(ParameterError):
        bz.direction_target(f, 1.5, H, T0)
    tgt = bz.direction_target(f, 0.25, H, T0)
    assert (tgt.x + T0 + H) % 2 == 0
    assert abs(tgt.x - 0.25 * H) <= 2


def test_busemann_zero_at_reference():
    f = tiny_env(1)
    res = bz.busemann(f, 0.0, 0, HORIZONS, t0=T0)
    assert res["values"][H] == 0.0
    assert res["values"][2 * H] == 0.0
    assert res["certified"]


def test_busemann_certified_values_agree_across_horizons():
    for seed in range(6):
        f = tiny_env(seed)
        prof = bz.busemann_profile(f, 0.125, range(-8, 9, 2), HORIZONS, t0=T0)
        for k in range(prof.x_grid.size):
            if prof.certified[k]:
                assert prof.values[0, k] == prof.values[1, k]


def test_busemann_values_match_direct_passage_differences():
    f = tiny_env(3)
    prof = bz.busemann_profile(f, 0.25, [-4, -2, 0, 2, 4], HORIZONS, t0=T0)
    from lpplab import passage_value
    tgt = bz.direction_target(f, 0.25, H, T0)
    ref = passage_value(f, f.cell_at(0, T0), tgt.cell)
    for k, x in enumerate(prof.x_grid):
        got = prof.values[0, k]
        want = passage_value(f, f.cell_at(int(x), T0), tgt.cell) - ref
        assert got == want


def test_coalescence_time_basics():
    f = tiny_env(2)
    tgt = bz.direction_target(f, 0.0, H, T0)
    a = geodesic(f, f.cell_at(0, T0), tgt.cell, "right")
    b = geodesic(f, f.cell_at(2, T0), tgt.cell, "right")
    assert bz.coalescence_time(a, a) == float(T0)
    ct = bz.coalescence_time(a, b)
    if ct is not None:
        assert T0 < ct <= T0 + H
    c = geodesic(f, f.cell_at(0, T0), tgt.cell, "left")
    with pytest.raises(DomainError):
        other = bz.direction_target(f, 0.5, H, T0)
        bz.coalescence_time(a, geodesic(f, f.cell_at(0, T0), other.cell, "left"))


def test_coalescence_only_terminal_returns_none():
    from lpplab import cloud_from_points
    cl = cloud_from_points([(-0.25, 0.5), (0.25, 0.5)])
    a = geodesic(cl, (0.0, 0.0), (0.0, 1.0), "left")
    b = geodesic(cl, (0.0, 0.0), (0.0, 1.0), "right")
    assert bz.coalescence_time(a, b) is None


def test_exceptional_scan_contract_sorted_and_witnessed():
    f = environment_for(7, "geometric", T0, 2 * H, -4, 4, 0.5)
    dirs = bz.exceptional_scan(f, (-0.6, 0.6), H, t0=T0, threshold=0.5)
    thetas = [d.theta for d in dirs]
    assert thetas == sorted(thetas)
    for d in dirs:
        assert d.column_above > d.column_below
        assert d.jump > 0.5 * H ** (2.0 / 3.0)
        # witnesses are ordered left then right at the mid time
        mid = d.mid_time - T0
        xl = 2 * d.witness_left_cols[mid] - (d.mid_time)
        xr = 2 * d.witness_right_cols[mid] - (d.mid_time)
        assert xl < xr


def test_exceptional_scan_constant_map_empty():
    # deterministic single-row weights: geodesics are forced, no jumps
    f = make_lattice_field(0, 40, 40, "explicit",
                           weights=np.zeros((40, 40)))
    dirs = bz.exceptional_scan(f, (-0.3, 0.3), 16, t0=8, threshold=0.5)
    assert dirs == []


def bigger_env(seed):
    return environment_for(seed, "geometric", T0, 2 * H, -12, 12, 0.5)


def find_direction(seed, threshold=0.25):
    f = bigger_env(seed)
    dirs = bz.exceptional_scan(f, (-0.6, 0.6), H, t0=T0, threshold=threshold)
    return f, dirs


def test_busemann_gap_profile_nonnegative_and_certified_consistency():
    hits = 0
    for seed in range(10):
        f, dirs = find_direction(seed)
        for d in dirs[:2]:
            prof = bz.busemann_gap(f, d, range(-8, 9, 2), HORIZONS)
            vals = prof.values[np.isfinite(prof.values)]
            assert np.all(vals >= 0)
            for k in range(prof.x_grid.size):
                if prof.certified[k]:
                    assert prof.values[0, k] == prof.values[1, k]
            hits += 1
    assert hits >= 3


def test_busemann_gap_matches_direct_formula():
    f, dirs = find_direction(4)
    if not dirs:
        pytest.skip("no detected direction in this environment")
    d = dirs[0]
    prof = bz.busemann_gap(f, d, [-4, 0, 4], HORIZONS)
    from lpplab import disjoint2_value, passage_value
    # the near anchors are the far witness chains' positions at H
    for h, slot in ((H, 0), (2 * H, 1)):
        cu, cv = prof.witness_columns[h]
        pl = f.cell_at(cu, T0 + h)
        pr = f.cell_at(cv, T0 + h)
        for k, x in enumerate(prof.x_grid):
            a = f.cell_at(int(x), T0)
            pair = disjoint2_value(f, (a, a), (pl, pr))
            want = passage_value(f, a, pl) + passage_value(f, a, pr) - pair
            got = prof.values[slot, k]
            if np.isfinite(got):
                assert got == want


def test_busemann_gap_degenerate_witness_collapses_to_gap_value():
    # witnesses sharing their far target column reduce the anchored gap
    # at the far horizon to the plain doubled-endpoint gap value
    f = bigger_env(2)
    t1 = T0 + 2 * H
    c = 0 if t1 % 2 == 0 else 1
    d = bz.ExceptionalDirection(theta=0.0, column_below=c, column_above=c,
                                horizon=2 * H, t0=T0, mid_time=T0 + H, jump=0.0,
                                witness_left_cols=np.array([]),
                                witness_right_cols=np.array([]))
    prof = bz.busemann_gap(f, d, [0], (H, 2 * H))
    from lpplab import gaplab
    a = f.cell_at(0, T0)
    p = f.cell_at(c, t1)
    assert prof.values[1, 0] == gaplab.gap_value(f, a, p)


def test_two_path_busemann_algebra():
    f = bigger_env(3)
    from lpplab import disjoint2_value, passage_value
    v = bz.two_path_busemann(f, -0.25, 0.25, 0, H, t0=T0)
    p1 = bz.direction_target(f, -0.25, H, T0).cell
    p2 = bz.direction_target(f, 0.25, H, T0).cell
    a = f.cell_at(0, T0)
    want = disjoint2_value(f, (a, a), (p1, p2)) \
        - passage_value(f, a, p1) - passage_value(f, a, p2)
    assert v == want


def test_horizon_identity_residual_reports():
    f, dirs = find_direction(6)
    if not dirs:
        pytest.skip("no detected direction")
    d = dirs[0]
    prof = bz.busemann_gap(f, d, [-2, 0, 2], HORIZONS)
    th = d.theta
    rep = bz.horizon_identity_residual(f, d, th - 0.2, th + 0.2, 0, H, prof, t0=T0)
    assert "residual" in rep and "provisional" in rep


def test_stationary_horizon_quadrangle_is_exact():
    # supermodularity of passage values makes the quadrangle inequality
    # exact on the lattice wherever both profiles are certified
    comparisons = 0
    for seed in range(5):
        f = bigger_env(seed)
        rep = bz.stationary_horizon_tests(f, [-0.25, 0.0, 0.25],
                                          range(-8, 9, 2), HORIZONS, t0=T0,
                                          coal_schedule=[T0 + 4, T0 + 16])
        assert rep["quadrangle"]["violations"] == 0
        comparisons += rep["quadrangle"]["comparisons"]
        assert "anti_coalescence_fraction" in rep
    assert comparisons > 0


def test_stationary_drift_on_flat_environment_is_zero():
    # a constant field gives horizon-stable Busemann values that vanish
    # identically: zero drift recovered exactly, everything certified
    rows = cols = 50
    f = make_lattice_field(0, rows, cols, "explicit",
                           weights=np.full((rows, cols), 2.0))
    t0, h = 8, 16
    rep = bz.stationary_horizon_tests(f, [0.0], range(-6, 7, 2), (h, 2 * h), t0=t0)
    assert rep["certified_fraction"][0.0] == 1.0
    assert rep["drift"][0.0] == 0.0
    assert rep["increment_variance"][0.0] == 0.0


def test_local_constancy_at_zero_delta():
    f = bigger_env(1)
    rep = bz.stationary_horizon_tests(f, [0.0], range(-4, 5, 2), HORIZONS,
                                      t0=T0, delta=0.0)
    assert rep["local_constancy_fraction"] == 1.0


def test_reflected_walk_diag_requires_certified_points():
    f, dirs = find_direction(0)
    if not dirs:
        pytest.skip("no detected direction")
    prof = bz.busemann_gap(f, dirs[0], range(-6, 7, 2), HORIZONS)
    rep = bz.reflected_walk_diag(prof)
    assert "warning" in rep  # far fewer than 64 certified points here
    assert rep["certified_points"] <= 7


def test_reflected_walk_diag_on_synthetic_reflected_walk():
    rng = np.random.default_rng(5)
    steps = rng.choice([-1, 1], 4096)
    walk = np.abs(np.cumsum(steps)).astype(float)
    xs = np.arange(walk.size, dtype=np.int64)
    prof = bz.BusemannGapProfile(
        theta=0.0, horizons=(1, 2), t0=0, x_grid=xs,
        values=np.vstack([walk, walk]),
        certified=np.ones(walk.size, dtype=bool),
        witness_columns={}, frame=ScalingFrame(1.0))
    rep = bz.reflected_walk_diag(prof, scales=[2.0 ** -k * 4096 for k in range(2, 8)])
    assert rep["nonnegative"]
    assert abs(rep["zero_dimension"] - 0.5) <= 0.15
    assert rep["increment_r2"] >= 0.9


def test_reflected_walk_diag_strictly_positive_profile():
    xs = np.arange(128, dtype=np.int64)
    vals = 3.0 + (xs % 5).astype(float)
    prof = bz.BusemannGapProfile(
        theta=0.0, horizons=(1, 2), t0=0, x_grid=xs,
        values=np.vstack([vals, vals]),
        certified=np.ones(xs.size, dtype=bool),
        witness_columns={}, frame=ScalingFrame(1.0))
    rep = bz.reflected_walk_diag(prof)
    assert rep["nonnegative"]
    assert rep["zero_dimension"] is None
    assert "warning" in rep


def synthetic_gap_profile(values, frame_n=1.0):
    vals = np.asarray(values, dtype=float)
    xs = np.arange(vals.size, dtype=np.int64)
    return bz.BusemannGapProfile(
        theta=0.0, horizons=(1, 2), t0=0, x_grid=xs,
        values=np.vstack([vals, vals]),
        certified=np.ones(vals.size, dtype=bool),
        witness_columns={}, frame=ScalingFrame(frame_n))


def fake_direction():
    return bz.ExceptionalDirection(theta=0.0, column_below=0, column_above=2,
                                   horizon=1, t0=0, mid_time=0, jump=1.0,
                                   witness_left_cols=np.array([]),
                                   witness_right_cols=np.array([]))


def dict_tag(values, x, radius=1.5):
    # exercise only the dictionary side with a stub geometric step
    prof = synthetic_gap_profile(values)
    d = fake_direction()
    orig = bz._semi_inf_geometric
    bz._semi_inf_geometric = lambda *a, **k: "stub"
    try:
        return bz.classify_semi_infinite(None, d, x, prof, radius=radius).gap_tag
    finally:
        bz._semi_inf_geometric = orig


def test_semi_infinite_dictionary_cases():
    # positive, no plateau minimum at x
    assert dict_tag([5, 4, 3, 2, 1, 2], 1) == "IIa-inf"
    # positive with a strict plateau minimum
    assert dict_tag([5, 4, 3, 2, 1, 2], 4) == "III-inf"
    # zero, zeros on both sides within the radius
    assert dict_tag([3, 0, 0, 0, 3], 2) == "IV-inf"
    # zero, isolated on the left only
    assert dict_tag([3, 3, 0, 0, 3], 2) == "Va-inf"
    # zero, isolated on the right only
    assert dict_tag([3, 0, 0, 3, 3], 2) == "Vb-inf"
    # zero isolated on both sides has no continuum analogue
    assert dict_tag([3, 3, 0, 3, 3], 2) == "other"


def test_semi_infinite_geometric_tags_on_detected_directions():
    tags = []
    for seed in range(8):
        f, dirs = find_direction(seed)
        for d in dirs[:2]:
            prof = bz.busemann_gap(f, d, range(-6, 7, 2), HORIZONS)
            for x in (-2, 0, 2):
                res = bz.classify_semi_infinite(f, d, x, prof)
                tags.append(res.geo_tag)
                assert res.geo_tag in ("IIa-inf", "III-inf", "IV-inf",
                                       "Va-inf", "Vb-inf", "other")
    assert len(tags) > 5
    # witnesses split immediately at the scan origin, so x = 0 rows
    # should often land in the crossing classes
    assert any(t in ("IV-inf", "Va-inf", "Vb-inf") for t in tags)


def test_cloud_busemann_drift_matches_shape_derivative():
    # mean increment per unit x of the point-model Busemann values
    # against the slope of the passage shape 2 sqrt(t^2 - y^2)
    from lpplab import Region, make_poisson_cloud
    theta, t = 0.25, 40.0
    want = 2.0 * theta / np.sqrt(1.0 - theta ** 2)
    xs = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
    incs = []
    for seed in range(200):
        region = Region(-35.0, 45.0, 0.0, 40.0)
        cl = make_poisson_cloud(seed, 2.0, region)
        vals = bz.cloud_busemann_values(cl, theta, xs, horizon=t)
        incs.append(np.polyfit(xs, vals, 1)[0])
    got = float(np.mean(incs))
    assert got == pytest.approx(want, rel=0.05)


def test_cloud_busemann_reference_is_zero():
    from lpplab import Region, make_poisson_cloud
    cl = make_poisson_cloud(3, 2.0, Region(-30, 30, 0, 30))
    vals = bz.cloud_busemann_values(cl, 0.1, [0.0, 1.0], horizon=25.0)
    assert vals[0] == 0.0


def test_exceptional_scan_stable_under_grid_doubling():
    f = environment_for(7, "geometric", T0, 2 * H, -4, 4, 0.5)
    coarse = bz.exceptional_scan(f, (-0.6, 0.6), H, t0=T0, threshold=0.5, coarse=8)
    fine = bz.exceptional_scan(f, (-0.6, 0.6), H, t0=T0, threshold=0.5, coarse=4)
    assert [(d.column_below, d.column_above) for d in coarse] == \
        [(d.column_below, d.column_above) for d in fine]


def rail_field(rows, cols, t0, t1, x_left, x_right):
    # two heavy disjoint rails from the origin toward separated targets;
    # geodesics to targets left of the midpoint ride the left rail
    w = np.zeros((rows, cols))

    def lay(x_target):
        i, j = (t0 - 0) // 2, (t0 + 0) // 2
        w[i, j] = 10.0
        x = 0
        for t in range(t0 + 1, t1 + 1):
            frac = (t - t0) / (t1 - t0)
            want = x_target * frac
            if x + 1 <= want + 1 and abs((x + 1) - want) <= abs((x - 1) - want):
                x += 1
                j += 1
            else:
                x -= 1
                i += 1
            w[i, j] = 10.0

    lay(x_left)
    lay(x_right)
    return make_lattice_field(0, rows, cols, "explicit", weights=w)


def test_exceptional_scan_recovers_constructed_jump():
    t0, h = 8, 40
    f = rail_field(60, 60, t0, t0 + h, -20, 20)
    dirs = bz.exceptional_scan(f, (-0.8, 0.8), h, t0=t0, threshold=0.5)
    assert len(dirs) == 1
    # equal rails: the geodesic map jumps where the two rail values tie,
    # at the symmetric direction, within grid tolerance
    assert abs(dirs[0].theta) <= 4.0 / h
    assert dirs[0].jump >= 20.0


def test_two_path_busemann_coinciding_targets_collapse():
    f = bigger_env(5)
    # directions distinct but close enough to round to one target cell
    v = bz.two_path_busemann(f, 0.001, 0.002, 0, H, t0=T0)
    from lpplab import disjoint2_value, passage_value
    t1 = T0 + H
    p = bz.direction_target(f, 0.001, H, T0).cell
    assert p == bz.direction_target(f, 0.002, H, T0).cell
    a = f.cell_at(0, T0)
    want = disjoint2_value(f, (a, a), (p, p)) - 2 * passage_value(f, a, p)
    assert v == want

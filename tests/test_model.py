import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import (DomainError, ParameterError, Region, ScalingFrame,
                    SpaceTimePoint, causal_leq, cloud_from_points,
                    make_lattice_field, make_poisson_cloud,
                    model_from_descriptor, passage_value, reflect, rescale,
                    rotate45)
from lpplab import cloud, rng
from lpplab.model import OrderedQuad, reflect_cell

UNIT = Region(0.0, 1.0, 0.0, 1.0)


def test_poisson_cloud_deterministic():
    a = make_poisson_cloud(seed=1, rate=2.0, region=UNIT)
    b = make_poisson_cloud(seed=1, rate=2.0, region=UNIT)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ts, b.ts)
    c = make_poisson_cloud(seed=2, rate=2.0, region=UNIT)
    assert len(a) != len(c) or not np.array_equal(a.xs, c.xs)


def test_poisson_cloud_sorted_and_inside():
    cl = make_poisson_cloud(seed=7, rate=50.0, region=UNIT)
    assert np.all(np.diff(cl.ts) >= 0)
    ties = np.diff(cl.ts) == 0
    assert np.all(np.diff(cl.xs)[ties] >= 0)
    assert cl.xs.min() >= 0 and cl.xs.max() <= 1


def test_cloud_rejects_repeated_points():
    with pytest.raises(ParameterError, match=r"repeated cloud point \(0.0, 0.5\)"):
        cloud_from_points([(0.0, 0.5), (0.0, 0.5)])
    with pytest.raises(ParameterError, match=r"repeated cloud point \(0.3, 0.5\)"):
        cloud_from_points([(0.3, 0.5), (0.0, 0.2), (0.3, 0.5)])
    # a shared x or a shared t alone is no repeat
    assert len(cloud_from_points([(0.0, 0.5), (0.0, 0.7), (0.2, 0.5)])) == 3


def test_zero_area_region_gives_empty_cloud():
    cl = make_poisson_cloud(seed=3, rate=2.0, region=Region(0, 0, 0, 1))
    assert len(cl) == 0


def test_poisson_mean_count_matches_law_of_large_numbers():
    counts = [len(make_poisson_cloud(seed=s, rate=2.0, region=UNIT))
              for s in range(10_000)]
    assert abs(np.mean(counts) - 2.0) < 0.05


def test_lattice_explicit_echo():
    f = make_lattice_field(0, 2, 2, "explicit", weights=[[1, 2], [3, 4]])
    assert f.weights.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert f.integer_valued


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lattice_rejects_non_finite_weights(bad):
    w = np.ones((3, 3))
    w[1, 2] = bad
    with pytest.raises(ParameterError, match="^weights must be finite$"):
        make_lattice_field(0, 3, 3, "explicit", weights=w)


def test_lattice_deterministic():
    a = make_lattice_field(5, 3, 3, "geometric", 0.5)
    b = make_lattice_field(5, 3, 3, "geometric", 0.5)
    assert np.array_equal(a.weights, b.weights)


def test_geometric_moment():
    f = make_lattice_field(11, 1000, 1000, "geometric", 0.5)
    assert abs(f.weights.mean() - 1.0) < 0.01


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        make_lattice_field(0, 2, 2, "geometric", 1.5)
    with pytest.raises(ParameterError):
        make_lattice_field(0, 2, 2, "nosuchlaw")
    with pytest.raises(ParameterError):
        make_poisson_cloud(0, -1.0, UNIT)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_non_finite_rates_and_means_and_non_integral_seeds_are_rejected(kernel, monkeypatch):
    if kernel == "python":
        monkeypatch.setattr(cloud, "_compiled", lambda: None)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="^rate must be finite and positive"):
            make_poisson_cloud(0, bad, UNIT)
        with pytest.raises(ParameterError, match="^mean must be finite and nonnegative"):
            rng.poisson_count(0, rng.Stream.POISSON_COUNT, bad)
    for seed in (1.5, 2.0, np.float64(3.0), "4", None):
        with pytest.raises(ParameterError, match="^seed must be an integer"):
            rng.uniforms(seed, 0, 4)
        with pytest.raises(ParameterError, match="^seed must be an integer"):
            make_lattice_field(seed, 2, 2, "geometric")
    for seed in (-1, 2**64):
        with pytest.raises(ParameterError, match="^seed must be a 64-bit unsigned integer"):
            rng.uniforms(seed, 0, 4)
    want = rng.uniforms(5, 2, 7)
    for seed in (np.int64(5), np.uint64(5), np.int32(5)):
        assert rng.uniforms(seed, 2, 7).tobytes() == want.tobytes()
    assert rng.uniforms(np.uint64(2**64 - 1), 2, 3).shape == (3,)


def test_descriptor_round_trip():
    for m in (make_poisson_cloud(9, 2.0, UNIT),
              make_lattice_field(9, 4, 3, "geometric", 0.25)):
        d = json.loads(m.to_json())
        again = model_from_descriptor(d)
        if hasattr(m, "xs"):
            assert np.array_equal(m.xs, again.xs)
        else:
            assert np.array_equal(m.weights, again.weights)


def test_causal_leq_examples():
    assert causal_leq((0, 0), (0.1, 0.5))
    assert not causal_leq((0.1, 0.5), (-0.3, 0.8))
    p = SpaceTimePoint(0.3, 0.7)
    assert causal_leq(p, p)


# eighths are exactly representable, so the order algebra is exact
coords = st.integers(min_value=-400, max_value=400).map(lambda k: k / 8.0)


@settings(max_examples=200, deadline=None)
@given(coords, coords, coords, coords, coords, coords)
def test_causal_leq_is_a_partial_order(x1, t1, x2, t2, x3, t3):
    p, q, r = (x1, t1), (x2, t2), (x3, t3)
    assert causal_leq(p, p)
    if causal_leq(p, q) and causal_leq(q, p):
        assert p == q
    if causal_leq(p, q) and causal_leq(q, r):
        assert causal_leq(p, r)


@settings(max_examples=200, deadline=None)
@given(coords, coords, coords, coords)
def test_rotate45_preserves_order(x1, t1, x2, t2):
    p, q = (x1, t1), (x2, t2)
    u1, v1 = rotate45(p)
    u2, v2 = rotate45(q)
    assert causal_leq(p, q) == (u2 >= u1 and v2 >= v1)


def test_rotate45_examples():
    assert rotate45((0, 0)) == (0, 0)
    u, v = rotate45((0.1, 0.5))
    assert abs(u - 0.6) < 1e-12 and abs(v - 0.4) < 1e-12


def test_rescale():
    frame = ScalingFrame(8.0)
    quad = OrderedQuad(SpaceTimePoint(0, 0), SpaceTimePoint(0, 8.0))
    assert rescale(2.0 * 8.0, frame, quad) == 0.0
    assert rescale(4.0, frame) == pytest.approx(1.0)


def test_rescaled_poisson_centering_sanity():
    # mean rescaled value of d(0,0; 0,n) should sit in the usual
    # one-point fluctuation window
    n = 40
    frame = ScalingFrame(float(n))
    quad = OrderedQuad(SpaceTimePoint(0, 0), SpaceTimePoint(0, float(n)))
    region = Region(-n / 2, n / 2, 0, n)
    vals = []
    for s in range(60):
        cl = make_poisson_cloud(seed=s, rate=2.0, region=region)
        vals.append(rescale(passage_value(cl, (0, 0), (0, n)), frame, quad))
    assert -3.0 <= np.mean(vals) <= 0.0


def test_reflect_cloud_involution_and_mirror():
    cl = cloud_from_points([(0.5, 0.25)])
    r = reflect(cl)
    assert r.xs[0] == -0.5 and r.ts[0] == -0.25
    rr = reflect(r)
    assert np.array_equal(rr.xs, cl.xs) and np.array_equal(rr.ts, cl.ts)


def test_reflect_lattice_involution():
    f = make_lattice_field(3, 3, 4, "geometric", 0.5)
    assert np.array_equal(reflect(reflect(f)).weights, f.weights)


@pytest.mark.parametrize("env", [
    make_poisson_cloud(5, 2.0, Region(-1, 1, 0, 2)),
    make_lattice_field(3, 4, 5, "geometric", 0.5),
    make_lattice_field(4, 3, 6, "exponential"),
], ids=["cloud", "geometric", "exponential"])
def test_reflected_descriptor_rebuilds_the_reflection(env):
    def rebuilt(e):
        return model_from_descriptor(json.loads(e.to_json()))

    def noise(e):
        return (e.xs, e.ts) if hasattr(e, "xs") else (e.weights,)

    r = reflect(env)
    assert r.descriptor()["reflected"] is True
    again = rebuilt(r)
    assert again.to_json() == r.to_json()
    for a, b in zip(noise(again), noise(r)):
        assert np.array_equal(a, b)
    # a second reflection clears the record: the original descriptor, byte for byte
    rr = reflect(r)
    assert rr.to_json() == env.to_json() and "reflected" not in env.descriptor()
    for a, b in zip(noise(rebuilt(rr)), noise(env)):
        assert np.array_equal(a, b)


def test_reflected_explicit_environments_carry_their_noise():
    cl = reflect(cloud_from_points([(0.5, 0.25), (-0.1, 0.75)]))
    f = reflect(make_lattice_field(0, 2, 3, "explicit", weights=[[1, 2, 3], [4, 5, 6]]))
    for r in (cl, f):
        assert "reflected" not in r.descriptor()
        assert model_from_descriptor(json.loads(r.to_json())).to_json() == r.to_json()
    assert f.descriptor()["weights"] == [[6, 5, 4], [3, 2, 1]]


def test_reflect_passage_metamorphic_cloud():
    rng = np.random.default_rng(0)
    for trial in range(100):
        pts = [(float(x), float(t)) for x, t in
               zip(rng.uniform(-1, 1, 8), rng.uniform(0.05, 0.95, 8))]
        cl = cloud_from_points(pts)
        x0, x1 = sorted(rng.uniform(-0.5, 0.5, 2))
        v = passage_value(cl, (x0, 0.0), (x1, 1.0))
        w = passage_value(reflect(cl), (-x1, -1.0), (-x0, 0.0))
        assert v == w


def test_reflect_passage_metamorphic_lattice():
    f = make_lattice_field(21, 4, 5, "geometric", 0.5)
    r = reflect(f)
    for start, end in (((0, 0), (3, 4)), ((1, 1), (2, 3)), ((0, 2), (3, 3))):
        v = passage_value(f, start, end)
        w = passage_value(r, reflect_cell(f, end), reflect_cell(f, start))
        assert v == w


def test_chart_mapping():
    f = make_lattice_field(0, 4, 4, "geometric", 0.5)
    assert f.cell_at(0, 0) == (0, 0)
    assert f.cell_at(-1, 1) == (1, 0)
    assert f.chart_of((1, 2)) == (1, 3)
    with pytest.raises(DomainError):
        f.cell_at(1, 2)  # parity violation is x=1,t=2

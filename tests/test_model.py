import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import (DomainError, ParameterError, Region, ScalingFrame,
                    SpaceTimePoint, causal_leq, cloud_from_points,
                    make_lattice_field, make_poisson_cloud,
                    model_from_descriptor, passage_value, reflect, rescale,
                    rotate45)
from lpplab import _native, cloud, rng
from lpplab.model import Factory, OrderedQuad, PoissonCloud, record, reflect_cell

import twins

UNIT = Region(0.0, 1.0, 0.0, 1.0)


def test_poisson_cloud_deterministic():
    a = make_poisson_cloud(seed=1, rate=2.0, region=UNIT)
    b = make_poisson_cloud(seed=1, rate=2.0, region=UNIT)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ts, b.ts)
    c = make_poisson_cloud(seed=2, rate=2.0, region=UNIT)
    assert len(a) != len(c) or not np.array_equal(a.xs, c.xs)


def test_poisson_cloud_sorted_and_inside():
    cl = make_poisson_cloud(seed=7, rate=50.0, region=UNIT)
    u, v = cl.ts + cl.xs, cl.ts - cl.xs
    keys = list(zip(u.tolist(), v.tolist(), cl.ts.tolist(), cl.xs.tolist()))
    assert keys == sorted(keys)
    assert cl.u_keys.tobytes() == u.tobytes()
    assert cl.xs.min() >= 0 and cl.xs.max() <= 1


def test_cloud_rejects_repeated_points():
    with pytest.raises(ParameterError, match=r"repeated cloud point \(0.0, 0.5\)"):
        cloud_from_points([(0.0, 0.5), (0.0, 0.5)])
    with pytest.raises(ParameterError, match=r"repeated cloud point \(0.3, 0.5\)"):
        cloud_from_points([(0.3, 0.5), (0.0, 0.2), (0.3, 0.5)])
    # a shared x or a shared t alone is no repeat
    assert len(cloud_from_points([(0.0, 0.5), (0.0, 0.7), (0.2, 0.5)])) == 3


@pytest.mark.parametrize("bounds, name", [((math.nan, 1, 0, 1), "x_lo"),
                                          ((0, math.inf, 0, 1), "x_hi"),
                                          ((0, 1, -math.inf, 1), "t_lo"),
                                          ((0, 1, 0, math.nan), "t_hi")])
def test_region_refuses_a_bound_that_is_not_finite(bounds, name):
    # a NaN bound once passed, and a cloud on it failed later on its mean
    with pytest.raises(ParameterError, match=rf"^region bound {name} must be finite, got "):
        Region(*bounds)


@pytest.mark.parametrize("name, shape", [("xs", (2, 2)), ("ts", (2, 2)), ("xs", ())])
def test_cloud_refuses_coordinates_that_are_not_1d(name, shape):
    # 2-d coordinates once raised "repeated cloud point ([0. 0.] ...)"
    arrays = {"xs": np.full(2, 0.5), "ts": np.full(2, 0.5), name: np.full(shape, 0.5)}
    with pytest.raises(ParameterError) as err:
        PoissonCloud(arrays["xs"], arrays["ts"], UNIT)
    assert str(err.value) == f"cloud {name} must be a 1-d array, got shape {shape}"


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
def test_streams_are_checked_as_seeds_are(kernel, monkeypatch):
    """A stream outside [0, 2^64) or not an integer raises the same
    ParameterError on the compiled stream and on its numpy twin; the
    compiled one used to wrap it."""
    if kernel == "python":
        monkeypatch.setattr(_native, "_loaded", twins.twin_kernels())
    else:
        assert _native.library() is not None
    for stream in (-1, 2**64, -(2**63)):
        with pytest.raises(ParameterError, match="^stream must be a 64-bit unsigned integer"):
            rng.uniforms(0, stream, 3)
    for stream in (1.5, 2.0, np.float64(3.0), "4", None):
        with pytest.raises(ParameterError, match="^stream must be an integer"):
            rng.uniforms(0, stream, 3)
    for stream in (0, np.uint64(2**64 - 1), np.int64(5)):
        key = np.array([7, stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(5)
        assert rng.uniforms(7, stream, 5).tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_non_finite_rates_and_means_and_non_integral_seeds_are_rejected(kernel, monkeypatch):
    if kernel == "python":
        monkeypatch.setattr(_native, "_loaded", twins.twin_kernels())
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


def test_integer_fields_refuse_sums_past_exact_float64_integers():
    """2 x (rows + cols - 1) x max weight, the largest doubled path sum,
    must stay below 2^53 on an integer-valued field."""
    # weights up to 8.8e15: sums once went past 2^53 and lost exactness
    with pytest.raises(ParameterError, match=r"2\^53"):
        make_lattice_field(1, 64, 64, "geometric", 1e-15)
    # a 1x2 field sums at most 2 x 2 weights
    with pytest.raises(ParameterError, match=r"2\^53"):
        make_lattice_field(0, 1, 2, "explicit", weights=[[1.0, 2.0 ** 51]])
    assert make_lattice_field(0, 1, 2, "explicit",
                              weights=[[1.0, 2.0 ** 51 - 1]]).integer_valued
    # a field that is not integer-valued has no such bound
    big = make_lattice_field(0, 1, 2, "explicit", weights=[[0.5, 2.0 ** 60]])
    assert not big.integer_valued


def test_cell_at_rejects_non_integral_anchors_and_returns_ints():
    # (0.5, 3.5) once passed the parity test and mapped to the cell (1.0, 2.0)
    f = make_lattice_field(0, 4, 4, "geometric", 0.5)
    for x, t in ((0.5, 3.5), (0.5, 0), (1, 2.5), (float("nan"), 0), (0, float("inf"))):
        with pytest.raises(DomainError, match="is not integral"):
            f.cell_at(x, t)
    for x, t in ((1, 3), (1.0, 3.0), (np.int64(1), np.float64(3.0))):
        cell = f.cell_at(x, t)
        assert cell == (1, 2) and all(type(k) is int for k in cell)


# ``record`` against ``dataclasses.dataclass``: each twin is one class body
# decorated once by each; a factory default is a ``field`` for the
# dataclass and a ``Factory`` for the record

def _dataclass_factory(make):
    return dataclasses.field(default_factory=make)


def _plain(decorate, factory):
    @decorate
    class Plain:
        a: int
        b: str = "b"
        items: list = factory(list)

        def __post_init__(self):
            if self.a < 0:
                raise ValueError(f"a is negative in {self}")
    return Plain


def _frozen(decorate):
    @decorate(frozen=True)
    class Point:
        x: float
        y: float = 0.0

        def __post_init__(self):
            if self.x != self.x:
                raise ValueError(f"x is NaN in {self}")
    return Point


PLAIN = {"dataclass": _plain(dataclasses.dataclass, _dataclass_factory),
         "record": _plain(record, Factory)}
FROZEN = {"dataclass": _frozen(dataclasses.dataclass), "record": _frozen(record)}
CALLS = [((1,), {}), ((1, "c"), {}), ((), {"a": 2}), ((3,), {"items": [4]}),
         ((), {"items": [1], "b": "x", "a": 5}), ((1, "b", [2]), {})]


def _both(kinds, f):
    """f applied to the dataclass twin and to the record twin."""
    return [f(kinds[name]) for name in ("dataclass", "record")]


def _outcome(f):
    try:
        return "ok", f()
    except Exception as err:  # the type and message must match too
        return type(err).__name__, str(err)


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_record_init_and_repr_match_dataclass(args, kwargs):
    made = _both(PLAIN, lambda c: c(*args, **kwargs))
    assert repr(made[0]) == repr(made[1])
    assert vars(made[0]) == vars(made[1])
    assert list(vars(made[1])) == ["a", "b", "items"]


def test_record_factory_default_is_fresh_per_instance():
    for make in PLAIN.values():
        first, second = make(1), make(2)
        first.items.append(9)
        assert second.items == [] and first.items is not second.items


def test_record_post_init_raises_as_dataclass_does():
    for kinds, bad in ((PLAIN, -1), (FROZEN, float("nan"))):
        got = _both(kinds, lambda c: _outcome(lambda: c(bad)))
        assert got[0] == got[1] and got[0][0] == "ValueError"


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1, "b", [], 4), {}), ((1,), {"a": 2}), ((1,), {"c": 3})])
def test_record_refuses_the_calls_dataclass_refuses(args, kwargs):
    for outcome in _both(PLAIN, lambda c: _outcome(lambda: c(*args, **kwargs))):
        assert outcome[0] == "TypeError"


def test_record_eq_and_ne_match_dataclass():
    for left_args, right_args in ((((1,), (1,))), ((1,), (2,)), ((1, "x"), (1, "y")),
                                  ((1, "b", [2]), (1, "b", [2]))):
        got = _both(PLAIN, lambda c: (c(*left_args) == c(*right_args),
                                      c(*left_args) != c(*right_args)))
        assert got[0] == got[1]
    # an instance of another class, and a tuple of the same values
    for kinds, other in ((PLAIN, FROZEN["record"](1)), (FROZEN, PLAIN["record"](1))):
        got = _both(kinds, lambda c: (c(1) == other, c(1) != other,
                                      c(1) == (1, "b", []), c(1) != (1, 0.0)))
        assert got[0] == got[1] == (False, True, False, True)


def test_record_hash_matches_dataclass():
    assert _both(PLAIN, lambda c: c.__hash__) == [None, None]
    with pytest.raises(TypeError, match="unhashable"):
        hash(PLAIN["record"](1))
    for x, y in ((1.0, 2.0), (0.0, -0.0), (3.5, 0.0)):
        hashes = _both(FROZEN, lambda c: hash(c(x, y)))
        assert hashes[0] == hashes[1] == hash((x, y))
    assert len({FROZEN["record"](1.0), FROZEN["record"](1.0, 0.0)}) == 1


def test_frozen_record_refuses_assignment_and_deletion():
    point = FROZEN["record"](1.0, 2.0)
    for change in (lambda: setattr(point, "x", 5.0), lambda: setattr(point, "z", 5.0),
                   lambda: delattr(point, "y")):
        with pytest.raises(AttributeError):
            change()
    assert (point.x, point.y) == (1.0, 2.0) and not hasattr(point, "z")
    twin = FROZEN["dataclass"](1.0, 2.0)
    with pytest.raises(AttributeError):
        twin.x = 5.0


def test_record_keeps_methods_the_class_defines_and_orders_defaults():
    @record
    class Named:
        a: int

        def __repr__(self):
            return "named"

    assert repr(Named(1)) == "named" and Named(1) == Named(1)
    for decorate in (dataclasses.dataclass, record):
        with pytest.raises(TypeError, match="non-default argument 'b' follows default"):
            decorate(type("Late", (), {"__annotations__": {"a": int, "b": int}, "a": 0}))

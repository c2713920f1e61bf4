import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import (DomainError, cloud_from_points, disjoint2_value, geodesic,
                    greene_values, make_poisson_cloud, network, on_optimal,
                    optimizer2, overlap, passage_profile, passage_value,
                    Region)
from lpplab import oracle
from lpplab.cloud import _pile_counts, row_pass
from lpplab.flow import disjoint_pair


def random_cloud(seed, n, span=1.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-span, span, n)
    ts = rng.uniform(0.05, 0.95, n)
    return cloud_from_points(list(zip(xs, ts)))


HAND = cloud_from_points([(0.0, 0.2), (0.1, 0.5), (-0.3, 0.8)])


def test_passage_hand_example():
    # the third point cannot reach the sink
    assert passage_value(HAND, (0.0, 0.0), (0.0, 1.0)) == 2


def test_passage_empty_diamond():
    assert passage_value(HAND, (0.9, 0.0), (1.0, 0.1)) == 0


def test_passage_uncausal_raises():
    with pytest.raises(DomainError):
        passage_value(HAND, (0.0, 0.0), (5.0, 1.0))


def test_passage_matches_enumeration():
    for seed in range(150):
        cl = random_cloud(seed, 9)
        res = oracle.enumerate_paths(cl, (0.0, 0.0), (0.0, 1.0))
        assert passage_value(cl, (0.0, 0.0), (0.0, 1.0)) == res.optimum


def longest_nondecreasing(vals):
    best = []
    for k, v in enumerate(vals):
        best.append(1 + max([b for b, w in zip(best, vals[:k]) if w <= v], default=0))
    return max(best, default=0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=0, max_size=25))
def test_patience_rows_match_brute_lis(vals):
    counts = _pile_counts(vals, 1, [len(vals)], [math.inf])
    assert counts[0, 0] == longest_nondecreasing(vals)


def test_greene_word_312():
    # the word 3,1,2: in rotated coordinates (u, v) the points are
    # (1,3), (2,1), (3,2), i.e. only 1 -> 2 chains upward
    cl = cloud_from_points([(-1.0, 2.0), (0.5, 1.5), (0.5, 2.5)])
    sums = greene_values(cl, (0.0, 0.0), (0.0, 3.5), 3)
    assert sums == [2, 3, 3]


def test_greene_k_exceeding_count_pads():
    # only two of the three points sit inside the diamond
    sums = greene_values(HAND, (0.0, 0.0), (0.0, 1.0), 10)
    assert sums[-1] == sums[1] == 2
    assert len(sums) == 10
    cl = cloud_from_points([(0.0, 0.2), (0.05, 0.4), (-0.05, 0.6), (0.0, 0.8)])
    sums = greene_values(cl, (0.0, 0.0), (0.0, 1.0), 12)
    # k at the point count exhausts the cloud
    assert sums[-1] == 4


def test_greene_matches_enumeration_k2():
    for seed in range(120):
        cl = random_cloud(seed, 8)
        res = oracle.enumerate_disjoint_pairs(
            cl, ((0.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 1.0)))
        sums = greene_values(cl, (0.0, 0.0), (0.0, 1.0), 2)
        assert sums[1] == res.pair_optimum


def test_disjoint2_three_routes_agree():
    # patience restriction, min-cost flow, exhaustive enumeration
    for seed in range(80):
        cl = random_cloud(seed, 9)
        start, end = (0.0, 0.0), (0.0, 1.0)
        via_greene = disjoint2_value(cl, (start, start), (end, end))
        via_flow = disjoint_pair(cl, (start, start), (end, end))[0]
        want = oracle.enumerate_disjoint_pairs(
            cl, (start, start), (end, end)).pair_optimum
        assert via_greene == via_flow == want


def test_disjoint2_distinct_ends_matches_enumeration():
    for seed in range(60):
        cl = random_cloud(seed, 8)
        starts = ((0.0, 0.0), (0.0, 0.0))
        ends = ((-0.3, 1.0), (0.4, 1.0))
        got = disjoint2_value(cl, starts, ends)
        want = oracle.enumerate_disjoint_pairs(cl, starts, ends).pair_optimum
        assert got == want


def test_row_pass_matches_pointwise():
    cl = make_poisson_cloud(5, 2.0, Region(-6, 6, 0, 8))
    ys = np.linspace(-2.0, 2.0, 21)
    L, L2 = row_pass(cl, (0.0, 0.0), ys, 8.0)
    for y, l, l2 in zip(ys, L, L2):
        assert l == passage_value(cl, (0.0, 0.0), (y, 8.0))
        assert l2 == disjoint2_value(cl, ((0.0, 0.0), (0.0, 0.0)),
                                     ((y, 8.0), (y, 8.0)))


def test_cloud_point_on_the_end_anchor_is_dropped_by_the_row_pass():
    from lpplab import ScalingFrame
    from lpplab.gaplab import gap_sheet, gap_value
    cl = cloud_from_points([(0.0, 1.0), (0.1, 0.5), (0.0, 0.5)])
    start, end = (0.0, 0.0), (0.0, 1.0)
    L, L2 = row_pass(cl, start, [0.0], 1.0)
    sheet = gap_sheet(cl, [0.0], [0.0], ScalingFrame(1.0), (0.0, 1.0))
    assert (L[0], L2[0]) == (1, 2)
    assert passage_value(cl, start, end) == L[0]
    assert greene_values(cl, start, end, 2) == [L[0], L2[0]]
    assert gap_value(cl, start, end) == sheet.values[0, 0] == 2 * L[0] - L2[0]


def test_row_pass_without_targets_returns_empty_arrays():
    L, L2 = row_pass(HAND, (0.0, 0.0), [], 1.0)
    assert L.dtype == L2.dtype == np.int64 and L.shape == L2.shape == (0,)
    prof = passage_profile(HAND, (0.0, 0.0), 1.0, [])
    assert prof.dtype == np.int64 and prof.shape == (0,)


@pytest.mark.parametrize("start, ys, t", [
    ((0.0, 0.0), [math.nan], 1.0),
    ((0.0, 0.0), [0.0, math.inf], 1.0),
    ((math.nan, 0.0), [0.0], 1.0),
    ((0.0, math.nan), [0.0], 1.0),
    ((0.0, 0.0), [0.0], math.nan),
    ((0.0, 0.0), [0.0], math.inf),
], ids=["nan-target", "inf-target", "nan-source-x", "nan-source-t",
        "nan-time", "inf-time"])
def test_row_pass_rejects_non_finite_input(start, ys, t):
    with pytest.raises(DomainError):
        row_pass(HAND, start, ys, t)
    with pytest.raises(DomainError):
        passage_profile(HAND, start, t, ys)


@pytest.mark.parametrize("ys", [[[0.0, 1.0]], 0.0], ids=["2-d", "scalar"])
def test_row_pass_refuses_targets_that_are_not_a_list(ys):
    # a 2-d target list once raised a bare IndexError
    with pytest.raises(DomainError, match=r"^target positions must be a 1-d array, got shape"):
        row_pass(HAND, (0.0, 0.0), ys, 8.0)


def test_explicit_cloud_descriptor_round_trips():
    from lpplab.model import model_from_descriptor, reflect
    for cl in (HAND, reflect(HAND), cloud_from_points([])):
        back = model_from_descriptor(cl.descriptor())
        assert np.array_equal(back.xs, cl.xs) and np.array_equal(back.ts, cl.ts)
        assert back.descriptor() == cl.descriptor()
    seeded = make_poisson_cloud(5, 2.0, Region(-1, 1, 0, 2))
    assert "points" not in seeded.descriptor()


def test_optimizer2_extracts_valid_optimal_pair():
    for seed in range(60):
        cl = random_cloud(seed, 8)
        start, end = (0.0, 0.0), (0.0, 1.0)
        res = oracle.enumerate_disjoint_pairs(cl, (start, start), (end, end))
        pair = optimizer2(cl, (start, start), (end, end))
        assert pair.value == res.pair_optimum
        key = (sorted(map(tuple, pair.left.nodes)), sorted(map(tuple, pair.right.nodes)))
        ok = False
        for c1, c2 in res.optimal_pairs:
            want = (sorted((float(cl.xs[m]), float(cl.ts[m])) for m in c1),
                    sorted((float(cl.xs[m]), float(cl.ts[m])) for m in c2))
            if key == want:
                ok = True
                break
        assert ok, "extracted pair not among oracle optimal pairs"
    for cl, starts, ends in tiny_distinct_anchor_cases(1600, 0):
        res = oracle.enumerate_disjoint_pairs(cl, starts, ends)
        pair = optimizer2(cl, starts, ends)
        assert pair.value == res.pair_optimum
        nodes = lambda c: [(float(cl.xs[m]), float(cl.ts[m])) for m in c]
        assert (pair.left.nodes, pair.right.nodes) in [
            (nodes(c1), nodes(c2)) for c1, c2 in res.optimal_pairs]


def tiny_distinct_anchor_cases(count, seed):
    """Integer clouds of at most 8 points strictly between the anchor
    times, with distinct starts, distinct ends or both; each start is
    causally below its end, so a pair always exists."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        T = float(rng.integers(2, 5))
        s1 = float(rng.integers(-1, 2))
        s2 = s1 + float(rng.integers(0, 2))
        e1 = s1 + float(rng.integers(-1, 2))
        e2 = e1 + float(rng.integers(0, 3))
        starts, ends = ((s1, 0.0), (s2, 0.0)), ((e1, T), (e2, T))
        if s1 == s2 and e1 == e2 or abs(e2 - s2) > T:
            continue
        n = int(rng.integers(1, 9))
        pts = zip(rng.integers(-3, 4, n).astype(float), rng.integers(1, int(T), n).astype(float))
        made += 1
        yield cloud_from_points(list(dict.fromkeys(pts))), starts, ends


def test_optimizer2_sides_are_ordered():
    for seed in range(40):
        cl = random_cloud(seed, 8)
        start, end = (0.0, 0.0), (0.0, 1.0)
        lo = optimizer2(cl, (start, start), (end, end), side="left")
        hi = optimizer2(cl, (start, start), (end, end), side="right")
        for t in np.linspace(0.05, 0.95, 19):
            assert lo.left.position(t) <= lo.right.position(t)
            assert hi.left.position(t) <= hi.right.position(t)


def test_geodesic_sides_bound_all_optimal_chains():
    for seed in range(100):
        cl = random_cloud(seed, 9)
        start, end = (0.0, 0.0), (0.0, 1.0)
        res = oracle.enumerate_paths(cl, start, end)
        left = geodesic(cl, start, end, "left")
        right = geodesic(cl, start, end, "right")
        assert left.value == res.optimum == right.value
        for chain in res.optimal_paths:
            ts = [0.0] + [float(cl.ts[m]) for m in chain] + [1.0]
            xs = [0.0] + [float(cl.xs[m]) for m in chain] + [0.0]
            for t in np.linspace(0.0, 1.0, 21):
                x = float(np.interp(t, ts, xs))
                assert left.position(t) <= x + 1e-9
                assert right.position(t) >= x - 1e-9


def test_on_optimal_matches_union_of_maximal_chains():
    for seed in range(40):
        cl = random_cloud(seed, 8)
        start, end = (0.0, 0.0), (0.0, 1.0)
        res = oracle.enumerate_paths(cl, start, end)
        on_union = set()
        for chain, v in zip(res.paths, res.values):
            if v == res.optimum:
                on_union.update(chain)
        for m in range(len(cl)):
            p = (float(cl.xs[m]), float(cl.ts[m]))
            want = m in on_union
            got = on_optimal(cl, start, end, p)
            assert got == want


def test_on_optimal_source_and_unreachable():
    assert on_optimal(HAND, (0.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    assert not on_optimal(HAND, (0.0, 0.0), (0.0, 1.0), (-5.0, 0.5))


def test_network_empty_diamond_single_edge():
    cl = cloud_from_points([(5.0, 0.5)], pad=6.0)
    net = network(cl, (0.0, 0.0), (0.0, 1.0))
    assert len(net.vertices) == 2 and len(net.edges) == 1


def test_network_two_disjoint_chains():
    cl = cloud_from_points([(-0.25, 0.5), (0.25, 0.5)])
    net = network(cl, (0.0, 0.0), (0.0, 1.0))
    # two length-1 geodesics from source to sink
    assert len(net.vertices) == 2
    assert len(net.edges) == 2


def test_profile_requires_grid():
    with pytest.raises(DomainError):
        passage_profile(HAND, (0.0, 0.0), 1.0)


def test_overlap_node_disjoint_chains_empty():
    cl = cloud_from_points([(-0.25, 0.5), (0.25, 0.5)])
    a = geodesic(cl, (0.0, 0.0), (0.0, 1.0), "left")
    b = geodesic(cl, (0.0, 0.0), (0.0, 1.0), "right")
    ov = overlap(a, b)
    assert all(u == v for u, v in ov.intervals)  # endpoints only


def test_corrupted_chain_tables_raise_replayable_invariant_error(monkeypatch):
    import json
    from lpplab import cloud
    from lpplab.errors import InvariantError
    honest = cloud.chain_tables

    def corrupted(*args):
        idx, F, B, total = honest(*args)
        return idx, F, B + 5, total  # no point lies on an optimal chain any more

    monkeypatch.setattr(cloud, "chain_tables", corrupted)
    with pytest.raises(InvariantError) as err:
        cloud.extremal_chain(HAND, (0.0, 0.0), (0.0, 1.0), "left")
    replay = json.loads(err.value.replay)
    assert replay["side"] == "left" and replay["model"]["model"] == "poisson"


def test_one_chain_table_per_geodesic_network_and_classification(monkeypatch):
    from lpplab import classify, cloud
    honest = cloud.chain_tables
    calls = []

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(cloud, "chain_tables", counted)
    cl = make_poisson_cloud(1003, 1.0, Region(-5, 5, 0, 8))
    start, end = (0.0, 0.0), (0.0, 8.0)
    for op in (lambda: geodesic(cl, start, end, "left"),
               lambda: geodesic(cl, start, end, "right"),
               lambda: network(cl, start, end),
               lambda: classify.classify_geometric(cl, start, end),
               lambda: classify.classify_geometric(cl, start, end, threshold=0.0)):
        calls.clear()
        op()
        assert calls == [(cl, start, end)]


def test_position_reads_arrays_of_times_and_checks_the_span():
    chain = geodesic(HAND, (0.0, 0.0), (0.0, 1.0), "left")
    ts = np.linspace(0.0, 1.0, 11)
    got = chain.position(ts)
    assert got.shape == ts.shape
    assert got.tolist() == [chain.position(float(t)) for t in ts]
    assert type(chain.position(0.5)) is float
    for bad in (np.array([0.5, 1.5]), np.array([-0.1, 0.5]), np.array([np.nan])):
        with pytest.raises(DomainError):
            chain.position(bad)
    with pytest.raises(DomainError):
        chain.position(1.5)

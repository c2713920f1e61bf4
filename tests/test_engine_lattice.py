import numpy as np
import pytest

from lpplab import (DomainError, disjoint2_value, geodesic, make_lattice_field,
                    network, on_optimal, optimizer2, overlap, passage_profile,
                    passage_value)
from lpplab import oracle
from lpplab.lattice import backward_values, forward_values, is_reachable


def field(mat):
    return make_lattice_field(0, len(mat), len(mat[0]), "explicit", weights=mat)


STEP = field([[1, 2], [3, 4]])
ONES = field([[1, 1], [1, 1]])


def random_field(seed, rows, cols):
    return make_lattice_field(seed, rows, cols, "geometric", 0.5)


def test_passage_value_hand_example():
    assert passage_value(STEP, (0, 0), (1, 1)) == 8


def test_passage_matches_enumeration_on_random_4x4():
    for seed in range(40):
        f = random_field(seed, 4, 4)
        res = oracle.enumerate_paths(f, (0, 0), (3, 3))
        assert len(res.paths) == 20
        assert passage_value(f, (0, 0), (3, 3)) == res.optimum


def test_unreachable_raises():
    with pytest.raises(DomainError):
        passage_value(STEP, (1, 1), (0, 0))
    with pytest.raises(DomainError):
        passage_value(STEP, (0, 0), (5, 5))


def test_profile_cumulative_on_single_row():
    f = field([[1, 2, 3, 4]])
    # chart time of cell (0, j) is j
    assert passage_profile(f, (0, 0), 2) == {2: 6}
    assert passage_profile(f, (0, 0), 3) == {3: 10}


def test_profile_matches_pointwise():
    f = random_field(3, 6, 6)
    prof = passage_profile(f, (0, 0), 6)
    for x, v in prof.items():
        cell = f.cell_at(x, 6)
        assert passage_value(f, (0, 0), cell) == v


def test_profile_all_zero_weights():
    f = field([[0, 0, 0], [0, 0, 0]])
    assert set(passage_profile(f, (0, 0), 2).values()) == {0}


def test_geodesic_sides_all_ones():
    left = geodesic(ONES, (0, 0), (1, 1), "left")
    right = geodesic(ONES, (0, 0), (1, 1), "right")
    assert left.nodes == [(0, 0), (1, 0), (1, 1)]
    assert right.nodes == [(0, 0), (0, 1), (1, 1)]
    assert left.value == right.value == 3


def test_geodesic_unique_for_continuous_weights():
    f = make_lattice_field(4, 5, 5, "exponential")
    left = geodesic(f, (0, 0), (4, 4), "left")
    right = geodesic(f, (0, 0), (4, 4), "right")
    assert left.nodes == right.nodes


def test_geodesics_extremal_against_enumeration():
    for seed in range(200):
        f = random_field(seed, 4, 4)
        res = oracle.enumerate_paths(f, (0, 0), (3, 3))
        best = [p for p, v in zip(res.paths, res.values) if v == res.optimum]
        cols = np.array([[c[1] for c in p] for p in best])
        left = geodesic(f, (0, 0), (3, 3), "left")
        right = geodesic(f, (0, 0), (3, 3), "right")
        assert [c[1] for c in left.nodes] == cols.min(axis=0).tolist()
        assert [c[1] for c in right.nodes] == cols.max(axis=0).tolist()
        assert left.value == res.optimum == right.value


def test_disjoint2_hand_examples():
    assert disjoint2_value(STEP, ((0, 0), (0, 0)), ((1, 1), (1, 1))) == 15
    assert disjoint2_value(ONES, ((0, 0), (0, 0)), ((1, 1), (1, 1))) == 6


def test_disjoint2_infeasible_on_single_column():
    f = field([[1], [1], [1]])
    assert disjoint2_value(f, ((0, 0), (0, 0)), ((2, 0), (2, 0))) is None


def test_disjoint2_matches_enumeration():
    for seed in range(120):
        f = random_field(seed, 4, 4)
        want = oracle.enumerate_disjoint_pairs(
            f, ((0, 0), (0, 0)), ((3, 3), (3, 3))).pair_optimum
        got = disjoint2_value(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        assert got == want


def test_disjoint2_distinct_ends_matches_enumeration():
    for seed in range(60):
        f = random_field(seed, 4, 5)
        start = ((0, 0), (0, 0))
        ends = ((3, 3), (2, 4))  # chart x: 3-3=0 < 4-2=2, same chart time 6
        want = oracle.enumerate_disjoint_pairs(f, start, ends).pair_optimum
        got = disjoint2_value(f, start, ends)
        assert got == want


def test_optimizer2_hand_example():
    pair = optimizer2(STEP, ((0, 0), (0, 0)), ((1, 1), (1, 1)))
    assert pair.value == 15
    assert pair.left.nodes == [(0, 0), (1, 0), (1, 1)]
    assert pair.right.nodes == [(0, 0), (0, 1), (1, 1)]
    assert pair.left.value == 8 and pair.right.value == 7


def test_optimizer2_rejects_an_unknown_side():
    # geodesic's check: an unknown side is an error, not the left pair
    from lpplab import cloud_from_points
    cl = cloud_from_points([(0.0, 0.5)])
    for model, starts, ends in ((STEP, ((0, 0), (0, 0)), ((1, 1), (1, 1))),
                                (cl, ((0.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 1.0)))):
        for side in ("middle", "Left", None):
            with pytest.raises(DomainError, match="side must be"):
                optimizer2(model, starts, ends, side=side)
        assert optimizer2(model, starts, ends, side="left") is not None


def test_optimizer2_value_always_matches_disjoint2():
    for seed in range(60):
        f = random_field(seed, 4, 4)
        v = disjoint2_value(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        pair = optimizer2(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        if v is None:
            assert pair is None
        else:
            assert pair.value == v == pair.left.value + pair.right.value
            # chain values are ints on integer fields, as engine.geodesic gives
            assert all(type(u) is int for u in (pair.value, pair.left.value, pair.right.value))


def test_optimizer2_backtracks_continuous_weights():
    # the backtrack tests each move in the sweep's own operand order, so
    # rounding of float weights cannot lose the optimum
    for seed in range(20):
        f = make_lattice_field(seed, 6, 6, "exponential")
        for pairs in ((((0, 0), (0, 0)), ((5, 5), (5, 5))), (((1, 0), (0, 1)), ((5, 4), (4, 5)))):
            for side in ("left", "right"):
                pair = optimizer2(f, *pairs, side=side)
                assert pair.value == pytest.approx(disjoint2_value(f, *pairs), rel=1e-12)
                assert pair.left.value + pair.right.value == pytest.approx(pair.value, rel=1e-12)
                assert type(pair.left.value) is float
                assert not set(pair.left.nodes[1:-1]) & set(pair.right.nodes[1:-1])


def test_optimizer2_extremal_vs_oracle_pairs():
    for seed in range(120):
        f = random_field(seed, 4, 4)
        res = oracle.enumerate_disjoint_pairs(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        if res.pair_optimum is None:
            continue
        lo = optimizer2(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)), side="left")
        hi = optimizer2(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)), side="right")
        # both extracted pairs must be optimal pairs from the oracle set
        assert (lo.left.nodes, lo.right.nodes) in [(list(a), list(b)) for a, b in res.optimal_pairs]
        assert (hi.left.nodes, hi.right.nodes) in [(list(a), list(b)) for a, b in res.optimal_pairs]
        # and pointwise extremal among them, componentwise per time
        for k in range(len(lo.left.nodes)):
            cols1 = [a[k][1] for a, b in res.optimal_pairs]
            cols2 = [b[k][1] for a, b in res.optimal_pairs]
            assert lo.left.nodes[k][1] == min(cols1)
            assert lo.right.nodes[k][1] == min(cols2)
            assert hi.left.nodes[k][1] == max(cols1)
            assert hi.right.nodes[k][1] == max(cols2)


def test_on_optimal():
    assert on_optimal(STEP, (0, 0), (1, 1), (1, 0))
    assert not on_optimal(STEP, (0, 0), (1, 1), (0, 1))
    assert on_optimal(STEP, (0, 0), (1, 1), (0, 0))


def test_network_unique_geodesic():
    f = make_lattice_field(8, 4, 4, "exponential")
    net = network(f, (0, 0), (3, 3))
    assert len(net.vertices) == 2
    assert len(net.edges) == 1


def test_network_all_ones_type_iv_shape():
    net = network(ONES, (0, 0), (1, 1))
    assert len(net.vertices) == 2
    assert len(net.edges) == 2
    assert net.degree_violations == 0


def test_network_builds_one_backward_table(monkeypatch):
    from lpplab import lattice
    honest = lattice.backward_values
    calls = []

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(lattice, "backward_values", counted)
    network(make_lattice_field(8, 4, 4, "exponential"), (0, 0), (3, 3))
    assert len(calls) == 1


IIA = field([[9, 0, 0],
             [9, 9, 5],
             [0, 5, 9]])


def test_network_vertices_match_oracle_branch_structure():
    # terminal split only: unique prefix, branch at (1,1), merge at sink
    net = network(IIA, (0, 0), (2, 2))
    assert passage_value(IIA, (0, 0), (2, 2)) == 41
    res = oracle.enumerate_paths(IIA, (0, 0), (2, 2))
    best = [p for p, v in zip(res.paths, res.values) if v == res.optimum]
    assert len(best) == 2
    assert len(net.vertices) == 3
    assert (1, 1) in net.vertices
    assert len(net.edges) == 3


def test_reverse_triangle_exact():
    f = random_field(17, 5, 5)
    for (a, b, c) in (((0, 0), (2, 2), (4, 4)), ((0, 1), (1, 2), (3, 4)),
                      ((0, 0), (1, 3), (2, 4))):
        lab = passage_value(f, a, b)
        lbc = passage_value(f, b, c)
        lac = passage_value(f, a, c)
        assert lac >= lab + lbc - f.weights[b]


def test_metric_composition_exact():
    f = random_field(23, 5, 5)
    a, c = (0, 0), (4, 4)
    lac = passage_value(f, a, c)
    F = forward_values(f, a)
    B = backward_values(f, c)
    for t in (2, 3, 4, 5):
        vals = []
        for j in range(5):
            i = t - j
            if 0 <= i < 5:
                if is_reachable(F[i, j]) and is_reachable(B[i, j]):
                    vals.append(F[i, j] + B[i, j] - f.weights[i, j])
        assert max(vals) == lac


def test_superadditivity_gap_nonnegative():
    for seed in range(60):
        f = random_field(seed, 4, 4)
        two_l = 2 * passage_value(f, (0, 0), (3, 3))
        l2 = disjoint2_value(f, ((0, 0), (0, 0)), ((3, 3), (3, 3)))
        if l2 is not None:
            assert l2 <= two_l


def test_geodesic_monotone_in_endpoints():
    for seed in range(40):
        f = random_field(seed, 5, 5)
        r1 = geodesic(f, (0, 0), (4, 3), "right")
        r2 = geodesic(f, (0, 0), (4, 4), "right")
        # pointwise: columns of r2 at each chart time >= columns of r1
        cols1 = {i + j: j for i, j in r1.nodes}
        cols2 = {i + j: j for i, j in r2.nodes}
        for t, j in cols1.items():
            if t in cols2:
                assert cols2[t] >= j


def test_overlap_identical_and_disjoint():
    a = geodesic(ONES, (0, 0), (1, 1), "left")
    b = geodesic(ONES, (0, 0), (1, 1), "right")
    same = overlap(a, a)
    assert same.intervals == [(0.0, 2.0)]
    cross = overlap(a, b)
    # the two geodesics share only the endpoints
    assert cross.intervals == [(0.0, 0.0), (2.0, 2.0)]


def test_overlap_prefix_shared():
    a = geodesic(IIA, (0, 0), (2, 2), "left")
    b = geodesic(IIA, (0, 0), (2, 2), "right")
    assert a.nodes != b.nodes
    ov = overlap(a, b)
    assert ov.intervals == [(0.0, 2.0), (4.0, 4.0)]


def test_chain_and_network_serialize_to_json():
    import json
    net = network(IIA, (0, 0), (2, 2))
    doc = json.loads(json.dumps(net.to_jsonable()))
    assert doc["vertices"] == [[0, 0], [1, 1], [2, 2]]
    assert len(doc["edges"]) == 3
    chain = json.loads(json.dumps(net.leftmost.to_jsonable()))
    assert chain["value"] == 41
    assert len(chain["nodes"]) == 5


def test_leftmost_matches_lexicographic_minimum_on_8x8():
    # 8x8 exceeds the oracle caps, so enumerate in-test: all C(14,7)
    # monotone paths as down/right move patterns
    from itertools import combinations
    moves = list(combinations(range(14), 7))  # positions of down-moves
    paths = np.zeros((len(moves), 15, 2), dtype=np.int64)
    for m, downs in enumerate(moves):
        i = j = 0
        for step in range(14):
            if step in downs:
                i += 1
            else:
                j += 1
            paths[m, step + 1] = (i, j)
    for seed in range(200):
        f = random_field(seed, 8, 8)
        vals = f.weights[paths[:, :, 0], paths[:, :, 1]].sum(axis=1)
        best = vals.max()
        opt_cols = paths[vals == best][:, :, 1]
        left = geodesic(f, (0, 0), (7, 7), "left")
        right = geodesic(f, (0, 0), (7, 7), "right")
        assert left.value == best == right.value
        # lexicographically minimal optimal column sequence is the
        # pointwise minimum, and the walk must reproduce it
        lex = min(map(tuple, opt_cols.tolist()))
        assert tuple(c[1] for c in left.nodes) == lex
        assert tuple(c[1] for c in left.nodes) == tuple(opt_cols.min(axis=0))
        assert tuple(c[1] for c in right.nodes) == tuple(opt_cols.max(axis=0))


def test_corrupted_backward_table_raises_replayable_invariant_error():
    import json
    from lpplab import lattice
    from lpplab.errors import InvariantError
    from lpplab.model import model_from_descriptor
    f = random_field(4, 6, 6)
    start, end = (0, 0), (5, 5)
    B = backward_values(f, end)
    B[0, 1] -= 1.0
    B[1, 0] -= 1.0
    with pytest.raises(AssertionError) as err:  # what verify runs still catch
        lattice.geodesic_cells_from_B(f, B, start, end, "left")
    assert isinstance(err.value, InvariantError)
    assert "lost the optimum" in str(err.value)
    replay = json.loads(err.value.replay)
    assert replay["start"] == [0, 0] and replay["end"] == [5, 5]
    assert replay["side"] == "left"
    assert replay["at"] == [0, 0]  # JSON ints: both moves out of the start are lost
    again = model_from_descriptor(replay["model"])
    np.testing.assert_array_equal(again.weights, f.weights)
    # the replayed instance with an honest table walks fine
    walk = lattice.geodesic_cells(again, start, end, "left")
    assert walk.dtype == np.int64 and walk.shape == (11, 2)
    assert walk[0].tolist() == [0, 0] and walk[-1].tolist() == [5, 5]


def test_walk_from_a_start_off_the_grid_raises_domain_error():
    from lpplab import lattice
    f = random_field(1, 4, 4)
    for start in ((-1, 0), (0, -1), (-4, -4), (4, 0), (0, 4)):
        with pytest.raises(DomainError):
            lattice.geodesic_cells(f, start, (3, 3), "left")


def test_invariant_error_survives_pickle_and_deepcopy():
    import copy
    import pickle
    from lpplab import lattice
    from lpplab.errors import InvariantError
    f = random_field(4, 6, 6)
    B = backward_values(f, (5, 5))
    B[0, 1] -= 1.0
    B[1, 0] -= 1.0
    with pytest.raises(InvariantError) as err:
        lattice.geodesic_cells_from_B(f, B, (0, 0), (5, 5), "left")
    for again in (pickle.loads(pickle.dumps(err.value)), copy.deepcopy(err.value)):
        assert type(again) is InvariantError and isinstance(again, AssertionError)
        assert str(again) == str(err.value)
        assert again.args == err.value.args
        assert again.replay == err.value.replay


def test_corrupted_pair_trail_raises_replayable_invariant_error(monkeypatch):
    import json
    from lpplab import lattice
    from lpplab.errors import InvariantError
    f = random_field(5, 5, 5)
    honest = lattice.pair_backward

    def corrupted(*args, **kwargs):
        trail, times = honest(*args, **kwargs)
        trail[1] = trail[1] - 1.0  # every state one time after the start is off by one
        return trail, times

    monkeypatch.setattr(lattice, "pair_backward", corrupted)
    with pytest.raises(InvariantError) as err:
        lattice.optimizer_pair(f, ((0, 0), (0, 0)), ((4, 4), (4, 4)), "right")
    replay = json.loads(err.value.replay)
    assert replay["start_pair"] == [[0, 0], [0, 0]]
    assert replay["end_pair"] == [[4, 4], [4, 4]]
    assert replay["model"]["seed"] == 5

import json
from math import comb

import numpy as np
import pytest

from lpplab import cloud_from_points, make_lattice_field
from lpplab import oracle


def field(mat):
    return make_lattice_field(0, len(mat), len(mat[0]), "explicit", weights=mat)


def random_field(seed, rows, cols):
    return make_lattice_field(seed, rows, cols, "geometric", 0.5)


def random_cloud(seed, n):
    rng = np.random.default_rng(seed)
    return cloud_from_points(list(zip(rng.uniform(-1, 1, n),
                                      rng.uniform(0.05, 0.95, n))))


def test_lattice_path_counts_match_binomials():
    for rows, cols in ((2, 2), (3, 3), (4, 4), (3, 5)):
        f = random_field(1, rows, cols)
        paths = oracle.lattice_paths(f, (0, 0), (rows - 1, cols - 1))
        assert len(paths) == comb(rows + cols - 2, rows - 1)


def test_empty_cloud_single_empty_chain():
    cl = cloud_from_points([])
    res = oracle.enumerate_paths(cl, (0.0, 0.0), (0.0, 1.0))
    assert res.paths == [[]]
    assert res.optimum == 0


def test_pair_enumeration_symmetric_under_reflection():
    from lpplab import reflect
    for seed in range(20):
        f = random_field(seed, 3, 3)
        a = oracle.enumerate_disjoint_pairs(f, ((0, 0), (0, 0)), ((2, 2), (2, 2)))
        b = oracle.enumerate_disjoint_pairs(reflect(f), ((0, 0), (0, 0)), ((2, 2), (2, 2)))
        assert a.pair_optimum == b.pair_optimum
        assert len(a.disjoint_pairs) == len(b.disjoint_pairs)


def test_weak_pair_all_ones():
    f = field([[1, 1], [1, 1]])
    assert oracle.weak_pair_value(f, ((0, 0), (0, 0)), ((1, 1), (1, 1))) == 6


def test_weak_pair_unique_geodesic_instance():
    f = field([[1, 9], [1, 1]])
    weak = oracle.weak_pair_value(f, ((0, 0), (0, 0)), ((1, 1), (1, 1)))
    pairs = oracle.enumerate_disjoint_pairs(f, ((0, 0), (0, 0)), ((1, 1), (1, 1)))
    assert pairs.pair_optimum == 14  # disjoint pair counts corners twice
    assert weak == 14  # the disjoint pair is also the best weak pair


def test_instance_too_large_refused():
    f = random_field(0, 6, 6)
    with pytest.raises(oracle.InstanceTooLarge):
        oracle.enumerate_paths(f, (0, 0), (5, 5))
    cl = random_cloud(0, 13)
    with pytest.raises(oracle.InstanceTooLarge):
        oracle.enumerate_paths(cl, (0.0, 0.0), (0.0, 1.0))


def default_batch(n_lattice=40, n_cloud=40):
    batch = []
    for seed in range(n_lattice):
        rows = 2 + seed % 3
        cols = 2 + (seed // 3) % 3
        batch.append((random_field(seed, rows, cols), (0, 0), (rows - 1, cols - 1)))
    for seed in range(n_cloud):
        batch.append((random_cloud(seed, 4 + seed % 6), (0.0, 0.0), (0.0, 1.0)))
    return batch


def test_verify_engine_default_batch_passes():
    report = oracle.verify_engine(default_batch())
    assert report["checked"] == report["instances"] == 80
    assert report["weak_greater"] + report["weak_equal"] == report["pair_feasible"]


def test_verify_engine_empty_batch_warns():
    report = oracle.verify_engine([])
    assert "warning" in report


def test_verify_engine_fault_injection():
    def buggy_passage(model, start, end):
        from lpplab import passage_value
        return passage_value(model, start, end) + 1

    with pytest.raises(AssertionError) as err:
        oracle.verify_engine(default_batch(5, 0), funcs={"passage_value": buggy_passage})
    payload = json.loads(str(err.value).split(": ", 1)[1])
    assert "model" in payload and "want" in payload and "got" in payload


def test_weak_vs_disjoint_probe_frequencies():
    # the probe reports how often the weak optimum beats the disjoint one
    report = oracle.verify_engine(default_batch(30, 30))
    assert report["pair_feasible"] > 0
    assert 0 <= report["weak_greater"] <= report["pair_feasible"]


def test_tiny_batch_draws_its_clouds_from_the_philox_stream():
    """The verify batch: 4-10 points per cloud inside x in [-1, 1),
    t in [0.05, 0.95), from the (seed + k, ORACLE_CLOUD) stream, and the
    engine matches enumeration on all of it."""
    from lpplab import rng
    batch = oracle.tiny_batch(0, 200, 200)
    clouds = [m for m, _, _ in batch[200:]]
    assert [len(c) for c in clouds] == [4 + k % 7 for k in range(200)]
    u = rng.uniforms(5, rng.Stream.ORACLE_CLOUD, 2 * (4 + 5 % 7))
    assert sorted(zip(clouds[5].ts, clouds[5].xs)) == sorted(
        zip(0.05 + 0.9 * u[9:], -1.0 + 2.0 * u[:9]))
    assert oracle.verify_engine(batch)["checked"] == 400


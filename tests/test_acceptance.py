"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with its key
numbers.  Runs are fully seeded: every statistic below is a
deterministic function of the code, so the asserted windows are exact
reproducibility checks as much as statistical targets.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lpplab import (Region, ScalingFrame, disjoint2_value, geodesic,
                    greene_values, make_lattice_field, make_poisson_cloud,
                    network, optimizer2, passage_value)
from lpplab import busemann as bz
from lpplab import classify as cls
from lpplab import cli, gaplab, oracle
from lpplab.cloud import row_pass
from lpplab.config import parse_config
from lpplab.model import anchor_layout, cloud_from_points, environment_for


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- 1
def lattice_network_vertices_oracle(model, start, end):
    res = oracle.enumerate_paths(model, start, end)
    best = [p for p, v in zip(res.paths, res.values) if v == res.optimum]
    outs = {}
    ins = {}
    for p in best:
        for a, b in zip(p[:-1], p[1:]):
            outs.setdefault(a, set()).add(b)
            ins.setdefault(b, set()).add(a)
    verts = {start, end}
    for c in set().union(*[set(p) for p in best]):
        if len(outs.get(c, ())) >= 2 or len(ins.get(c, ())) >= 2:
            verts.add(c)
    return verts


def criterion_1_batch(seed, n_lattice, n_cloud):
    """Criterion 1's instances: the lattice instances of oracle.tiny_batch,
    and clouds of 4-10 points drawn with numpy's default generator, so
    the criterion keeps its fixed 400 instances and its PASS line."""
    batch = oracle.tiny_batch(seed, n_lattice, 0)
    for k in range(n_cloud):
        rng = np.random.default_rng(seed + 10_000 + k)
        npts = 4 + k % 7
        pts = list(zip(rng.uniform(-1, 1, npts), rng.uniform(0.05, 0.95, npts)))
        batch.append((cloud_from_points(pts), (0.0, 0.0), (0.0, 1.0)))
    return batch


def test_criterion_1_oracle_equivalence():
    started = time.time()
    batch = criterion_1_batch(0, 200, 200)
    rep = oracle.verify_engine(batch)
    assert rep["checked"] == 400
    checked_extra = 0
    for model, start, end in batch:
        pairs = oracle.enumerate_disjoint_pairs(model, (start, start), (end, end))
        want_pair = pairs.pair_optimum
        if hasattr(model, "weights"):
            got_gap = gaplab.gap_value(model, start, end)
            want_gap = (None if want_pair is None else
                        2 * oracle.enumerate_paths(model, start, end).optimum - want_pair)
            assert got_gap == want_gap
            if want_pair is not None:
                pr = optimizer2(model, (start, start), (end, end))
                assert pr.value == want_pair
            net = network(model, start, end)
            assert set(map(tuple, net.vertices)) == \
                lattice_network_vertices_oracle(model, start, end)
            checked_extra += 1
        else:
            sums = greene_values(model, start, end, 2)
            assert sums[0] == oracle.enumerate_paths(model, start, end).optimum
            assert sums[1] == want_pair
            pr = optimizer2(model, (start, start), (end, end))
            assert pr.value == want_pair
            checked_extra += 1
    elapsed = time.time() - started
    report(1, elapsed < 30.0,
           f"400 instances match enumeration (passage, pairs, greene, "
           f"optimizer2, gap, network vertices); weak probe equal on "
           f"{rep['weak_equal']}/{rep['pair_feasible']}; {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------- 2
def test_criterion_2_poisson_centering():
    started = time.time()
    means = {}
    for t in (10, 20, 40):
        vals = []
        for s in range(100):
            region = Region(-t / 2 - 1, t / 2 + 1, 0, t)
            clp = make_poisson_cloud(seed=1000 + s, rate=2.0, region=region)
            vals.append(passage_value(clp, (0, 0), (0, t)) / (2.0 * t))
        means[t] = float(np.mean(vals))
    elapsed = time.time() - started
    ok = means[10] < means[20] < means[40] and means[40] >= 0.90 and elapsed < 120
    report(2, ok, f"mean d/(2t): {means[10]:.3f} < {means[20]:.3f} < "
                  f"{means[40]:.3f}, last >= 0.90; {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------- 3, 4
def agreement_for(n, seeds, threshold=1.0):
    frame = ScalingFrame(float(n))
    total = cls.AgreementMatrix(meta={"n": n})
    a, t0 = anchor_layout(n, 2.0)
    xs = [x for x in range(-a, a + 1) if (x + t0) % 2 == 0]
    ys = [y for y in range(-a, a + 1) if (y + t0 + n) % 2 == 0]
    for s in seeds:
        env = environment_for(s, "geometric", t0, n, -a, a, 0.5)
        total.merge(cls.agreement_matrix(env, xs, ys, (t0, t0 + n), frame,
                                         threshold=threshold))
    return total


def test_criterion_3_zero_split_exact(tmp_path):
    started = time.time()
    mat = agreement_for(128, range(4))
    (tmp_path / "agreement_n128.csv").write_text(mat.to_csv())
    (tmp_path / "agreement_n128.json").write_text(
        json.dumps(mat.to_jsonable(), sort_keys=True))
    ok = mat.samples >= 10_000 and mat.zero_split_agreement() == 1.0
    elapsed = time.time() - started
    report(3, ok, f"{mat.samples} endpoint pairs at n=128, zero/nonzero split "
                  f"agreement {mat.zero_split_agreement():.4f} (exact); "
                  f"double bridges {mat.double_bridges}; {elapsed:.1f}s")


def test_criterion_4_minimum_dictionary_trend():
    started = time.time()
    rates = {}
    for n, seeds in ((32, range(4)), (64, range(3)), (128, range(2))):
        mat = agreement_for(n, seeds)
        rate, pop = mat.subpopulation_agreement()
        rates[n] = (rate, pop)
    elapsed = time.time() - started
    r = [rates[n][0] for n in (32, 64, 128)]
    ok = r[0] <= r[1] <= r[2] and elapsed < 900
    report(4, ok, "I/IIa/IIb/III agreement rate non-decreasing: "
                  + " <= ".join(f"{v:.4f}" for v in r)
                  + f" (populations {[rates[n][1] for n in (32, 64, 128)]}); "
                  f"{elapsed:.1f}s < 900s")


# ---------------------------------------------------------------- 5
def test_criterion_5_zero_set_dimension():
    started = time.time()
    n = 128
    frame = ScalingFrame(float(n))
    half = 2.0 * n ** (2.0 / 3.0)
    pad = n / 2 + 1
    dims, r2s = [], []
    for seed in range(20):
        region = Region(-(half + pad), half + pad, 0, n)
        clp = make_poisson_cloud(seed, 2.0, region)
        xs = np.linspace(-half, half, 256)
        sheet = gaplab.gap_sheet(clp, xs, xs, frame, (0.0, float(n)))
        z = gaplab.zero_set(sheet)
        est = gaplab.box_dimension(z.rescaled_points(),
                                   [0.25 / 2 ** k for k in range(5)])
        dims.append(est.estimate)
        r2s.append(est.r2)
    mean_dim = float(np.mean(dims))
    mean_r2 = float(np.mean(r2s))
    elapsed = time.time() - started
    ok = 0.35 <= mean_dim <= 0.65 and mean_r2 >= 0.9 and elapsed < 1200
    report(5, ok, f"zero-set box dimension {mean_dim:.3f} in [0.35, 0.65], "
                  f"fit R^2 {mean_r2:.3f} >= 0.9, over 20 seeds of a 256x256 "
                  f"sheet at n={n}; {elapsed:.0f}s < 1200s")


# ---------------------------------------------------------------- 6
def test_criterion_6_slice_brownianity():
    started = time.time()
    n = 256
    frame = ScalingFrame(float(n))
    half = 2.0 * n ** (2.0 / 3.0)
    r2s = []
    for seed in range(20):
        pad = n / 2 + 1
        region = Region(-(half + pad), half + pad, 0, n)
        clp = make_poisson_cloud(seed, 2.0, region)
        ys = np.linspace(-half, half, 1025)
        L, L2 = row_pass(clp, (0.0, 0.0), ys, float(n))
        G = (2.0 * L - L2).astype(float)
        rep = gaplab.brownianity(G, spacing=float(ys[1] - ys[0]), frame=frame,
                                 lags=list(range(2, 21, 2)))
        r2s.append(rep.r2)
    mean_r2 = float(np.mean(r2s))
    elapsed = time.time() - started
    report(6, mean_r2 >= 0.95,
           f"variance-vs-lag linear fit R^2 {mean_r2:.4f} >= 0.95 on G_x "
           f"slices at n=256 over 20 seeds; {elapsed:.0f}s")


# ---------------------------------------------------------------- 7
def test_criterion_7_busemann_certificates_and_quadrangle():
    started = time.time()
    n = 128
    t0 = 2 * int(n ** (2.0 / 3.0)) + 2
    horizons = (n, 2 * n)
    thetas = [-0.25, -0.125, 0.0, 0.125, 0.25]
    grid = [x for x in range(-t0, t0 + 1, 2)]
    certified_total = 0
    certified_mismatch = 0
    provisional = 0
    profiles = {}
    gap_cert = 0
    for seed in range(4):
        env = environment_for(seed, "geometric", t0, 2 * n, -t0, t0, 0.5)
        for th in thetas:
            prof = bz.busemann_profile(env, th, grid, horizons, t0=t0)
            profiles[(seed, th)] = prof
            certified_total += int(prof.certified.sum())
            certified_mismatch += int(np.sum(
                prof.certified & (prof.values[0] != prof.values[1])))
            both = prof.coalesced[0] & prof.coalesced[1]
            provisional += int(np.sum(both & (prof.values[0] != prof.values[1])))
        dirs = bz.exceptional_scan(env, (-0.3, 0.3), n, t0=t0, threshold=0.75)
        for d in dirs[:2]:
            gp = bz.busemann_gap(env, d, grid, horizons)
            gap_cert += int(gp.certified.sum())
            mask = gp.certified
            assert np.all(gp.values[0][mask] == gp.values[1][mask])
    # quadrangle on certified values: sampled quadruples
    rng = np.random.default_rng(0)
    violations = 0
    comparisons = 0
    attempts = 0
    while comparisons < 10_000 and attempts < 200_000:
        attempts += 1
        seed = int(rng.integers(0, 4))
        ta, tb = sorted(rng.choice(thetas, 2, replace=False))
        pa, pb = profiles[(seed, ta)], profiles[(seed, tb)]
        good = np.nonzero(pa.certified & pb.certified)[0]
        if good.size < 2:
            continue
        u, v = sorted(rng.choice(good, 2, replace=False))
        if u == v:
            continue
        comparisons += 1
        da = pa.values[0, v] - pa.values[0, u]
        db = pb.values[0, v] - pb.values[0, u]
        if db < da:
            violations += 1
    rate = violations / comparisons
    elapsed = time.time() - started
    ok = (certified_mismatch == 0 and rate <= 0.01
          and certified_total > 0 and gap_cert > 0)
    report(7, ok, f"100% of certified values identical across horizons "
                  f"({certified_total} certified Busemann + {gap_cert} "
                  f"certified gap values, 0 mismatches; {provisional} "
                  f"coalesced-but-unstable values reported provisional); "
                  f"quadrangle violations {violations}/{comparisons} "
                  f"= {rate:.4%} <= 1%; {elapsed:.0f}s")


# ---------------------------------------------------------------- 8
def test_criterion_8_reflected_walk_diagnostics():
    started = time.time()
    H, T0 = 200, 128
    horizons = (H, 2 * H)
    frame = ScalingFrame(float(H))
    unit = frame.space_unit
    scales = [2.0 / 2 ** k for k in range(6)]
    counts = np.zeros(len(scales))
    inc_pool = {lag: [] for lag in range(1, 9)}
    n_dirs = 0
    zero_total = 0
    nonneg = True
    seed = 0
    while n_dirs < 10 and seed < 20:
        env = environment_for(seed, "geometric", T0, 2 * H, -128, 128, 0.5)
        dirs = bz.exceptional_scan(env, (-0.35, 0.35), H, t0=T0, threshold=1.0)
        for d in dirs:
            if n_dirs >= 10:
                break
            prof = bz.busemann_gap(env, d, range(-128, 129, 2), horizons,
                                   frame=frame)
            vs = prof.values[0]
            mask = np.isfinite(vs)
            xs, v = prof.x_grid[mask], vs[mask]
            if xs.size < 64:
                continue
            n_dirs += 1
            nonneg &= bool(np.all(v >= 0))
            zx = xs[v == 0] / unit
            zero_total += zx.size
            if zx.size:
                counts += gaplab.box_counts(zx[:, None], scales)
            runs = bz.excursions(xs, v, 2, 9)
            for lag in inc_pool:
                for r in runs:
                    if r.size > lag:
                        inc_pool[lag].extend((r[lag:] - r[:-lag]) / frame.value_unit)
        seed += 1
    slope, _, r2_dim = gaplab.linear_fit(np.log(1.0 / np.array(scales)), np.log(counts))
    sx = [lag for lag, incs in inc_pool.items() if len(incs) > 30]
    sy = [float(np.var(np.array(inc_pool[lag]))) for lag in sx]
    _, _, r2_inc = gaplab.linear_fit(sx, sy)
    elapsed = time.time() - started
    ok = (n_dirs == 10 and nonneg and 0.35 <= slope <= 0.65
          and r2_inc >= 0.9)
    report(8, ok, f"10 directions at horizon 200: pooled zero-set dimension "
                  f"{slope:.3f} in [0.35, 0.65] (fit R^2 {r2_dim:.3f}, "
                  f"{zero_total} zeros), increment regression R^2 "
                  f"{r2_inc:.3f} >= 0.9, gaps nonnegative: {nonneg}; "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------- 9
def test_criterion_9_min_formula_trend():
    started = time.time()
    means = {}
    for n in (64, 128, 256):
        unit = float(n) ** (1.0 / 3.0)
        resids = []
        for seed in range(8):
            a, t0 = anchor_layout(n, 1.5)
            env = environment_for(seed, "geometric", t0, n, -a, a, 0.5)
            t1 = t0 + n
            ys = [y for y in range(-a, a + 1) if (y + t1) % 2 == 0]
            sample = ys[::max(1, len(ys) // 12)]
            x = 0 if t0 % 2 == 0 else 1
            out = gaplab.min_formula_residuals_batch(env, x, sample, (t0, t1))
            resids.extend(abs(v) / unit for v in out.values())
        means[n] = float(np.mean(resids))
    # exactness status on tiny instances, from the oracle
    exact = 0
    total = 0
    for seed in range(30):
        f = make_lattice_field(seed, 5, 5, "geometric", 0.5)
        res = gaplab.min_formula_residual(f, 0, -2, 2, times=(0, 6))
        if res is not None:
            total += 1
            exact += res.residual == 0.0
    elapsed = time.time() - started
    ok = means[64] > means[128] > means[256]
    report(9, ok, f"mean rescaled |residual| strictly decreasing: "
                  f"{means[64]:.4f} > {means[128]:.4f} > {means[256]:.4f}; "
                  f"tiny-instance exactness {exact}/{total} (oracle-checked); "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------- 10
def test_criterion_10_determinism_across_threads(tmp_path):
    started = time.time()
    outs = []
    for threads in (1, 4, 8):
        doc = {"command": "gap", "n": 24, "grid_points": 12, "replicates": 3,
               "seed": 11, "threads": threads}
        cfg = parse_config(json.dumps(doc))
        out, ok = cli.run_experiment(cfg, tmp_path / f"threads{threads}")
        assert ok
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.suffix in (".csv", ".bin", ".svg"))
    identical = True
    for name in names:
        blobs = {(o / name).read_bytes() for o in outs}
        identical &= len(blobs) == 1
    elapsed = time.time() - started
    report(10, identical and len(names) >= 9,
           f"byte-identical artifact tree at 1, 4, 8 threads "
           f"({len(names)} files compared); {elapsed:.0f}s")

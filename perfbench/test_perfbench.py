"""Tests of the benchmark itself: smoke runs, failure counting, self time."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(bench.SRC))

TINY = {
    "poisson_gap": ({"command": "gap", "model": "poisson", "n": 8, "grid_points": 8,
                     "replicates": 2, "threads": 2}, "cloud.row_pass_calls"),
    "lattice_gap": ({"command": "gap", "model": "geometric", "n": 16, "grid_points": 8,
                     "replicates": 1, "threads": 1}, "lattice.pair_sweep_calls"),
    "lattice_classify": ({"command": "classify", "n_list": [16], "seeds_per_n": 1},
                         "lattice.walks"),
    "busemann_witness": ({"command": "busemann", "n": 32, "grid_points": 8, "directions": 2,
                          "theta_lo": -0.5, "theta_hi": 0.5, "threshold": 0.75},
                         "busemann.backward_tables"),
}


def _deadline():
    return time.monotonic() + 60.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_untraced_and_traced(tmp_path, name):
    config, busy_counter = TINY[name]
    assert config["command"] == bench.WORKLOADS[name]["command"]
    plain = bench.run_workload(config, 3, 0.0, False, tmp_path / "plain")
    assert bench.summary(plain) == {"attempted": 1, "failed": 0, "failed_frac": 0.0}
    metrics = bench.end_to_end(plain)
    assert [k for k, _ in bench.END_TO_END] == list(metrics)
    assert all(v > 0 for v in metrics.values())

    # traced and untraced experiments alternate and must repeat the first digests
    traced = bench.run_workload(config, 3, 0.0, True, tmp_path / "traced")
    assert bench.summary(traced)["failed"] == 0
    assert [e["traced"] for e in traced["experiments"]] == [True, False]
    assert traced["experiments"][0]["digests"] == plain["experiments"][0]["digests"]
    layers = bench.per_layer(traced)
    assert list(layers) == bench.PER_LAYER
    assert layers[busy_counter] > 0
    assert 0.0 < layers["trace.accounted_frac"] <= 1.0


def _tiny_experiment(tmp_path, command="gap", config=None):
    config = config or TINY["lattice_gap"][0]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config, "seed": 1}))
    return bench.run_experiment(command, cfg_path, tmp_path / "exp", traced=False,
                                deadline=_deadline())


def test_corrupted_artifact_counts_as_failed(tmp_path):
    good = _tiny_experiment(tmp_path)
    assert good["error"] is None
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "exp", copy)
    sheet = copy / "sheet_0.csv"
    sheet.write_text(sheet.read_text().replace(",", ";", 1))
    digests, error = bench.check_outputs(copy, None)
    assert error is not None and "sheet_0.csv" in error
    bad = dict(good, error=error, units=0)
    assert bench.summary({"experiments": [good, bad]}) == {
        "attempted": 2, "failed": 1, "failed_frac": 0.5}


def test_reference_mismatch_fails(tmp_path):
    good = _tiny_experiment(tmp_path)
    reference = dict(good["digests"], **{"sheet_0.csv": "0" * 64})
    _, error = bench.check_outputs(tmp_path / "exp", reference)
    assert "sheet_0.csv" in error


def test_nonzero_exit_counts_toward_failed_frac(tmp_path):
    # the CLI refuses a config whose command differs from its own
    exp = _tiny_experiment(tmp_path, command="classify")
    assert exp["exit"] != 0 and exp["error"].startswith("exit status")
    assert exp["units"] == 0
    assert bench.summary({"experiments": [exp]})["failed_frac"] == 1.0


def test_host_slowdown_cancels_and_program_slowdown_shows():
    exp = {"wall_s": 1.0, "units": 10, "rss_mb": 40.0}
    base = {"setup": [0.2, 0.2], "reference": [0.25, 0.25], "experiments": [exp, exp]}
    # the host at half speed: every fresh process, the reference too, takes twice as long
    slow_host = {"setup": [0.4, 0.4], "reference": [0.5, 0.5],
                 "experiments": [dict(exp, wall_s=2.0)] * 2}
    slow_program = dict(base, experiments=[dict(exp, wall_s=2.0)] * 2)
    metrics = bench.end_to_end(base)
    assert bench.end_to_end(slow_host) == pytest.approx(metrics)
    assert bench.end_to_end(slow_program)["experiment_s"] == pytest.approx(
        2 * metrics["experiment_s"])
    assert bench.end_to_end(slow_host, normalise=False)["experiment_s"] == pytest.approx(2.0)


def test_self_time_is_duration_minus_child_cover():
    s = 10 ** 9
    spans = [  # (id, parent, start, end) in ns
        (0, None, 0, 100 * s),
        (1, 0, 10 * s, 40 * s), (2, 1, 20 * s, 25 * s),
        (3, 0, 50 * s, 90 * s),
        (4, 3, 55 * s, 60 * s), (5, 3, 58 * s, 70 * s),  # two threads at once
    ]
    got = tracer.self_times(spans)
    assert got[0] == pytest.approx(100 - 30 - 40)
    assert got[1] == pytest.approx(30 - 5)
    assert got[2] == pytest.approx(5)
    assert got[3] == pytest.approx(40 - 15)  # children cover [55, 70]
    assert got[4] == pytest.approx(3 + 1)  # shares [58, 60] with span 5
    assert got[5] == pytest.approx(1 + 10)
    assert sum(got.values()) == pytest.approx(100)


def test_same_layer_call_opens_no_span():
    t = tracer.Tracer("x")
    inner = t.wrap(lambda: 1, "lattice.forward_s")
    outer = t.wrap(lambda: inner() + inner(), "lattice.backward_s")
    root = t.wrap(lambda: outer() + inner(), "cli.self_s")
    assert root() == 3
    assert [(s.name, s.parent) for s in t.spans] == [
        ("cli.self_s", None), ("lattice.backward_s", 0), ("lattice.forward_s", 0)]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / bench.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.BENCH.name}/run.py", "--workload", "lattice_gap",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

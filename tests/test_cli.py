import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpplab import cli, cloud, manifest, svg
from lpplab.config import ConfigError, ExperimentConfig, parse_config, round_trip


def test_parse_minimal_gap_config():
    cfg = parse_config('{"command": "gap", "n": 16, "grid_points": 8}')
    assert cfg.command == "gap"
    assert cfg["n"] == 16
    assert cfg["model"] == "poisson"  # default applied
    assert cfg["threads"] == 1


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "gap", "nosuchkey": 3}')
    assert "nosuchkey" in str(err.value)


def test_parse_rejects_bad_type():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "gap", "n": "many"}')
    assert "n" in str(err.value)


def test_parse_requires_command():
    with pytest.raises(ConfigError):
        parse_config('{"n": 4}')
    with pytest.raises(ConfigError):
        parse_config('{"command": "fly"}')


def test_round_trip_identity():
    cfg = parse_config('{"command": "dim", "n": 24, "seed": 9}')
    again = round_trip(cfg)
    assert again.to_json() == cfg.to_json()


def run(tmp_path, doc, name="run"):
    cfg = parse_config(json.dumps(doc))
    out, ok = cli.run_experiment(cfg, tmp_path / name)
    return out, ok


def test_gap_run_writes_expected_artifacts(tmp_path):
    doc = {"command": "gap", "n": 12, "grid_points": 8, "replicates": 2, "seed": 4}
    out, ok = run(tmp_path, doc)
    assert ok
    for k in range(2):
        assert (out / f"sheet_{k}.csv").exists()
        assert (out / f"sheet_{k}.bin").exists()
        assert (out / f"heatmap_{k}.svg").exists()
    csv = (out / "sheet_0.csv").read_text()
    assert csv.splitlines()[0] == "x,y,G"
    assert len(csv.splitlines()) == 1 + 8 * 8


def test_manifest_references_every_artifact(tmp_path):
    doc = {"command": "gap", "n": 12, "grid_points": 6, "seed": 1}
    out, _ = run(tmp_path, doc)
    doc = manifest.read_manifest(out)
    files = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    listed = {a["path"] for a in doc["artifacts"]}
    assert files == listed
    assert all(manifest.verify_digests(out).values())


def test_manifest_records_the_patience_kernel(tmp_path, monkeypatch):
    poisson = {"command": "gap", "n": 12, "grid_points": 6, "seed": 1}
    lattice = {**poisson, "model": "geometric"}

    def kernel(doc, name):
        return manifest.read_manifest(run(tmp_path, doc, name)[0])["kernels"]

    assert kernel(poisson, "compiled") == {"patience": "compiled", "lattice": None}
    assert kernel(lattice, "lattice") == {"patience": None, "lattice": "compiled"}
    monkeypatch.setattr(cli.cloud, "_compiled", lambda: None)
    assert kernel(poisson, "python") == {"patience": "python", "lattice": None}
    assert kernel(lattice, "lattice_python") == {"patience": None, "lattice": "python"}
    for a, b in (("compiled", "python"), ("lattice", "lattice_python")):
        # the manifest is outside the artifacts
        assert ((tmp_path / a / "sheet_0.bin").read_bytes()
                == (tmp_path / b / "sheet_0.bin").read_bytes())


@pytest.mark.parametrize("threads, n, cpus, want", [
    (1, 5, 8, None), (4, 1, 8, None), (4, 5, 1, None), (8, 5, None, None),
    (2, 5, 8, 2), (64, 3, 8, 3), (10**9, 5, 2, 2), (4, 9, 3, 3)])
def test_fanout_pool_is_capped(threads, n, cpus, want, monkeypatch):
    """The pool has min(threads, tasks, CPUs) workers, and none below 2;
    recorded by a stand-in executor that starts no thread."""
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._fanout(threads, n, lambda k: k * k) == [k * k for k in range(n)]
    assert pools == ([] if want is None else [want])


def test_manifest_detects_tampering(tmp_path):
    out, _ = run(tmp_path, {"command": "gap", "n": 12, "grid_points": 6})
    target = out / "sheet_0.csv"
    target.write_text(target.read_text() + "tampered\n")
    checks = manifest.verify_digests(out)
    assert not checks["sheet_0.csv"]


def test_identical_config_reproduces_identical_bytes(tmp_path):
    doc = {"command": "gap", "n": 12, "grid_points": 8, "replicates": 2, "seed": 7}
    out1, _ = run(tmp_path, doc, "a")
    out2, _ = run(tmp_path, doc, "b")
    for name in ("sheet_0.csv", "sheet_1.csv", "sheet_0.bin", "heatmap_0.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_thread_count_does_not_change_artifacts(tmp_path):
    outs = []
    for threads in (1, 4, 8):
        doc = {"command": "gap", "n": 12, "grid_points": 8, "replicates": 3,
               "seed": 2, "threads": threads}
        out, _ = run(tmp_path, doc, f"t{threads}")
        outs.append(out)
    for name in [f"sheet_{k}.csv" for k in range(3)] + ["zeros_0.csv"]:
        blobs = {(o / name).read_bytes() for o in outs}
        assert len(blobs) == 1


def test_verify_subcommand_passes(tmp_path):
    doc = {"command": "verify", "lattice_instances": 10, "cloud_instances": 10}
    out, ok = run(tmp_path, doc)
    assert ok
    report = json.loads((out / "verify.json").read_text())
    assert report["checked"] == 20


def test_classify_run(tmp_path):
    doc = {"command": "classify", "n_list": [12], "seeds_per_n": 1, "seed": 3}
    out, ok = run(tmp_path, doc)
    assert ok
    assert (out / "matrix_n12.csv").exists()
    records = (out / "records_n12.csv").read_text().splitlines()
    assert records[0] == "x,y,G,geometric,gap"
    assert len(records) > 1


def test_busemann_run(tmp_path):
    doc = {"command": "busemann", "n": 24, "grid_points": 8, "directions": 2,
           "threshold": 0.4, "seed": 6}
    out, ok = run(tmp_path, doc)
    assert ok
    assert (out / "scan.json").exists()
    prof = (out / "busemann_theta0.csv").read_text().splitlines()
    assert prof[0] == "theta,x,value,certified,coalescence_time"


def test_dim_run(tmp_path):
    doc = {"command": "dim", "n": 16, "grid_points": 24, "replicates": 2, "seed": 5}
    out, ok = run(tmp_path, doc)
    assert ok
    lines = (out / "dim.csv").read_text().splitlines()
    assert lines[0] == "replicate,zeros,estimate,r2"
    assert len(lines) == 3


def test_cli_main_entry(tmp_path, capsys):
    rc = cli.main(["gap", "--seed", "3", "--out", str(tmp_path / "cli"),
                   "--threads", "2"])
    assert rc == 0
    assert (tmp_path / "cli" / "manifest.json").exists()


def test_cli_config_command_mismatch(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"command": "gap"}')
    rc = cli.main(["dim", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("doc, key", [
    ({"command": "gap", "n": 8, "bogus": 1}, "bogus"),
    ({"command": "gap", "n": "eight"}, "n"),
    ({"command": "gap", "n": True}, "n"),
    ({"command": "gap", "halfwidth": False}, "halfwidth"),
    ({"command": "gap", "model": "bogus"}, "model"),
    ({"command": "dim", "model": "explicit"}, "model"),
    ({"command": "gap", "n": -4}, "n"),
    ({"command": "gap", "grid_points": 0}, "grid_points"),
    ({"command": "classify", "n_list": ["a"]}, "n_list"),
    ({"command": "classify", "threads": 2}, "threads"),
    ({"command": "busemann", "replicates": 2}, "replicates"),
    ({"command": "verify", "threads": 2}, "threads"),
    ({"command": "busemann", "theta_lo": -1.5}, "-1.5"),
    ({"command": "gap", "halfwidth": -1.0}, "halfwidth"),
    ({"command": "gap", "halfwidth": 0.0}, "halfwidth"),
    ({"command": "sample", "halfwidth": 0}, "halfwidth"),
    ({"command": "dim", "halfwidth": -0.5}, "halfwidth"),
    ({"command": "classify", "halfwidth": 0.0}, "halfwidth"),
    ({"command": "classify", "threshold": -1.0}, "threshold"),
    ({"command": "busemann", "threshold": -0.25}, "threshold"),
    ({"command": "gap", "rate": float("nan")}, "rate"),
    ({"command": "classify", "threshold": float("nan")}, "threshold"),
    ({"command": "gap", "halfwidth": float("inf")}, "halfwidth"),
    ({"command": "gap", "rate": float("inf")}, "rate"),
    ({"command": "gap", "rate": 10 ** 400}, "rate"),
    # raw documents, run as gap: bytes that are not UTF-8, and nesting too deep to parse
    pytest.param(bytes(range(128, 256)), "UTF-8", id="not-utf8"),
    pytest.param(b"[" * 100000, "JSON", id="nested-too-deep"),
])
def test_cli_config_error_exits_2_with_one_line(tmp_path, capsys, doc, key):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    command = "gap" if isinstance(doc, bytes) else doc["command"]
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert key in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["classify", "busemann", "verify"])
def test_threads_flag_exits_2_where_nothing_fans_out(tmp_path, capsys, command):
    rc = cli.main([command, "--threads", "2", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "threads" in err
    assert not (tmp_path / "x").exists()


# tiny runs that together reach every branch reading a key: sample, gap
# and dim once per environment family
_TINY_RUNS = [
    {"command": "sample", "n": 8, "model": "poisson"},
    {"command": "sample", "n": 8, "model": "geometric"},
    {"command": "gap", "n": 12, "grid_points": 6, "model": "poisson"},
    {"command": "gap", "n": 12, "grid_points": 6, "model": "geometric"},
    {"command": "dim", "n": 16, "grid_points": 24, "seed": 5, "model": "poisson"},
    {"command": "dim", "n": 16, "grid_points": 24, "seed": 5, "model": "geometric"},
    {"command": "classify", "n_list": [12]},
    {"command": "busemann", "n": 24, "grid_points": 8, "directions": 2,
     "threshold": 0.4, "seed": 6},
    {"command": "verify", "lattice_instances": 2, "cloud_instances": 2},
]


@pytest.mark.parametrize("command", sorted({doc["command"] for doc in _TINY_RUNS}))
def test_every_accepted_key_is_read(tmp_path, monkeypatch, command):
    read = set()
    getitem = ExperimentConfig.__getitem__

    def spy(self, key):
        read.add(key)
        return getitem(self, key)

    monkeypatch.setattr(ExperimentConfig, "__getitem__", spy)
    accepted = set()
    for k, doc in enumerate(d for d in _TINY_RUNS if d["command"] == command):
        cfg = parse_config(json.dumps({**doc, "out": str(tmp_path / str(k))}))
        accepted |= set(cfg.values)
        cli.run_experiment(cfg)
    assert read == accepted


def test_parse_rejects_bool_for_numbers():
    for doc in ('{"command": "gap", "n": true}', '{"command": "gap", "rate": false}'):
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_parse_keeps_threshold_zero_and_small_halfwidths():
    cfg = parse_config('{"command": "classify", "threshold": 0, "halfwidth": 0.01}')
    assert cfg["threshold"] == 0.0 and cfg["halfwidth"] == 0.01
    assert parse_config('{"command": "busemann", "threshold": 0.0}')["threshold"] == 0.0
    assert parse_config('{"command": "gap"}')["halfwidth"] == 2.0
    assert parse_config('{"command": "classify"}')["threshold"] == 1.0


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_out_blocked_by_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("kept")
    monkeypatch.setattr(cli, "_RUNNERS", {})  # any run would raise KeyError
    rc = cli.main(["gap", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("config error: key out:")
    assert (tmp_path / "file").read_text() == "kept"


def test_cli_import_leaves_the_oracle_out():
    code = "import sys, lpplab.cli; print('lpplab.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


LAZY = """
import json, sys
from lpplab import cli
print(json.dumps([m for m in ("numpy.random", "lpplab.engine", "lpplab.flow")
                  if m in sys.modules]))
rc = cli.main(["gap", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([rc, [m for m in ("numpy.random", "lpplab.engine", "lpplab.flow", "subprocess")
                       if m in sys.modules]]))
"""


def test_lattice_gap_run_imports_no_numpy_random_and_no_engine(tmp_path):
    """Importing the CLI loads neither numpy.random nor the engine; a
    lattice gap run samples its field with the compiled Philox stream
    and never asks for a geodesic, so it loads neither either, and it
    loads the cached library without importing subprocess."""
    assert cloud._compiled() is not None  # the library is built and cached
    cfg = tmp_path / "gap.json"
    cfg.write_text(json.dumps({"command": "gap", "model": "geometric", "n": 12,
                               "grid_points": 6, "seed": 2}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", LAZY, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert json.loads(lines[0]) == []
    assert json.loads(lines[-1]) == [0, []]
    assert manifest.read_manifest(tmp_path / "out")["kernels"]["lattice"] == "compiled"


def test_engine_names_resolve_from_the_package():
    import lpplab
    from lpplab import engine
    from lpplab import Chain, geodesic, passage_value
    assert (Chain, geodesic, passage_value) == (engine.Chain, engine.geodesic,
                                                engine.passage_value)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lpplab.no_such_name


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["gap", "--config", str(tmp_path / "none.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("law", ["geometric", "exponential", "bernoulli"])
def test_lattice_gap_honours_the_law(tmp_path, law):
    doc = {"command": "gap", "model": law, "n": 12, "grid_points": 6, "seed": 2}
    out, ok = run(tmp_path, doc, law)
    assert ok
    doc = manifest.read_manifest(out)
    assert [env["law"] for env in doc["environments"]] == [law]
    header = json.loads((out / "sheet_0.json").read_text())
    assert header["model"]["law"] == law
    assert header["integer_valued"] == (law != "exponential")


def test_float_sheet_csv_holds_the_binary_values(tmp_path):
    doc = {"command": "gap", "model": "exponential", "n": 16, "grid_points": 8, "seed": 3}
    out, ok = run(tmp_path, doc)
    assert ok
    header = json.loads((out / "sheet_0.json").read_text())
    assert not header["integer_valued"]
    want = np.frombuffer((out / "sheet_0.bin").read_bytes(), dtype=np.float64)
    fields = [line.split(",")[2] for line in (out / "sheet_0.csv").read_text().splitlines()[1:]]
    got = np.array([float(f) if f else np.nan for f in fields])
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(want).any() and not np.array_equal(want, np.rint(want))


def test_svg_determinism_and_shapes():
    m = np.array([[1.0, 2.0], [3.0, np.nan]])
    a = svg.heatmap(m)
    b = svg.heatmap(m)
    assert a == b
    assert a.count("<rect") == 4
    pts = np.array([[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]])
    doc = svg.overlay(pts, (0, 1, 0, 1))
    assert doc.count("<circle") == 3


def test_svg_single_cell():
    doc = svg.heatmap(np.array([[5.0]]))
    assert doc.count("<rect") == 1


def test_zero_overlay_circle_count_matches_zero_set(tmp_path):
    doc = {"command": "gap", "n": 16, "grid_points": 24, "seed": 9}
    out, _ = run(tmp_path, doc)
    zero_rows = (out / "zeros_0.csv").read_text().strip().splitlines()[1:]
    if zero_rows and (out / "zeros_0.svg").exists():
        svg_doc = (out / "zeros_0.svg").read_text()
        assert svg_doc.count("<circle") == len(zero_rows)


def test_manifest_of_empty_run(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    path = manifest.write_manifest(out, {"command": "none"}, {}, [], 0.0)
    doc = manifest.read_manifest(out)
    assert doc["artifacts"] == []
    assert path.name == "manifest.json"

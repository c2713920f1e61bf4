#!/usr/bin/env python3
"""End-to-end benchmark for lpplab: the CLI run as a researcher runs it.

Each experiment is one fresh ``python3 -m lpplab.cli`` process on the
working tree's ``src/``.  A single client runs experiments back to back
(a closed loop) for the given number of seconds.  Experiment k of a run
with seed s uses seed s + (k mod 8), so a run averages over environments,
repeats each of them, and the same seed always gives the same inputs.
Every experiment is checked: exit status, ``manifest.verify_digests``,
and the committed reference digests for (workload, seed) when there are
any.

Before every experiment the loop times a fresh interpreter that imports
lpplab (the set-up) and a fixed reference process that does not use
lpplab.  A shared host changes the speed of every fresh process by tens of
per cent from minute to minute; each time sample is divided by the
reference time measured next to it and scaled by REFERENCE_NOMINAL_S, so
the reported times read as seconds on an idle machine and the host's
drift cancels.  The raw wall times are printed too.

    python3 perfbench/run.py --workload poisson_gap --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

``--trace 1`` alternates traced and untraced experiments and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

# every run ends within 180 s; experiments still running by then are killed
RUN_LIMIT_S = 170.0

# Experiments are sized to about one second: one experiment's time varies
# by about +-20% between repeats on a shared host, so a run needs many of
# them for its median to hold still.
WORKLOADS = {
    # cloud row pass, replicate fan-out, heavy artifact writing
    "poisson_gap": {"command": "gap", "model": "poisson", "n": 64,
                    "grid_points": 64, "replicates": 2, "threads": 2},
    # lattice forward tables and pair sweep; no walks, no fan-out
    "lattice_gap": {"command": "gap", "model": "geometric", "n": 128,
                    "grid_points": 64, "replicates": 1, "threads": 1},
    # many forward tables from sources, walks to every sink, bridges
    "lattice_classify": {"command": "classify", "n_list": [64], "seeds_per_n": 1},
    # many sinks: backward tables, pair_backward, witness walks.  Not in
    # BENCHMARK.json: its work depends on the seed (0.4-4.3 s per
    # experiment), too unsteady for a regression bound of 0.25.
    "busemann_witness": {"command": "busemann", "n": 160, "grid_points": 64,
                         "directions": 4, "theta_lo": -0.5, "theta_hi": 0.5,
                         "threshold": 0.75},
}

# a run cycles through this many seeds, each repeat checked against the first
SEEDS_PER_RUN = 8

END_TO_END = [("setup_s", "s"), ("experiment_s", "s"), ("work_per_s", "units/s"),
              ("peak_rss_mb", "MB")]

# self-time metrics, one per wrapped layer boundary (see tracer.SPECS)
SELF_TIMES = ["rng.sample_s", "model.env_s", "cloud.row_pass_s", "lattice.forward_s",
              "lattice.backward_s", "lattice.pair_sweep_s", "lattice.walk_s",
              "lattice.bridge_s", "gaplab.sheet_s", "gaplab.zero_s", "gaplab.serialize_s",
              "classify.agreement_s", "busemann.scan_s", "busemann.profile_s",
              "busemann.gap_s", "svg.render_s", "manifest.digest_s", "cli.self_s"]
COUNTS = ["model.env_builds", "model.cells", "cloud.row_pass_calls", "cloud.targets",
          "lattice.forward_calls", "lattice.forward_cells", "lattice.backward_calls",
          "lattice.pair_sweep_calls", "lattice.pair_steps", "lattice.pair_states",
          "lattice.pair_bytes_computed", "lattice.walks", "lattice.walk_cells",
          "lattice.bridge_calls", "gaplab.sheet_entries", "classify.pairs_attempted",
          "busemann.backward_tables", "busemann.directions", "svg.bytes",
          "manifest.bytes"]
# outputs of the computation: an exact change signals a correctness change
RATIOS = {"lattice.bridge_hit_frac": ("lattice.bridge_hits", "lattice.bridge_calls"),
          "gaplab.finite_frac": ("gaplab.finite_entries", "gaplab.sheet_entries"),
          "classify.sample_frac": ("classify.samples", "classify.pairs_attempted"),
          "busemann.certified_frac": ("busemann.certified", "busemann.anchors")}
# span-duration percentiles, pooled over the run's traced experiments
PERCENTILES = ["cloud.row_pass", "lattice.pair_sweep"]
TRACE_ONLY = ["cli.cpu_util", "trace.experiment_s", "trace.untraced_experiment_s",
              "trace.overhead_frac", "trace.accounted_frac"]
PER_LAYER = (SELF_TIMES + COUNTS + list(RATIOS)
             + [f"{p}_{q}_s" for p in PERCENTILES for q in ("p50", "p99")] + TRACE_ONLY)

# The reference process: a fresh interpreter that imports numpy and runs
# a fixed mix of interpreter-bound and numpy work, like an lpplab
# experiment in miniature but with no lpplab code, so that no change to
# lpplab moves it.
REFERENCE_CODE = """
import numpy as np
d = {}
for i in range(150000):
    d[i % 977] = d.get(i % 977, 0) + (i * i) % 13
a = np.arange(300000, dtype=np.int64)
for _ in range(30):
    a = np.maximum.accumulate(a[::-1] % 1009) + 1
"""
# its wall time on an idle 2-vCPU Xeon VM; it sets the scale of the
# normalised times and nothing else
REFERENCE_NOMINAL_S = 0.25

SETUP_CODE = ("import pathlib, sys, lpplab.cli; "
              "lpplab.cli.cfgmod.parse_config(pathlib.Path(sys.argv[1]).read_text())")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv, log: Path, deadline: float):
    """Run argv to completion; returns (exit code, wall s, rusage)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


# ---------------------------------------------------------------- checks

def combined_digest(digests: dict) -> str:
    text = "".join(f"{path} {sha}\n" for path, sha in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _gap_entries_ok(out: Path):
    """Every finite gap value in the artifacts is a non-negative integer."""
    for pattern, column in (("sheet_*.csv", "G"), ("records_n*.csv", "G"),
                            ("gap_profile_*.csv", "value")):
        for path in sorted(out.glob(pattern)):
            lines = path.read_text().splitlines()
            col = lines[0].split(",").index(column)
            for line in lines[1:]:
                cell = line.split(",")[col]
                if cell and not cell.isdigit():
                    return f"{path.name}: gap entry {cell!r} is not a non-negative integer"
    return None


def check_outputs(out: Path, expected):
    """Returns (artifact digests, error or None) for one experiment's output.

    ``expected`` is {path: sha256} from the committed reference, or from
    an earlier experiment of the run with the same seed; without it every
    finite gap entry must be a non-negative integer.
    """
    from lpplab import manifest
    try:
        verified = manifest.verify_digests(out)
        doc = manifest.read_manifest(out)
    except (OSError, ValueError, KeyError) as err:
        return None, f"manifest unreadable: {err}"
    bad = sorted(p for p, ok in verified.items() if not ok)
    if bad:
        return None, f"manifest digest mismatch: {', '.join(bad)}"
    digests = {a["path"]: a["sha256"] for a in doc["artifacts"]}
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    if on_disk != set(digests):
        return digests, f"artifacts not in the manifest: {sorted(on_disk ^ set(digests))}"
    if expected is None:
        return digests, _gap_entries_ok(out)
    if digests != expected:
        diff = sorted(p for p in set(digests) | set(expected)
                      if digests.get(p) != expected.get(p))
        return digests, f"artifact digests differ from the expected ones: {', '.join(diff)}"
    return digests, None


def work_units(command: str, out: Path) -> int:
    """Units of work an experiment completed, read from its artifacts."""
    if command == "gap":  # sheet entries: replicates x |xs| x |ys|
        shapes = [json.loads(p.read_text())["shape"] for p in out.glob("sheet_*.json")]
        return sum(rows * cols for rows, cols in shapes)
    if command == "classify":  # classified pairs
        return sum(json.loads(p.read_text())["samples"] for p in out.glob("matrix_n*.json"))
    if command == "busemann":  # anchor rows of the theta=0 profile and gap profiles
        paths = [out / "busemann_theta0.csv", *sorted(out.glob("gap_profile_*.csv"))]
        return sum(len(p.read_text().splitlines()) - 1 for p in paths)
    raise ValueError(f"no work unit for command {command!r}")


# ---------------------------------------------------------------- running

def run_experiment(command: str, cfg_path: Path, out: Path, traced: bool,
                   deadline: float, expected=None) -> dict:
    """One CLI experiment in a fresh process, checked."""
    cli_args = [command, "--config", str(cfg_path), "--out", str(out)]
    spans_path = out.with_suffix(".spans.json")
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), out.name, *cli_args]
    else:
        argv = [sys.executable, "-m", "lpplab.cli", *cli_args]
    code, wall, usage = _spawn(argv, out.with_suffix(".log"), deadline)
    exp = {"id": out.name, "traced": traced, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0, "exit": code, "units": 0,
           "digests": None, "error": None}
    if code != 0:
        tail = out.with_suffix(".log").read_text(errors="replace").strip().splitlines()[-1:]
        exp["error"] = f"exit status {code}: {' '.join(tail)}"
        return exp
    exp["digests"], exp["error"] = check_outputs(out, expected)
    if exp["error"] is None:
        exp["units"] = work_units(command, out)
    if traced and spans_path.is_file():
        exp["trace"] = json.loads(spans_path.read_text())
    return exp


def time_code(source: str, args: list, log: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter running ``source``: the set-up
    (SETUP_CODE, which imports lpplab.cli and parses the config) or the
    reference process (REFERENCE_CODE)."""
    code, wall, _ = _spawn([sys.executable, "-c", source, *args], log, deadline)
    if code != 0:
        raise RuntimeError(f"{log.stem} process failed: "
                           + log.read_text(errors="replace")[-400:])
    return wall


def write_config(config: dict, seed: int, work: Path) -> Path:
    path = work / f"config-{seed}.json"
    path.write_text(json.dumps({**config, "seed": seed}, sort_keys=True))
    return path


def run_workload(config: dict, seed: int, seconds: float, trace: bool, work: Path,
                 reference=None) -> dict:
    """Closed loop over one workload; returns the run record.

    ``reference`` maps a seed (as a string) to its committed digests.  In
    a traced run, experiments alternate traced and untraced, and each
    pair shares a seed.  A set-up and the reference process are timed
    before every experiment, so their samples span the run as the
    experiments do.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    work.mkdir(parents=True, exist_ok=True)
    reference = reference or {}
    load_before = os.getloadavg()[0]
    setup_cfg = write_config(config, seed, work)
    setup_args = ([str(setup_cfg)], work / "setup.log", deadline)
    time_code(SETUP_CODE, *setup_args)  # uncounted: warms the file cache and bytecode
    setup = []
    reference_s = []
    experiments = []
    seen = {}
    start = time.perf_counter()
    while True:
        setup.append(time_code(SETUP_CODE, *setup_args))
        reference_s.append(time_code(REFERENCE_CODE, [], work / "reference.log", deadline))
        k = len(experiments)
        exp_seed = seed + (k // 2 if trace else k) % SEEDS_PER_RUN
        out = work / f"exp{k:03d}"
        exp = run_experiment(config["command"], write_config(config, exp_seed, work), out,
                             traced=trace and k % 2 == 0, deadline=deadline,
                             expected=reference.get(str(exp_seed), seen.get(exp_seed)))
        shutil.rmtree(out, ignore_errors=True)
        exp["seed"] = exp_seed
        experiments.append(exp)
        if exp["error"] is None:
            seen.setdefault(exp_seed, exp["digests"])
        typical = statistics.median(e["wall_s"] for e in experiments)
        done = time.perf_counter() - start + typical > seconds
        if done and (not trace or len(experiments) >= 2):
            break
        if time.monotonic() + typical > deadline:
            break
    return {"seed": seed, "trace": trace, "setup": setup, "reference": reference_s,
            "experiments": experiments, "load_before": load_before, "load_after": os.getloadavg()[0]}


# ---------------------------------------------------------------- metrics

def summary(run: dict) -> dict:
    """Attempted and failed experiments; a failed one is never dropped."""
    exps = run["experiments"]
    failed = sum(e["error"] is not None for e in exps)
    return {"attempted": len(exps), "failed": failed, "failed_frac": failed / len(exps)}


def end_to_end(run: dict, normalise: bool = True) -> dict:
    """The end-to-end metrics of a run.

    With ``normalise``, every time sample is multiplied by
    REFERENCE_NOMINAL_S over the reference time measured just before it;
    otherwise times are raw wall seconds.
    """
    exps = run["experiments"]
    scale = [REFERENCE_NOMINAL_S / r if normalise else 1.0 for r in run["reference"]]
    walls = [e["wall_s"] * f for e, f in zip(exps, scale)]
    return {
        "setup_s": statistics.median(s * f for s, f in zip(run["setup"], scale)),
        "experiment_s": statistics.median(walls),
        "work_per_s": sum(e["units"] for e in exps) / sum(walls),
        "peak_rss_mb": statistics.median(e["rss_mb"] for e in exps),
    }


def _quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def experiment_layers(trace: dict) -> tuple:
    """Per-layer totals of one traced experiment and its span durations."""
    spans = trace["spans"]
    selfs = tracer.self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    names = {s[0]: s[2] for s in spans}
    totals = dict.fromkeys(SELF_TIMES + COUNTS + [n for pair in RATIOS.values() for n in pair], 0)
    durations = {p: [] for p in PERCENTILES}
    for sid, parent, name, start, end, counts in spans:
        totals[name] += selfs[sid]
        for key, value in counts.items():
            totals[key] += value
        prefix = name.rsplit("_", 1)[0]
        if prefix in durations:
            durations[prefix].append((end - start) / 1e9)
        if name == "lattice.backward_s" and names.get(parent, "").startswith("busemann."):
            totals["busemann.backward_tables"] += 1
    return totals, durations


def per_layer(run: dict) -> dict:
    traced = [e for e in run["experiments"] if e["traced"] and e["error"] is None and "trace" in e]
    plain = [e for e in run["experiments"] if not e["traced"] and e["error"] is None]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if not traced:
        return metrics
    layers = [experiment_layers(e["trace"]) for e in traced]
    for name in SELF_TIMES + COUNTS:
        metrics[name] = statistics.median(t[name] for t, _ in layers)
    for name, (num, den) in RATIOS.items():
        metrics[name] = statistics.median(t[num] / t[den] if t[den] else 0.0 for t, _ in layers)
    for prefix in PERCENTILES:
        pooled = [d for _, durs in layers for d in durs[prefix]]
        if pooled:
            metrics[f"{prefix}_p50_s"] = _quantile(pooled, 0.5)
        if len(pooled) >= 1000:  # p99 needs ten samples beyond it
            metrics[f"{prefix}_p99_s"] = _quantile(pooled, 0.99)
    walls = [e["wall_s"] for e in traced]
    metrics["cli.cpu_util"] = statistics.median(e["cpu_s"] / e["wall_s"] for e in traced)
    metrics["trace.experiment_s"] = statistics.median(walls)
    metrics["trace.accounted_frac"] = statistics.median(
        sum(t[n] for n in SELF_TIMES) / e["wall_s"] for (t, _), e in zip(layers, traced))
    if plain:
        untraced = statistics.median(e["wall_s"] for e in plain)
        metrics["trace.untraced_experiment_s"] = untraced
        metrics["trace.overhead_frac"] = metrics["trace.experiment_s"] / untraced - 1.0
    return metrics


# ---------------------------------------------------------------- reporting

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(run: dict) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": run["seed"],
            "loadavg_1m_before": run["load_before"], "loadavg_1m_after": run["load_after"]}


def _tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q} {_quantile(values, q / 100):.4f}"
    return "no high percentile (fewer than 10 samples beyond any)"


def report(name: str, run: dict, metrics: dict, raw, meta: dict) -> None:
    exps = run["experiments"]
    failed = [e for e in exps if e["error"] is not None]
    counts = summary(run)
    units = dict(END_TO_END)
    print(f"== {name} seed {run['seed']} trace {int(run['trace'])}")
    print("meta " + json.dumps(meta, sort_keys=True))
    printed = set()
    for e in exps:  # one combined digest per (workload, seed), to compare commits by eye
        if e["digests"] is not None and e["seed"] not in printed:
            printed.add(e["seed"])
            print(f"digest {name} seed {e['seed']} {combined_digest(e['digests'])}")
    for e in failed:
        print(f"failed {e['id']}: {e['error']}", file=sys.stderr)
    if run["trace"]:
        traced = sum(e["traced"] for e in exps)
        print(f"  {traced} traced and {len(exps) - traced} untraced experiments; "
              f"{counts['failed']} failed")
        for key, value in metrics.items():
            print(f"  {key:32s} {value:.6g} {_layer_unit(key)}")
        wall, share = metrics["trace.experiment_s"], metrics["trace.accounted_frac"]
        print(f"  accounted: {wall * share:.3f} s of self time in spans, cli.self_s included, "
              f"+ {wall * (1 - share):.3f} s outside run_experiment (interpreter start, "
              f"import, exit) = {wall:.3f} s traced experiment")
        return
    walls = [e["wall_s"] * REFERENCE_NOMINAL_S / r for e, r in zip(exps, run["reference"])]
    print(f"  times normalised by the reference process ({REFERENCE_NOMINAL_S} s nominal, "
          f"median {statistics.median(run['reference']):.4f} s in this run); "
          f"raw wall values in brackets")
    print(f"  setup_s       {metrics['setup_s']:.4f} {units['setup_s']} [{raw['setup_s']:.4f}]  "
          f"median of {len(run['setup'])}")
    print(f"  experiment_s  {metrics['experiment_s']:.4f} {units['experiment_s']} "
          f"[{raw['experiment_s']:.4f}]  median of {len(walls)}; {_tail_note(walls)}")
    print(f"  work_per_s    {metrics['work_per_s']:.1f} {units['work_per_s']} "
          f"[{raw['work_per_s']:.1f}]  {sum(e['units'] for e in exps)} units "
          f"over {len(walls)} experiments")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} {units['peak_rss_mb']}  "
          f"median of {len(exps)}")
    print(f"  failed_frac   {counts['failed_frac']:.4f} ratio  "
          f"{counts['failed']} of {counts['attempted']}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = {s: ref["artifacts"] for s, ref in load_reference().get(name, {}).items()}
    work = WORK / f"run-{os.getpid()}-{name}"
    try:
        run = run_workload(WORKLOADS[name], seed, seconds, trace, work, reference=reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(run) if trace else end_to_end(run)
    raw = None if trace else end_to_end(run, normalise=False)
    meta = metadata(run)
    report(name, run, metrics, raw, meta)
    exps = run["experiments"]
    counts = summary(run)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        (WORK / f"trace-{tag}.json").write_text(json.dumps(
            [e["trace"] for e in exps if "trace" in e]))
    for e in exps:
        e.pop("trace", None)
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"workload": name, "meta": meta, "metrics": metrics, "raw_metrics": raw,
         "setup": run["setup"], "reference": run["reference"], "experiments": exps},
        indent=1, sort_keys=True))
    if trace:
        out = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    return {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": out}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_util"):
        return "ratio"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpplab" / "cli.py").is_file():
        print(f"perfbench: no lpplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = bench(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

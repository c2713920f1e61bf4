"""Configuration-driven experiment runner.

Subcommands: sample | gap | classify | busemann | dim | verify.
Each run writes CSV artifacts, optional SVG renders, and a manifest that
digests every file.  ``sample``, ``gap`` and ``dim`` take ``replicates``
and ``threads``: replicates fan out over a thread pool and are written
in replicate order, so the artifact tree is byte-identical for any
thread count.  The pool has at most one worker per replicate and per
CPU.  The compiled kernels release the GIL, so the Poisson row passes
and the lattice sweeps of different replicates run in parallel.  The
other commands run one experiment and reject both keys.  A config
error, or a parameter or domain error raised by the run, exits with
status 2 and one line on stderr.  The manifest records which kernel
ran, for the cloud's patience kernel and for the lattice sweeps
(``kernels``), as ``_native.kernel_ran`` holds it after the run.

Start-up runs only what the command needs.  ``engine`` (and ``flow``)
and ``oracle`` are imported inside the functions that use them.
``classify`` and ``busemann`` are lazy modules: importing this module
puts them in ``sys.modules`` and binds them on the package, but their
code runs only on first attribute access, in ``run_classify`` (which
runs ``classify``) or ``run_busemann`` (which runs both), so a ``gap``,
``sample`` or ``dim`` run never runs either.  They are lazy modules
rather than function-level imports because the benchmark's tracer looks
them up in ``sys.modules`` right after importing this module and wraps
their functions, which runs them; once the tracer imports them itself,
they can become plain function-level imports.  ``concurrent.futures``
is imported only when a run makes a pool of two or more workers.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import _native
from . import config as cfgmod
from . import gaplab, manifest, svg
from .errors import DomainError, ParameterError
from .model import (Region, ScalingFrame, anchor_layout, environment_for,
                    make_poisson_cloud)


def _lazy(name: str):
    """The submodule lpplab.<name>, in sys.modules and bound on the package
    as an import binds it, but executed only on its first attribute
    access (the LazyLoader recipe of the importlib docs).  A module that
    is already imported is returned as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# first touched on the main thread, in run_classify and run_busemann: a
# LazyLoader load is not thread-safe
bz = _lazy("busemann")
cls = _lazy("classify")


def _fanout(threads: int, n: int, fn):
    """Run fn(k) for k in range(n), returning results in index order, on
    at most one worker per task and per CPU."""
    workers = min(threads, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(k) for k in range(n)]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def _poisson_env(seed: int, n: float, halfwidth: float, rate: float):
    a = halfwidth * n ** (2.0 / 3.0)
    pad = n / 2.0 + 1.0
    region = Region(-(a + pad), a + pad, 0.0, float(n))
    return make_poisson_cloud(seed, rate, region)


def _halfspan(n: float, halfwidth: float) -> float:
    # keep anchor pairs inside the causal cone at small n
    return min(halfwidth * n ** (2.0 / 3.0), 0.45 * n)


def _lattice_grids(n: int, halfwidth: float, points: int, t0: int):
    a = int(_halfspan(n, halfwidth))
    t1 = t0 + n
    xs = [x for x in range(-a, a + 1) if (x + t0) % 2 == 0]
    ys = [y for y in range(-a, a + 1) if (y + t1) % 2 == 0]
    stride = max(1, len(xs) // points)
    return xs[::stride], ys[::stride]


def _sheet(cfg, seed: int):
    """The configured environment for one seed and its gap sheet."""
    n, halfwidth, points = cfg["n"], cfg["halfwidth"], cfg["grid_points"]
    if cfg["model"] == "poisson":
        env = _poisson_env(seed, n, halfwidth, cfg["rate"])
        a = _halfspan(n, halfwidth)
        xs = np.linspace(-a, a, points)
        ys, times = xs.copy(), (0.0, float(n))
    else:
        a, t0 = anchor_layout(n, halfwidth)
        env = environment_for(seed, cfg["model"], t0, n, -a, a, cfg["law_param"])
        xs, ys = _lattice_grids(n, halfwidth, points, t0)
        times = (t0, t0 + n)
    return env, gaplab.gap_sheet(env, xs, ys, ScalingFrame(float(n)), times)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def run_sample(cfg, out: Path):
    envs = []

    def one(k):
        seed = cfg["seed"] + k
        if cfg["model"] == "poisson":
            env = _poisson_env(seed, cfg["n"], cfg["halfwidth"], cfg["rate"])
            stats = {"points": len(env)}
        else:
            env = environment_for(seed, cfg["model"], 0, cfg["n"],
                                  -cfg["n"] // 2, cfg["n"] // 2, cfg["law_param"])
            stats = {"cells": env.rows * env.cols,
                     "mean_weight": float(env.weights.mean())}
        return env.descriptor(), stats

    rows = ["replicate,key,value"]
    for k, (desc, stats) in enumerate(_fanout(cfg["threads"], cfg["replicates"], one)):
        envs.append(desc)
        for key, value in stats.items():
            rows.append(f"{k},{key},{value}")
    _write(out / "environments.json", json.dumps(envs, indent=1, sort_keys=True))
    _write(out / "stats.csv", "\n".join(rows) + "\n")
    return {"replicates": cfg["replicates"]}, envs, True


def run_gap(cfg, out: Path):
    envs = []
    zero_counts = []

    def one(k):
        env, sheet = _sheet(cfg, cfg["seed"] + k)
        return env.descriptor(), sheet, gaplab.zero_set(sheet)

    for k, (desc, sheet, zeros) in enumerate(
            _fanout(cfg["threads"], cfg["replicates"], one)):
        envs.append(desc)
        zero_counts.append(len(zeros))
        _write(out / f"sheet_{k}.csv", sheet.to_csv())
        header, blob = sheet.to_binary()
        _write(out / f"sheet_{k}.json", json.dumps(header, sort_keys=True))
        (out / f"sheet_{k}.bin").write_bytes(blob)
        _write(out / f"heatmap_{k}.svg", svg.heatmap(sheet.values))
        zrows = ["x,y"] + [f"{x},{y}" for x, y in zip(zeros.xs, zeros.ys)]
        _write(out / f"zeros_{k}.csv", "\n".join(zrows) + "\n")
        if len(zeros):
            extent = (sheet.x_grid.min(), sheet.x_grid.max(),
                      sheet.y_grid.min(), sheet.y_grid.max())
            pts = np.column_stack([zeros.xs, zeros.ys])
            _write(out / f"zeros_{k}.svg", svg.overlay(pts, extent))
    summary = {"zero_counts": zero_counts,
               "mean_zeros": float(np.mean(zero_counts)) if zero_counts else 0.0}
    return summary, envs, True


def run_classify(cfg, out: Path):
    envs = []
    rates = {}
    for n in cfg["n_list"]:
        frame = ScalingFrame(float(n))
        a, t0 = anchor_layout(n, cfg["halfwidth"])
        xs, ys = _lattice_grids(n, cfg["halfwidth"], 10 ** 9, t0)
        total = cls.AgreementMatrix()
        for s in range(cfg["seeds_per_n"]):
            env = environment_for(cfg["seed"] + s, "geometric", t0, n, -a, a,
                                  cfg["law_param"])
            envs.append(env.descriptor())
            total.merge(cls.agreement_matrix(env, xs, ys, (t0, t0 + n), frame,
                                             threshold=cfg["threshold"]))
        _write(out / f"matrix_n{n}.csv", total.to_csv())
        _write(out / f"records_n{n}.csv", total.records_csv())
        _write(out / f"matrix_n{n}.json", json.dumps(total.to_jsonable(), sort_keys=True))
        rate, pop = total.subpopulation_agreement()
        rates[str(n)] = {"zero_split": total.zero_split_agreement(),
                         "subpopulation_rate": rate, "subpopulation": pop,
                         "samples": total.samples}
    ok = all(v["zero_split"] == 1.0 for v in rates.values())
    return {"rates": rates}, envs, ok


def run_busemann(cfg, out: Path):
    n = cfg["n"]
    window = bz.check_window((cfg["theta_lo"], cfg["theta_hi"]))  # before any field
    a, t0 = anchor_layout(n, 2.0)
    reach = 2 * n + a  # the cone's edge at the last horizon, 2n
    env = environment_for(cfg["seed"], "geometric", t0, 2 * n, -reach, reach,
                          cfg["law_param"])
    horizons = (n, 2 * n)
    dirs = bz.exceptional_scan(env, window, n, t0=t0, threshold=cfg["threshold"])
    dirs = dirs[:cfg["directions"]]
    xs_all = [x for x in range(-a, a + 1) if (x + t0) % 2 == 0]
    stride = max(1, len(xs_all) // cfg["grid_points"])
    xs = xs_all[::stride]
    scan_doc = [{"theta": d.theta, "column_below": d.column_below,
                 "column_above": d.column_above, "jump": d.jump} for d in dirs]
    _write(out / "scan.json", json.dumps(scan_doc, sort_keys=True))
    prof = bz.busemann_profile(env, 0.0, xs, horizons, t0=t0)
    _write(out / "busemann_theta0.csv", prof.to_csv())
    summaries = {"directions": len(dirs),
                 "certified_fraction": float(np.mean(prof.certified))}
    for k, d in enumerate(dirs):
        gp = bz.busemann_gap(env, d, xs, horizons)
        _write(out / f"gap_profile_{k}.csv", gp.to_csv())
    return summaries, [env.descriptor()], True


def run_dim(cfg, out: Path):
    rows = ["replicate,zeros,estimate,r2"]
    estimates = []

    def one(k):
        env, sheet = _sheet(cfg, cfg["seed"] + k)
        zeros = gaplab.zero_set(sheet)
        if len(zeros) < 4:
            return env.descriptor(), len(zeros), None
        span = 2.0 * cfg["halfwidth"]
        scales = [span / 2 ** m for m in range(1, 1 + cfg["scales"])]
        est = gaplab.box_dimension(zeros.rescaled_points(), scales)
        return env.descriptor(), len(zeros), est

    envs = []
    for k, (desc, nz, est) in enumerate(_fanout(cfg["threads"], cfg["replicates"], one)):
        envs.append(desc)
        if est is None:
            rows.append(f"{k},{nz},,")
        else:
            rows.append(f"{k},{nz},{est.estimate:.6f},{est.r2:.6f}")
            estimates.append(est.estimate)
    _write(out / "dim.csv", "\n".join(rows) + "\n")
    summary = {"mean_dimension": float(np.mean(estimates)) if estimates else None,
               "replicates_with_estimates": len(estimates)}
    return summary, envs, True


def run_verify(cfg, out: Path):
    from . import oracle  # only verify needs it: other runs skip its import
    batch = oracle.tiny_batch(cfg["seed"], cfg["lattice_instances"], cfg["cloud_instances"])
    try:
        report = oracle.verify_engine(batch)
        ok = True
    except AssertionError as err:
        report = {"failure": str(err)}
        ok = False
    _write(out / "verify.json", json.dumps(report, indent=1, sort_keys=True))
    return report, [], ok


_RUNNERS = {
    "sample": run_sample,
    "gap": run_gap,
    "classify": run_classify,
    "busemann": run_busemann,
    "dim": run_dim,
    "verify": run_verify,
}

def _check_out(out: Path) -> None:
    """Refuse, before any work, an output path that an existing file
    blocks: the path itself or its nearest existing ancestor."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ParameterError(f"key out: {path} exists and is not a directory")
            return


def run_experiment(cfg: cfgmod.ExperimentConfig, out_dir=None) -> tuple:
    """Dispatch a validated config; returns (out_path, ok)."""
    out = Path(out_dir if out_dir is not None else cfg["out"])
    _check_out(out)
    started = time.time()
    _native.kernel_ran.update(patience=None, lattice=None)
    summaries, envs, ok = _RUNNERS[cfg.command](cfg, out)
    out.mkdir(parents=True, exist_ok=True)  # a run may write no artifact
    manifest.write_manifest(out, json.loads(cfg.to_json()), summaries, envs,
                            wall_clock_s=time.time() - started,
                            kernels=dict(_native.kernel_ran))
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lpplab",
        description="last passage percolation gap/geodesic experiments")
    parser.add_argument("command", choices=cfgmod.COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config; defaults apply when omitted")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        text = (args.config.read_text() if args.config is not None
                else json.dumps({"command": args.command}))
    except OSError as err:
        print(f"config error: cannot read {args.config}: {err.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"config error: {args.config} is not UTF-8 text: {err.reason} at byte {err.start}",
              file=sys.stderr)
        return 2
    flags = {"seed": args.seed, "threads": args.threads,
             "out": None if args.out is None else str(args.out)}
    try:
        cfg = cfgmod.parse_config(text)
        if cfg.command != args.command:
            print(f"config command {cfg.command!r} != CLI command {args.command!r}",
                  file=sys.stderr)
            return 2
        overrides = {key: value for key, value in flags.items() if value is not None}
        if overrides:  # flags are config keys, checked by the same schema
            cfg = cfgmod.parse_config(json.dumps({**json.loads(cfg.to_json()), **overrides}))
        out, ok = run_experiment(cfg)
    except (ParameterError, DomainError) as err:  # ConfigError is a ParameterError
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(f"artifacts written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracer for lpplab experiments.

The tracer wraps public functions of each lpplab layer without touching
the package: every wrapper replaces the original function in each
namespace that holds it (a module that did ``from .model import
make_lattice_field`` resolves its own binding at call time, so that
binding is replaced too).  A span records name, start, end, parent and
experiment id; counts are computed from the call's arguments and return
value after the span closes.  Spans stay in memory and are written once,
when the experiment ends.

A call made from inside a span of the same layer is not a layer boundary
and opens no span (``backward_values`` reflects the field and calls
``forward_values``; that time belongs to the backward table).

Run as a script, it executes one CLI experiment under tracing:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json EXPERIMENT_ID \
        gap --config cfg.json --out out/
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "counts")

    def __init__(self, span_id, parent, name, layer, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[int] = None
        self.counts: Dict[str, float] = {}


class Tracer:
    """In-memory span recorder for one experiment process."""

    def __init__(self, experiment_id: str):
        self.experiment_id = experiment_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span called ``name``.

        The layer is the part of the name before the first dot.  ``count``
        receives (bound arguments, result) and returns a dict of counts.
        """
        layer = name.split(".", 1)[0]
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the experiment root
            parent = stack[-1] if stack else self._root
            if parent is not None and parent.end is not None:
                parent = None
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            with self._lock:
                span = Span(len(self.spans), parent.id if parent is not None else None,
                            name, layer, time.perf_counter_ns())
                self.spans.append(span)
                if self._root is None:
                    self._root = span
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"experiment": self.experiment_id,
                "spans": [[s.id, s.parent, s.name, s.start, s.end, s.counts]
                          for s in self.spans if s.end is not None]}


# ---------------------------------------------------------------- counts

def _env_counts(args, env):
    size = len(env) if hasattr(env, "__len__") else env.rows * env.cols
    return {"model.env_builds": 1, "model.cells": size}


def _forward_counts(args, F):
    field = args["field"]
    i, j = args["start"]
    return {"lattice.forward_calls": 1,
            "lattice.forward_cells": (field.rows - i) * (field.cols - j)}


def _pair_counts(args, result, forward: bool):
    pair = args["start_pair" if forward else "end_pair"]
    a1, a2 = pair
    t = a1[0] + a1[1]
    doubled = tuple(a1) == tuple(a2)
    if forward:
        steps = max(0, args["t_stop"] - (t + 1 if doubled else t))
    else:
        steps = max(0, (t - 1 if doubled else t) - args["t_stop"])
    cols = args["field"].cols
    states = steps * cols * cols
    # computed, not measured: one float64 read and one write per state
    return {"lattice.pair_sweep_calls": 1, "lattice.pair_steps": steps,
            "lattice.pair_states": states, "lattice.pair_bytes_computed": 16 * states}


def _sheet_counts(args, sheet):
    import numpy as np
    return {"gaplab.sheet_entries": int(sheet.values.size),
            "gaplab.finite_entries": int(np.isfinite(sheet.values).sum())}


def _manifest_counts(args, path):
    doc = json.loads(Path(path).read_text())
    return {"manifest.bytes": sum(a["bytes"] for a in doc["artifacts"])}


# (module, attribute, span name, counts): the public boundary of each layer
SPECS = [
    ("lpplab.rng", "uniforms", "rng.sample_s", None),
    ("lpplab.rng", "poisson_count", "rng.sample_s", None),
    ("lpplab.model", "make_poisson_cloud", "model.env_s", _env_counts),
    ("lpplab.model", "make_lattice_field", "model.env_s", _env_counts),
    ("lpplab.cloud", "row_pass", "cloud.row_pass_s",
     lambda a, r: {"cloud.row_pass_calls": 1, "cloud.targets": len(r[0])}),
    ("lpplab.lattice", "forward_values", "lattice.forward_s", _forward_counts),
    ("lpplab.lattice", "backward_values", "lattice.backward_s",
     lambda a, r: {"lattice.backward_calls": 1}),
    ("lpplab.lattice", "pair_forward", "lattice.pair_sweep_s",
     functools.partial(_pair_counts, forward=True)),
    ("lpplab.lattice", "pair_backward", "lattice.pair_sweep_s",
     functools.partial(_pair_counts, forward=False)),
    ("lpplab.lattice", "geodesic_cells_from_B", "lattice.walk_s",
     lambda a, r: {"lattice.walks": 1, "lattice.walk_cells": len(r)}),
    ("lpplab.lattice", "bridge_exists", "lattice.bridge_s",
     lambda a, r: {"lattice.bridge_calls": 1, "lattice.bridge_hits": int(bool(r))}),
    ("lpplab.gaplab", "gap_sheet", "gaplab.sheet_s", _sheet_counts),
    ("lpplab.gaplab", "zero_set", "gaplab.zero_s", None),
    ("lpplab.gaplab", "box_dimension", "gaplab.zero_s", None),
    ("lpplab.gaplab", "GapSheet.to_csv", "gaplab.serialize_s", None),
    ("lpplab.gaplab", "GapSheet.to_binary", "gaplab.serialize_s", None),
    ("lpplab.classify", "agreement_matrix", "classify.agreement_s",
     lambda a, r: {"classify.pairs_attempted": len(a["x_grid"]) * len(a["y_grid"]),
                   "classify.samples": r.samples}),
    ("lpplab.busemann", "exceptional_scan", "busemann.scan_s",
     lambda a, r: {"busemann.directions": len(r)}),
    ("lpplab.busemann", "busemann_profile", "busemann.profile_s",
     lambda a, r: {"busemann.anchors": int(r.certified.size),
                   "busemann.certified": int(r.certified.sum())}),
    ("lpplab.busemann", "busemann_gap", "busemann.gap_s", None),
    ("lpplab.svg", "heatmap", "svg.render_s", lambda a, r: {"svg.bytes": len(r)}),
    ("lpplab.svg", "overlay", "svg.render_s", lambda a, r: {"svg.bytes": len(r)}),
    ("lpplab.manifest", "write_manifest", "manifest.digest_s", _manifest_counts),
    ("lpplab.cli", "run_experiment", "cli.self_s", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every function in SPECS wherever an lpplab module binds it."""
    importlib.import_module("lpplab.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "lpplab" or name.startswith("lpplab.")]
    for module_name, attr, name, count in SPECS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, count))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


# ---------------------------------------------------------------- analysis

def self_times(spans) -> Dict[int, float]:
    """Self time in seconds per span id.

    ``spans`` holds (id, parent, start_ns, end_ns).  Between consecutive
    span boundaries, the wall time goes to the open spans with no open
    child, split evenly among them.  For spans of one thread this is a
    span's duration minus the interval its children cover; spans of
    worker threads running at once share the wall time, so the self
    times of all spans add up to the time the root span is open.
    """
    events = []
    for sid, parent, start, end in spans:
        if end > start:
            events.append((start, 1, sid, parent))
            events.append((end, 0, -sid, parent))
    # at equal times ends come first, children end before parents and
    # parents start before children (a parent's id is smaller)
    events.sort()
    open_children: Dict[int, int] = {}
    leaves: set = set()
    out = {sid: 0.0 for sid, _, _, _ in spans}
    last = None
    for t, kind, key, parent in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves) / 1e9
            for sid in leaves:
                out[sid] += share
        last = t
        if kind == 1:
            sid = key
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            sid = -key
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def main(argv: List[str]) -> int:
    spans_path, experiment_id, *cli_args = argv
    tracer = Tracer(experiment_id)
    install(tracer)
    from lpplab import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

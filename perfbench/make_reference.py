#!/usr/bin/env python3
"""Write perfbench/reference.json: the artifact digests of every workload.

    python3 perfbench/make_reference.py FIRST_SEED LAST_SEED

Runs one untraced experiment per (workload, seed) on the working tree and
records the SHA-256 of each artifact plus one combined digest.  Regenerate
only when a change is meant to alter artifacts; a speed-up must leave this
file unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main(argv) -> int:
    first, last = (int(a) for a in argv)
    sys.path.insert(0, str(run.SRC))
    reference = run.load_reference()
    work = run.WORK / f"reference-{os.getpid()}"
    try:
        for name, config in run.WORKLOADS.items():
            for seed in range(first, last + 1):
                work.mkdir(parents=True, exist_ok=True)
                out = work / "exp"
                exp = run.run_experiment(config["command"], run.write_config(config, seed, work),
                                         out, traced=False,
                                         deadline=time.monotonic() + run.RUN_LIMIT_S)
                shutil.rmtree(out, ignore_errors=True)
                if exp["error"] is not None:
                    print(f"{name} seed {seed}: {exp['error']}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = {
                    "combined": run.combined_digest(exp["digests"]),
                    "artifacts": exp["digests"]}
                print(f"digest {name} seed {seed} {reference[name][str(seed)]['combined']}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

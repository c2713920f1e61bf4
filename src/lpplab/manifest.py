"""Run manifests: every emitted file is referenced with a digest."""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from ._native import sha256

SCHEMA_VERSION = 3
_BLOCK = 1 << 20  # bytes hashed at a time: no artifact is held whole


def sha256_file(path: Path) -> str:
    # the package's one SHA-256 (see _native.sha256): a digest loads no OpenSSL
    h = sha256()
    with path.open("rb", buffering=0) as fh:
        while block := fh.read(_BLOCK):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir, artifacts, config_json: dict, summaries: dict,
                   environments: list, wall_clock_s: float) -> Path:
    """Digest the artifacts, the distinct paths relative to out_dir of
    the files the run wrote, and write manifest.json.

    Other files in out_dir, an earlier run's among them, are not listed.
    Entries are sorted by path.  A ``.csv`` artifact's entry also lists
    its columns, read from the file's header line.  The wall clock is
    informational; determinism claims cover artifacts, not the manifest.
    """
    out = Path(out_dir)
    entries = []
    for name in sorted(artifacts):
        path = out / name
        entry = {"path": name, "sha256": sha256_file(path), "bytes": path.stat().st_size}
        if path.suffix == ".csv":
            with path.open() as fh:
                entry["columns"] = fh.readline().rstrip("\n").split(",")
        entries.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config_json,
        "environments": environments,
        "summaries": summaries,
        "wall_clock_s": wall_clock_s,
        "artifacts": entries,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def read_manifest(out_dir) -> dict:
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def verify_digests(out_dir) -> dict:
    """Recheck every artifact digest; returns {path: ok}."""
    out = Path(out_dir)
    doc = read_manifest(out)
    return {a["path"]: sha256_file(out / a["path"]) == a["sha256"]
            for a in doc["artifacts"]}

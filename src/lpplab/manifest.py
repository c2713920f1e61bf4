"""Run manifests: every emitted file is referenced with a digest."""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 3


def sha256_file(path: Path) -> str:
    import hashlib  # here, not at import: importing the CLI loads no OpenSSL
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir, config_json: dict, summaries: dict,
                   environments: list, wall_clock_s: float) -> Path:
    """Digest every artifact in out_dir and write manifest.json.

    The manifest itself is excluded from its own artifact list.  A
    ``.csv`` artifact's entry also lists its columns, read from the
    file's header line.  The wall clock is informational; determinism
    claims cover artifacts, not the manifest.
    """
    out = Path(out_dir)
    artifacts = []
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            entry = {
                "path": str(path.relative_to(out)),
                "sha256": sha256_file(path),
                "bytes": path.stat().st_size,
            }
            if path.suffix == ".csv":
                with path.open() as fh:
                    entry["columns"] = fh.readline().rstrip("\n").split(",")
            artifacts.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config_json,
        "environments": environments,
        "summaries": summaries,
        "wall_clock_s": wall_clock_s,
        "artifacts": artifacts,
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

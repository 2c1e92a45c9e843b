"""Run manifests: resolved config, seeds, and input fingerprints per output dir."""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .corpus import write_json

MANIFEST_NAME = "manifest.json"


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    subcommand: str,
    argv: Sequence[str],
    resolved_config: Mapping,
    seeds: Mapping[str, int],
    inputs: Mapping[str, str | Path],
    outputs: Sequence[str],
    timings: Mapping | None = None,
) -> dict:
    """The manifest of one run; timings, when given, hold its wall-clock
    measurements, which differ between reruns and so stay out of the data
    outputs."""
    manifest = {
        "tool": "ctxsens",
        "tool_version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "resolved_config": dict(resolved_config),
        "seeds": dict(seeds),
        "inputs": {
            name: {"path": str(path), "sha256": file_sha256(path)}
            for name, path in inputs.items()
        },
        "outputs": list(outputs),
    }
    if timings is not None:
        manifest["timings"] = dict(timings)
    return manifest


def write_manifest(out_dir: str | Path, manifest: Mapping) -> Path:
    """Write the directory's single manifest (overwrites an earlier one)."""
    path = Path(out_dir) / MANIFEST_NAME
    write_json(path, manifest)
    return path

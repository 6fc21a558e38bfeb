"""Canonical JSON serialization and run manifests.

All persisted artifacts use sorted keys, compact separators and lowest-terms
rationals, so identical inputs always produce byte-identical outputs; the
manifest records command, parameters and content hashes for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone


def canonical_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_output(path: str, data) -> str:
    """Write canonical JSON, return its content hash."""
    text = canonical_dumps(data)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(out_path, command, parameters, input_paths, output_hash):
    from . import __version__

    manifest = {
        "command": command,
        "parameters": parameters,
        "input_hashes": {p: file_hash(p) for p in input_paths if os.path.exists(p)},
        "output_hash": output_hash,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "library_version": __version__,
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path

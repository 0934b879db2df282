"""Serialization: CSV curves with 17-significant-digit floats, JSON run
manifests with content hashes, and the no-overwrite run-directory policy."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__


def fmt(value) -> str:
    """Canonical float formatting: 17 significant digits, ints unchanged."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path: Path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def allocate_run_dir(out_dir: str | Path, name: str) -> Path:
    """Fresh run directory; existing ones are never overwritten (suffix policy)."""
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    cand = base / name
    k = 1
    while cand.exists():
        k += 1
        cand = base / f"{name}-{k}"
    cand.mkdir()
    return cand


def write_manifest(run_dir: Path, files, *, trajectory_count: int, excluded_count: int,
                   **fields) -> Path:
    """Write the run's one manifest.json: the two required counts, the given
    fields, the code version and the SHA-256 of each file in files.  Keys
    are sorted, so the same fields give the same bytes."""
    path = Path(run_dir) / "manifest.json"
    payload = {
        **fields,
        "trajectory_count": trajectory_count,
        "excluded_count": excluded_count,
        "code_version": __version__,
        "files": {Path(f).name: sha256_file(f) for f in files},
    }
    with open(path, "x") as fh:  # one manifest per run: never overwritten
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


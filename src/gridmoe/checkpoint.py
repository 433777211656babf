"""Checkpoints: a flat binary of float64 values plus a JSON shape manifest.

The binary holds every parameter concatenated in manifest order (row-major);
no framework serialization is involved, so checkpoints stay portable and
diffable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ShapeError

MANIFEST_SCHEMA = "checkpoint.v1"


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    A write that fails or is killed partway leaves ``path`` as it was (absent
    or the previous complete file), never half written; a killed process may
    leave the hidden temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def manifest_path_for(bin_path) -> Path:
    bin_path = Path(bin_path)
    if bin_path.suffix == ".bin":
        return bin_path.with_suffix(".manifest.json")
    return bin_path.with_name(bin_path.name + ".manifest.json")


def save_checkpoint(bin_path, state: dict[str, np.ndarray]) -> tuple[Path, Path]:
    bin_path = Path(bin_path)
    entries = []
    chunks = []
    for name, array in state.items():
        arr = np.asarray(array, dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape)})
        chunks.append(np.ravel(arr, order="C"))
    flat = np.concatenate(chunks) if chunks else np.empty(0)
    write_atomic(bin_path, flat.tobytes())
    manifest = manifest_path_for(bin_path)
    text = json.dumps({"schema": MANIFEST_SCHEMA, "entries": entries}, indent=2) + "\n"
    write_atomic(manifest, text.encode())
    return bin_path, manifest


def load_checkpoint(bin_path) -> dict[str, np.ndarray]:
    bin_path = Path(bin_path)
    manifest = manifest_path_for(bin_path)
    if not bin_path.exists() or not manifest.exists():
        raise ShapeError(f"checkpoint files missing: {bin_path} / {manifest}")
    try:
        meta = json.loads(manifest.read_text())
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ShapeError(f"{manifest}: not a JSON manifest ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("schema") != MANIFEST_SCHEMA:
        raise ShapeError(f"{manifest}: schema is not {MANIFEST_SCHEMA!r}")
    entries = meta.get("entries")
    if not isinstance(entries, list):
        raise ShapeError(f"{manifest}: 'entries' must be a list")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ShapeError(f"{manifest}: entry {entry!r} needs a string 'name' and a "
                             "'shape' list of non-negative ints")
    raw = bin_path.read_bytes()
    if len(raw) % 8:
        raise ShapeError(f"{bin_path}: {len(raw)} bytes is not a whole number of float64 values")
    flat = np.frombuffer(raw, dtype=np.float64)
    state: dict[str, np.ndarray] = {}
    offset = 0
    for entry in entries:
        if entry["name"] in state:
            raise ShapeError(f"{manifest}: entry name {entry['name']!r} appears more than once")
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        if offset + size > flat.size:
            raise ShapeError(f"{bin_path}: shorter than its manifest declares")
        state[entry["name"]] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    if offset != flat.size:
        raise ShapeError(f"{bin_path}: longer than its manifest declares")
    return state

"""Run configuration: JSON sections -> validated dataclasses, plus manifests.

A config file has sections model, moe, dso, sampler, data, and run. ``SCHEMA``
declares every key once, with its type and default; it drives parsing,
unknown-key rejection and the snapshot. Only ``moe.n_experts``,
``moe.top_k``, and ``run.iterations`` are mandatory. Validation errors always
name the offending field as ``section.key``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .checkpoint import write_atomic
from .data import EVAL_INDEX_OFFSET, MODALITIES
from .dso import DsoConfig
from .errors import ConfigError
from .model import ModelSpec

CONFIG_SNAPSHOT_NAME = "config_snapshot.json"
MANIFEST_NAME = "manifest.json"

REQUIRED = object()  # default of a key every config must give
DERIVED = object()   # default computed from other keys after parsing

# section -> key -> (type, default). A default of None makes the key nullable.
SCHEMA = {
    "model": {"depth": (int, 4), "channels": (int, 8), "moe_layers": (list, [0, 2])},
    "moe": {
        "n_experts": (int, REQUIRED),
        "top_k": (int, REQUIRED),
        "gate_temperature": (float, 0.07),
        "gate_dim": (int, None),  # None: the channel count
    },
    "dso": {"alpha": (float, 0.05), "theta": (float, 1.0), "tau": (float, 3.0),
            "bias_b": (float, 0.4)},
    "sampler": {
        "counts": (dict, {"A": 2, "B": 1, "C": 1}),
        "batch_size": (int, DERIVED),  # the sum of counts
    },
    "data": {"height": (int, 8), "width": (int, 8), "label_noise": (dict, {}),
             "modality_seed": (int, 0)},
    "run": {
        "seed": (int, 0),
        "iterations": (int, REQUIRED),
        "out_dir": (str, "run"),
        "base_lr": (float, 1e-4),
        "dso": (bool, True),
        "moe": (bool, True),
        "stats_samples": (int, 8),
    },
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    dso: DsoConfig
    counts: tuple[tuple[str, int], ...]  # sorted (modality, samples per batch)
    height: int
    width: int
    label_noise: tuple[tuple[str, float], ...]
    modality_seed: int
    seed: int
    iterations: int
    out_dir: str
    base_lr: float
    dso_enabled: bool
    moe_enabled: bool
    stats_samples: int
    # Every resolved key, as plain JSON values; the fields above hold the same.
    sections: dict = field(repr=False, compare=False)

    def snapshot(self) -> dict:
        """Fully resolved config as plain JSON-serializable sections."""
        return copy.deepcopy(self.sections)


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(name, "must be a table/object")
    unknown = sorted(set(section) - SCHEMA[name].keys())
    if unknown:
        raise ConfigError(f"{name}.{unknown[0]}", "unknown key")
    return section


def _value(section: dict, section_name: str, key: str):
    kind, default = SCHEMA[section_name][key]
    dotted = f"{section_name}.{key}"
    if key not in section:
        if default is REQUIRED:
            raise ConfigError(dotted, "required")
        return default
    value = section[key]
    if value is None:
        if default is None:
            return None
        raise ConfigError(dotted, "must not be null")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(dotted, "expected int, got bool")
    if not isinstance(value, kind):
        raise ConfigError(dotted, f"expected {kind.__name__}, got {type(value).__name__}")
    # json.loads accepts NaN and Infinity; no float key means anything by them.
    if kind is float and not math.isfinite(value):
        raise ConfigError(dotted, f"must be finite, got {value}")
    return value


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    unknown = sorted(set(raw) - SCHEMA.keys())
    if unknown:
        raise ConfigError(unknown[0], "unknown section")
    given = {name: _section(raw, name) for name in SCHEMA}
    sections = {name: {key: _value(given[name], name, key) for key in keys}
                for name, keys in SCHEMA.items()}
    model, moe, dso, sampler, data, run = sections.values()

    if not all(isinstance(i, int) and not isinstance(i, bool) for i in model["moe_layers"]):
        raise ConfigError("model.moe_layers", "must be a list of layer indices")
    for m, c in sampler["counts"].items():
        if m not in MODALITIES:
            raise ConfigError("sampler.counts", f"unknown modality {m!r}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise ConfigError("sampler.counts", f"count for {m!r} must be an int")
    if not sampler["counts"]:
        raise ConfigError("sampler.counts", "must name at least one modality")
    if min(sampler["counts"].values()) < 1:
        raise ConfigError("sampler.counts", "every modality needs >= 1 sample per batch")
    sampler["counts"] = dict(sorted(sampler["counts"].items()))
    for m, level in data["label_noise"].items():
        if m not in MODALITIES:
            raise ConfigError("data.label_noise", f"unknown modality {m!r}")
        if not isinstance(level, (int, float)) or isinstance(level, bool):
            raise ConfigError("data.label_noise", f"noise for {m!r} must be a number")
        if not 0 <= level <= 1:
            raise ConfigError("data.label_noise", f"noise for {m!r} must lie in [0, 1], got {level}")
    data["label_noise"] = {m: float(v) for m, v in sorted(data["label_noise"].items())}
    for dotted, low in (("data.height", 1), ("data.width", 1), ("data.modality_seed", 0),
                        ("run.seed", 0), ("run.iterations", 1)):
        section, key = dotted.split(".")
        if sections[section][key] < low:
            raise ConfigError(dotted, f"must be >= {low}, got {sections[section][key]}")
    most = max(sampler["counts"].values())
    if run["iterations"] * most > EVAL_INDEX_OFFSET:
        raise ConfigError("run.iterations",
                          f"must be <= {EVAL_INDEX_OFFSET // most} with {most} samples of a "
                          f"modality per batch: training indices must stay below the "
                          f"held-out ones from {EVAL_INDEX_OFFSET}")
    if run["base_lr"] <= 0:
        raise ConfigError("run.base_lr", f"must be > 0, got {run['base_lr']}")
    if run["stats_samples"] < 0:
        raise ConfigError("run.stats_samples", "must be >= 0")

    model_spec = ModelSpec(**dict(model, moe_layers=tuple(model["moe_layers"])), **moe)
    model_spec.moe_config()  # surfaces expert-count/top-k violations now
    total = sum(sampler["counts"].values())
    if sampler["batch_size"] is DERIVED:
        sampler["batch_size"] = total
    if sampler["batch_size"] != total:
        raise ConfigError("sampler.counts",
                          f"counts sum to {total} but batch_size is {sampler['batch_size']}")
    dso_cfg = DsoConfig(**dso)  # its range checks come before the task-count one
    if run["dso"] and len(sampler["counts"]) < 2:
        raise ConfigError("run.dso", "the governor needs 2 or more tasks; set it false for one")
    return RunConfig(
        model=model_spec,
        dso=dso_cfg,
        counts=tuple(sampler["counts"].items()),
        height=data["height"],
        width=data["width"],
        label_noise=tuple(data["label_noise"].items()),
        modality_seed=data["modality_seed"],
        seed=run["seed"],
        iterations=run["iterations"],
        out_dir=run["out_dir"],
        base_lr=run["base_lr"],
        dso_enabled=run["dso"],
        moe_enabled=run["moe"],
        stats_samples=run["stats_samples"],
        # Copied, so no config shares a list or dict with SCHEMA or the caller.
        sections=copy.deepcopy(sections),
    )


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or not readable
        raise ConfigError("config", f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ConfigError("config", f"{path}: not a UTF-8 JSON file ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", f"{path}: top level must be an object")
    return raw


def set_path(raw: dict, dotted: str, value) -> None:
    """Set ``section.key`` in a raw config dict (used by CLI overrides/sweeps)."""
    parts = dotted.split(".")
    if len(parts) != 2:
        raise ConfigError(dotted, "override keys look like section.key")
    section, key = parts
    target = raw.setdefault(section, {})
    if not isinstance(target, dict):
        raise ConfigError(section, "must be a table/object")
    target[key] = value


def get_path(raw: dict, dotted: str, default):
    """The type-checked value of ``section.key`` in a raw config dict, or ``default``."""
    section_name, key = dotted.split(".")
    section = _section(raw, section_name)
    return _value(section, section_name, key) if key in section else default


def resolve_out_dir(out_dir: str) -> Path:
    """Resolve a run directory against $GRIDMOE_OUT when it is relative."""
    path = Path(out_dir)
    if path.is_absolute():
        return path
    root = os.environ.get("GRIDMOE_OUT")
    return (Path(root) / path) if root else path


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config_snapshot(out_dir: Path, cfg: RunConfig) -> Path:
    snapshot_path = out_dir / CONFIG_SNAPSHOT_NAME
    snapshot_path.write_text(json.dumps(cfg.snapshot(), indent=2, sort_keys=True) + "\n")
    return snapshot_path


@dataclass
class RunManifest:
    """``manifest.json``: started before a run, finished after it, when it
    hashes the config snapshot the run wrote into ``out_dir``."""

    config_path: str
    seed: int
    started_at: str
    config_sha256: str | None = None
    finished_at: str | None = None
    artifacts: dict | None = None
    exit_status: int | None = None

    @classmethod
    def start(cls, cfg: RunConfig, config_path: str) -> "RunManifest":
        return cls(config_path=str(config_path), seed=cfg.seed,
                   started_at=datetime.now(timezone.utc).isoformat())

    def finish(self, out_dir: Path, artifacts: dict, exit_status: int) -> Path:
        self.config_sha256 = _sha256(out_dir / CONFIG_SNAPSHOT_NAME)
        self.finished_at = datetime.now(timezone.utc).isoformat()
        self.artifacts = artifacts
        self.exit_status = exit_status
        path = out_dir / MANIFEST_NAME
        write_atomic(path, (json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n").encode())
        return path


def verify_manifest(out_dir) -> bool:
    """Recompute the snapshot hash and compare with the recorded one."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    snapshot = out_dir / CONFIG_SNAPSHOT_NAME
    return manifest["config_sha256"] == _sha256(snapshot)

"""Flat-binary checkpoint format tests, and the crash-safe writes it shares with run manifests."""

import errno
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from gridmoe.checkpoint import load_checkpoint, manifest_path_for, save_checkpoint
from gridmoe.errors import ShapeError
from gridmoe.runconfig import parse_config, write_config_snapshot, write_manifest


def test_roundtrip_preserves_bits(tmp_path):
    rng = np.random.default_rng(0)
    state = {
        "trunk.0.base.weight": rng.normal(size=(4, 4)),
        "trunk.0.base.bias": rng.normal(size=4),
        "head.A.weight": rng.normal(size=(3, 4)),
        "scalar": np.array(3.25),
    }
    bin_path, manifest = save_checkpoint(tmp_path / "checkpoint.bin", state)
    assert manifest.name == "checkpoint.manifest.json"
    loaded = load_checkpoint(bin_path)
    assert list(loaded) == list(state)
    for name in state:
        assert loaded[name].tobytes() == np.ascontiguousarray(state[name]).tobytes()
        assert loaded[name].shape == state[name].shape


def test_manifest_records_shapes(tmp_path):
    state = {"a": np.zeros((2, 3)), "b": np.ones(5)}
    _, manifest = save_checkpoint(tmp_path / "checkpoint.bin", state)
    meta = json.loads(manifest.read_text())
    assert meta["schema"] == "checkpoint.v1"
    assert meta["entries"] == [
        {"name": "a", "shape": [2, 3]},
        {"name": "b", "shape": [5]},
    ]


def test_truncated_binary_rejected(tmp_path):
    state = {"a": np.zeros((2, 3))}
    bin_path, _ = save_checkpoint(tmp_path / "checkpoint.bin", state)
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(ShapeError):
        load_checkpoint(bin_path)


def test_oversized_binary_rejected(tmp_path):
    state = {"a": np.zeros((2, 3))}
    bin_path, _ = save_checkpoint(tmp_path / "checkpoint.bin", state)
    bin_path.write_bytes(bin_path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ShapeError):
        load_checkpoint(bin_path)


@pytest.mark.parametrize("size, message", [
    (45, "45 bytes is not a whole number of float64 values"),
    (47, "47 bytes is not a whole number of float64 values"),
    (49, "49 bytes is not a whole number of float64 values"),
    (40, "shorter than its manifest declares"),
    (56, "longer than its manifest declares"),
])
def test_wrong_size_binary_rejected_naming_the_file(tmp_path, size, message):
    bin_path, _ = save_checkpoint(tmp_path / "checkpoint.bin", {"a": np.zeros((2, 3))})
    bin_path.write_bytes((bin_path.read_bytes() + b"\x00" * 8)[:size])
    with pytest.raises(ShapeError, match=f"checkpoint.bin: {message}"):
        load_checkpoint(bin_path)


@pytest.mark.parametrize("text", ["{not json", "", "\udcff"], ids=["bad_json", "empty", "bad_utf8"])
def test_unparsable_manifest_rejected_naming_the_file(tmp_path, text):
    bin_path, manifest = save_checkpoint(tmp_path / "checkpoint.bin", {"a": np.zeros((2, 3))})
    manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ShapeError, match="checkpoint.manifest.json: not a JSON manifest"):
        load_checkpoint(bin_path)


def test_missing_files_rejected(tmp_path):
    with pytest.raises(ShapeError):
        load_checkpoint(tmp_path / "nope.bin")


def test_manifest_path_for_non_bin_suffix(tmp_path):
    assert manifest_path_for("model.ckpt").name == "model.ckpt.manifest.json"


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("entries"),
    lambda meta: meta.update(schema="checkpoint.v9"),
    lambda meta: meta.pop("schema"),
    lambda meta: meta.update(entries={"name": "a", "shape": [2, 3]}),
    lambda meta: meta["entries"][0].pop("name"),
    lambda meta: meta["entries"][0].update(name=7),
    lambda meta: meta["entries"][0].update(shape=6),
    lambda meta: meta["entries"][0].update(shape=[2, -3]),
    lambda meta: meta["entries"][0].update(shape=[2, 3.0]),
    lambda meta: meta["entries"][0].update(shape=[True, 3]),
    lambda meta: meta["entries"].append("b"),
    lambda meta: meta["entries"][0].update(shape=[2**32, 2**32]),  # 2**64 values, 0 in int64
], ids=["no_entries", "schema_v9", "no_schema", "entries_not_list", "no_name", "name_not_str",
        "shape_not_list", "negative_dim", "float_dim", "bool_dim", "entry_not_dict",
        "size_past_int64"])
def test_malformed_manifest_rejected(tmp_path, edit):
    bin_path, manifest = save_checkpoint(tmp_path / "checkpoint.bin", {"a": np.zeros((2, 3))})
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(ShapeError):
        load_checkpoint(bin_path)


@pytest.mark.parametrize("entries", [
    [("a", [2]), ("a", [3])],
    [("a", [2]), ("b", [1]), ("a", [2])],
], ids=["later_chunk_wins", "same_shape"])
def test_manifest_naming_an_entry_twice_rejected(tmp_path, entries):
    # Each layout covers the whole binary, so only the repeated name is wrong.
    size = sum(shape[0] for _, shape in entries)
    bin_path, manifest = save_checkpoint(tmp_path / "checkpoint.bin",
                                         {"x": np.arange(float(size))})
    meta = json.loads(manifest.read_text())
    meta["entries"] = [{"name": name, "shape": shape} for name, shape in entries]
    manifest.write_text(json.dumps(meta))
    with pytest.raises(ShapeError, match=f"{manifest}: entry name 'a' appears more than once"):
        load_checkpoint(bin_path)


def _fail_halfway(monkeypatch):
    """Make every ``Path.write_bytes`` write half its data, then fail (disk full)."""
    real = Path.write_bytes

    def half_then_fail(path, data):
        real(path, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)


def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch):
    old = {"a": np.arange(6.0).reshape(2, 3)}
    bin_path, manifest = save_checkpoint(tmp_path / "checkpoint.bin", old)
    saved = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_halfway(monkeypatch)
    with pytest.raises(OSError):
        save_checkpoint(bin_path, {"a": np.ones((2, 3)), "b": np.ones(4)})
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "fresh.bin", old)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == saved
    monkeypatch.undo()
    assert load_checkpoint(bin_path)["a"].tobytes() == old["a"].tobytes()


def test_failed_run_manifest_leaves_no_partial_file(tmp_path, monkeypatch):
    cfg = parse_config({"moe": {"n_experts": 4, "top_k": 2},
                        "run": {"iterations": 1, "out_dir": str(tmp_path)}})
    write_config_snapshot(tmp_path, cfg)
    started_at = datetime.now(timezone.utc).isoformat()
    before = sorted(p.name for p in tmp_path.iterdir())
    _fail_halfway(monkeypatch)
    with pytest.raises(OSError):
        write_manifest(tmp_path, cfg, "cfg.json", started_at, {"a": "b"}, 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert "manifest.json" not in before

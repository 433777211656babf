"""Config parsing, validation messages, and run manifests."""

import dataclasses
import json
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from gridmoe.data import EVAL_INDEX_OFFSET
from gridmoe.dso import DsoConfig
from gridmoe.errors import ConfigError
from gridmoe.model import ModelSpec
from gridmoe.moe import MoEConfig
from gridmoe.runconfig import (
    REQUIRED,
    SCHEMA,
    claim_out_dir,
    load_config_file,
    parse_config,
    set_path,
    verify_manifest,
    write_config_snapshot,
    write_manifest,
)

MINIMAL = {
    "moe": {"n_experts": 4, "top_k": 2},
    "run": {"iterations": 10},
}


def minimal(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        set_path(raw, key, value)
    return raw


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.model.depth == 4
        assert cfg.model.channels == 8
        assert cfg.model.moe_layers == (0, 2)
        assert cfg.model.moe.gate_temperature == 0.07
        assert cfg.dso.alpha == 0.05
        assert cfg.dso.tau == 3.0
        assert cfg.dso.bias_b == 0.4
        assert cfg.base_lr == 1e-4
        assert cfg.counts == (("A", 2), ("B", 1), ("C", 1))
        assert cfg.dso_enabled and cfg.model.moe_layers

    def test_missing_top_k_names_field(self):
        raw = minimal()
        del raw["moe"]["top_k"]
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        assert "moe.top_k" in str(excinfo.value)

    def test_missing_n_experts_names_field(self):
        raw = minimal()
        del raw["moe"]["n_experts"]
        with pytest.raises(ConfigError, match="moe.n_experts"):
            parse_config(raw)

    def test_missing_iterations_names_field(self):
        raw = minimal()
        del raw["run"]["iterations"]
        with pytest.raises(ConfigError, match="run.iterations"):
            parse_config(raw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="moe.n_expert "):
            parse_config(minimal(**{"moe.n_expert ": 4}))

    def test_unknown_section_rejected(self):
        raw = minimal()
        raw["optimizer"] = {}
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(raw)

    def test_type_errors_name_fields(self):
        with pytest.raises(ConfigError, match="moe.top_k"):
            parse_config(minimal(**{"moe.top_k": "two"}))
        with pytest.raises(ConfigError, match="run.base_lr"):
            parse_config(minimal(**{"run.base_lr": "fast"}))

    def test_semantic_errors_propagate_field(self):
        with pytest.raises(ConfigError, match="moe.top_k"):
            parse_config(minimal(**{"moe.top_k": 9}))
        with pytest.raises(ConfigError, match="run.base_lr"):
            parse_config(minimal(**{"run.base_lr": -1.0}))
        with pytest.raises(ConfigError, match="model.moe_layers"):
            parse_config(minimal(**{"model.moe_layers": [7]}))
        with pytest.raises(ConfigError, match="sampler.counts"):
            parse_config(minimal(**{"sampler.counts": {"A": 2, "D": 1}}))

    def test_snapshot_roundtrips(self):
        cfg = parse_config(minimal())
        again = parse_config(cfg.snapshot())
        assert again == cfg

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file(bad)

    def test_one_by_one_grid_and_one_task_without_governor_parse(self):
        cfg = parse_config(minimal(**{"data.height": 1, "data.width": 1}))
        assert (cfg.height, cfg.width) == (1, 1)
        cfg = parse_config(minimal(**{"sampler.counts": {"A": 4}, "run.dso": False}))
        assert cfg.counts == (("A", 4),) and not cfg.dso_enabled

    @pytest.mark.parametrize("counts", [{"A": 2, "B": 1, "C": 1}, {"A": 64}])
    def test_training_may_reach_the_last_index_below_the_held_out_ones(self, counts):
        most = max(counts.values())
        cfg = parse_config(minimal(**{"sampler.counts": counts, "run.dso": False,
                                      "run.iterations": EVAL_INDEX_OFFSET // most}))
        assert cfg.iterations * most == EVAL_INDEX_OFFSET


def dropped(dotted):
    raw = minimal()
    section, key = dotted.split(".")
    del raw[section][key]
    return raw


# The resolved snapshot of MINIMAL: every default, plus the three required keys.
DEFAULT_SNAPSHOT = {
    "model": {"depth": 4, "channels": 8, "moe_layers": [0, 2]},
    "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.07, "gate_dim": None},
    "dso": {"alpha": 0.05, "theta": 1.0, "tau": 3.0, "bias_b": 0.4},
    "sampler": {"counts": {"A": 2, "B": 1, "C": 1}, "batch_size": 4},
    "data": {"height": 8, "width": 8, "label_noise": {}, "modality_seed": 0},
    "run": {"seed": 0, "iterations": 10, "out_dir": "run", "base_lr": 1e-4,
            "dso": True, "stats_samples": 8},
}

FAULTS = [
    pytest.param([], "config: top level must be an object", id="top_level_list"),
    pytest.param(dict(minimal(), optimizer={}), "optimizer: unknown section",
                 id="unknown_section"),
    pytest.param(dict(minimal(), zeta={}, beta={}), "beta: unknown section",
                 id="two_unknown_sections"),
    pytest.param(dict(minimal(), dso=[1]), "dso: must be a table/object", id="section_list"),
    pytest.param(minimal(**{"moe.n_expert": 4}), "moe.n_expert: unknown key", id="unknown_key"),
    pytest.param(dropped("moe.n_experts"), "moe.n_experts: required", id="no_n_experts"),
    pytest.param(dropped("moe.top_k"), "moe.top_k: required", id="no_top_k"),
    pytest.param(dropped("run.iterations"), "run.iterations: required", id="no_iterations"),
    pytest.param(minimal(**{"model.depth": True}), "model.depth: expected int, got bool",
                 id="bool_for_int"),
    pytest.param(minimal(**{"moe.top_k": "two"}), "moe.top_k: expected int, got str",
                 id="str_for_int"),
    pytest.param(minimal(**{"data.height": None}), "data.height: must not be null",
                 id="null_int"),
    pytest.param(minimal(**{"sampler.batch_size": None}),
                 "sampler.batch_size: must not be null", id="null_batch_size"),
    pytest.param(minimal(**{"run.base_lr": "fast"}), "run.base_lr: expected float, got str",
                 id="str_for_float"),
    pytest.param(minimal(**{"dso.alpha": True}), "dso.alpha: expected float, got bool",
                 id="bool_for_float"),
    pytest.param(minimal(**{"model.moe_layers": [0, "1"]}),
                 "model.moe_layers: must be a list of layer indices", id="moe_layers_element"),
    pytest.param(minimal(**{"model.moe_layers": [7]}),
                 "model.moe_layers: indices [7] outside trunk depth 4", id="moe_layers_range"),
    pytest.param(minimal(**{"sampler.counts": {"A": 2, "D": 1}}),
                 "sampler.counts: unknown modality 'D'", id="counts_modality"),
    pytest.param(minimal(**{"sampler.counts": {"A": 1.5}}),
                 "sampler.counts: count for 'A' must be an int", id="counts_float"),
    pytest.param(minimal(**{"sampler.counts": {"A": "x"}}),
                 "sampler.counts: count for 'A' must be an int", id="counts_str"),
    pytest.param(minimal(**{"sampler.counts": {"A": 2}, "sampler.batch_size": 3}),
                 "sampler.counts: counts sum to 2 but batch_size is 3", id="counts_sum"),
    pytest.param(minimal(**{"sampler.counts": {"A": 0, "B": 1}}),
                 "sampler.counts: every modality needs >= 1 sample per batch", id="counts_zero"),
    pytest.param(minimal(**{"sampler.counts": {}}),
                 "sampler.counts: must name at least one modality", id="empty_counts"),
    pytest.param(minimal(**{"data.label_noise": {"Z": 0.1}}),
                 "data.label_noise: unknown modality 'Z'", id="noise_modality"),
    pytest.param(minimal(**{"data.label_noise": {"A": "x"}}),
                 "data.label_noise: noise for 'A' must be a number", id="noise_str"),
    pytest.param(minimal(**{"data.label_noise": {"A": 1.5}}),
                 "data.label_noise: noise for 'A' must lie in [0, 1], got 1.5",
                 id="noise_above_one"),
    pytest.param(minimal(**{"data.label_noise": {"C": -0.1}}),
                 "data.label_noise: noise for 'C' must lie in [0, 1], got -0.1",
                 id="noise_negative"),
    pytest.param(minimal(**{"run.iterations": 0}), "run.iterations: must be >= 1, got 0",
                 id="iterations_zero"),
    pytest.param(minimal(**{"run.base_lr": -1.0}), "run.base_lr: must be > 0, got -1.0",
                 id="base_lr_negative"),
    pytest.param(minimal(**{"run.stats_samples": -1}), "run.stats_samples: must be >= 0",
                 id="stats_samples_negative"),
    pytest.param(minimal(**{"run.seed": -1}), "run.seed: must be >= 0, got -1",
                 id="seed_negative"),
    pytest.param(minimal(**{"data.modality_seed": -1}),
                 "data.modality_seed: must be >= 0, got -1", id="modality_seed_negative"),
    pytest.param(minimal(**{"moe.top_k": 9}), "moe.top_k: must be in [1, n_experts=4], got 9",
                 id="top_k_range"),
    pytest.param(minimal(**{"moe.gate_temperature": 0}),
                 "moe.gate_temperature: must be > 0, got 0.0", id="temperature_zero"),
    pytest.param(minimal(**{"dso.tau": -1.0}), "dso.tau: must be > 0, got -1.0",
                 id="tau_negative"),
    pytest.param(minimal(**{"data.height": 0}), "data.height: must be >= 1, got 0",
                 id="height_zero"),
    pytest.param(minimal(**{"data.width": -3}), "data.width: must be >= 1, got -3",
                 id="width_negative"),
    pytest.param(minimal(**{"sampler.counts": {"A": 4}}),
                 "run.dso: the governor needs 2 or more tasks; set it false for one",
                 id="one_task_governor"),
    pytest.param(minimal(**{"sampler.counts": {"A": 64}, "run.dso": False,
                            "run.iterations": 20_000}),
                 "run.iterations: must be <= 15625 with 64 samples of a modality per batch: "
                 "training indices must stay below the held-out ones from 1000000",
                 id="iterations_reach_held_out"),
    pytest.param(minimal(**{"run.iterations": 500_001}),
                 "run.iterations: must be <= 500000 with 2 samples of a modality per batch: "
                 "training indices must stay below the held-out ones from 1000000",
                 id="iterations_one_past_held_out"),
    # Several faults: structure before values, values in section order,
    # types before ranges.
    pytest.param(dict(dropped("moe.top_k"), run={"iterations": 10, "foo": 1}),
                 "run.foo: unknown key", id="unknown_key_and_missing"),
    pytest.param(dict(dropped("moe.n_experts"), model={"depth": "x"}),
                 "model.depth: expected int, got str", id="type_and_missing"),
    pytest.param(minimal(**{"run.seed": "s", "data.width": "w"}),
                 "data.width: expected int, got str", id="two_types"),
    pytest.param(minimal(**{"model.depth": "x", "run.iterations": 0}),
                 "model.depth: expected int, got str", id="type_and_range"),
]


class TestSchemaTable:
    def test_minimal_snapshot_holds_every_default(self):
        cfg = parse_config(minimal())
        assert cfg.snapshot() == DEFAULT_SNAPSHOT
        assert "sections" not in repr(cfg)

    @pytest.mark.parametrize("raw, message", FAULTS)
    def test_fault_message(self, raw, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        assert str(excinfo.value) == message

    def test_no_config_shares_mutable_values(self):
        cfg = parse_config(minimal())
        snapshot = cfg.snapshot()
        snapshot["model"]["moe_layers"].append(3)
        snapshot["sampler"]["counts"]["D"] = 1
        assert cfg.snapshot() == DEFAULT_SNAPSHOT
        assert parse_config(minimal()).snapshot() == DEFAULT_SNAPSHOT

        raw = minimal(**{"model.moe_layers": [1]})
        cfg = parse_config(raw)
        raw["model"]["moe_layers"].append(3)
        assert cfg.snapshot()["model"]["moe_layers"] == [1]

    def test_config_dataclasses_restate_the_table_defaults(self):
        # Library callers build these dataclasses without the table, so each restates
        # the table's default for every key the table does not require.
        restated = {}
        for section, spec in (("model", ModelSpec), ("moe", MoEConfig), ("dso", DsoConfig)):
            for f in dataclasses.fields(spec):
                if f.name in SCHEMA[section] and SCHEMA[section][f.name][1] is not REQUIRED:
                    default = list(f.default) if f.name == "moe_layers" else f.default
                    restated[f"{section}.{f.name}"] = (default, SCHEMA[section][f.name][1])
        assert len(restated) == 9
        for key, (default, schema_default) in restated.items():
            assert default == schema_default, key

    def test_readme_lists_the_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("## Configuration"):]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        documented = json.loads(block)
        assert {name: set(keys) for name, keys in documented.items()} == {
            name: set(keys) for name, keys in SCHEMA.items()}
        for name, keys in SCHEMA.items():
            for key, (_, default) in keys.items():
                expected = "<required>" if default is REQUIRED else DEFAULT_SNAPSHOT[name][key]
                assert documented[name][key] == expected, f"{name}.{key}"


class TestOutDirResolution:
    def test_relative_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIDMOE_OUT", str(tmp_path / "root"))
        assert claim_out_dir("runs/x", False) == tmp_path / "root" / "runs" / "x"

    def test_absolute_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIDMOE_OUT", str(tmp_path / "root"))
        absolute = tmp_path / "elsewhere"
        assert claim_out_dir(str(absolute), False) == absolute

    def test_no_env_keeps_relative(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GRIDMOE_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert str(claim_out_dir("runs/x", False)) == "runs/x"


class TestManifest:
    def test_hash_verifies_and_detects_tamper(self, tmp_path):
        cfg = parse_config(minimal(**{"run.out_dir": str(tmp_path)}))
        write_config_snapshot(tmp_path, cfg)
        started_at = datetime.now(timezone.utc).isoformat()
        write_manifest(tmp_path, cfg, "orig.json", started_at, {"losses": "losses.csv"}, 0)
        assert verify_manifest(tmp_path)

        snapshot = tmp_path / "config_snapshot.json"
        data = json.loads(snapshot.read_text())
        data["run"]["seed"] = 999
        snapshot.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        assert not verify_manifest(tmp_path)

    def test_manifest_records_run_metadata(self, tmp_path):
        cfg = parse_config(minimal(**{"run.out_dir": str(tmp_path), "run.seed": 7}))
        write_config_snapshot(tmp_path, cfg)
        started_at = datetime.now(timezone.utc).isoformat()
        path = write_manifest(tmp_path, cfg, "cfg.json", started_at, {"a": "b"}, 0)
        recorded = json.loads(path.read_text())
        assert recorded["seed"] == 7
        assert recorded["exit_status"] == 0
        assert recorded["artifacts"] == {"a": "b"}
        assert recorded["started_at"] <= recorded["finished_at"]

    def test_snapshot_is_canonical(self, tmp_path):
        cfg = parse_config(minimal())
        p1 = write_config_snapshot(tmp_path, cfg)
        text1 = p1.read_text()
        p2 = write_config_snapshot(tmp_path, cfg)
        assert p2.read_text() == text1


FLOAT_KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items()
              for key, (kind, _) in keys.items() if kind is float]


class TestNonFiniteFloats:
    """json.loads accepts NaN and Infinity; no float key takes them."""

    def test_every_float_key_covered(self):
        assert set(FLOAT_KEYS) == {"moe.gate_temperature", "dso.alpha", "dso.theta", "dso.tau",
                                   "dso.bias_b", "run.base_lr"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dotted", FLOAT_KEYS)
    def test_rejected_naming_the_key(self, dotted, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(minimal(**{dotted: value}))
        assert str(excinfo.value) == f"{dotted}: must be finite, got {value}"

    def test_json_literals_in_a_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"moe": {"n_experts": 4, "top_k": 2, "gate_temperature": Infinity},'
                        ' "run": {"iterations": 1}}')
        with pytest.raises(ConfigError, match="moe.gate_temperature: must be finite, got inf"):
            parse_config(load_config_file(path))

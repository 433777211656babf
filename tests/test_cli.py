"""End-to-end CLI tests: exit codes, artifacts, determinism, flags."""

import collections
import errno
import importlib
import json
from pathlib import Path

import pytest

from gridmoe import cli, csvio, runconfig
from gridmoe.cli import main
from gridmoe.csvio import read_csv
from gridmoe.runconfig import verify_manifest


@pytest.fixture(autouse=True)
def isolated_out_root(monkeypatch):
    monkeypatch.delenv("GRIDMOE_OUT", raising=False)


def write_config(path, **overrides):
    raw = {
        "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.5},
        "run": {"iterations": 12, "base_lr": 0.05, "seed": 0, "stats_samples": 4},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = value
    path.write_text(json.dumps(raw))
    return path


class TestTrainCommand:
    def test_successful_run_writes_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "losses.csv").exists()
        assert (out / "dso_log.csv").exists()
        assert (out / "manifest.json").exists()
        assert verify_manifest(out)
        assert "final losses" in capsys.readouterr().out

    def test_manifest_lists_the_artifacts_train_returns(self, tmp_path, monkeypatch):
        results = []
        real_train = cli.train

        def captured_train(cfg, keep_model=True):
            results.append(real_train(cfg, keep_model))
            return results[-1]

        monkeypatch.setattr(cli, "train", captured_train)
        out = tmp_path / "run"
        always = (("losses", "losses.csv"), ("dso_log", "dso_log.csv"),
                  ("expert_stats", "expert_stats.csv"), ("checkpoint", "checkpoint.bin"),
                  ("config_snapshot", "config_snapshot.json"))
        evaluation = (("expert_stats_init", "expert_stats_init.csv"),
                      ("expert_stats_final", "expert_stats_final.csv"), ("top1_maps", "top1_maps"))
        # The evaluation files are listed only by a run that wrote them, over a rerun too.
        for stats_samples, flags, files in ((4, [], always + evaluation),
                                            (0, ["--force"], always),
                                            (1, ["--force"], always + evaluation)):
            cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                         "run.stats_samples": stats_samples})
            assert main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 0
            recorded = json.loads((out / "manifest.json").read_text())["artifacts"]
            assert recorded == {name: str(path) for name, path in results[-1].artifacts.items()}
            assert recorded == {name: str(out / file) for name, file in files}

    def test_manifest_is_one_canonical_record_of_seven_keys(self, tmp_path):
        """``manifest.json`` is one sorted, indented JSON object of exactly the seven
        keys, and the run started no later than it finished."""
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2, "run.seed": 5})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        recorded = json.loads(text)
        assert sorted(recorded) == ["artifacts", "config_path", "config_sha256", "exit_status",
                                    "finished_at", "seed", "started_at"]
        assert text == json.dumps(recorded, indent=2, sort_keys=True) + "\n"
        assert recorded["started_at"] <= recorded["finished_at"]
        assert (recorded["config_path"], recorded["seed"], recorded["exit_status"]) \
            == (str(cfg), 5, 0)

    def test_readme_quick_start_config_trains(self, tmp_path):
        """``configs/example.json``, the config README's CLI lines use, with 2 iterations."""
        raw = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
        raw["run"]["iterations"] = 2
        cfg = tmp_path / "example.json"
        cfg.write_text(json.dumps(raw))
        assert runconfig.parse_config(runconfig.load_config_file(cfg)).iterations == 2
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "demo")]) == 0
        assert verify_manifest(tmp_path / "demo")

    def test_missing_top_k_exits_2_naming_field(self, tmp_path, capsys):
        raw = {"moe": {"n_experts": 4}, "run": {"iterations": 2}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "moe.top_k" in capsys.readouterr().err

    def test_determinism_byte_identical_logs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        for name in ("losses.csv", "dso_log.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r2"),
                     "--seed", "5"]) == 0
        assert ((tmp_path / "r1" / "losses.csv").read_bytes()
                != (tmp_path / "r2" / "losses.csv").read_bytes())

    def test_no_dso_no_moe_flags_recorded_and_applied(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out),
                     "--no-dso", "--no-moe"])
        assert code == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["run"]["dso"] is False
        assert snapshot["model"]["moe_layers"] == []
        # governor forced to identity in the log
        for row in read_csv(out / "dso_log.csv"):
            assert float(row["gamma"]) == 1.0
        # no expert statistics without MoE blocks
        assert read_csv(out / "expert_stats.csv") == []

    def test_baseline_equals_library_plain_run(self, tmp_path):
        """--no-dso --no-moe is the simple-joint-training baseline."""
        from gridmoe.runconfig import parse_config
        from gridmoe.train import train

        cfg_path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--no-dso", "--no-moe"]) == 0
        raw = json.loads(cfg_path.read_text())
        raw["run"].update({"out_dir": str(tmp_path / "lib"), "dso": False})
        raw.setdefault("model", {})["moe_layers"] = []
        library = train(parse_config(raw))
        assert ((out / "losses.csv").read_bytes()
                == library.artifacts["losses"].read_bytes())

    def test_runtime_shape_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # ShapeError is also a ValueError; raised mid-run it is not a config error.
        from gridmoe import data as gdata

        real = gdata.generate_sample

        def one_channel_short(*args, **kwargs):
            image, target = real(*args, **kwargs)
            return image[..., :-1], target

        monkeypatch.setattr(gdata, "generate_sample", one_channel_short)
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert "config error" not in err
        assert "expected (H, W, 8) input" in err

    def test_runtime_error_records_manifest(self, tmp_path, monkeypatch):
        from gridmoe import data as gdata

        real = gdata.generate_sample

        def one_channel_short(*args, **kwargs):
            image, target = real(*args, **kwargs)
            return image[..., :-1], target

        monkeypatch.setattr(gdata, "generate_sample", one_channel_short)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        recorded = json.loads((out / "manifest.json").read_text())
        assert recorded["exit_status"] == 3
        assert verify_manifest(out)

    def test_negative_seed_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "run.seed" in capsys.readouterr().err
        assert not out.exists()


    def test_nan_in_config_file_exits_2_naming_field(self, tmp_path, capsys):
        # json.loads accepts NaN; training with it would abort with exit 3.
        cfg = write_config(tmp_path / "cfg.json", **{"run.base_lr": float("nan")})
        assert "NaN" in cfg.read_text()
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.base_lr: must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()


    def test_nonpositive_grid_exits_2_and_leaves_out_empty(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"data.height": 0})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "data.height: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_one_task_needs_no_dso(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"sampler.counts": {"A": 4}})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.dso: the governor needs 2 or more tasks" in capsys.readouterr().err
        assert not out.exists()
        assert main(["train", "--config", str(cfg), "--out", str(out), "--no-dso"]) == 0
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestMalformedConfigFile:
    """A config whose top level or a section is not an object exits 2, naming it."""

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "config: {cfg}: top level must be an object"),
        ('{"run": 5}', "run: must be a table/object"),
    ], ids=["list", "run_not_object"])
    @pytest.mark.parametrize("flags", [["--out", "out"], ["--seed", "1"], ["--no-dso"],
                                       ["--no-moe"], []],
                             ids=["out", "seed", "no_dso", "no_moe", "no_flag"])
    def test_train(self, tmp_path, monkeypatch, capsys, text, message, flags):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg), *flags]) == 2
        assert message.format(cfg=cfg) in capsys.readouterr().err
        assert files_under(tmp_path) == ["cfg.json"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message, flags", [
        ("[1, 2]", "config: {cfg}: top level must be an object", []),
        ("[1, 2]", "config: {cfg}: top level must be an object", ["--out", "out"]),
        ('{"run": 5}', "run: must be a table/object", []),
        ('{"run": 5}', "run: must be a table/object", ["--out", "out"]),
        ('{"run": {"out_dir": 5}}', "run.out_dir: expected str, got int", []),
    ], ids=["list", "list_out_flag", "run_not_object", "run_not_object_out_flag",
            "out_dir_not_str"])
    def test_sweep(self, tmp_path, monkeypatch, capsys, text, message, flags):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1", *flags]) == 2
        assert message.format(cfg=cfg) in capsys.readouterr().err
        assert files_under(tmp_path) == ["cfg.json"]

    def test_non_utf8_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"run": {"out_dir": "\xff"}}')
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"config: {cfg}: not a UTF-8 JSON file" in capsys.readouterr().err
        assert files_under(tmp_path) == ["cfg.json"]


class TestSweepCommand:
    def test_expert_grid_three_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 3,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.n_experts=2,4,8",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        assert {r["moe.n_experts"] for r in rows} == {"2", "4", "8"}

    def test_tau_row_with_fixed_bias(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 3,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg),
                     "--grid", "dso.tau=2,3,4 dso.bias_b=0.4", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        assert all(0.0 < float(r["gamma_min"]) <= float(r["gamma_max"]) < 2.0
                   for r in rows)

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["sweep", "--config", str(cfg), "--grid", "  ",
                     "--out", str(tmp_path / "s")])
        assert code == 2

    def test_malformed_grid_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["sweep", "--config", str(cfg), "--grid", "tau",
                     "--out", str(tmp_path / "s")]) == 2

    def test_repeated_grid_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        before = files_under(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1 moe.top_k=2",
                     "--out", str(out)])
        assert code == 2
        assert "config error: moe.top_k: is given more than once in --grid" \
            in capsys.readouterr().err
        assert not out.exists() and files_under(tmp_path) == before

    def test_grid_key_without_values_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        before = files_under(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=", "--out", str(out)])
        assert code == 2
        assert "no values for 'moe.top_k'" in capsys.readouterr().err
        assert not out.exists() and files_under(tmp_path) == before

    @pytest.mark.parametrize("key, values", [
        ("moe.top_k", "1,1"), ("run.dso", "true,True"), ("run.base_lr", "0.5,0.50"),
        ("model.moe_layers", "0|2,0|2"),
    ])
    def test_repeated_grid_value_exits_2_and_writes_nothing(self, tmp_path, capsys, key, values):
        # Compared as parsed: each spelling here would train one cell twice.
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        before = files_under(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", f"{key}={values}",
                     "--out", str(out)])
        assert code == 2
        assert f"config error: {key}: repeats a value in --grid" in capsys.readouterr().err
        assert not out.exists() and files_under(tmp_path) == before

    def test_bad_later_cell_exits_2_before_any_training(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1,9",
                     "--out", str(out)])
        assert code == 2
        assert "moe.top_k" in capsys.readouterr().err
        assert not list(out.glob("cell*"))
        assert not (out / "sweep.csv").exists()

    def test_bad_config_value_exits_2_without_creating_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"model.depth": "x"})
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1",
                     "--out", str(out)])
        assert code == 2
        assert "model.depth" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_matches_train_command(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 6,
                                                     "run.stats_samples": 0})
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=2",
                     "--out", str(sweep_out)]) == 0
        train_out = tmp_path / "single"
        assert main(["train", "--config", str(cfg), "--out", str(train_out)]) == 0
        row = read_csv(sweep_out / "sweep.csv")[0]
        final = read_csv(train_out / "losses.csv")[-1]
        for t in ("A", "B", "C"):
            assert float(row[f"final_loss_{t}"]) == float(final[f"loss_{t}"])


    def test_repeated_seed_exits_2_before_any_training(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1,2",
                     "--seeds", "0,1,0", "--out", str(out)])
        assert code == 2
        assert "seeds: seed 0 is given more than once" in capsys.readouterr().err
        assert not list(out.glob("cell*"))
        assert not (out / "sweep.csv").exists()

    def test_non_integer_seed_exits_2_naming_seeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1,2",
                     "--seeds", "0,x", "--out", str(out)])
        assert code == 2
        assert "config error: seeds: '0,x' is not a comma list of integers" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, option", [("run.seed", "--seeds"),
                                             ("run.out_dir", "--out")])
    def test_seed_or_out_dir_in_grid_exits_2_naming_the_option(self, tmp_path, capsys,
                                                                key, option):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", f"{key}=1,2",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err and option in err
        assert not out.exists()

    def test_every_cell_has_a_verified_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1,2",
                     "--out", str(out)]) == 0
        cells = sorted(out.glob("cell*"))
        assert [c.name for c in cells] == ["cell000_seed0", "cell001_seed0"]
        for cell in cells:
            recorded = json.loads((cell / "manifest.json").read_text())
            assert recorded["exit_status"] == 0
            assert recorded["config_path"] == str(cfg)
            assert recorded["artifacts"]["losses"] == str(cell / "losses.csv")
            assert verify_manifest(cell)

    def test_runtime_error_in_a_cell_records_exit_3(self, tmp_path, monkeypatch):
        from gridmoe import data as gdata

        real = gdata.generate_sample

        def one_channel_short(*args, **kwargs):
            image, target = real(*args, **kwargs)
            return image[..., :-1], target

        monkeypatch.setattr(gdata, "generate_sample", one_channel_short)
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "moe.top_k=1,2",
                     "--out", str(out)]) == 3
        cell = out / "cell000_seed0"
        assert json.loads((cell / "manifest.json").read_text())["exit_status"] == 3
        assert verify_manifest(cell)
        assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, runs", [
    (["train"], [""]),
    (["sweep", "--grid", "moe.top_k=1,2"], ["cell000_seed0", "cell001_seed0"]),
], ids=["train", "sweep"])
def test_each_run_writes_its_config_snapshot_once(tmp_path, monkeypatch, command, runs):
    writes = collections.Counter()
    real_write = runconfig.write_config_snapshot

    def counted_write(out_dir, cfg):
        writes[Path(out_dir)] += 1
        return real_write(out_dir, cfg)

    # ``gridmoe.train`` imports the name, so it is patched there too.
    for module in (runconfig, importlib.import_module("gridmoe.train")):
        monkeypatch.setattr(module, "write_config_snapshot", counted_write)
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2, "run.stats_samples": 0})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0
    assert writes == {out / run: 1 for run in runs}
    assert all(verify_manifest(out / run) for run in runs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "moe.top_k=2"]])
def test_divergence_exits_3_naming_the_dump(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 20, "run.base_lr": 1e50,
                                                 "run.stats_samples": 0})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime abort: non-finite loss" in err
    dump = next(out.rglob("diagnostic_dump.csv"))
    assert f"(dump: {dump})" in err


def diverging_config(path):
    return write_config(path, **{"run.iterations": 20, "run.base_lr": 1e50,
                                 "run.stats_samples": 1})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_successful_rerun_after_an_abort_keeps_no_dump(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", str(diverging_config(tmp_path / "bad.json")),
                 "--out", str(out)]) == 3
    assert (out / "diagnostic_dump.csv").is_file()
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2})
    assert main(["train", "--config", str(cfg), "--out", str(out), "--force"]) == 0
    assert not (out / "diagnostic_dump.csv").exists()
    assert "diagnostic_dump" not in json.loads((out / "manifest.json").read_text())["artifacts"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aborted_rerun_keeps_no_file_of_the_previous_run(tmp_path, capsys):
    """A ``--force`` rerun that aborts leaves only its own files, so no checkpoint
    of the earlier run sits beside the rerun's config snapshot."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2, "run.stats_samples": 1})
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "checkpoint.bin").is_file() and any((out / "top1_maps").iterdir())
    assert main(["train", "--config", str(diverging_config(tmp_path / "bad.json")),
                 "--out", str(out), "--force"]) == 3
    assert files_under(out) == ["config_snapshot.json", "diagnostic_dump.csv", "dso_log.csv",
                                "expert_stats_init.csv", "losses.csv", "manifest.json"]
    assert not (out / "top1_maps").exists()
    capsys.readouterr()
    assert main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                 "--modality", "A", "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error: checkpoint: ")
    assert not (out / "inspect").exists()


@pytest.mark.parametrize("command, run", [
    (["train"], "."), (["sweep", "--grid", "moe.top_k=1,2"], "cell000_seed0"),
], ids=["train", "sweep"])
def test_io_error_mid_run_exits_3_and_records_it(tmp_path, monkeypatch, capsys, command, run):
    # The third losses.csv row fails as a full disk would.
    real = csvio.CsvLogger.write
    rows = collections.Counter()

    def write(logger, row):
        if logger.path.name == "losses.csv":
            rows[logger.path] += 1
            if rows[logger.path] == 3:
                raise OSError(errno.ENOSPC, "No space left on device", str(logger.path))
        real(logger, row)

    monkeypatch.setattr(csvio.CsvLogger, "write", write)
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 5, "run.stats_samples": 0})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    losses = out / run / "losses.csv"
    assert capsys.readouterr().err == f"I/O error: [Errno 28] No space left on device: '{losses}'\n"
    assert json.loads((out / run / "manifest.json").read_text())["exit_status"] == 3
    assert verify_manifest(out / run)
    assert len(read_csv(losses)) == 2
    assert not (out / "cell001_seed0").exists() and not (out / "sweep.csv").exists()


COMMANDS = ["train", "sweep", "inspect-gates"]


def command_argv(command, tmp_path, **overrides):
    """``command``'s arguments but ``--out``, on a 2-iteration config in ``tmp_path``.
    For ``inspect-gates`` the config first trains the checkpoint it reads, into ``run``."""
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2, **overrides})
    if command == "inspect-gates":
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        return ["inspect-gates", "--checkpoint", str(run / "checkpoint.bin"),
                "--modality", "A", "--n", "1"]
    return {"train": ["train", "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--grid", "moe.top_k=2"]}[command]


@pytest.mark.parametrize("command, written", [
    ("train", "nested/run/losses.csv"),
    ("sweep", "nested/run/sweep.csv"),
    ("inspect-gates", "nested/insp/participation.csv"),
], ids=COMMANDS)
def test_env_out_root(tmp_path, monkeypatch, command, written):
    """A relative output directory, from the config or ``--out``, resolves against
    $GRIDMOE_OUT for every command."""
    monkeypatch.chdir(tmp_path)
    argv = command_argv(command, tmp_path, **{"run.out_dir": "nested/run"})
    if command == "inspect-gates":
        argv += ["--out", "nested/insp"]
    monkeypatch.setenv("GRIDMOE_OUT", str(tmp_path / "root"))
    assert main(argv) == 0
    assert (tmp_path / "root" / written).exists()
    assert not (tmp_path / "nested").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_refuses_nonempty_out_without_force(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [*command_argv(command, tmp_path), "--out", str(out)]
    assert main(argv) == 0
    written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"config error: out_dir: {out} is not empty "
                                       "(use --force to overwrite)\n")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written
    assert main([*argv, "--force"]) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, monkeypatch, capsys, command):
    argv = command_argv(command, tmp_path, **{"run.stats_samples": 0})
    before = files_under(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    real = Path.mkdir

    def refuse(path, *args, **kwargs):
        if path == out:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", refuse)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # A sweep names ``out`` itself: ``sweep_rows`` creates it before any cell runs.
    assert err.startswith(f"config error: out_dir: {out}")
    assert err.endswith(": cannot create (Permission denied)\n") and err.count("\n") == 1
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("planted, earlier_run", [
    ("losses.csv", False), ("checkpoint.manifest.json", True),
], ids=["losses", "checkpoint_manifest_over_a_run"])
def test_force_rerun_that_cannot_clear_its_files_exits_2(tmp_path, capsys, planted,
                                                         earlier_run):
    """A directory standing where a run file goes cannot be cleared: ``train --force``
    exits 2 naming it, trains nothing and writes no manifest, so nothing of an earlier
    run is left under a manifest of its own."""
    out = tmp_path / "run"
    argv = [*command_argv("train", tmp_path), "--out", str(out)]
    if earlier_run:
        assert main(argv) == 0
        (out / planted).unlink()
    (out / planted).mkdir(parents=True)
    left = [name for name in files_under(out) if name != "manifest.json"]
    capsys.readouterr()
    assert main([*argv, "--force"]) == 2
    assert capsys.readouterr().err == (f"config error: out_dir: {out / planted}: "
                                       "cannot clear (Is a directory)\n")
    assert files_under(out) == left and (out / planted).is_dir()
    assert not (out / "manifest.json").exists()


def snapshot(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_inspect_force_into_a_train_run_exits_2_and_leaves_it(tmp_path, capsys):
    """``inspect-gates --force`` refuses a train run's directory, found by its
    ``manifest.json``, before it removes any of the run's maps."""
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2, "run.stats_samples": 1})
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    written = snapshot(run)
    capsys.readouterr()
    assert main(["inspect-gates", "--checkpoint", str(run / "checkpoint.bin"), "--modality",
                 "A", "--n", "1", "--out", str(run), "--force"]) == 2
    assert capsys.readouterr().err == (f"config error: out_dir: {run} holds manifest.json, "
                                       "the mark of the train command\n")
    assert snapshot(run) == written and verify_manifest(run)


def test_train_force_into_an_inspection_exits_2_and_leaves_it(tmp_path, capsys):
    """``train --force`` refuses an inspection's directory, found by its
    ``participation.csv``: it removes no map and writes no manifest."""
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2})
    run, insp = tmp_path / "run", tmp_path / "ins"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["inspect-gates", "--checkpoint", str(run / "checkpoint.bin"), "--modality",
                 "B", "--n", "1", "--out", str(insp)]) == 0
    written = snapshot(insp)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(insp), "--force", "--no-moe"]) == 2
    assert capsys.readouterr().err == (f"config error: out_dir: {insp} holds participation.csv, "
                                       "the mark of the inspect-gates command\n")
    assert snapshot(insp) == written and not (insp / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "inspect-gates"])
def test_out_of_memory_exits_3_with_one_line(tmp_path, monkeypatch, capsys, command):
    """A ``MemoryError`` (numpy's ``_ArrayMemoryError`` is one) while a command runs
    exits 3 with one stderr line and no traceback; ``train`` records the exit status,
    and ``inspect-gates`` writes no ``participation.csv``."""
    from gridmoe import data as gdata

    out = tmp_path / "out"
    argv = [*command_argv(command, tmp_path), "--out", str(out)]

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")

    monkeypatch.setattr(gdata, "generate_sample", out_of_memory)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == "out of memory: Unable to allocate 7.45 TiB for an array\n"
    if command == "train":
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 3
        assert verify_manifest(out)
    else:
        assert not (out / "participation.csv").exists()


@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "moe.top_k=2"]])
def test_label_noise_out_of_range_exits_2_and_writes_nothing(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", **{"data.label_noise": {"A": 1.5}})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "data.label_noise: noise for 'A' must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


EVERY_COMMAND_READING_A_CONFIG = pytest.mark.parametrize("command", [
    ["train"], ["sweep", "--grid", "moe.top_k=2"],
    ["inspect-gates", "--checkpoint", "c.bin", "--modality", "A", "--n", "1"],
], ids=["train", "sweep", "inspect_gates"])


@EVERY_COMMAND_READING_A_CONFIG
def test_config_naming_a_directory_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                               command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main([*command, "--config", "adir", "--out", "o1"]) == 2
    assert "config: adir: cannot read" in capsys.readouterr().err
    assert files_under(tmp_path) == [] and not (tmp_path / "o1").exists()


@EVERY_COMMAND_READING_A_CONFIG
def test_missing_config_exits_2_naming_it_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                              command):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", "absent.json", "--out", "o1"]) == 2
    assert "config: absent.json: cannot read (No such file or directory)" in (
        capsys.readouterr().err)
    assert files_under(tmp_path) == [] and not (tmp_path / "o1").exists()


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["no_force", "force"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_naming_a_file_exits_2_and_leaves_it(tmp_path, capsys, command, force):
    argv = command_argv(command, tmp_path)
    run = tmp_path / "run"
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    capsys.readouterr()
    assert main([*argv, "--out", str(afile), *force]) == 2
    assert f"out_dir: {afile} is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"
    assert not (run / "inspect").exists()


@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "moe.top_k=2"]])
def test_empty_counts_exits_2_naming_sampler_counts(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", **{"sampler.counts": {}})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "sampler.counts: must name at least one modality" in capsys.readouterr().err
    assert files_under(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "moe.top_k=2"]])
def test_iterations_reaching_held_out_indices_exit_2_and_write_nothing(tmp_path, monkeypatch,
                                                                       capsys, command):
    # 15,626 batches of 64 A samples would train on A's held-out index 1,000,000.
    def refuse(cfg):
        raise AssertionError("a run that reaches the held-out indices started training")

    monkeypatch.setattr(importlib.import_module("gridmoe.train"), "start_training", refuse)
    cfg = write_config(tmp_path / "cfg.json", **{"sampler.counts": {"A": 64}, "run.dso": False,
                                                 "run.iterations": 15_626})
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "run.iterations: must be <= 15625" in capsys.readouterr().err
    assert files_under(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("no_moe", [{"model.moe_layers": []}], ids=["no_moe_layers"])
def test_inspect_gates_without_moe_layers_exits_2_and_writes_nothing(tmp_path, capsys, no_moe):
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2}, **no_moe)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    before = files_under(tmp_path)
    capsys.readouterr()
    code = main(["inspect-gates", "--checkpoint", str(run / "checkpoint.bin"),
                 "--modality", "A", "--n", "2"])
    assert code == 2
    assert f"config error: {next(iter(no_moe))}: " in capsys.readouterr().err
    assert files_under(tmp_path) == before and not (run / "inspect").exists()


@pytest.mark.parametrize("overrides, command", [
    ({"run.moe": True}, ["train"]), ({}, ["sweep", "--grid", "run.moe=true,false"]),
], ids=["train", "sweep"])
def test_removed_run_moe_key_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                        overrides, command):
    """``run.moe`` is no key: ``model.moe_layers: []`` is the one way to run without
    experts, so a config or a grid that names it is refused before anything is written."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2}, **overrides)
    assert main([*command, "--config", str(cfg), "--out", "out"]) == 2
    assert capsys.readouterr().err == "config error: run.moe: unknown key\n"
    assert files_under(tmp_path) == ["cfg.json"] and not (tmp_path / "out").exists()


class TestSweepValueTypes:
    """Sweep values take their key's type from ``runconfig.SCHEMA``."""

    def test_each_value_typed_by_its_key(self):
        from gridmoe.cli import _parse_grid

        grid = _parse_grid("model.moe_layers=2,0|2 moe.gate_dim=null,4 run.dso=true,False "
                           "moe.gate_temperature=1,0.5 moe.top_k=3 run.out_dir=7")
        assert grid == {"model.moe_layers": [[2], [0, 2]], "moe.gate_dim": [None, 4],
                        "run.dso": [True, False], "moe.gate_temperature": [1.0, 0.5],
                        "moe.top_k": [3], "run.out_dir": ["7"]}
        assert type(grid["moe.gate_temperature"][0]) is float

    @pytest.mark.parametrize("token, message", [
        ("moe.experts=2", "moe.experts: unknown key"),
        ("moe_layers=2", "moe_layers: unknown key"),
        ("moe.top_k=2.5", "moe.top_k: expected int, got '2.5'"),
        ("moe.top_k=null", "moe.top_k: expected int, got 'null'"),
        ("run.dso=yes", "run.dso: expected bool, got 'yes'"),
        ("model.moe_layers=0|x", "model.moe_layers: expected list, got '0|x'"),
        ("dso.tau=fast", "dso.tau: expected float, got 'fast'"),
        ("sampler.counts=2", "sampler.counts: expected dict, got '2'"),
    ])
    def test_bad_key_or_value_exits_2_before_any_training(self, tmp_path, capsys, token,
                                                          message):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", f"moe.top_k=1 {token}",
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("cell*"))

    def test_single_layer_list_and_null_gate_dim_train(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": 0})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid",
                     "model.moe_layers=2 moe.gate_dim=null,3", "--out", str(out)]) == 0
        snapshots = [json.loads((cell / "config_snapshot.json").read_text())
                     for cell in sorted(out.glob("cell*"))]
        assert [s["model"]["moe_layers"] for s in snapshots] == [[2], [2]]
        assert [s["moe"]["gate_dim"] for s in snapshots] == [None, 3]
        rows = read_csv(out / "sweep.csv")
        assert [r["model.moe_layers"] for r in rows] == ["2", "2"]
        assert [r["moe.gate_dim"] for r in rows] == ["None", "3"]


class TestInspectCommand:
    def _trained_run(self, tmp_path, iterations=10):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": iterations})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_counts_sum_to_grid_positions(self, tmp_path, capsys):
        out = self._trained_run(tmp_path)
        n = 5
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "B", "--n", str(n)])
        assert code == 0
        rows = read_csv(out / "inspect" / "participation.csv")
        per_layer = {}
        for row in rows:
            per_layer.setdefault(row["layer"], 0)
            per_layer[row["layer"]] += int(row["top1_count"])
        assert set(per_layer) == {"trunk.0", "trunk.2"}
        for layer, total in per_layer.items():
            assert total == n * 8 * 8, layer

    def test_default_out_stays_beside_the_checkpoint(self, tmp_path, monkeypatch):
        """$GRIDMOE_OUT roots a relative ``--out``, not the default ``inspect/`` directory."""
        self._trained_run(tmp_path, iterations=2)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GRIDMOE_OUT", str(tmp_path / "root"))
        assert main(["inspect-gates", "--checkpoint", "run/checkpoint.bin",
                     "--modality", "A", "--n", "1"]) == 0
        assert (tmp_path / "run" / "inspect" / "participation.csv").exists()
        assert not (tmp_path / "root").exists()

    def test_force_rerun_keeps_only_its_own_maps(self, tmp_path):
        """A ``--force`` rerun removes every modality's old ``<modality>_trunk_<i>.csv``
        map and no other file."""
        out = self._trained_run(tmp_path, iterations=2)
        insp = tmp_path / "insp"
        argv = ["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"), "--n", "1",
                "--out", str(insp)]
        assert main([*argv, "--modality", "A"]) == 0
        maps = insp / "top1_maps"
        assert sorted(p.name for p in maps.iterdir()) == ["A_trunk_0.csv", "A_trunk_2.csv"]
        kept = ["A_trunk_0.txt", "A_trunk_x.csv", "D_trunk_0.csv", "notes.csv"]
        for name in kept:
            (maps / name).write_text("keep\n")
        assert main([*argv, "--modality", "B", "--force"]) == 0
        assert sorted(p.name for p in maps.iterdir()) == sorted(
            ["B_trunk_0.csv", "B_trunk_2.csv", *kept])
        assert {row["dataset"] for row in read_csv(insp / "participation.csv")} == {"B"}

    def test_train_force_rerun_keeps_only_its_own_maps(self, tmp_path):
        """A ``train --force`` rerun's final evaluation removes the old maps, as
        ``inspect-gates`` does, and no other file."""
        out, maps = tmp_path / "run", tmp_path / "run" / "top1_maps"

        def train_on(layers, *flags):
            cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                         "run.stats_samples": 1,
                                                         "model.moe_layers": layers})
            assert main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 0

        train_on([0, 2])
        assert sorted(p.name for p in maps.iterdir()) == [
            f"{m}_trunk_{i}.csv" for m in "ABC" for i in (0, 2)]
        kept = ["A_trunk_0.txt", "A_trunk_x.csv", "D_trunk_0.csv", "notes.csv"]
        for name in kept:
            (maps / name).write_text("keep\n")
        train_on([1], "--force")
        assert sorted(p.name for p in maps.iterdir()) == sorted(
            ["A_trunk_1.csv", "B_trunk_1.csv", "C_trunk_1.csv", *kept])

    @pytest.mark.parametrize("samples, flags", [(0, []), (1, ["--no-moe"])],
                             ids=["no_samples", "no_moe"])
    def test_train_rerun_without_evaluation_clears_the_old_one(self, tmp_path, samples, flags):
        """A ``train --force`` rerun that does not evaluate removes the evaluation
        CSVs and maps an earlier run left, and no other file, then ``top1_maps/``
        if the maps were all it held; a fresh one makes none."""
        out, maps = tmp_path / "run", tmp_path / "run" / "top1_maps"

        def train_on(stats_samples, *flags):
            cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                         "run.stats_samples": stats_samples})
            assert main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 0

        train_on(1)
        evaluation = ["expert_stats_init.csv", "expert_stats_final.csv"]
        assert all((out / name).is_file() for name in evaluation)
        kept = ["A_trunk_0.txt", "A_trunk_x.csv", "D_trunk_0.csv", "notes.csv"]
        for name in kept:
            (maps / name).write_text("keep\n")
        train_on(samples, "--force", *flags)
        assert not any((out / name).exists() for name in evaluation)
        assert sorted(p.name for p in maps.iterdir()) == sorted(kept)
        listed = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert not {"expert_stats_init", "expert_stats_final", "top1_maps"} & set(listed)

        for name in kept:
            (maps / name).unlink()
        train_on(1, "--force")
        assert any(maps.iterdir())
        train_on(samples, "--force", *flags)
        assert not maps.exists()

        fresh = tmp_path / "fresh"
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "run.stats_samples": samples})
        assert main(["train", "--config", str(cfg), "--out", str(fresh), *flags]) == 0
        assert not (fresh / "top1_maps").exists()
        assert not any((fresh / name).exists() for name in evaluation)

    def test_n_zero_empty_stats(self, tmp_path):
        out = self._trained_run(tmp_path)
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "0"])
        assert code == 0
        assert read_csv(out / "inspect" / "participation.csv") == []

    def test_n_zero_makes_no_maps_directory(self, tmp_path):
        """With no sample there is no map to write, so ``top1_maps/`` is not made."""
        out = self._trained_run(tmp_path, iterations=2)
        insp = tmp_path / "insp"
        assert main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "0", "--out", str(insp)]) == 0
        assert sorted(p.name for p in insp.iterdir()) == ["participation.csv"]

    def test_negative_n_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = self._trained_run(tmp_path, iterations=2)
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "-1"])
        assert code == 2
        assert "--n: must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "inspect").exists()

    def test_modality_the_run_did_not_train_on(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 2,
                                                     "sampler.counts": {"A": 2, "B": 2}})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "C", "--n", "2"])
        assert code == 0
        rows = read_csv(out / "inspect" / "participation.csv")
        assert rows and {row["dataset"] for row in rows} == {"C"}

    def test_fresh_init_participation_mass_is_spread(self, tmp_path):
        """A freshly initialized checkpoint spreads routing mass over several
        experts per modality.

        The strict near-uniformity bound (within 0.1 of 1/N) holds over the
        isotropic input distribution the init is designed for and is pinned
        by the gate-level Monte-Carlo test; modality-conditioned features
        concentrate direction-wise, so here the honest claims are valid mass
        accounting and non-collapse.
        """
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 1,
                                                     "run.base_lr": 1e-12,
                                                     "moe.gate_temperature": 0.5})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "C", "--n", "30"])
        assert code == 0
        rows = read_csv(out / "inspect" / "participation.csv")
        per_layer = {}
        for row in rows:
            share = float(row["participation_mass"]) / float(row["grid_positions"])
            per_layer.setdefault(row["layer"], []).append(share)
        assert set(per_layer) == {"trunk.0", "trunk.2"}
        for layer, shares in per_layer.items():
            # post-top-k mass per position is at most 1 and sums below 1
            assert 0.5 < sum(shares) <= 1.0 + 1e-9, layer
            assert sum(s > 0.05 for s in shares) >= 2, layer

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("entries"),
        lambda meta: meta.update(schema="checkpoint.v9"),
        lambda meta: meta["entries"][0].update(shape=[2**32, 2**32]),
    ], ids=["no_entries", "schema_v9", "size_past_int64"])
    def test_malformed_checkpoint_manifest_exits_2(self, tmp_path, capsys, edit):
        out = self._trained_run(tmp_path, iterations=2)
        manifest = out / "checkpoint.manifest.json"
        meta = json.loads(manifest.read_text())
        edit(meta)
        manifest.write_text(json.dumps(meta))
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "1"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (out / "inspect").exists()

    def test_checkpoint_manifest_naming_an_entry_twice_exits_2(self, tmp_path, capsys):
        out = self._trained_run(tmp_path, iterations=2)
        manifest = out / "checkpoint.manifest.json"
        meta = json.loads(manifest.read_text())
        meta["entries"][1]["name"] = meta["entries"][0]["name"]  # shapes, sizes unchanged
        manifest.write_text(json.dumps(meta))
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}: entry name {meta['entries'][0]['name']!r} appears more than once" in err
        assert not (out / "inspect").exists()

    @pytest.mark.parametrize("damage", ["cut_binary", "manifest_not_json"])
    def test_damaged_checkpoint_exits_2_naming_the_file(self, tmp_path, capsys, damage):
        out = self._trained_run(tmp_path, iterations=2)
        if damage == "cut_binary":
            damaged = out / "checkpoint.bin"
            damaged.write_bytes(damaged.read_bytes()[:-3])
        else:
            damaged = out / "checkpoint.manifest.json"
            damaged.write_text("{not json")
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "1"])
        assert code == 2
        assert f"config error: checkpoint: {damaged}: " in capsys.readouterr().err
        assert not (out / "inspect").exists()

    def test_checkpoint_config_mismatch_exits_2(self, tmp_path, capsys):
        out = self._trained_run(tmp_path)
        other_cfg = write_config(tmp_path / "other.json", **{"model.channels": 6})
        code = main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--config", str(other_cfg), "--modality", "A", "--n", "1"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


def test_renamed_log_columns_are_written_and_never_read_back(tmp_path, monkeypatch, capsys):
    """Each log's columns are named only in their list: with every column of
    ``_loss_columns``, ``_dso_columns`` and ``STATS_CSV_COLUMNS`` renamed, ``train``
    and ``inspect-gates`` still run, write the new headers and print the same."""
    def run(name):
        out = tmp_path / name
        cfg = write_config(tmp_path / "cfg.json", **{"run.iterations": 3})
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                     "--modality", "A", "--n", "2"]) == 0
        return out, capsys.readouterr().out.replace(str(out), "<out>")

    plain_out, plain_printed = run("plain")
    train_mod, moe_mod = (importlib.import_module(f"gridmoe.{m}") for m in ("train", "moe"))
    for name in ("_loss_columns", "_dso_columns"):
        monkeypatch.setattr(train_mod, name, lambda order, listed=getattr(train_mod, name): [
            f"renamed_{c}" for c in listed(order)])
    monkeypatch.setattr(moe_mod, "STATS_CSV_COLUMNS",
                        tuple(f"renamed_{c}" for c in moe_mod.STATS_CSV_COLUMNS))
    renamed_out, renamed_printed = run("renamed")
    assert renamed_printed == plain_printed
    for file in ("losses.csv", "dso_log.csv", "expert_stats.csv", "expert_stats_final.csv",
                 "inspect/participation.csv"):
        plain, renamed = ((out / file).read_text().splitlines()
                          for out in (plain_out, renamed_out))
        assert renamed[1] == ",".join(f"renamed_{c}" for c in plain[1].split(",")), file
        assert renamed[2:] == plain[2:], file

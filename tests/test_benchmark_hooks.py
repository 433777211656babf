"""The benchmark's tracer and the gridmoe names its workloads call.

``perfbench/`` imports gridmoe from outside the package and patches names
by attribute, so a refactor that drops or renames one of them breaks the
benchmark. These tests make that show up in the unit tests too.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Module -> the names perfbench/workload.py looks up on it.
WORKLOAD_NAMES = {
    "train": ("build_setup", "evaluate_stats", "benchmark_config", "normalized_loss_spread"),
    "runconfig": ("parse_config", "write_config_snapshot", "verify_manifest"),
    "cli": ("train", "main"),
    "data": ("BatchSampler", "generate_sample"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "csvio": ("read_csv",),
}

# The TrainResult attributes perfbench/workload.py reads from each CLI run.
RESULT_ATTRIBUTES = ("loss_history", "task_order", "init_entropy", "final_entropy")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_names_exist():
    for module_name, names in WORKLOAD_NAMES.items():
        # ``import gridmoe.train`` would give the re-exported train() function.
        module = importlib.import_module(f"gridmoe.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gridmoe.{module_name}.{name}"


def test_train_result_attributes_workloads_read(tmp_path):
    train_mod = importlib.import_module("gridmoe.train")
    runconfig = importlib.import_module("gridmoe.runconfig")
    cfg = runconfig.parse_config({"moe": {"n_experts": 2, "top_k": 1},
                                  "run": {"iterations": 2, "stats_samples": 1,
                                          "out_dir": str(tmp_path)}})
    result = train_mod.train(cfg, False)  # positional, as the workloads call it
    history, order, init, final = (getattr(result, name) for name in RESULT_ATTRIBUTES)
    assert order == ["A", "B", "C"]
    assert {t: len(history[t]) for t in order} == dict.fromkeys(order, 2)
    assert set(init) == set(final) == set(order)
    assert all(isinstance(v, float) for v in (*init.values(), *final.values()))


def test_tracer_installs_counts_and_uninstalls():
    train_mod = importlib.import_module("gridmoe.train")
    runconfig = importlib.import_module("gridmoe.runconfig")
    cli = importlib.import_module("gridmoe.cli")
    model_mod = importlib.import_module("gridmoe.model")
    watched = [
        (runconfig, "parse_config"), (cli, "parse_config"), (cli, "train"),
        (train_mod, "evaluate_stats"), (model_mod.Model, "features"),
    ]
    originals = [getattr(owner, attr) for owner, attr in watched]

    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(watched, originals))
        cfg = runconfig.parse_config({"moe": {"n_experts": 2, "top_k": 1},
                                      "run": {"iterations": 1}})
        modalities, tasks, model, _ = train_mod.build_setup(cfg)
        train_mod.evaluate_stats(model, modalities, tasks, 1, 4, 4)
    finally:
        tracer.uninstall()

    assert [getattr(owner, attr) for owner, attr in watched] == originals
    assert tracer.calls["runconfig.parse_config"] == 1
    assert tracer.calls["train.evaluate_stats"] == 1
    assert tracer.calls["model.features"] == len(modalities)


def test_tracer_sees_every_step_of_a_cli_train_run(tmp_path):
    """``train`` reaches the wrapped names through their module attributes."""
    iterations = 5
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"moe": {"n_experts": 4, "top_k": 2},
                                  "run": {"iterations": iterations, "stats_samples": 2}}))
    cli = importlib.import_module("gridmoe.cli")
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()

    assert code == 0
    assert tracer.calls["runconfig.parse_config"] == 1
    walls, selfs = tracer.loop_accounting()
    assert len(walls) == len(selfs) == iterations
    assert tracer.calls["data.next_batch"] == iterations
    assert tracer.calls["dso.step"] == iterations
    assert tracer.calls["checkpoint.save"] == 1
    assert tracer.calls["train.evaluate_stats"] == 2
    # Two MoE layers, each routed once per Model.features call: 17 calls, 5 in
    # training and 2 evaluations x 3 modalities x 2 samples. Every routing
    # selects its experts through the name moe.topk_select.
    assert tracer.calls["moe.topk_select"] == tracer.calls["moe.moe_forward"] == 34


def test_no_dso_run_steps_the_governor_every_iteration(tmp_path):
    """With the governor off, ``train_step`` still calls ``dso.step``, which holds the
    governor's off switch, so ``dso.step.ms`` times every step of a ``--no-dso`` run."""
    iterations = 4
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"moe": {"n_experts": 2, "top_k": 1},
                                  "run": {"iterations": iterations, "stats_samples": 0}}))
    cli = importlib.import_module("gridmoe.cli")
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                         "--no-dso"])
    finally:
        tracer.uninstall()

    assert code == 0
    assert tracer.calls["dso.step"] == tracer.calls["dso.update_ema"] == iterations

"""Training-loop tests: determinism, governor-off equivalence to a plain
loop, artifact layout, divergence abort, sweeps."""

import ctypes
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gridmoe import autodiff as ad
from gridmoe import data as gdata
from gridmoe import dso
from gridmoe.csvio import read_csv
from gridmoe.errors import ConfigError, TrainingAborted
from gridmoe.model import Model
from gridmoe.runconfig import parse_config
from gridmoe.train import (
    benchmark_config,
    build_setup,
    evaluate_stats,
    imbalance_benchmark,
    normalized_loss_spread,
    start_training,
    sweep_rows,
    train,
    train_step,
    write_sweep_csv,
)
from reference_ops import ShuffledSampler, per_sample_forward_batch


def small_config(out_dir, iterations=40, seed=0, dso_enabled=True, moe_enabled=True,
                 base_lr=0.05, extra_run=None):
    raw = {
        "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.5},
        "run": {
            "seed": seed,
            "iterations": iterations,
            "out_dir": str(out_dir),
            "base_lr": base_lr,
            "dso": dso_enabled,
            "moe": moe_enabled,
            "stats_samples": 4,
        },
    }
    if extra_run:
        raw["run"].update(extra_run)
    return parse_config(raw)


class TestTrainBasics:
    def test_artifacts_written(self, tmp_path):
        result = train(small_config(tmp_path / "run"))
        out = result.out_dir
        for name in ("losses.csv", "dso_log.csv", "expert_stats.csv",
                     "expert_stats_init.csv", "expert_stats_final.csv",
                     "checkpoint.bin", "checkpoint.manifest.json",
                     "config_snapshot.json"):
            assert (out / name).exists(), name
        maps = list((out / "top1_maps").glob("*.csv"))
        assert len(maps) == 3 * 2  # three modalities, two MoE blocks

    def test_loss_log_schema(self, tmp_path):
        result = train(small_config(tmp_path / "run", iterations=5))
        rows = read_csv(result.artifacts["losses"])
        assert len(rows) == 5
        assert set(rows[0]) == {"iteration", "loss_A", "loss_B", "loss_C", "total"}
        first_line = result.artifacts["losses"].read_text().splitlines()[0]
        assert first_line.startswith("# schema=losses.v")

    def test_dso_log_schema(self, tmp_path):
        result = train(small_config(tmp_path / "run", iterations=5))
        rows = read_csv(result.artifacts["dso_log"])
        expected = {
            "iteration", "C", "gamma", "lr_backbone",
            *(f"{p}_{t}" for p in ("cur", "his", "w", "lambda", "lr_head")
              for t in ("A", "B", "C")),
        }
        assert set(rows[0]) == expected

    def test_training_stats_counting_invariant(self, tmp_path):
        cfg = small_config(tmp_path / "run", iterations=10)
        result = train(cfg)
        # per (dataset, layer): top-1 counts sum to processed grid positions
        for (_, _), cell in result.stats.cells.items():
            assert cell.top1.sum() == cell.positions
        # modality A appears twice per batch, B and C once
        a_cell = result.stats.cells[("A", "trunk.0")]
        b_cell = result.stats.cells[("B", "trunk.0")]
        assert a_cell.positions == 2 * b_cell.positions

    def test_determinism_bit_identical(self, tmp_path):
        r1 = train(small_config(tmp_path / "a", iterations=25))
        r2 = train(small_config(tmp_path / "b", iterations=25))
        assert r1.artifacts["losses"].read_bytes() == r2.artifacts["losses"].read_bytes()
        assert r1.artifacts["dso_log"].read_bytes() == r2.artifacts["dso_log"].read_bytes()
        assert r1.artifacts["checkpoint"].read_bytes() == r2.artifacts["checkpoint"].read_bytes()

    def test_seed_changes_trajectory(self, tmp_path):
        r1 = train(small_config(tmp_path / "a", iterations=10, seed=0))
        r2 = train(small_config(tmp_path / "b", iterations=10, seed=1))
        assert r1.artifacts["losses"].read_bytes() != r2.artifacts["losses"].read_bytes()


class TestGovernorOffEquivalence:
    def test_disabled_governor_matches_handwritten_plain_loop(self, tmp_path):
        """With multipliers forced to 1 the harness must equal a loop that
        never instantiates the governor, bit for bit."""
        cfg = small_config(tmp_path / "run", iterations=30, dso_enabled=False)
        result = train(cfg)

        # plain loop, written out longhand
        modalities = gdata.default_modalities(cfg.model.channels, cfg.modality_seed)
        tasks = gdata.default_tasks(cfg.label_noise)
        model = Model(cfg.model, tasks, seed=cfg.seed, moe_enabled=cfg.moe_enabled)
        sampler = gdata.BatchSampler(cfg.counts)
        params = [p for group in model.param_groups() for p in group]
        for _ in range(cfg.iterations):
            batch = sampler.next_batch()
            samples = []
            for modality, index in batch:
                image, target = gdata.generate_sample(
                    modalities[modality], tasks[modality], index, cfg.height, cfg.width,
                )
                samples.append((modality, index, image, target))
            total, _, _ = model.forward_batch(samples)
            ad.backward(total)
            for p in params:
                if p.grad is not None:
                    p.data = p.data - cfg.base_lr * p.grad
                p.grad = None

        trained = result.model.state_dict() if result.model else None
        assert trained is not None
        for name, p, index in model.named_parameters():
            assert trained[name].tobytes() == p.data[index].tobytes(), name

    def test_identity_multipliers_flag_reflected_in_log(self, tmp_path):
        result = train(small_config(tmp_path / "run", iterations=5, dso_enabled=False))
        for row in read_csv(result.artifacts["dso_log"]):
            assert float(row["gamma"]) == 1.0
            for t in ("A", "B", "C"):
                assert float(row[f"lambda_{t}"]) == 1.0
                assert float(row[f"lr_head_{t}"]) == float(row["lr_backbone"])


class TestGroupRates:
    """Rates by position: the backbone first, then each head in task order."""

    def test_logged_rates_are_base_lr_times_multipliers(self, tmp_path):
        cfg = small_config(tmp_path / "run", iterations=6)
        rows = read_csv(train(cfg).artifacts["dso_log"])
        assert len({row["lambda_A"] for row in rows[1:]}) > 1
        for row in rows:
            assert float(row["lr_backbone"]) == cfg.base_lr * float(row["gamma"])
            for t in ("A", "B", "C"):
                assert float(row[f"lr_head_{t}"]) == cfg.base_lr * float(row[f"lambda_{t}"])

    def test_each_group_steps_at_its_logged_rate(self, tmp_path, monkeypatch):
        # Each group's SGD update uses the rate its dso_log column shows, and
        # the heads' rates differ, so a group stepped at another's rate shows.
        state = start_training(small_config(tmp_path / "run", iterations=6))
        grads = {}
        backward = ad.backward

        def recording_backward(total):
            backward(total)
            grads.update({id(p): p.grad for group in state.groups for p in group})

        monkeypatch.setattr(ad, "backward", recording_backward)
        for _ in range(6):
            before = [[p.data for p in group] for group in state.groups]
            _, row = train_step(state)
            rates = [row["lr_backbone"], *(row[f"lr_head_{t}"] for t in ("A", "B", "C"))]
            for rate, group, old in zip(rates, state.groups, before, strict=True):
                for p, data in zip(group, old):
                    assert p.data.tobytes() == (data - rate * grads[id(p)]).tobytes()
        assert len(set(rates[1:])) == 3


class TestSmokeRun:
    def test_500_iterations_under_budget_and_losses_decrease(self, tmp_path):
        start = time.monotonic()
        result = train(small_config(tmp_path / "run", iterations=500))
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        for task, series in result.loss_history.items():
            assert np.mean(series[-10:]) < np.mean(series[:10]), task

    def test_no_dso_no_moe_also_converges(self, tmp_path):
        result = train(small_config(tmp_path / "run", iterations=300,
                                    dso_enabled=False, moe_enabled=False))
        for task, series in result.loss_history.items():
            assert np.mean(series[-10:]) < np.mean(series[:10]), task


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


def minor_faults_after(entry, tmp_path):
    """Minor faults of allocating 2 MiB again after ``entry`` ran in a fresh process.

    A fresh process: any build_setup earlier in this session has already set
    the allocator for the whole test process.
    """
    script = f"""
import resource
import numpy as np
from gridmoe.train import benchmark_config, {entry}

{entry}(benchmark_config(0, 1, {str(tmp_path)!r}, True))

def allocate_and_free():
    arrays = [np.ones(4096) for _ in range(64)]
    del arrays

allocate_and_free()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
allocate_and_free()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(gdata.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_start_training_keeps_freed_heap(tmp_path):
    # 2 MiB freed and allocated again: about 370-384 minor faults at glibc's defaults.
    assert minor_faults_after("start_training", tmp_path) < 16


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_build_setup_keeps_freed_heap(tmp_path):
    # Evaluation (inspect-gates, evaluate_stats) starts at build_setup, not start_training.
    assert minor_faults_after("build_setup", tmp_path) < 16


def poisoned_run(tmp_path, monkeypatch, clean_samples):
    """Train until a regression target turns NaN after ``clean_samples`` samples.

    Returns the abort, the diagnostic dump's rows and the rows of ``losses.csv``.
    """
    calls = {"n": 0}
    real_generate = gdata.generate_sample

    def poisoned(spec, task, index, height=8, width=8):
        image, target = real_generate(spec, task, index, height, width)
        calls["n"] += 1
        if calls["n"] > clean_samples and task.kind == gdata.REGRESSION:
            target = target * np.nan
        return image, target

    import importlib
    train_mod = importlib.import_module("gridmoe.train")
    monkeypatch.setattr(train_mod.gdata, "generate_sample", poisoned)
    cfg = small_config(tmp_path / "run", iterations=200,
                       extra_run={"stats_samples": 0})
    with pytest.raises(TrainingAborted) as excinfo:
        train(cfg)
    dump = excinfo.value.dump_path
    assert dump is not None
    return excinfo.value, read_csv(dump), read_csv(tmp_path / "run" / "losses.csv")


class TestAbort:
    def test_divergence_aborts_with_dump(self, tmp_path, monkeypatch):
        # inject a NaN sample mid-stream to simulate upstream divergence
        error, rows, logged = poisoned_run(tmp_path, monkeypatch, clean_samples=30)
        assert 0 < len(rows) <= 10
        assert "non-finite loss" in str(error)
        # The dump holds the last (up to 10) rows logged before the failing iteration.
        assert f"non-finite loss at iteration {len(logged)}:" in str(error)
        assert rows == logged[-10:]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_learning_rate_aborts_with_dump(self, tmp_path):
        # NaN features must reach the loss check, not be zeroed by relu.
        with pytest.raises(TrainingAborted) as excinfo:
            train(small_config(tmp_path / "run", iterations=20, base_lr=1e50))
        assert "non-finite loss" in str(excinfo.value)
        assert excinfo.value.dump_path.endswith("diagnostic_dump.csv")
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_dump_keeps_only_the_last_ten_rows(self, tmp_path, monkeypatch):
        error, rows, logged = poisoned_run(tmp_path, monkeypatch, clean_samples=80)
        assert len(logged) > 10
        assert f"non-finite loss at iteration {len(logged)}:" in str(error)
        assert rows == logged[-10:]


class TestStepNumber:
    def test_the_sampler_numbers_the_steps(self, tmp_path):
        """A sampler that has drawn N batches numbers the next step's rows N,
        and N steps draw N batches."""
        state = start_training(small_config(tmp_path / "run", iterations=10))
        for _ in range(3):
            state.sampler.next_batch()
        for n in range(3, 6):
            loss_row, dso_row = train_step(state)
            assert loss_row["iteration"] == dso_row["iteration"] == n
        fresh = start_training(small_config(tmp_path / "fresh", iterations=10))
        for n in range(1, 5):
            train_step(fresh)
            assert fresh.sampler.batches == n


class TestEvaluateStats:
    def test_counts_match_samples(self, tmp_path):
        cfg = small_config(tmp_path / "run", iterations=1)
        modalities = gdata.default_modalities(cfg.model.channels, cfg.modality_seed)
        tasks = gdata.default_tasks()
        model = Model(cfg.model, tasks, seed=0)
        stats = evaluate_stats(model, modalities, tasks, n_samples=3,
                               height=cfg.height, width=cfg.width)
        for (_, _), cell in stats.cells.items():
            assert cell.positions == 3 * cfg.height * cfg.width
            assert cell.top1.sum() == cell.positions


class TestSweep:
    def test_grid_times_seeds_row_count(self, tmp_path):
        base = {
            "moe": {"n_experts": 4, "top_k": 2},
            "run": {"iterations": 3, "base_lr": 0.01, "stats_samples": 0},
        }
        rows = sweep_rows(base, {"moe.n_experts": [2, 4, 8]}, seeds=[0, 1, 2],
                          out_root=tmp_path)
        assert len(rows) == 9
        write_sweep_csv(tmp_path / "sweep.csv", rows)
        parsed = read_csv(tmp_path / "sweep.csv")
        assert len(parsed) == 9
        assert {r["moe.n_experts"] for r in parsed} == {"2", "4", "8"}

    def test_gamma_stays_in_open_interval(self, tmp_path):
        base = {
            "moe": {"n_experts": 2, "top_k": 1},
            "dso": {"tau": 3.0, "bias_b": 0.4},
            "run": {"iterations": 20, "base_lr": 0.05, "stats_samples": 0},
        }
        rows = sweep_rows(base, {"dso.tau": [3.0]}, seeds=[0], out_root=tmp_path)
        assert 0.0 < rows[0]["gamma_min"] <= rows[0]["gamma_max"] < 2.0

    def test_single_cell_sweep_equals_single_train(self, tmp_path):
        base = {
            "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.5},
            "run": {"iterations": 8, "base_lr": 0.05, "stats_samples": 0},
        }
        rows = sweep_rows(base, {"moe.top_k": [2]}, seeds=[0], out_root=tmp_path / "sw")
        single = train(small_config(tmp_path / "single", iterations=8,
                                    extra_run={"stats_samples": 0},
                                    base_lr=0.05))
        # same seeds, same config -> same final losses
        for t in ("A", "B", "C"):
            assert rows[0][f"final_loss_{t}"] == single.final_losses[t]

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_rows({"moe": {"n_experts": 2, "top_k": 1},
                        "run": {"iterations": 1}}, {}, seeds=[0], out_root=tmp_path)


class TestBenchmarkPieces:
    def test_normalized_spread_of_flat_histories_is_zero(self):
        history = {"A": [2.0] * 100, "B": [1.0] * 100, "C": [0.5] * 100}
        assert normalized_loss_spread(history) == 0.0

    def test_benchmark_single_seed_short(self, tmp_path):
        result = imbalance_benchmark(tmp_path, seeds=(0,), iterations=60)
        assert len(result.per_seed) == 1
        seed_result = result.per_seed[0]
        assert seed_result.spread_with_dso >= 0.0
        assert set(seed_result.init_entropy) == {"A", "B", "C"}

    def test_per_seed_csv_equals_per_seed_results(self, tmp_path):
        result = imbalance_benchmark(tmp_path, seeds=(0, 2), iterations=12)
        assert (tmp_path / "benchmark_seeds.csv").read_text().startswith(
            "# schema=benchmark_seeds.v1\n")
        rows = read_csv(tmp_path / "benchmark_seeds.csv")
        assert [r["seed"] for r in rows] == ["0", "2"]
        for row, seed_result in zip(rows, result.per_seed):
            assert float(row["spread_with_dso"]) == seed_result.spread_with_dso
            assert float(row["spread_without_dso"]) == seed_result.spread_without_dso
            assert {k for k in row if k.startswith("entropy_change_")} == {
                "entropy_change_A", "entropy_change_B", "entropy_change_C"}
            for m in ("A", "B", "C"):
                assert float(row[f"entropy_change_{m}"]) == (
                    seed_result.final_entropy[m] - seed_result.init_entropy[m])


    @pytest.mark.parametrize("seeds, iterations, field", [
        ((0, 0), 2, "seeds"), ((), 2, "seeds"), ((0,), 0, "run.iterations"),
    ], ids=["repeated_seed", "no_seed", "no_iterations"])
    def test_refusal_writes_nothing(self, tmp_path, seeds, iterations, field):
        # A repeated seed would train one pair twice and count it twice in
        # the medians; no seed would leave a header-only CSV that looks done.
        out_root = tmp_path / "bench"
        with pytest.raises(ConfigError) as excinfo:
            imbalance_benchmark(out_root, seeds=seeds, iterations=iterations)
        assert excinfo.value.field == field
        assert not out_root.exists()


def benchmark_step(out_dir, seed=0, moe=True):
    """A model of the scripted-imbalance config and a function that draws its next batch."""
    raw = benchmark_config(seed, 1, str(out_dir), True).snapshot()
    raw["run"]["moe"] = moe
    cfg = parse_config(raw)
    modalities, tasks, model, sampler = build_setup(cfg)

    def draw():
        samples = []
        for modality, index in sampler.next_batch():
            image, target = gdata.generate_sample(modalities[modality], tasks[modality],
                                                  index, cfg.height, cfg.width)
            samples.append((modality, index, image, target))
        return samples

    return model, draw


class TestGraphSize:
    def test_benchmark_step_records_9_nodes_2_of_them_moe_layers(self, tmp_path):
        # One moe_layer or trunk grid_linear and one relu per block for the
        # whole batch (8), and one heads_loss for every head, loss and the
        # total.
        model, draw = benchmark_step(tmp_path)
        total, _, _ = model.forward_batch(draw())
        names = [op.name for op in ad.ComputationRecord.trace(total).ops]
        assert len(names) == 9
        assert sorted(set(names)) == ["grid_linear", "heads_loss", "moe_layer", "relu"]
        assert [names.count(n) for n in ("moe_layer", "grid_linear", "relu", "heads_loss")] \
            == [2, 2, 4, 1]

    def test_benchmark_backbone_group_holds_12_tensors(self, tmp_path):
        # Per MoE block the gate's W and E and the bank's stacked weight and
        # bias; per plain block its weight and bias.
        model, _ = benchmark_step(tmp_path)
        backbone = model.param_groups()[0]
        assert len(backbone) == 12
        banks = [t for block in model.blocks if block.has_moe
                 for t in (block.bank.weight, block.bank.bias)]
        assert [t.shape for t in banks] == [(4, 8, 8), (4, 8)] * 2
        assert all(any(t is p for p in backbone) for t in banks)

    def test_backward_stores_grad_on_leaves_only(self, tmp_path):
        model, draw = benchmark_step(tmp_path)
        total, _, _ = model.forward_batch(draw())
        ad.backward(total)
        outputs = [op.output for op in ad.ComputationRecord.trace(total).ops]
        assert len(outputs) == 9 and all(t.grad is None for t in outputs)
        params = [p for group in model.param_groups() for p in group]
        assert all(p.grad is not None and p.grad.shape == p.shape for p in params)


class TestSampleAxis:
    """One (B, H, W, C) batch against one graph per sample, byte for byte."""

    @pytest.mark.parametrize("moe", [True, False], ids=["moe", "plain"])
    def test_losses_and_gradients_match_per_sample(self, tmp_path, moe):
        model, draw = benchmark_step(tmp_path, seed=3, moe=moe)
        params = [p for group in model.param_groups() for p in group]
        for _ in range(4):
            samples = draw()
            runs = []
            for forward in (Model.forward_batch, per_sample_forward_batch):
                total, losses, routings = forward(model, samples)
                ad.backward(total)
                grads = [p.grad for p in params]
                runs.append(([total.data.tobytes(),
                              *(np.float64(losses[t]).tobytes() for t in model.task_order)],
                             [g.tobytes() for g in grads],
                             [(task, layer, d.selected_indices.tobytes(), d.gate_weights.tobytes(),
                               d.full_softmax.tobytes(), d.expert_applications)
                              for task, layer, d in routings]))
                for p in params:
                    p.grad = None
            assert runs[0] == runs[1]
            for p, g in zip(params, grads):
                p.data = p.data - 0.05 * g

    @pytest.mark.parametrize("top_k", [2, 3])
    def test_training_artifacts_identical_to_per_sample(self, tmp_path, monkeypatch, top_k):
        # With k = 3 a position's terms span three (sample, expert) segments,
        # so this also checks that they are added in ascending expert id.
        def config(name):
            raw = benchmark_config(0, 30, str(tmp_path / name), True).snapshot()
            raw["moe"]["top_k"] = top_k
            return parse_config(raw)

        train(config("batched"), keep_model=False)
        monkeypatch.setattr(Model, "forward_batch", per_sample_forward_batch)
        train(config("per_sample"), keep_model=False)
        for name in ("losses.csv", "dso_log.csv", "checkpoint.bin", "expert_stats.csv"):
            assert ((tmp_path / "batched" / name).read_bytes()
                    == (tmp_path / "per_sample" / name).read_bytes()), name


@pytest.mark.parametrize("dso_enabled", [True, False], ids=["dso", "no_dso"])
@pytest.mark.parametrize("seed", [0, 3])
def test_batches_in_model_order_drift_only_in_routing_mass(tmp_path, monkeypatch, seed,
                                                            dso_enabled):
    """Against a sampler that shuffles each batch by the run seed, with routing decisions
    in that batch order, only the order in which training routing statistics are
    summed changes: ``participation_mass`` within 1e-12 relative, the rest equal."""
    def run(name):
        train(benchmark_config(seed, 300, str(tmp_path / name), dso_enabled), keep_model=False)
        root = tmp_path / name
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    ordered = run("ordered")
    monkeypatch.setattr(gdata, "BatchSampler", lambda counts: ShuffledSampler(counts, seed))
    monkeypatch.setattr(Model, "forward_batch", per_sample_forward_batch)
    shuffled = run("shuffled")
    assert sorted(ordered) == sorted(shuffled)
    for name in ordered.keys() - {"config_snapshot.json", "expert_stats.csv"}:
        assert ordered[name] == shuffled[name], name
    rows = [read_csv(tmp_path / name / "expert_stats.csv") for name in ("ordered", "shuffled")]
    assert len(rows[0]) == len(rows[1]) > 0
    for new, old in zip(*rows):
        new_mass, old_mass = (float(row.pop("participation_mass")) for row in (new, old))
        assert new == old
        assert abs(new_mass - old_mass) <= 1e-12 * abs(old_mass), new

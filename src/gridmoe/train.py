"""Training loop wiring the governor to parameter groups, plus sweeps.

Per iteration: draw a mixed batch (every task present), compute per-task mean
losses, let the governor turn loss statistics into learning-rate multipliers,
then run one plain SGD step with per-group effective rates. The governor only
transforms learning rates, so disabling it reproduces the plain joint loop
bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import collections
import ctypes
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import data as gdata
from . import dso
from .checkpoint import save_checkpoint
from .csvio import CsvLogger, write_csv
from .errors import EXIT_OK, EXIT_RUNTIME, ConfigError, GridMoeError, TrainingAborted
from .model import Model
from .moe import ExpertStats, export_top1_map, write_top1_map_csv
from .runconfig import RunConfig, RunManifest, write_config_snapshot


@dataclass
class TrainResult:
    out_dir: Path
    task_order: list[str]
    loss_history: dict[str, list[float]]
    final_losses: dict[str, float]
    gamma_min: float
    gamma_max: float
    stats: ExpertStats
    # The run's files, keyed by their names in ``manifest.json``.
    artifacts: dict[str, Path]
    init_entropy: dict[str, float] = field(default_factory=dict)
    final_entropy: dict[str, float] = field(default_factory=dict)
    model: Model | None = None


def build_setup(cfg: RunConfig):
    """A config's modalities, tasks, model and sampler; sets the process's heap policy."""
    # glibc trims more than 128 KiB of free heap top, and a training step or an
    # evaluated sample frees more than that, so each would fault its pages back
    # in. Any mallopt call ends glibc's dynamic mmap threshold, so that one is
    # set to the policy's ceiling.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pass  # libc has no mallopt (macOS, Windows)
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    modalities = gdata.default_modalities(cfg.model.channels, cfg.modality_seed)
    tasks = gdata.default_tasks(cfg.label_noise)
    wanted = dict(cfg.counts)
    modalities = {m: spec for m, spec in modalities.items() if m in wanted}
    tasks = {m: spec for m, spec in tasks.items() if m in wanted}
    model = Model(cfg.model, tasks, seed=cfg.seed, moe_enabled=cfg.moe_enabled)
    sampler = gdata.BatchSampler(cfg.counts)
    return modalities, tasks, model, sampler


def evaluate_stats(model: Model, modalities, tasks, n_samples: int, height: int, width: int,
                   maps_dir: Path | None = None) -> ExpertStats:
    """Routing statistics over fresh evaluation samples (no training indices).

    With ``maps_dir``, also writes each modality's top-1 maps of its first
    sample there, one CSV per MoE layer.
    """
    stats = ExpertStats()
    if maps_dir is not None:
        maps_dir.mkdir(parents=True, exist_ok=True)
    for modality in sorted(modalities):
        for j in range(n_samples):
            image, _ = gdata.generate_sample(
                modalities[modality], tasks[modality], gdata.EVAL_INDEX_OFFSET + j, height, width
            )
            _, routings = model.features(image[None])
            for layer, decision in routings:
                stats.accumulate(decision, modality, layer)
                if j == 0 and maps_dir is not None:
                    write_top1_map_csv(
                        maps_dir / f"{modality}_{layer.replace('.', '_')}.csv",
                        export_top1_map(decision)[0],
                    )
    return stats


@dataclass
class TrainState:
    """Everything one training step reads and advances; ``sampler.batches`` numbers it."""

    cfg: RunConfig
    modalities: dict
    tasks: dict
    model: Model
    sampler: gdata.BatchSampler
    groups: list[list[ad.Tensor]]  # ``Model.param_groups``: the backbone, then each head
    tracker: dso.LossTracker
    stats: ExpertStats
    # The last loss rows: a non-finite loss writes them to the diagnostic dump.
    recent: collections.deque = field(default_factory=lambda: collections.deque(maxlen=10))


def start_training(cfg: RunConfig) -> TrainState:
    """The state before the first step: a fresh model, sampler and empty statistics."""
    modalities, tasks, model, sampler = build_setup(cfg)
    return TrainState(cfg, modalities, tasks, model, sampler, model.param_groups(),
                      dso.LossTracker(len(model.task_order)), ExpertStats())


def _loss_columns(order) -> list[str]:
    return ["iteration", *(f"loss_{t}" for t in order), "total"]


def _dso_columns(order) -> list[str]:
    return ["iteration", *(f"cur_{t}" for t in order), *(f"his_{t}" for t in order),
            *(f"w_{t}" for t in order), *(f"lambda_{t}" for t in order), "C", "gamma",
            *(f"lr_head_{t}" for t in order), "lr_backbone"]


def train_step(state: TrainState) -> tuple[dict, dict]:
    """One iteration; returns its ``losses.csv`` and ``dso_log.csv`` rows.

    Draws a mixed batch and runs it forward. A non-finite loss writes the last
    loss rows to ``diagnostic_dump.csv`` and raises ``TrainingAborted``;
    otherwise the step accumulates routing statistics, runs the governor, then
    backward and one SGD update per parameter group at its effective rate.
    """
    cfg, model, tracker = state.cfg, state.model, state.tracker
    order, iteration = model.task_order, state.sampler.batches
    samples = []
    for modality, index in state.sampler.next_batch():
        image, target = gdata.generate_sample(state.modalities[modality], state.tasks[modality],
                                              index, cfg.height, cfg.width)
        samples.append((modality, index, image, target))

    total, losses, routings = model.forward_batch(samples)
    values = np.array([losses[t] for t in order])
    if not np.all(np.isfinite(values)):
        dump_path = Path(cfg.out_dir) / "diagnostic_dump.csv"
        write_csv(dump_path, _loss_columns(order), state.recent, "diagnostic_dump")
        raise TrainingAborted(
            f"non-finite loss at iteration {iteration}: "
            + ", ".join(f"{t}={v}" for t, v in zip(order, values)),
            str(dump_path),
        )

    for modality, layer, decision in routings:
        state.stats.accumulate(decision, modality, layer)

    if cfg.dso_enabled:
        multipliers = dso.step(tracker, values, cfg.dso)
        ratios = (dso.convergence_ratios(tracker)
                  if tracker.cur is not None else np.ones(len(order)))
    else:
        multipliers = dso.LrMultipliers.identity(len(order))
        if dso.losses_valid(values):
            dso.update_ema(tracker, values, cfg.dso)
        ratios = np.ones(len(order))

    ad.backward(total)
    rates = dso.apply_multipliers(cfg.base_lr, multipliers)
    for lr, params in zip(rates, state.groups, strict=True):
        for param in params:
            if param.grad is not None:
                param.data = param.data - lr * param.grad
            param.grad = None

    loss_row = {"iteration": iteration, "total": float(values.sum())}
    for t, v in zip(order, values):
        loss_row[f"loss_{t}"] = float(v)
    state.recent.append(loss_row)

    log_cur = tracker.cur if tracker.cur is not None else values
    log_his = tracker.his if tracker.his is not None else values
    dso_row = {"iteration": iteration, "C": multipliers.consistency,
               "gamma": multipliers.backbone_gamma, "lr_backbone": rates[0]}
    for idx, t in enumerate(order):
        dso_row[f"cur_{t}"] = float(log_cur[idx])
        dso_row[f"his_{t}"] = float(log_his[idx])
        dso_row[f"w_{t}"] = float(ratios[idx])
        dso_row[f"lambda_{t}"] = float(multipliers.head_lambdas[idx])
        dso_row[f"lr_head_{t}"] = rates[1 + idx]
    return loss_row, dso_row


def _eval_entropy(state: TrainState, name: str, maps_dir: Path | None = None) -> dict[str, float]:
    """Evaluation routing stats written to ``name``; each modality's entropy."""
    cfg, model = state.cfg, state.model
    if not model.moe_layer_names or cfg.stats_samples <= 0:
        return {}
    stats = evaluate_stats(model, state.modalities, state.tasks, cfg.stats_samples,
                           cfg.height, cfg.width, maps_dir=maps_dir)
    stats.to_csv(Path(cfg.out_dir) / name)
    return {m: stats.participation_entropy(m) for m in sorted(state.modalities)}


def train(cfg: RunConfig, keep_model: bool = True) -> TrainResult:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {"config_snapshot": write_config_snapshot(out_dir, cfg),
                 "losses": out_dir / "losses.csv", "dso_log": out_dir / "dso_log.csv",
                 "checkpoint": out_dir / "checkpoint.bin",
                 "expert_stats": out_dir / "expert_stats.csv"}
    state = start_training(cfg)
    order = state.model.task_order
    init_entropy = _eval_entropy(state, "expert_stats_init.csv")

    history: dict[str, list[float]] = {t: [] for t in order}
    gammas = []
    with CsvLogger(artifacts["losses"], _loss_columns(order), "losses") as loss_log, \
         CsvLogger(artifacts["dso_log"], _dso_columns(order), "dso_log") as dso_log:
        for _ in range(cfg.iterations):
            loss_row, dso_row = train_step(state)
            loss_log.write(loss_row)
            dso_log.write(dso_row)
            for t in order:
                history[t].append(loss_row[f"loss_{t}"])
            gammas.append(dso_row["gamma"])

    save_checkpoint(artifacts["checkpoint"], state.model.state_dict())
    state.stats.to_csv(artifacts["expert_stats"])
    final_entropy = _eval_entropy(state, "expert_stats_final.csv", out_dir / "top1_maps")
    return TrainResult(
        out_dir=out_dir, task_order=order, loss_history=history,
        final_losses={t: history[t][-1] for t in order},
        gamma_min=min(gammas), gamma_max=max(gammas), stats=state.stats, artifacts=artifacts,
        init_entropy=init_entropy, final_entropy=final_entropy,
        model=state.model if keep_model else None,
    )


def recorded_train(cfg: RunConfig, config_path: str,
                   trainer: Callable[..., TrainResult] | None = None) -> TrainResult:
    """``train`` with a run manifest: started before, finished after.

    The manifest records exit status 0 and the artifacts ``train`` returns,
    or 3 when training raises a ``GridMoeError``, which is then re-raised;
    either way it hashes the config snapshot that ``train`` writes first.
    ``trainer`` stands in for ``train``: the CLI passes the ``train`` it looks
    up itself, so a wrapper installed on ``gridmoe.cli.train`` sees every CLI run.
    """
    out_dir = Path(cfg.out_dir)
    manifest = RunManifest.start(cfg, config_path)
    try:
        result = (trainer or train)(cfg, keep_model=False)
    except GridMoeError as exc:
        artifacts = ({"diagnostic_dump": exc.dump_path}
                     if isinstance(exc, TrainingAborted) else {})
        manifest.finish(out_dir, artifacts, EXIT_RUNTIME)
        raise
    manifest.finish(out_dir, {name: str(path) for name, path in result.artifacts.items()},
                    EXIT_OK)
    return result


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_rows(base_raw: dict, grid: dict[str, list], seeds, out_root: Path,
               config_path: str = "") -> list[dict]:
    """Cross-product of grid values x seeds; one training run per cell.

    Every cell reuses the same seed list, so cells are comparable; the seeds
    must be distinct, since each names its own run directory. The seeds and
    ``out_root`` set each run's ``run.seed`` and ``run.out_dir``, so the grid
    may name neither. Every cell's config is parsed before the first run, so
    a bad value in any cell fails the sweep before anything is trained. Each
    run writes a manifest, as ``recorded_train`` does, naming ``config_path``.
    Returns one row per run with the swept parameters and final metrics.
    """
    from .runconfig import parse_config, set_path
    import copy
    import itertools

    keys = sorted(grid)
    if not keys or any(not grid[k] for k in keys):
        raise ValueError("sweep grid is empty")
    for key, option in (("run.seed", "--seeds"), ("run.out_dir", "--out")):
        if key in grid:
            raise ConfigError(key, f"cannot be swept: every run's value comes from {option}")
    seeds = _distinct_seeds(int(seed) for seed in seeds)
    runs = []
    for cell_index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        for seed in seeds:
            raw = copy.deepcopy(base_raw)
            for key, value in zip(keys, combo):
                set_path(raw, key, value)
            set_path(raw, "run.seed", seed)
            set_path(raw, "run.out_dir", str(out_root / f"cell{cell_index:03d}_seed{seed}"))
            runs.append((combo, seed, parse_config(raw)))
    rows: list[dict] = []
    for combo, seed, cfg in runs:
        result = recorded_train(cfg, config_path)
        row = {key: _render(value) for key, value in zip(keys, combo)}
        row["seed"] = seed
        for t in result.task_order:
            row[f"final_loss_{t}"] = result.final_losses[t]
        row["final_total"] = float(sum(result.final_losses.values()))
        row["gamma_min"] = result.gamma_min
        row["gamma_max"] = result.gamma_max
        rows.append(row)
    return rows


def _distinct_seeds(seeds) -> list:
    """The seeds as a list, refused when empty or repeated: each names a run directory."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seeds", "need at least one seed")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError("seeds", f"seed {repeated[0]} is given more than once")
    return seeds


def _render(value):
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    return value


def write_sweep_csv(path, rows: list[dict]) -> None:
    columns = list(rows[0].keys())
    write_csv(path, columns, rows, schema="sweep")


# ---------------------------------------------------------------------------
# scripted-imbalance benchmark
# ---------------------------------------------------------------------------

BENCHMARK_BASE_NOISE = 0.1
BENCHMARK_SEEDS_CSV = "benchmark_seeds.csv"
BENCHMARK_HARD_MULTIPLIER = 4.0


@dataclass
class BenchmarkSeedResult:
    seed: int
    spread_with_dso: float
    spread_without_dso: float
    init_entropy: dict[str, float]
    final_entropy: dict[str, float]


@dataclass
class BenchmarkResult:
    per_seed: list[BenchmarkSeedResult]

    def median_spread_with(self) -> float:
        return statistics.median(r.spread_with_dso for r in self.per_seed)

    def median_spread_without(self) -> float:
        return statistics.median(r.spread_without_dso for r in self.per_seed)

    def median_entropy_drop(self, modality: str) -> float:
        return statistics.median(
            r.final_entropy[modality] - r.init_entropy[modality] for r in self.per_seed
        )

    def to_csv(self, path) -> None:
        """One row per seed: both spreads and each modality's entropy change."""
        modalities = sorted(self.per_seed[0].init_entropy) if self.per_seed else []
        columns = ["seed", "spread_with_dso", "spread_without_dso",
                   *(f"entropy_change_{m}" for m in modalities)]
        rows = [{"seed": r.seed, "spread_with_dso": r.spread_with_dso,
                 "spread_without_dso": r.spread_without_dso,
                 **{f"entropy_change_{m}": r.final_entropy[m] - r.init_entropy[m]
                    for m in modalities}}
                for r in self.per_seed]
        write_csv(path, columns, rows, schema="benchmark_seeds")


def benchmark_config(seed: int, iterations: int, out_dir: str, dso_enabled: bool) -> RunConfig:
    """Three modalities, task A 4x harder via label noise, 8x8x8 inputs.

    Task A's flip rate (0.4) keeps it mid-descent at 2000 iterations
    while the clean tasks reach their floors early; the governor uses a
    sharp head softmax and a balance point of 1, so the backbone rate never
    exceeds the base and the head policy carries the balancing.
    """
    from .runconfig import parse_config

    noise = {"A": BENCHMARK_BASE_NOISE * BENCHMARK_HARD_MULTIPLIER,
             "B": BENCHMARK_BASE_NOISE, "C": BENCHMARK_BASE_NOISE}
    raw = {
        "model": {"depth": 4, "channels": 8, "moe_layers": [0, 2]},
        "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.3},
        "dso": {"alpha": 0.05, "theta": 0.3, "bias_b": 1.0},
        "sampler": {"counts": {"A": 2, "B": 1, "C": 1}, "batch_size": 4},
        "data": {"height": 8, "width": 8, "label_noise": noise},
        "run": {
            "seed": seed,
            "iterations": iterations,
            "out_dir": out_dir,
            "base_lr": 0.05,
            "dso": dso_enabled,
            "moe": True,
            "stats_samples": 8,
        },
    }
    return parse_config(raw)


def normalized_loss_spread(history: dict[str, list[float]], window: int = 50) -> float:
    """Cross-task standard deviation of (final loss / initial loss).

    Initial and final levels are means over the first and last ``window``
    iterations to suppress single-batch noise.
    """
    ratios = []
    for series in history.values():
        w = min(window, max(1, len(series) // 4))
        initial = float(np.mean(series[:w]))
        final = float(np.mean(series[-w:]))
        ratios.append(final / initial)
    return float(np.std(ratios))


def imbalance_benchmark(out_root, seeds=(0, 1, 2, 3, 4), iterations: int = 2000
                        ) -> BenchmarkResult:
    """Paired runs (governor on/off) per seed on the scripted-imbalance setup.

    Every seed keeps ``data.modality_seed`` 0, so all seeds read one data
    stream in one batch order: a seed changes only the model initialization.
    Writes each seed's spreads and entropy changes to ``benchmark_seeds.csv``
    under ``out_root``, so a seed that flips the comparison shows there. The
    seeds must be distinct and every run's config valid: both are checked
    before anything is written.
    """
    out_root = Path(out_root)
    runs = [(seed, benchmark_config(seed, iterations, str(out_root / f"seed{seed}_dso"), True),
             benchmark_config(seed, iterations, str(out_root / f"seed{seed}_plain"), False))
            for seed in _distinct_seeds(seeds)]
    out_root.mkdir(parents=True, exist_ok=True)
    per_seed = []
    for seed, dso_cfg, plain_cfg in runs:
        with_dso = train(dso_cfg, keep_model=False)
        without_dso = train(plain_cfg, keep_model=False)
        per_seed.append(
            BenchmarkSeedResult(
                seed=seed,
                spread_with_dso=normalized_loss_spread(with_dso.loss_history),
                spread_without_dso=normalized_loss_spread(without_dso.loss_history),
                init_entropy=with_dso.init_entropy,
                final_entropy=with_dso.final_entropy,
            )
        )
    result = BenchmarkResult(per_seed)
    result.to_csv(out_root / BENCHMARK_SEEDS_CSV)
    return result

"""Training loop wiring the governor to parameter groups, plus sweeps.

Per iteration: draw a mixed batch (every task present), compute per-task mean
losses, let the governor turn loss statistics into learning-rate multipliers,
then run one plain SGD step with per-group effective rates. The governor only
transforms learning rates, so disabling it reproduces the plain joint loop
bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import data as gdata
from . import dso
from .checkpoint import manifest_path_for, save_checkpoint
from .csvio import CsvLogger, write_csv, write_rows
from .errors import EXIT_OK, EXIT_RUNTIME, ConfigError, GridMoeError, TrainingAborted
from .model import Model
from .moe import ExpertStats, export_top1_map
from .runconfig import (CONFIG_SNAPSHOT_NAME, MANIFEST_NAME, SWEEP_CSV_NAME, TOP1_MAPS_DIR,
                        RunConfig, make_out_dir, write_config_snapshot, write_manifest)

# Every file a train run writes, keyed by its name under the manifest's ``artifacts``,
# which list the evaluation's files only when it ran and the dump only on an abort.
RUN_FILES = {"config_snapshot": CONFIG_SNAPSHOT_NAME, "losses": "losses.csv",
             "dso_log": "dso_log.csv", "checkpoint": "checkpoint.bin",
             "expert_stats": "expert_stats.csv", "expert_stats_init": "expert_stats_init.csv",
             "expert_stats_final": "expert_stats_final.csv", "top1_maps": TOP1_MAPS_DIR,
             "diagnostic_dump": "diagnostic_dump.csv"}
TRAIN_FILES = (MANIFEST_NAME, manifest_path_for(RUN_FILES["checkpoint"]).name, *RUN_FILES.values())
# Batches whose samples ``train_step`` generates in one chunk. Back-to-back calls keep the
# generator's caches warm, and a sample depends only on its spec and index, so the bits
# do not change; a chunk of 200 ``benchmark_config`` samples is about 1.1 MB.
PREFETCH_STEPS = 50


@dataclass
class TrainResult:
    task_order: list[str]
    loss_history: dict[str, np.ndarray]  # each task's row of one (tasks, iterations) array
    gamma_min: float
    gamma_max: float
    stats: ExpertStats
    # The run's files, keyed by their names in ``manifest.json``.
    artifacts: dict[str, Path]
    init_entropy: dict[str, float] = field(default_factory=dict)
    final_entropy: dict[str, float] = field(default_factory=dict)
    model: Model | None = None


def build_setup(cfg: RunConfig):
    """Every modality and task of the config's data, a model whose heads are the trained
    ones (``cfg.counts``), and the sampler; sets the process's heap policy."""
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
    model = Model(cfg.model, {m: tasks[m] for m, _ in cfg.counts}, seed=cfg.seed)
    sampler = gdata.BatchSampler(cfg.counts)
    return modalities, tasks, model, sampler


def evaluate_stats(model: Model, modalities, tasks, n_samples: int, height: int, width: int,
                   maps_dir: Path | None = None) -> ExpertStats:
    """Routing statistics over fresh evaluation samples (no training indices).

    With ``maps_dir`` and a sample, also writes each modality's first-sample
    top-1 maps there, one CSV per MoE layer; the command that owns ``maps_dir``
    removed an earlier run's maps as it made its directory (``make_out_dir``).
    """
    stats = ExpertStats()
    if maps_dir is not None and n_samples > 0:
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
                    write_rows(maps_dir / f"{modality}_{layer.replace('.', '_')}.csv",
                               "top1_map", export_top1_map(decision)[0].tolist())
    return stats


@dataclass
class TrainState:
    """Everything one training step reads and advances; ``sampler.batches`` numbers it."""

    cfg: RunConfig
    modalities: dict
    model: Model
    sampler: gdata.BatchSampler
    groups: list[list[ad.Tensor]]  # ``Model.param_groups``: the backbone, then each head
    tracker: dso.LossTracker
    stats: ExpertStats
    loss_columns: list[str]  # ``_loss_columns`` and ``_dso_columns`` of the model's tasks
    dso_columns: list[str]
    # Generated (image, target) of coming batches, keyed by ``(modality, index)``;
    # ``train_step`` pops each sample it trains on.
    prefetched: dict = field(default_factory=dict)
    # The last loss rows: a non-finite loss writes them to the diagnostic dump.
    recent: collections.deque = field(default_factory=lambda: collections.deque(maxlen=10))


def start_training(cfg: RunConfig) -> TrainState:
    """The state before the first step: a fresh model, sampler and empty statistics."""
    modalities, _, model, sampler = build_setup(cfg)
    return TrainState(cfg, modalities, model, sampler, model.param_groups(),
                      dso.LossTracker(len(model.tasks)), ExpertStats(),
                      _loss_columns(model.tasks), _dso_columns(model.tasks))


def _loss_columns(order) -> list[str]:
    return ["iteration", *(f"loss_{t}" for t in order), "total"]


def _dso_columns(order) -> list[str]:
    return ["iteration", *(f"cur_{t}" for t in order), *(f"his_{t}" for t in order),
            *(f"w_{t}" for t in order), *(f"lambda_{t}" for t in order), "C", "gamma",
            *(f"lr_head_{t}" for t in order), "lr_backbone"]


def train_step(state: TrainState) -> tuple[dict, dict]:
    """One iteration; returns its ``losses.csv`` and ``dso_log.csv`` rows, each keyed by
    its file's columns (``state.loss_columns``, ``state.dso_columns``) in order.

    Draws a mixed batch and runs it forward. A drawn pair that ``state.prefetched``
    lacks starts a new chunk: the samples of ``PREFETCH_STEPS`` batches from the
    drawn one, or fewer at the run's end, generated in batch order, one
    ``gdata.generate_sample`` call each. A non-finite loss writes the last
    loss rows to ``diagnostic_dump.csv`` and raises ``TrainingAborted``;
    otherwise the step accumulates routing statistics, runs the governor, then
    backward and one SGD update per parameter group at its effective rate.
    """
    cfg, model, tracker = state.cfg, state.model, state.tracker
    order, iteration = model.tasks, state.sampler.batches
    samples = []
    for pair in state.sampler.next_batch():
        if pair not in state.prefetched:
            end = max(iteration + 1, min(iteration + PREFETCH_STEPS, cfg.iterations))
            state.prefetched = {
                (m, i): gdata.generate_sample(state.modalities[m], model.tasks[m], i,
                                              cfg.height, cfg.width)
                for n in range(iteration, end) for m, i in state.sampler.batch(n)}
        samples.append((*pair, *state.prefetched.pop(pair)))

    total, losses, routings = model.forward_batch(samples)
    values = np.array([losses[t] for t in order])
    if not np.all(np.isfinite(values)):
        dump_path = Path(cfg.out_dir) / RUN_FILES["diagnostic_dump"]
        write_csv(dump_path, state.loss_columns, state.recent, "diagnostic_dump")
        raise TrainingAborted(
            f"non-finite loss at iteration {iteration}: "
            + ", ".join(f"{t}={v}" for t, v in zip(order, values)),
            str(dump_path),
        )

    for modality, layer, decision in routings:
        state.stats.accumulate(decision, modality, layer)

    multipliers = dso.step(tracker, values, cfg.dso, governed=cfg.dso_enabled)
    ad.backward(total)
    rates = dso.apply_multipliers(cfg.base_lr, multipliers)
    for lr, params in zip(rates, state.groups, strict=True):
        for param in params:
            if param.grad is not None:
                param.data = param.data - lr * param.grad
            param.grad = None

    loss_row = dict(zip(state.loss_columns, [iteration, *values.tolist(), float(values.sum())],
                        strict=True))
    state.recent.append(loss_row)

    cur = tracker.cur if tracker.cur is not None else values
    his = tracker.his if tracker.his is not None else values
    dso_row = dict(zip(state.dso_columns, [
        iteration, *cur.tolist(), *his.tolist(), *multipliers.ratios.tolist(),
        *multipliers.head_lambdas.tolist(), multipliers.consistency, multipliers.backbone_gamma,
        *rates[1:], rates[0]], strict=True))
    return loss_row, dso_row


def _eval_entropy(state: TrainState, path: Path, maps_dir: Path | None = None) -> dict[str, float]:
    """Evaluation routing stats written to ``path``; each trained modality's entropy. A run
    with no MoE layer or no ``run.stats_samples`` evaluates nothing, writes nothing
    and returns no entropy."""
    cfg, model = state.cfg, state.model
    if not cfg.model.moe_layers or cfg.stats_samples <= 0:
        return {}
    stats = evaluate_stats(model, {m: state.modalities[m] for m in model.tasks}, model.tasks,
                           cfg.stats_samples, cfg.height, cfg.width, maps_dir=maps_dir)
    stats.to_csv(path)
    return {m: stats.participation_entropy(m) for m in model.tasks}


def train(cfg: RunConfig, keep_model: bool = True) -> TrainResult:
    out_dir = Path(cfg.out_dir)
    make_out_dir(out_dir, TRAIN_FILES)
    artifacts = {name: out_dir / file for name, file in RUN_FILES.items()}
    write_config_snapshot(out_dir, cfg)
    state = start_training(cfg)
    order = list(state.model.tasks)
    init_entropy = _eval_entropy(state, artifacts["expert_stats_init"])

    # Allocated once and written in place, so a run's memory does not grow with its length.
    history = np.empty((len(order), cfg.iterations))
    gamma_min, gamma_max = np.inf, -np.inf
    with CsvLogger(artifacts["losses"], state.loss_columns, "losses") as loss_log, \
         CsvLogger(artifacts["dso_log"], state.dso_columns, "dso_log") as dso_log:
        for i in range(cfg.iterations):
            loss_row, dso_row = train_step(state)
            loss_log.write(loss_row)
            dso_log.write(dso_row)
            history[:, i] = [loss_row[column] for column in state.loss_columns[1:-1]]
            gamma = state.tracker.last_multipliers.backbone_gamma  # the dso_log row's gamma
            gamma_min, gamma_max = min(gamma_min, gamma), max(gamma_max, gamma)

    save_checkpoint(artifacts["checkpoint"], state.model.state_dict())
    state.stats.to_csv(artifacts["expert_stats"])
    final_entropy = _eval_entropy(state, artifacts["expert_stats_final"], artifacts["top1_maps"])
    for name in ("diagnostic_dump",) if final_entropy else (
            "diagnostic_dump", "expert_stats_init", "expert_stats_final", "top1_maps"):
        del artifacts[name]  # not written
    return TrainResult(task_order=order, loss_history=dict(zip(order, history)),
                       gamma_min=gamma_min, gamma_max=gamma_max, stats=state.stats,
                       artifacts=artifacts, init_entropy=init_entropy, final_entropy=final_entropy,
                       model=state.model if keep_model else None)


def recorded_train(cfg: RunConfig, config_path: str,
                   trainer: Callable[..., TrainResult] | None = None) -> TrainResult:
    """``train``, then its manifest (``write_manifest``), timed from before training.

    The manifest records exit status 0 and the artifacts ``train`` returns, or
    3 when training raises an ``OSError``, a ``MemoryError`` or a ``GridMoeError``,
    which is then re-raised; either way it hashes the config snapshot that ``train``
    writes first. A ``ConfigError`` (nothing ran) or a failed run whose manifest
    cannot be written leaves none.
    ``trainer`` stands in for ``train``: the CLI passes the ``train`` it looks
    up itself, so a wrapper installed on ``gridmoe.cli.train`` sees every CLI run.
    """
    out_dir = Path(cfg.out_dir)
    started_at = datetime.now(timezone.utc).isoformat()
    try:
        result = (trainer or train)(cfg, keep_model=False)
    except (GridMoeError, OSError, MemoryError) as exc:
        artifacts = {"diagnostic_dump": exc.dump_path} if isinstance(exc, TrainingAborted) else {}
        with contextlib.suppress(OSError):
            if not isinstance(exc, ConfigError):
                write_manifest(out_dir, cfg, config_path, started_at, artifacts, EXIT_RUNTIME)
        raise
    write_manifest(out_dir, cfg, config_path, started_at,
                   {name: str(path) for name, path in result.artifacts.items()}, EXIT_OK)
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
    Returns one row per run with the swept parameters and final metrics, and
    writes them to ``sweep.csv`` under ``out_root`` after the last run.
    """
    from .runconfig import parse_config, set_path  # at call time: a wrapped parse_config sees it
    import copy
    import itertools

    keys = sorted(grid)
    if not keys:
        raise ConfigError("grid", "empty sweep grid")
    for key in keys:
        if not grid[key]:
            raise ConfigError("grid", f"no values for {key!r}")
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
    make_out_dir(out_root, (SWEEP_CSV_NAME,))
    rows: list[dict] = []
    for combo, seed, cfg in runs:
        result = recorded_train(cfg, config_path)
        final = {t: float(result.loss_history[t][-1]) for t in result.task_order}
        rows.append({**{key: _render(value) for key, value in zip(keys, combo)}, "seed": seed,
                     **{f"final_loss_{t}": loss for t, loss in final.items()},
                     "final_total": float(sum(final.values())),
                     "gamma_min": result.gamma_min, "gamma_max": result.gamma_max})
    write_csv(out_root / SWEEP_CSV_NAME, list(rows[0]), rows, schema="sweep")
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


# ---------------------------------------------------------------------------
# scripted-imbalance benchmark
# ---------------------------------------------------------------------------

BENCHMARK_BASE_NOISE = 0.1
BENCHMARK_SEEDS_CSV = "benchmark_seeds.csv"
BENCHMARK_HARD_MULTIPLIER = 4.0
SPREAD_WINDOW = 50  # iterations averaged at each end by normalized_loss_spread


def benchmark_config(seed: int, iterations: int, out_dir: str, dso_enabled: bool) -> RunConfig:
    """Three modalities, task A 4x harder via label noise, 8x8x8 inputs.

    Task A's flip rate (0.4) keeps it mid-descent at 2000 iterations
    while the clean tasks reach their floors early; the governor uses a
    sharp head softmax and a balance point of 1, so the backbone rate never
    exceeds the base and the head policy carries the balancing.
    """
    from .runconfig import parse_config  # at call time: a wrapped parse_config sees it

    noise = {"A": BENCHMARK_BASE_NOISE * BENCHMARK_HARD_MULTIPLIER,
             "B": BENCHMARK_BASE_NOISE, "C": BENCHMARK_BASE_NOISE}
    raw = {
        "model": {"depth": 4, "channels": 8, "moe_layers": [0, 2]},
        "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.3},
        "dso": {"alpha": 0.05, "theta": 0.3, "bias_b": 1.0},
        "sampler": {"counts": {"A": 2, "B": 1, "C": 1}},
        "data": {"height": 8, "width": 8, "label_noise": noise},
        "run": {
            "seed": seed,
            "iterations": iterations,
            "out_dir": out_dir,
            "base_lr": 0.05,
            "dso": dso_enabled,
            "stats_samples": 8,
        },
    }
    return parse_config(raw)


def normalized_loss_spread(history: dict[str, np.ndarray]) -> float:
    """Cross-task standard deviation of (final loss / initial loss).

    Initial and final levels are means over the first and last ``SPREAD_WINDOW``
    iterations to suppress single-batch noise.
    """
    ratios = []
    for series in history.values():
        w = min(SPREAD_WINDOW, max(1, len(series) // 4))
        initial = float(np.mean(series[:w]))
        final = float(np.mean(series[-w:]))
        ratios.append(final / initial)
    return float(np.std(ratios))


def imbalance_benchmark(out_root, seeds=(0, 1, 2, 3, 4), iterations: int = 2000
                        ) -> list[dict]:
    """Paired runs (governor on/off) per seed on the scripted-imbalance setup.

    Every seed keeps ``data.modality_seed`` 0, so all seeds read one data
    stream in one batch order: a seed changes only the model initialization.
    Returns one row per seed, its spreads and each modality's entropy change
    under the governor, and writes them to ``benchmark_seeds.csv`` under
    ``out_root``, so a seed that flips the comparison shows there. The seeds
    must be distinct and every run's config valid: both are checked before
    anything is written.
    """
    out_root = Path(out_root)
    runs = [(seed, benchmark_config(seed, iterations, str(out_root / f"seed{seed}_dso"), True),
             benchmark_config(seed, iterations, str(out_root / f"seed{seed}_plain"), False))
            for seed in _distinct_seeds(seeds)]
    make_out_dir(out_root, (BENCHMARK_SEEDS_CSV,))
    rows = []
    for seed, dso_cfg, plain_cfg in runs:
        with_dso = recorded_train(dso_cfg, "")
        without_dso = recorded_train(plain_cfg, "")
        rows.append({"seed": seed, "spread_with_dso": normalized_loss_spread(with_dso.loss_history),
                     "spread_without_dso": normalized_loss_spread(without_dso.loss_history),
                     **{f"entropy_change_{m}": with_dso.final_entropy[m] - with_dso.init_entropy[m]
                        for m in sorted(with_dso.init_entropy)}})
    write_csv(out_root / BENCHMARK_SEEDS_CSV, list(rows[0]), rows, schema="benchmark_seeds")
    return rows

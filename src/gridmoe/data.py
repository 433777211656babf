"""Synthetic three-modality data with deterministic per-sample generation.

Each modality is a stand-in for a distinct imaging sensor: modality A has
low channel means with multiplicative speckle, B has mid-range smooth blob
fields, and C has high means with sharp hotspots on a low-frequency carrier.
The defaults are tuned so per-channel histograms of different modalities sit
far apart (pairwise symmetric KL well above 0.5), which the data tests
verify.

Targets are derived from the image through a fixed per-task projection, so a
linear trunk plus head can actually learn them; classification labels may be
flipped and regression targets jittered through ``label_noise``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

CLASSIFICATION = "grid-classification"
REGRESSION = "grid-regression-with-angle"
# The modality names: ``default_modalities`` and ``default_tasks`` key by them.
MODALITIES = ("A", "B", "C")
# Held-out samples (``train.evaluate_stats``) take the indices from here up;
# ``parse_config`` keeps every training index below it.
EVAL_INDEX_OFFSET = 1_000_000


@dataclass(frozen=True)
class ModalitySpec:
    """Distribution parameters for one synthetic sensor."""

    channel_means: tuple[float, ...]
    channel_stds: tuple[float, ...]
    spatial_freq: float = 2.0
    speckle_rate: float = 0.0
    blob_density: float = 0.0
    seed: int = 0

    @property
    def channels(self) -> int:
        return len(self.channel_means)


@dataclass(frozen=True)
class TaskSpec:
    """What one task head predicts and how its loss is scored."""

    kind: str
    head_width: int
    label_noise: float = 0.0

    def __post_init__(self):
        if self.kind not in (CLASSIFICATION, REGRESSION):
            raise ConfigError("task.kind", f"unknown target type {self.kind!r}")
        if self.head_width < 2:
            raise ConfigError("task.head_width", "need at least 2 output channels")
        if not (0.0 <= self.label_noise <= 1.0):
            raise ConfigError("task.label_noise", "must lie in [0, 1]")


def default_modalities(channels: int = 8, seed: int = 0) -> dict[str, ModalitySpec]:
    """Three well-separated sensor proxies over the requested channel count.

    Each modality gets a distinct per-channel mean pattern of moderate
    magnitude (alternating signs, a positive hump, a rising ramp) with
    texture on a comparable scale, so per-channel histograms sit far apart
    while grid positions inside one image still spread over many feature
    directions, the regime grid-level routing is meant for.
    """
    idx = np.arange(channels)
    mean_a = 0.45 * np.where(idx % 2 == 0, 1.0, -1.0)
    mean_b = 0.585 * np.sin(np.pi * (idx + 0.5) / channels)
    mean_c = -0.3825 + 0.099 * idx
    return {
        "A": ModalitySpec(
            channel_means=tuple(mean_a),
            channel_stds=tuple(np.full(channels, 0.22)),
            spatial_freq=4.0,
            speckle_rate=0.3,
            blob_density=0.0,
            seed=seed * 1000 + 11,
        ),
        "B": ModalitySpec(
            channel_means=tuple(mean_b),
            channel_stds=tuple(np.full(channels, 0.26)),
            spatial_freq=1.5,
            speckle_rate=0.0,
            blob_density=3.0,
            seed=seed * 1000 + 23,
        ),
        "C": ModalitySpec(
            channel_means=tuple(mean_c),
            channel_stds=tuple(np.full(channels, 0.20)),
            spatial_freq=2.5,
            speckle_rate=0.0,
            blob_density=1.5,
            seed=seed * 1000 + 37,
        ),
    }


def default_tasks(label_noise: dict[str, float] | tuple[tuple[str, float], ...] = ()
                  ) -> dict[str, TaskSpec]:
    """One task head per modality: A classifies, B and C regress with angle."""
    noise = dict.fromkeys(MODALITIES, 0.0)
    noise.update(label_noise)
    return {
        "A": TaskSpec(CLASSIFICATION, head_width=4, label_noise=noise["A"]),
        "B": TaskSpec(REGRESSION, head_width=5, label_noise=noise["B"]),
        "C": TaskSpec(REGRESSION, head_width=5, label_noise=noise["C"]),
    }


@lru_cache(maxsize=16)
def _unit_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column coordinates in [0, 1), shaped to broadcast over channels."""
    rows = np.arange(height)[:, None, None] / max(height, 1)
    cols = np.arange(width)[None, :, None] / max(width, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _texture_field(rng: np.random.Generator, height: int, width: int, channels: int,
                   freq: float) -> np.ndarray:
    """Smooth oriented sinusoid per channel, random phase and orientation."""
    rows, cols = _unit_grid(height, width)
    # One (angle, phase) row per channel, in the order of the scalar
    # ``uniform(0, pi)``, ``uniform(0, 2 pi)`` draws (uniform is lo + (hi - lo) * u).
    u = rng.random((channels, 2))
    angle = np.pi * u[:, 0]
    phase = (2.0 * np.pi) * u[:, 1]
    wave = rows * np.cos(angle) + cols * np.sin(angle)
    return np.sin(2.0 * np.pi * freq * wave + phase)


def _blob_field(rng: np.random.Generator, height: int, width: int, density: float) -> np.ndarray:
    """Sum of Gaussian bumps; expected count set by density."""
    count = rng.poisson(density)
    u = rng.random((count, 3))  # per bump: centre row, centre column, width
    cy = (height * u[:, 0])[:, None, None]
    cx = (width * u[:, 1])[:, None, None]
    sigma = 0.8 + (2.0 - 0.8) * u[:, 2]
    # float_power calls libm pow, as Python's float ``sigma**2`` does; numpy's
    # ``**2`` is sigma * sigma, which rounds differently for some sigma.
    denom = (2.0 * np.float_power(sigma, 2.0))[:, None, None]
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    bumps = np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / denom)
    # An outer-axis sum adds the bumps in draw order: the rounded sum depends on its order.
    return bumps.sum(axis=0)


@lru_cache(maxsize=64)
def _projection(seed: int, head_width: int, channels: int) -> np.ndarray:
    projection = np.random.default_rng((seed, 7919)).normal(0.0, 1.0, size=(head_width, channels))
    projection.flags.writeable = False
    return projection


def target_projection(mod: ModalitySpec, task: TaskSpec) -> np.ndarray:
    """Fixed per-(modality, task) mixing matrix the targets are derived from.

    Every caller shares one read-only array per (seed, head width, channels).
    """
    return _projection(mod.seed, task.head_width, mod.channels)


def generate_sample(
    mod: ModalitySpec, task: TaskSpec, index: int, height: int = 8, width: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """One (image, target) pair, bit-reproducible from (spec seed, index)."""
    rng = np.random.default_rng((mod.seed, index))
    means = np.asarray(mod.channel_means)
    stds = np.asarray(mod.channel_stds)

    image = means + stds * _texture_field(rng, height, width, mod.channels, mod.spatial_freq)
    if mod.blob_density > 0.0:
        blobs = _blob_field(rng, height, width, mod.blob_density)
        image = image + stds * 2.0 * blobs[:, :, None]
    if mod.speckle_rate > 0.0:
        mask = rng.random((height, width)) < mod.speckle_rate
        boost = rng.exponential(1.0, size=(height, width))
        image = image * (1.0 + (mask * (boost - 1.0))[:, :, None] * 0.5)

    projection = target_projection(mod, task)
    scores = image @ projection.T  # (H, W, head_width)
    if task.kind == CLASSIFICATION:
        target = np.argmax(scores, axis=-1)
        if task.label_noise > 0.0:
            flip = rng.random((height, width)) < task.label_noise
            random_labels = rng.integers(0, task.head_width, size=(height, width))
            target = np.where(flip, random_labels, target)
    else:
        target = np.tanh(scores * 0.5)
        # last channel plays the angle: wrap it through a sine
        target[..., -1] = np.sin(scores[..., -1])
        if task.label_noise > 0.0:
            target = target + rng.normal(0.0, task.label_noise, size=target.shape)
    return image, target


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------


class BatchSampler:
    """Deterministic stream of mixed batches with exact per-batch composition.

    Its state is ``batches``, the number drawn. The next batch lists each
    modality's indices ``batches * count + j`` as ``(modality, sample_index)``
    pairs, in ``counts`` order, indices ascending: ``Model.forward_batch``'s order.
    """

    def __init__(self, counts: tuple[tuple[str, int], ...]):
        self.counts = counts
        self.batches = 0

    def next_batch(self) -> list[tuple[str, int]]:
        n, self.batches = self.batches, self.batches + 1
        return [(modality, n * count + j) for modality, count in self.counts
                for j in range(count)]

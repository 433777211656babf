"""Synthetic modality generator and batch sampler tests."""

import collections
import itertools

import numpy as np
import pytest

from gridmoe import data as gdata
from gridmoe.data import (
    CLASSIFICATION,
    BatchSampler,
    ModalitySpec,
    TaskSpec,
    default_modalities,
    default_tasks,
    generate_sample,
    target_projection,
)
from gridmoe.errors import ConfigError, ShapeError
from gridmoe.runconfig import parse_config


# Reference: the per-channel and per-bump loop generator that the whole-array
# helpers in ``gridmoe.data`` replace; images and targets must match it bit
# for bit.

def _loop_texture_field(rng, height, width, channels, freq):
    rows = np.arange(height)[:, None] / max(height, 1)
    cols = np.arange(width)[None, :] / max(width, 1)
    field = np.empty((height, width, channels))
    for c in range(channels):
        angle = rng.uniform(0.0, np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = rows * np.cos(angle) + cols * np.sin(angle)
        field[:, :, c] = np.sin(2.0 * np.pi * freq * wave + phase)
    return field


def _loop_blob_field(rng, height, width, density):
    count = rng.poisson(density)
    field = np.zeros((height, width))
    if count == 0:
        return field
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    for _ in range(count):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        sigma = rng.uniform(0.8, 2.0)
        field += np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * sigma**2))
    return field


def _loop_target_projection(mod, task):
    rng = np.random.default_rng((mod.seed, 7919))
    return rng.normal(0.0, 1.0, size=(task.head_width, mod.channels))


class TestGenerateSample:
    def test_deterministic_given_seed_and_index(self):
        mods = default_modalities()
        tasks = default_tasks()
        for m in ("A", "B", "C"):
            img1, tgt1 = generate_sample(mods[m], tasks[m], 17)
            img2, tgt2 = generate_sample(mods[m], tasks[m], 17)
            assert img1.tobytes() == img2.tobytes()
            assert np.asarray(tgt1).tobytes() == np.asarray(tgt2).tobytes()

    def test_different_indices_differ(self):
        mods = default_modalities()
        tasks = default_tasks()
        img1, _ = generate_sample(mods["A"], tasks["A"], 0)
        img2, _ = generate_sample(mods["A"], tasks["A"], 1)
        assert img1.tobytes() != img2.tobytes()

    def test_degenerate_params_constant_at_means(self):
        means = (0.3, 0.7, 1.1)
        spec = ModalitySpec(
            id="A", channel_means=means, channel_stds=(0.0, 0.0, 0.0),
            spatial_freq=3.0, speckle_rate=0.0, blob_density=0.0, seed=4,
        )
        task = TaskSpec("A", CLASSIFICATION, head_width=4)
        image, _ = generate_sample(spec, task, 5, height=6, width=6)
        for c, mean in enumerate(means):
            np.testing.assert_array_equal(image[:, :, c], mean)

    def test_images_finite_and_shaped(self):
        mods = default_modalities()
        tasks = default_tasks()
        for m, spec in mods.items():
            image, target = generate_sample(spec, tasks[m], 3, height=5, width=9)
            assert image.shape == (5, 9, spec.channels)
            assert np.all(np.isfinite(image))
            if tasks[m].kind == CLASSIFICATION:
                assert target.shape == (5, 9)
                assert target.min() >= 0 and target.max() < tasks[m].head_width
            else:
                assert target.shape == (5, 9, tasks[m].head_width)
                assert np.all(np.isfinite(target))

    def test_classification_label_noise_flips_labels(self):
        mods = default_modalities()
        clean_task = default_tasks()["A"]
        noisy_task = TaskSpec("A", CLASSIFICATION, head_width=4, label_noise=0.5)
        flips = 0
        total = 0
        for i in range(20):
            _, clean = generate_sample(mods["A"], clean_task, i)
            _, noisy = generate_sample(mods["A"], noisy_task, i)
            flips += int((clean != noisy).sum())
            total += clean.size
        assert 0.2 < flips / total < 0.6  # ~0.5 * 3/4 expected

    def test_matches_loop_generator_bit_for_bit(self, monkeypatch):
        dense = ModalitySpec(id="B", channel_means=(0.1, -0.2, 0.3), channel_stds=(0.3, 0.2, 0.1),
                             spatial_freq=1.5, speckle_rate=0.2, blob_density=8.0, seed=3)
        cases = [(dense, default_tasks()["B"])]
        for seed, noise in itertools.product((0, 5), (0.0, 0.4)):
            mods = default_modalities(seed=seed)
            tasks = default_tasks({"A": noise, "B": noise, "C": noise})
            cases += [(mods[m], tasks[m]) for m in ("A", "B", "C")]
        indices = [*range(50), *range(1_000_000, 1_000_005)]
        grids = ((8, 8), (16, 16), (5, 7))

        def draw():
            return [generate_sample(mod, task, i, h, w)
                    for mod, task in cases for h, w in grids for i in indices]

        fast = draw()
        monkeypatch.setattr(gdata, "_texture_field", _loop_texture_field)
        monkeypatch.setattr(gdata, "_blob_field", _loop_blob_field)
        monkeypatch.setattr(gdata, "target_projection", _loop_target_projection)
        reference = draw()
        for (image, target), (ref_image, ref_target) in zip(fast, reference):
            assert image.tobytes() == ref_image.tobytes()
            assert target.tobytes() == ref_target.tobytes()
            assert (image.shape, target.shape) == (ref_image.shape, ref_target.shape)
            assert (image.dtype, target.dtype) == (ref_image.dtype, ref_target.dtype)

    def test_target_projection_is_shared_and_read_only(self):
        mod = default_modalities(seed=5)["C"]
        task = default_tasks()["C"]
        projection = target_projection(mod, task)
        fresh = np.random.default_rng((mod.seed, 7919)).normal(
            0.0, 1.0, size=(task.head_width, mod.channels))
        assert projection.tobytes() == fresh.tobytes()
        assert projection.shape == fresh.shape
        assert not projection.flags.writeable
        with pytest.raises(ValueError):
            projection[0, 0] = 0.0
        assert target_projection(mod, task) is projection

    def test_task_spec_validation(self):
        with pytest.raises(ConfigError):
            TaskSpec("A", "pixel-detection", head_width=4)
        with pytest.raises(ConfigError):
            TaskSpec("A", CLASSIFICATION, head_width=1)


# ---------------------------------------------------------------------------
# generator self-test: modality separation
# ---------------------------------------------------------------------------

def histogram_symmetric_kl(
    values_a: np.ndarray, values_b: np.ndarray, bins: int = 64
) -> float:
    """Symmetric KL between two empirical distributions on shared bins."""
    lo = min(values_a.min(), values_b.min())
    hi = max(values_a.max(), values_b.max())
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(values_a, bins=edges)
    pb, _ = np.histogram(values_b, bins=edges)
    pa = np.maximum(pa / pa.sum(), 1e-12)
    pb = np.maximum(pb / pb.sum(), 1e-12)
    return float(np.sum(pa * np.log(pa / pb)) + np.sum(pb * np.log(pb / pa)))


def modality_separation(
    mods: list[ModalitySpec],
    tasks: dict[str, TaskSpec],
    n_samples: int = 200,
    height: int = 8,
    width: int = 8,
    bins: int = 64,
) -> np.ndarray:
    """Pairwise per-channel symmetric KL (averaged over channels)."""
    channel_values = []
    for mod in mods:
        stack = np.stack(
            [generate_sample(mod, tasks[mod.id], i, height, width)[0] for i in range(n_samples)]
        )
        channel_values.append(stack.reshape(-1, mod.channels))
    m = len(mods)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            per_channel = [
                histogram_symmetric_kl(channel_values[i][:, c], channel_values[j][:, c], bins)
                for c in range(mods[i].channels)
            ]
            out[i, j] = out[j, i] = float(np.mean(per_channel))
    return out


def self_test(n_samples: int = 200, threshold: float = 0.5) -> np.ndarray:
    """Verify the default modalities stay pairwise separated; returns the matrix."""
    mods = default_modalities()
    tasks = default_tasks()
    matrix = modality_separation(list(mods.values()), tasks, n_samples=n_samples)
    off_diag = matrix[~np.eye(len(mods), dtype=bool)]
    if np.any(off_diag <= threshold):
        raise ShapeError(
            f"modality distributions are not separated: min symmetric KL {off_diag.min():.3f}"
        )
    return matrix


class TestModalitySeparation:
    def test_histogram_kl_zero_for_identical(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        assert histogram_symmetric_kl(values, values.copy()) < 1e-12

    def test_histogram_kl_large_for_shifted(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=5000)
        b = rng.normal(5.0, 1.0, size=5000)
        assert histogram_symmetric_kl(a, b) > 2.0

    def test_default_modalities_separated_at_scale(self):
        # full-scale generator self-test: 10^4 samples per modality
        mods = default_modalities()
        tasks = default_tasks()
        matrix = modality_separation(list(mods.values()), tasks, n_samples=10_000)
        off_diag = matrix[~np.eye(3, dtype=bool)]
        assert np.all(off_diag > 0.5)

    def test_self_test_passes(self):
        matrix = self_test(n_samples=200)
        assert matrix.shape == (3, 3)


# The counts of a config that gives none: a 2:1:1 mix.
DEFAULT_COUNTS = (("A", 2), ("B", 1), ("C", 1))


class TestSampler:
    def test_exact_default_composition(self):
        batch = BatchSampler(DEFAULT_COUNTS).next_batch()
        counts = collections.Counter(modality for modality, _ in batch)
        assert counts == {"A": 2, "B": 1, "C": 1}
        assert len(batch) == 4

    def test_one_each(self):
        batch = BatchSampler((("A", 1), ("B", 1), ("C", 1))).next_batch()
        assert collections.Counter(m for m, _ in batch) == {"A": 1, "B": 1, "C": 1}

    def test_thousand_batches_exact_frequencies(self):
        sampler = BatchSampler(DEFAULT_COUNTS)
        counts = collections.Counter()
        for _ in range(1000):
            for modality, _ in sampler.next_batch():
                counts[modality] += 1
        total = sum(counts.values())
        assert counts["A"] / total == 0.5
        assert counts["B"] / total == 0.25
        assert counts["C"] / total == 0.25

    def test_sample_indices_advance_without_repeats(self):
        sampler = BatchSampler(DEFAULT_COUNTS)
        seen = collections.defaultdict(set)
        for _ in range(50):
            for modality, index in sampler.next_batch():
                assert index not in seen[modality]
                seen[modality].add(index)
        assert seen["A"] == set(range(100))
        assert seen["B"] == set(range(50))

    def test_batches_come_in_counts_order_indices_ascending(self):
        sampler = BatchSampler((("B", 1), ("A", 2), ("C", 3)))
        for start in range(3):
            batch = sampler.next_batch()
            assert batch == [("B", start), ("A", 2 * start), ("A", 2 * start + 1),
                             ("C", 3 * start), ("C", 3 * start + 1), ("C", 3 * start + 2)]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"moe": {"n_experts": 4, "top_k": 2}, "run": {"iterations": 1},
                          "sampler": {"counts": {"A": 3, "B": 0, "C": 1}}})

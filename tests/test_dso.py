"""Learning-rate governor tests against independent arithmetic oracles."""

import math

import numpy as np
import pytest

from gridmoe.dso import (
    DsoConfig,
    LossTracker,
    LrMultipliers,
    apply_multipliers,
    backbone_multiplier,
    consistency_score,
    head_multipliers,
    step,
    update_ema,
)
from gridmoe.errors import ConfigError, DomainError, UsageError


def oracle_softmax(values):
    exps = [math.exp(v) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_lambdas(w, theta):
    peak = max(wi / theta for wi in w)
    exps = [math.exp(wi / theta - peak) for wi in w]
    total = sum(exps)
    return [len(w) * e / total for e in exps]


def oracle_consistency(cur, his):
    p_cur = oracle_softmax(cur)
    p_his = oracle_softmax(his)
    kl = sum(
        p * math.log(max(p, 1e-12) / max(q, 1e-12)) for p, q in zip(p_cur, p_his)
    )
    return 1.0 - kl


def oracle_gamma(c, b, tau):
    return 2.0 / (1.0 + math.exp(-(c - b) * tau))


def simulate_stream(stream, alpha, theta, tau, b):
    """Direct scalar transliteration of the governor update equations."""
    his = None
    rows = []
    for cur in stream:
        if his is None:
            his = list(cur)
        else:
            his = [alpha * c + (1.0 - alpha) * h for c, h in zip(cur, his)]
        w = [h / c for h, c in zip(his, cur)]
        rows.append(
            (
                oracle_lambdas(w, theta),
                oracle_consistency(cur, his),
                oracle_gamma(oracle_consistency(cur, his), b, tau),
            )
        )
    return rows


def make_tracker(cur, his) -> LossTracker:
    tracker = LossTracker(len(cur))
    tracker.cur = np.asarray(cur, dtype=float)
    tracker.his = np.asarray(his, dtype=float)
    return tracker


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DsoConfig(n_tasks=0)
        with pytest.raises(ConfigError):
            DsoConfig(n_tasks=2, alpha=1.5)
        with pytest.raises(ConfigError):
            DsoConfig(n_tasks=2, theta=0.0)
        with pytest.raises(ConfigError):
            DsoConfig(n_tasks=2, tau=-1.0)

    def test_defaults_match_documented_values(self):
        cfg = DsoConfig(n_tasks=3)
        assert cfg.alpha == 0.05
        assert cfg.theta == 1.0
        assert cfg.tau == 3.0
        assert cfg.bias_b == 0.4


class TestEma:
    def test_alpha_one_tracks_exactly(self):
        cfg = DsoConfig(n_tasks=2, alpha=1.0)
        tracker = LossTracker(2)
        for losses in ([1.0, 2.0], [5.0, 0.5], [0.1, 9.0]):
            update_ema(tracker, losses, cfg)
            np.testing.assert_array_equal(tracker.his, losses)

    def test_alpha_zero_freezes_history(self):
        cfg = DsoConfig(n_tasks=2, alpha=0.0)
        tracker = LossTracker(2)
        update_ema(tracker, [1.0, 2.0], cfg)
        for losses in ([5.0, 0.5], [0.1, 9.0]):
            update_ema(tracker, losses, cfg)
            np.testing.assert_array_equal(tracker.his, [1.0, 2.0])

    def test_half_alpha_arithmetic(self):
        # 0.5 * 4 + 0.5 * 2 = 3
        cfg = DsoConfig(n_tasks=1, alpha=0.5)
        tracker = LossTracker(1)
        update_ema(tracker, [2.0], cfg)
        update_ema(tracker, [4.0], cfg)
        np.testing.assert_allclose(tracker.his, [3.0])

    def test_bootstrap_equals_first_losses(self):
        cfg = DsoConfig(n_tasks=3, alpha=0.05)
        tracker = LossTracker(3)
        update_ema(tracker, [3.0, 1.0, 7.0], cfg)
        np.testing.assert_array_equal(tracker.his, [3.0, 1.0, 7.0])
        np.testing.assert_array_equal(tracker.cur, [3.0, 1.0, 7.0])

    def test_rejects_invalid_losses(self):
        cfg = DsoConfig(n_tasks=2)
        tracker = LossTracker(2)
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, float("nan")], [1.0, float("inf")]):
            with pytest.raises(DomainError):
                update_ema(tracker, bad, cfg)


class TestHeadMultipliers:
    def test_all_equal_ratios_give_ones(self):
        cfg = DsoConfig(n_tasks=4)
        tracker = make_tracker([2.0, 5.0, 0.3, 1.1], [2.0, 5.0, 0.3, 1.1])
        np.testing.assert_allclose(head_multipliers(tracker, cfg), np.ones(4), atol=1e-15)

    def test_sum_is_task_count_random(self):
        # the sum property holds for arbitrary positive loss vectors
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = int(rng.integers(2, 7))
            cfg = DsoConfig(n_tasks=t, theta=float(rng.uniform(0.2, 3.0)))
            tracker = make_tracker(
                rng.uniform(1e-3, 10.0, size=t), rng.uniform(1e-3, 10.0, size=t)
            )
            lambdas = head_multipliers(tracker, cfg)
            assert abs(lambdas.sum() - t) < 1e-9
            assert np.all(lambdas >= 0.0)

    def test_open_interval_in_ema_regime(self):
        # strict bounds hold wherever the softmax is not float-saturated,
        # i.e. whenever history is an EMA of the observed losses
        rng = np.random.default_rng(42)
        for _ in range(500):
            t = int(rng.integers(2, 7))
            cfg = DsoConfig(n_tasks=t, theta=float(rng.uniform(0.5, 2.0)))
            cur = rng.uniform(0.05, 10.0, size=t)
            his = cur * rng.uniform(0.25, 4.0, size=t)
            lambdas = head_multipliers(make_tracker(cur, his), cfg)
            assert abs(lambdas.sum() - t) < 1e-9
            assert np.all(lambdas > 0.0)
            assert np.all(lambdas < t)

    def test_worked_example_against_oracle(self):
        # w = [0.5, 2] with theta=1
        cfg = DsoConfig(n_tasks=2, theta=1.0)
        tracker = make_tracker([2.0, 1.0], [1.0, 2.0])
        lambdas = head_multipliers(tracker, cfg)
        expected = oracle_lambdas([0.5, 2.0], 1.0)
        np.testing.assert_allclose(lambdas, expected, atol=1e-12)
        # the oracle values themselves (printed in docs as 0.364865/1.635135)
        assert abs(expected[0] - 0.364865) < 2e-5
        assert abs(expected[1] - 1.635135) < 2e-5

    def test_zero_current_loss_clamped_with_warning(self, caplog):
        cfg = DsoConfig(n_tasks=2)
        tracker = make_tracker([0.0, 1.0], [1.0, 1.0])
        with caplog.at_level("WARNING", logger="gridmoe.dso"):
            lambdas = head_multipliers(tracker, cfg)
        assert "clamped" in caplog.text
        assert np.all(np.isfinite(lambdas))
        assert abs(lambdas.sum() - 2.0) < 1e-9

    def test_common_scale_invariance(self):
        rng = np.random.default_rng(1)
        cfg = DsoConfig(n_tasks=3, theta=0.7)
        cur = rng.uniform(0.1, 5.0, size=3)
        his = rng.uniform(0.1, 5.0, size=3)
        base = head_multipliers(make_tracker(cur, his), cfg)
        for c in (0.01, 3.0, 250.0):
            scaled = head_multipliers(make_tracker(c * cur, c * his), cfg)
            np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestConsistency:
    def test_identical_distributions_give_one(self):
        tracker = make_tracker([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert consistency_score(tracker) == 1.0
        # and a common positive rescale of both keeps it there
        for c in (0.01, 7.0, 300.0):
            scaled = make_tracker([c, 2 * c, 3 * c], [c, 2 * c, 3 * c])
            assert consistency_score(scaled) == 1.0

    def test_worked_example(self):
        tracker = make_tracker([1.0, 2.0], [1.5, 1.5])
        expected = oracle_consistency([1.0, 2.0], [1.5, 1.5])
        got = consistency_score(tracker)
        assert abs(got - expected) < 1e-12
        # P(cur) is the logistic pair, P(his) uniform
        p = 1.0 / (1.0 + math.exp(1.0))
        assert abs(p - 0.268941) < 1e-6
        kl = p * math.log(p / 0.5) + (1 - p) * math.log((1 - p) / 0.5)
        assert abs((1.0 - kl) - got) < 1e-12
        assert abs(got - 0.889070) < 2e-5

    def test_upper_bound_and_permutation_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            t = int(rng.integers(2, 6))
            cur = rng.uniform(0.01, 8.0, size=t)
            his = rng.uniform(0.01, 8.0, size=t)
            c = consistency_score(make_tracker(cur, his))
            assert c <= 1.0 + 1e-15
            perm = rng.permutation(t)
            c_perm = consistency_score(make_tracker(cur[perm], his[perm]))
            assert abs(c - c_perm) < 1e-12

    def test_single_task_rejected(self):
        tracker = make_tracker([1.0], [1.0])
        with pytest.raises(ConfigError):
            consistency_score(tracker)


class TestBackboneMultiplier:
    def test_balance_point_gives_exactly_one(self):
        for b in (-0.5, 0.0, 0.4, 0.9):
            cfg = DsoConfig(n_tasks=2, tau=3.0, bias_b=b)
            assert backbone_multiplier(b, cfg) == 1.0

    def test_logistic_oracle_value(self):
        cfg = DsoConfig(n_tasks=2, tau=3.0, bias_b=0.4)
        got = backbone_multiplier(1.0, cfg)
        expected = oracle_gamma(1.0, 0.4, 3.0)
        assert abs(got - expected) < 1e-12
        assert abs(got - 1.716298) < 1e-6

    def test_strictly_increasing_and_bounded(self):
        cfg = DsoConfig(n_tasks=2, tau=3.0, bias_b=0.4)
        # reachable consistency scores: C in [1 - log(1/1e-12), 1]
        grid = np.linspace(1.0 - math.log(1e12), 1.0, 500)
        values = [backbone_multiplier(float(c), cfg) for c in grid]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi
        assert all(0.0 < g < 2.0 for g in values)


class TestStep:
    def test_first_iteration_is_neutral(self):
        cfg = DsoConfig(n_tasks=3, tau=3.0, bias_b=0.4)
        tracker = LossTracker(3)
        result = step(tracker, [1.0, 2.0, 3.0], cfg)
        np.testing.assert_allclose(result.head_lambdas, np.ones(3), atol=1e-15)
        assert result.consistency == 1.0
        assert abs(result.backbone_gamma - oracle_gamma(1.0, 0.4, 3.0)) < 1e-12

    def test_constant_stream_is_fixed_point(self):
        cfg = DsoConfig(n_tasks=2)
        tracker = LossTracker(2)
        outputs = [step(tracker, [2.0, 3.0], cfg) for _ in range(10)]
        for result in outputs[1:]:
            np.testing.assert_array_equal(result.head_lambdas, outputs[0].head_lambdas)
            assert result.backbone_gamma == outputs[0].backbone_gamma
            assert result.consistency == outputs[0].consistency

    def test_matches_independent_simulation(self):
        """Full-stream comparison against the scalar transliteration."""
        rng = np.random.default_rng(3)
        stream = [list(rng.uniform(0.05, 4.0, size=3)) for _ in range(50)]
        alpha, theta, tau, b = 0.1, 0.8, 2.5, 0.3
        cfg = DsoConfig(n_tasks=3, alpha=alpha, theta=theta, tau=tau, bias_b=b)
        tracker = LossTracker(3)
        expected = simulate_stream(stream, alpha, theta, tau, b)
        for losses, (exp_lambdas, exp_c, exp_gamma) in zip(stream, expected):
            result = step(tracker, losses, cfg)
            np.testing.assert_allclose(result.head_lambdas, exp_lambdas, atol=1e-9)
            assert abs(result.consistency - exp_c) < 1e-9
            assert abs(result.backbone_gamma - exp_gamma) < 1e-9

    def test_scripted_halving_stream_direction(self):
        """Task 0's loss halves each step, task 1 stays constant.

        The EMA trails a falling loss from above, so task 0's his/cur ratio
        exceeds 1 and its multiplier lands above task 1's; the independent
        simulation pins the same direction.
        """
        cfg = DsoConfig(n_tasks=2, alpha=0.05, theta=1.0)
        stream = [[8.0 / (2.0**i), 1.0] for i in range(12)]
        expected = simulate_stream(stream, 0.05, 1.0, cfg.tau, cfg.bias_b)
        tracker = LossTracker(2)
        for i, losses in enumerate(stream):
            result = step(tracker, losses, cfg)
            np.testing.assert_allclose(result.head_lambdas, expected[i][0], atol=1e-9)
            if i >= 1:
                assert expected[i][0][0] > 1.0 > expected[i][0][1]
                assert result.head_lambdas[0] > 1.0 > result.head_lambdas[1]

    def test_invalid_losses_skip_and_return_previous(self):
        cfg = DsoConfig(n_tasks=2)
        tracker = LossTracker(2)
        first = step(tracker, [1.0, 1.0], cfg)
        his_before = tracker.his.copy()
        result = step(tracker, [float("nan"), 1.0], cfg)
        assert result is first
        np.testing.assert_array_equal(tracker.his, his_before)
        # before any valid update the governor hands back identity multipliers
        fresh = LossTracker(2)
        result = step(fresh, [-1.0, 1.0], cfg)
        np.testing.assert_array_equal(result.head_lambdas, [1.0, 1.0])
        assert result.backbone_gamma == 1.0

    def test_replay_determinism(self):
        rng = np.random.default_rng(4)
        stream = [list(rng.uniform(0.1, 3.0, size=3)) for _ in range(30)]
        cfg = DsoConfig(n_tasks=3)

        def run():
            tracker = LossTracker(3)
            out = []
            for losses in stream:
                result = step(tracker, losses, cfg)
                out.append(
                    (result.head_lambdas.tobytes(), result.backbone_gamma, result.consistency)
                )
            return out

        assert run() == run()


class TestApplyMultipliers:
    def test_identity_multipliers_leave_rate(self):
        mult = LrMultipliers.identity(3)
        assert apply_multipliers(1e-4, "backbone", mult) == 1e-4
        assert apply_multipliers(1e-4, "head_1", mult) == 1e-4

    def test_backbone_scaling(self):
        mult = LrMultipliers(np.ones(2), 1.716298, 1.0)
        assert abs(apply_multipliers(1e-4, "backbone", mult) - 1.716298e-4) < 1e-18

    def test_head_scaling(self):
        mult = LrMultipliers(np.array([0.5, 1.5]), 1.0, 1.0)
        assert apply_multipliers(2e-3, "head_0", mult) == pytest.approx(1e-3)
        assert apply_multipliers(2e-3, "head_1", mult) == pytest.approx(3e-3)

    def test_unknown_group_rejected(self):
        mult = LrMultipliers.identity(2)
        for bad in ("head_7", "head_x", "trunk", "head"):
            with pytest.raises(UsageError):
                apply_multipliers(1e-4, bad, mult)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ConfigError):
            apply_multipliers(0.0, "backbone", LrMultipliers.identity(2))

"""Sparse MoE layer tests: routing against a brute-force oracle, mixing
against dense reference sums, gradients against finite differences."""

import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from gridmoe import autodiff as ad
from gridmoe import moe as moe_mod
from gridmoe.autodiff import Tensor, backward, finite_diff_check
from gridmoe.errors import ConfigError, DomainError, ShapeError, UsageError
from gridmoe.moe import (
    ExpertMixture,
    ExpertStats,
    MoEConfig,
    RoutingDecision,
    export_top1_map,
    init_from_pretrained,
    moe_forward,
)
import reference_ops
from reference_ops import gate, per_sample_forward_batch, replayed_adjoints, sample_decision


def oracle_gate(x, W, E, temperature, k):
    """Independent routing reference: explicit loops, explicit stable sort."""
    u = W @ x
    norm_u = math.sqrt(float((u * u).sum()))
    n_experts = E.shape[1]
    if norm_u < 1e-12:
        probs = np.full(n_experts, 1.0 / n_experts)
    else:
        logits = np.empty(n_experts)
        for n in range(n_experts):
            col = E[:, n]
            norm_e = math.sqrt(float((col * col).sum()))
            logits[n] = float(u @ col) / (temperature * norm_u * norm_e)
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
    order = sorted(range(n_experts), key=lambda n: (-probs[n], n))
    return np.array(order[:k]), probs


def random_instance(rng, n_experts=None, k=None, c_in=None, gate_dim=None):
    n = int(n_experts if n_experts is not None else rng.integers(1, 11))
    k = int(k if k is not None else rng.integers(1, min(n, 3) + 1))
    c_in = int(c_in if c_in is not None else rng.integers(2, 7))
    gate_dim = int(gate_dim if gate_dim is not None else rng.integers(2, 7))
    cfg = MoEConfig(n_experts=n, top_k=k, gate_temperature=float(rng.uniform(0.05, 2.0)),
                    gate_dim=gate_dim)
    W = rng.normal(size=(gate_dim, c_in))
    E = rng.normal(size=(gate_dim, n))
    return cfg, Tensor(W, requires_grad=True), Tensor(E, requires_grad=True)


class TestGate:
    def test_identical_embeddings_uniform_tiebreak(self):
        rng = np.random.default_rng(0)
        for n, k in [(4, 2), (5, 1), (3, 3), (8, 3)]:
            cfg = MoEConfig(n_experts=n, top_k=k, gate_temperature=0.5)
            col = rng.normal(size=3)
            E = np.repeat(col[:, None], n, axis=1)
            decision = gate(rng.normal(size=3), Tensor(np.eye(3)), Tensor(E), cfg)
            np.testing.assert_allclose(decision.full_softmax, np.full(n, 1.0 / n), atol=1e-15)
            np.testing.assert_array_equal(decision.selected_indices, np.arange(k))
            np.testing.assert_allclose(decision.gate_weights, np.full(k, 1.0 / n), atol=1e-15)

    def test_two_expert_worked_example(self):
        # cosines are [1, 0]; softmax gives the logistic pair.
        cfg = MoEConfig(n_experts=2, top_k=1, gate_temperature=1.0, gate_dim=2)
        W, E = Tensor(np.eye(2)), Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        decision = gate(np.array([1.0, 0.0]), W, E, cfg)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(decision.full_softmax, [expected, 1 - expected], atol=1e-12)
        assert decision.selected_indices.tolist() == [0]
        assert abs(decision.gate_weights[0] - 0.731059) < 1e-6

    def test_matches_bruteforce_oracle_1000(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            cfg, W, E = random_instance(rng)
            x = rng.normal(size=W.shape[1])
            decision = gate(x, W, E, cfg)
            sel, probs = oracle_gate(
                x, W.data, E.data, cfg.gate_temperature, cfg.top_k
            )
            np.testing.assert_array_equal(decision.selected_indices, sel)
            np.testing.assert_allclose(decision.full_softmax, probs, atol=1e-12)
            np.testing.assert_allclose(decision.gate_weights, probs[sel], atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            cfg, W, E = random_instance(rng)
            x = rng.normal(size=W.shape[1])
            base = gate(x, W, E, cfg)
            for c in (0.5, 3.0, 100.0):
                scaled = gate(c * x, W, E, cfg)
                np.testing.assert_array_equal(
                    scaled.selected_indices, base.selected_indices
                )
                np.testing.assert_allclose(
                    scaled.full_softmax, base.full_softmax, atol=1e-12
                )

    def test_degenerate_input_uniform_fallback(self):
        cfg, W, E = random_instance(np.random.default_rng(5), n_experts=6, k=2)
        decision = gate(np.zeros(W.shape[1]), W, E, cfg)
        np.testing.assert_allclose(decision.full_softmax, np.full(6, 1 / 6), atol=1e-15)
        assert decision.selected_indices.tolist() == [0, 1]

    def test_decision_invariants_random(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            cfg, W, E = random_instance(rng)
            decision = gate(rng.normal(size=W.shape[1]), W, E, cfg)
            k = min(cfg.top_k, cfg.n_experts)
            assert decision.selected_indices.shape == (k,)
            assert len(set(decision.selected_indices.tolist())) == k
            assert abs(decision.full_softmax.sum() - 1.0) < 1e-12
            total = decision.gate_weights.sum()
            assert 0.0 < total <= 1.0 + 1e-12
            np.testing.assert_allclose(
                decision.gate_weights, decision.full_softmax[decision.selected_indices],
                atol=0,
            )

    def test_channel_mismatch(self):
        cfg, W, E = random_instance(np.random.default_rng(8), c_in=4)
        with pytest.raises(ShapeError):
            gate(np.zeros(5), W, E, cfg)

    def test_temperature_monotonicity(self):
        # lowering the gate temperature weakly raises the winning probability
        rng = np.random.default_rng(13)
        for _ in range(50):
            gate_dim, n = 4, 6
            W = rng.normal(size=(gate_dim, 4))
            E = rng.normal(size=(gate_dim, n))
            x = rng.normal(size=4)
            last_max = 0.0
            for temperature in (2.0, 1.0, 0.5, 0.1, 0.05):
                cfg = MoEConfig(n_experts=n, top_k=1, gate_temperature=temperature,
                                gate_dim=gate_dim)
                peak = gate(x, Tensor(W), Tensor(E), cfg).full_softmax.max()
                assert peak >= last_max - 1e-12
                last_max = peak


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match=r"moe\.n_experts"):
            MoEConfig(n_experts=0, top_k=1)
        with pytest.raises(ConfigError):
            MoEConfig(n_experts=2, top_k=3)
        with pytest.raises(ConfigError):
            MoEConfig(n_experts=2, top_k=1, gate_temperature=0.0)

    def test_gate_shapes_must_agree(self):
        mixture = init_from_pretrained(np.eye(3), np.zeros(3), MoEConfig(n_experts=2, top_k=1))
        for E in (np.ones((2, 2)), np.ones(3)):
            with pytest.raises(ShapeError, match="gate parameter shapes are inconsistent"):
                replace(mixture, E=Tensor(E))

    def test_zero_embedding_rejected(self):
        E = np.ones((3, 2))
        E[:, 1] = 0.0
        with pytest.raises(ShapeError, match="norm > 1e-12"):
            ExpertMixture(Tensor(np.eye(3)), Tensor(E), Tensor(np.zeros((2, 3, 3))),
                          Tensor(np.zeros((2, 3))), MoEConfig(n_experts=2, top_k=1))


class TestExpertBank:
    """The stacked experts an ``ExpertMixture`` is built with, and their count."""

    @staticmethod
    def build(weight, bias, columns=3):
        """A mixture of a 3-expert config with a (2, 4) W and a (2, ``columns``) E."""
        return ExpertMixture(Tensor(np.ones((2, 4))), Tensor(np.ones((2, columns))),
                             Tensor(np.zeros(weight)), Tensor(np.zeros(bias)),
                             MoEConfig(n_experts=3, top_k=1))

    def test_stacked_shapes(self):
        mixture = self.build((3, 2, 4), (3, 2))
        assert mixture.weight.shape[0] == mixture.cfg.n_experts == 3

    @pytest.mark.parametrize("weight, bias", [
        ((2, 4), (2,)),
        ((3, 2, 4), (3, 4)),
        ((3, 2, 4), (2, 2)),
        ((0, 2, 4), (0, 2)),
    ], ids=["rank_2_weight", "bias_of_c_in", "bias_of_other_n", "no_expert"])
    def test_rejected(self, weight, bias):
        with pytest.raises(ShapeError, match="expert bank needs an"):
            self.build(weight, bias)

    @pytest.mark.parametrize("experts, columns", [(2, 3), (3, 2)], ids=["bank", "gate"])
    def test_expert_count_disagreeing_with_the_config_rejected(self, experts, columns):
        with pytest.raises(ShapeError, match="expert count disagrees with the configuration"):
            self.build((experts, 2, 4), (experts, 2), columns=columns)


def build_mixture(rng, cfg, W, E, c_out=None):
    """The gate W, E with random experts taking its input channels; square unless
    ``c_out``."""
    c_in = W.shape[1]
    c_out = c_in if c_out is None else c_out
    weights = [rng.normal(size=(c_out, c_in)) for _ in range(cfg.n_experts)]
    biases = [rng.normal(size=c_out) for _ in range(cfg.n_experts)]
    return ExpertMixture(W, E, Tensor(np.stack(weights), requires_grad=True),
                         Tensor(np.stack(biases), requires_grad=True), cfg)


class TestMoEForward:
    def test_symmetric_init_scales_by_k_over_n(self):
        rng = np.random.default_rng(3)
        for n, k in [(4, 2), (8, 3), (5, 5)]:
            cfg = MoEConfig(n_experts=n, top_k=k, gate_temperature=0.07)
            pre_w = rng.normal(size=(2, 3))
            pre_b = rng.normal(size=2)
            mixture = init_from_pretrained(pre_w, pre_b, cfg, seed=0)
            mixture.E.data = np.repeat(mixture.E.data[:, :1], n, axis=1)  # identical embeddings
            x = rng.normal(size=(4, 5, 3))
            out, _ = moe_forward(Tensor(x[None]), mixture)
            expected = (k / n) * (x @ pre_w.T + pre_b)
            np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_k_equals_n_matches_dense_mixture(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            c = int(rng.integers(2, 5))
            cfg = MoEConfig(n_experts=n, top_k=n, gate_temperature=float(rng.uniform(0.1, 1.0)))
            _, W, E = random_instance(rng, n_experts=n, k=n, c_in=c, gate_dim=c)
            mixture = build_mixture(rng, cfg, W, E)
            x = rng.normal(size=(2, 3, c))
            out, decision = moe_forward(Tensor(x[None]), mixture)
            # dense oracle: full softmax weighted sum over every expert
            dense = np.zeros_like(out.data[0])
            for i in range(2):
                for j in range(3):
                    probs = decision.full_softmax[0, i, j]
                    for e in range(n):
                        dense[i, j] += probs[e] * (
                            mixture.weight.data[e] @ x[i, j] + mixture.bias.data[e]
                        )
            np.testing.assert_allclose(out.data[0], dense, atol=1e-12)

    def test_zero_input_zero_bias_gives_zero(self):
        rng = np.random.default_rng(6)
        cfg = MoEConfig(n_experts=4, top_k=2)
        _, W, E = random_instance(rng, 4, 2, 3, 3)
        weight = Tensor(np.stack([rng.normal(size=(3, 3)) for _ in range(4)]), requires_grad=True)
        bias = Tensor(np.zeros((4, 3)), requires_grad=True)
        out, _ = moe_forward(Tensor(np.zeros((2, 2, 3))[None]),
                             ExpertMixture(W, E, weight, bias, cfg))
        np.testing.assert_array_equal(out.data[0], np.zeros((2, 2, 3)))

    def test_sparsity_counter(self):
        rng = np.random.default_rng(7)
        for h, w, n, k in [(8, 8, 8, 2), (3, 5, 4, 3), (2, 2, 6, 1)]:
            cfg = MoEConfig(n_experts=n, top_k=k)
            _, W, E = random_instance(rng, n, k, 3, 3)
            mixture = build_mixture(rng, cfg, W, E)
            _, decision = moe_forward(Tensor(rng.normal(size=(h, w, 3))[None]), mixture)
            assert decision.expert_applications == h * w * k

    def test_forward_routing_matches_gate(self):
        rng = np.random.default_rng(9)
        cfg, W, E = random_instance(rng, 6, 2, 4, 3)
        mixture = build_mixture(rng, cfg, W, E)
        x = rng.normal(size=(3, 3, 4))
        _, decision = moe_forward(Tensor(x[None]), mixture)
        for i in range(3):
            for j in range(3):
                single = gate(x[i, j], W, E, cfg)
                np.testing.assert_array_equal(
                    decision.selected_indices[0, i, j], single.selected_indices
                )
                np.testing.assert_allclose(
                    decision.full_softmax[0, i, j], single.full_softmax, atol=1e-14
                )

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        cfg, W, E = random_instance(rng, 4, 2, 3, 3)
        mixture = build_mixture(rng, cfg, W, E)
        with pytest.raises(ShapeError):
            moe_forward(Tensor(np.zeros((2, 2, 5))[None]), mixture)


def _selection_margin(decision: RoutingDecision, k: int) -> float:
    probs = np.sort(decision.full_softmax.reshape(-1, decision.n_experts), axis=-1)
    if k >= probs.shape[-1]:
        return np.inf
    return float(np.min(probs[:, -k] - probs[:, -(k + 1)]))


def _fd_instance(rng):
    """One routing-stable random instance for derivative checks."""
    while True:
        cfg, W, E = random_instance(rng, n_experts=int(rng.integers(2, 5)),
                                      k=None, c_in=3, gate_dim=3)
        mixture = build_mixture(rng, cfg, W, E)
        x = rng.normal(size=(2, 2, 3))[None]
        coef = rng.normal(size=(2, 2, mixture.weight.shape[1]))[None]
        out, decision = moe_forward(Tensor(x), mixture)
        # finite differences need the top-k selection to be locally constant
        if _selection_margin(decision, cfg.top_k) > 1e-3:
            return mixture, x, coef, decision


class TestMoEGradients:
    def test_composite_finite_differences(self):
        """x, W, E and the stacked expert weights all pass FD."""
        rng = np.random.default_rng(2024)
        for _ in range(25):
            mixture, x, coef, decision = _fd_instance(rng)
            coef_t = Tensor(coef)

            def with_x(t):
                out, _ = moe_forward(t, mixture)
                return ad.sum_all(ad.mul(out, coef_t))

            def with_w(t):
                out, _ = moe_forward(Tensor(x), replace(mixture, W=t))
                return ad.sum_all(ad.mul(out, coef_t))

            def with_e(t):
                out, _ = moe_forward(Tensor(x), replace(mixture, E=t))
                return ad.sum_all(ad.mul(out, coef_t))

            assert finite_diff_check(with_x, x, h=1e-5) < 1e-4
            assert finite_diff_check(with_w, mixture.W.data, h=1e-5) < 1e-4
            assert finite_diff_check(with_e, mixture.E.data, h=1e-5) < 1e-4

            def with_experts(t):
                out, _ = moe_forward(Tensor(x), replace(mixture, weight=t))
                return ad.sum_all(ad.mul(out, coef_t))

            assert finite_diff_check(with_experts, mixture.weight.data, h=1e-5) < 1e-4

    def test_non_selected_expert_grads_exactly_zero(self):
        rng = np.random.default_rng(31)
        found_unselected = 0
        while found_unselected < 10:
            mixture, x, coef, decision = _fd_instance(rng)
            for p in (mixture.weight, mixture.bias, mixture.W, mixture.E):
                p.grad = None
            out, decision = moe_forward(Tensor(x), mixture)
            backward(ad.sum_all(ad.mul(out, Tensor(coef))))
            selected = set(decision.selected_indices.reshape(-1).tolist())
            for n in range(mixture.cfg.n_experts):
                if n in selected:
                    assert np.any(mixture.weight.grad[n] != 0.0)
                else:
                    found_unselected += 1
                    np.testing.assert_array_equal(mixture.weight.grad[n], 0.0)
                    np.testing.assert_array_equal(mixture.bias.grad[n], 0.0)

    def test_small_grid_composite(self):
        # 2x2x3 grid through the expert mixture, checked against FD on x
        rng = np.random.default_rng(55)
        mixture, x, coef, _ = _fd_instance(rng)
        coef_t = Tensor(coef)

        def f(t):
            out, _ = moe_forward(t, mixture)
            return ad.sum_all(ad.mul(out, coef_t))

        assert finite_diff_check(f, x, h=1e-5) < 1e-4


class TestInitFromPretrained:
    def test_experts_bit_identical(self):
        rng = np.random.default_rng(12)
        cfg = MoEConfig(n_experts=6, top_k=2)
        pre_w = rng.normal(size=(3, 4))
        pre_b = rng.normal(size=3)
        mixture = init_from_pretrained(pre_w, pre_b, cfg, seed=1)
        for x in rng.normal(size=(100, 4)):
            reference = mixture.weight.data[0] @ x + mixture.bias.data[0]
            for n in range(1, 6):
                out = mixture.weight.data[n] @ x + mixture.bias.data[n]
                assert out.tobytes() == reference.tobytes()

    def test_shape_mismatch(self):
        cfg = MoEConfig(n_experts=2, top_k=1)
        # A (2, 0) weight has no input channels to draw a gate frame for.
        for weight, bias in (((2, 3, 5), (3,)), ((3, 5), (5,)), ((3, 5), (3, 1)),
                             ((2, 0), (2,))):
            with pytest.raises(ShapeError, match=re.escape(f"got {weight} and {bias}")):
                init_from_pretrained(np.zeros(weight), np.zeros(bias), cfg)

    def test_channels_come_from_the_weight(self):
        # A non-square (C_out, C_in) = (3, 5) weight sets the bank and the gate.
        for gate_dim in (None, 2):
            cfg = MoEConfig(n_experts=4, top_k=2, gate_dim=gate_dim)
            mixture = init_from_pretrained(np.ones((3, 5)), np.ones(3), cfg, seed=0)
            assert mixture.weight.shape == (4, 3, 5) and mixture.bias.shape == (4, 3)
            assert mixture.W.shape == (5 if gate_dim is None else gate_dim, 5)
            assert mixture.E.shape == (mixture.W.shape[0], 4)
            out, _ = moe_forward(Tensor(np.ones((2, 2, 2, 5))), mixture)
            assert out.shape == (2, 2, 2, 3)

    def test_top1_frequencies_near_uniform(self):
        """Monte-Carlo over 10^4 random inputs on the seeded init."""
        cfg = MoEConfig(n_experts=8, top_k=2)
        mixture = init_from_pretrained(np.eye(8), np.zeros(8), cfg, seed=0)
        rng = np.random.default_rng(123)
        xs = rng.normal(size=(10_000, 8))
        hits = np.zeros(8, dtype=int)
        for x in xs:
            hits[gate(x, mixture.W, mixture.E, cfg).selected_indices[0]] += 1
        freq = hits / xs.shape[0]
        assert np.all(freq >= 1 / 8 - 0.1)
        assert np.all(freq <= 1 / 8 + 0.1)

    def test_seeded_determinism(self):
        cfg = MoEConfig(n_experts=3, top_k=1)
        p1 = init_from_pretrained(np.zeros((2, 2)), np.zeros(2), cfg, seed=9)
        p2 = init_from_pretrained(np.zeros((2, 2)), np.zeros(2), cfg, seed=9)
        assert p1.W.data.tobytes() == p2.W.data.tobytes()
        assert p1.E.data.tobytes() == p2.E.data.tobytes()


class TestExpertStats:
    def _uniform_decision(self, n=4, k=2):
        cfg = MoEConfig(n_experts=n, top_k=k)
        col = np.ones(3)
        return gate(np.array([1.0, 2.0, 3.0]), Tensor(np.eye(3)),
                    Tensor(np.repeat(col[:, None], n, axis=1)), cfg)

    def test_uniform_single_position(self):
        stats = ExpertStats()
        stats.accumulate(self._uniform_decision(), "dsA", "L0")
        cell = stats.cells[("dsA", "L0")]
        np.testing.assert_allclose(cell.participation, [0.25, 0.25, 0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(cell.top1, [1, 0, 0, 0])
        assert cell.top1.sum() == 1

    def test_decision_with_another_expert_count_rejected(self):
        stats = ExpertStats()
        stats.accumulate(self._uniform_decision(n=4), "dsA", "L0")
        with pytest.raises(UsageError, match="'L0' has 5 experts, expected 4"):
            stats.accumulate(self._uniform_decision(n=5), "dsA", "L0")
        assert stats.cells[("dsA", "L0")].top1.sum() == 1

    def test_entropy_of_a_dataset_without_statistics_refused(self):
        with pytest.raises(UsageError, match="no accumulated statistics for dataset 'A'"):
            ExpertStats().participation_entropy("A")

    def test_counting_oracle_single_expert(self):
        # Route 1000 positions entirely to expert 3 by construction.
        n = 5
        stats = ExpertStats()
        w = 0.9
        probs = np.full(n, (1 - w) / (n - 1))
        probs[3] = w
        decision = RoutingDecision(
            selected_indices=np.full((1000, 1), 3),
            gate_weights=np.full((1000, 1), w),
            full_softmax=np.tile(probs, (1000, 1)),
        )
        stats.accumulate(decision, "ds", "L")
        cell = stats.cells[("ds", "L")]
        assert abs(cell.participation[3] - 1000 * w) < 1e-9
        assert cell.top1[3] == 1000
        assert cell.top1.sum() == 1000

    def test_top1_counts_sum_to_positions(self):
        rng = np.random.default_rng(15)
        cfg, W, E = random_instance(rng, 6, 2, 4, 4)
        mixture = build_mixture(rng, cfg, W, E)
        stats = ExpertStats()
        total = 0
        for _ in range(5):
            _, decision = moe_forward(Tensor(rng.normal(size=(4, 4, 4))[None]), mixture)
            stats.accumulate(decision, "ds", "L")
            total += 16
        cell = stats.cells[("ds", "L")]
        assert cell.top1.sum() == total

    def test_top1_counts_equal_full_softmax_argmax(self):
        """accumulate counts each position's first selected id, which the
        RoutingDecision contract makes the argmax of the full softmax (ties
        to the lowest id); checked with ties from repeated embeddings and
        from degenerate positions."""
        rng = np.random.default_rng(17)
        tied_positions = 0
        for trial in range(60):
            cfg, W, E = random_instance(rng)
            n = cfg.n_experts
            if trial % 3 == 1 and n > 1:
                E.data[:, 1:] = E.data[:, :1]  # every expert the same
            elif trial % 3 == 2 and n > 2:
                E.data[:, -1] = E.data[:, 0]  # experts 0 and N-1 tie
            mixture = build_mixture(rng, cfg, W, E)
            x = rng.normal(size=(int(rng.integers(1, 4)), 3, 2, W.shape[1]))
            x[rng.random(x.shape[:-1]) < 0.2] = 0.0  # uniform routing
            decisions = [
                moe_forward(Tensor(x), mixture)[1],
                moe_forward(Tensor(x[0][None]), mixture)[1],
                gate(x[0, 0, 0], W, E, cfg),
                gate(np.zeros(W.shape[1]), W, E, cfg),
            ]
            stats = ExpertStats()
            expected = np.zeros(n, dtype=np.int64)
            for decision in decisions:
                stats.accumulate(decision, "ds", "L")
                probs = decision.full_softmax.reshape(-1, n)
                expected += np.bincount(np.argmax(probs, axis=-1), minlength=n)
                tied_positions += int(np.sum((probs == probs.max(axis=-1, keepdims=True))
                                             .sum(axis=-1) > 1))
            cell = stats.cells[("ds", "L")]
            np.testing.assert_array_equal(cell.top1, expected)
            assert cell.top1.sum() == sum(d.full_softmax.size // n for d in decisions)
        assert tied_positions > 200


class TestTop1Map:
    def test_uniform_gates_give_zero_map(self):
        n = 4
        full = np.full((3, 5, n), 1.0 / n)
        decision = RoutingDecision(
            selected_indices=np.zeros((3, 5, 2), dtype=int),
            gate_weights=np.full((3, 5, 2), 1.0 / n),
            full_softmax=full,
        )
        np.testing.assert_array_equal(export_top1_map(decision), np.zeros((3, 5), dtype=int))

    def test_map_shape_matches_grid(self):
        rng = np.random.default_rng(16)
        cfg, W, E = random_instance(rng, 5, 2, 3, 3)
        mixture = build_mixture(rng, cfg, W, E)
        _, decision = moe_forward(Tensor(rng.normal(size=(6, 7, 3))[None]), mixture)
        assert export_top1_map(decision)[0].shape == (6, 7)

    def test_hand_built_argmax(self):
        full = np.zeros((2, 2, 3))
        full[0, 0] = [0.1, 0.7, 0.2]
        full[0, 1] = [0.5, 0.25, 0.25]
        full[1, 0] = [0.2, 0.2, 0.6]
        full[1, 1] = [0.4, 0.4, 0.2]  # tie -> lowest index
        decision = RoutingDecision(
            selected_indices=np.zeros((2, 2, 1), dtype=int),
            gate_weights=np.zeros((2, 2, 1)),
            full_softmax=full,
        )
        np.testing.assert_array_equal(export_top1_map(decision), [[1, 0], [2, 0]])


# ---------------------------------------------------------------------------
# sorted dispatch against the per-expert-mask dispatch, byte for byte
# ---------------------------------------------------------------------------

def oracle_mix_experts(x, weight, bias, selected, selected_weights):
    """The per-expert-mask dispatch that ``ad.mix_experts`` replaced.

    One boolean mask and one gemm per distinct selected expert, in ascending
    expert id; each expert's terms are added into the output at its rows.
    Its per-expert gradients are stacked as the bank's, a zero row for each
    expert that got none.
    """
    c_in = x.shape[-1]
    c_out = weight.shape[1]
    lead = x.shape[:-1]
    sel = np.asarray(selected)
    positions = int(np.prod(lead)) if lead else 1
    k = sel.shape[-1]
    xf = x.data.reshape(positions, c_in)
    idxf = sel.reshape(positions, k)
    wf = selected_weights.data.reshape(positions, k)

    out = np.zeros((positions, c_out))
    cache = []
    applications = 0
    for n in np.unique(idxf):
        rows, slots = np.nonzero(idxf == n)
        ys = xf[rows] @ weight.data[n].T + bias.data[n]
        out[rows] += wf[rows, slots][:, None] * ys
        applications += rows.size
        cache.append((int(n), rows, slots, ys))
    def vjp(g):
        gf = g.reshape(positions, c_out)
        dx = np.zeros_like(xf) if x.requires_grad else None
        dsel = np.zeros_like(wf) if selected_weights.requires_grad else None
        dws, dbs = {}, {}
        for n, rows, slots, ys in cache:
            gn = gf[rows]
            gs = gn * wf[rows, slots][:, None]
            if weight.requires_grad:
                dws[n] = gs.T @ xf[rows]
            if bias.requires_grad:
                dbs[n] = gs.sum(axis=0)
            if dx is not None:
                dx[rows] += gs @ weight.data[n]
            if dsel is not None:
                dsel[rows, slots] += np.sum(gn * ys, axis=1)
        grads = [
            dx.reshape(x.shape) if dx is not None else None,
            dsel.reshape(selected_weights.shape) if dsel is not None else None,
        ]
        grads.append(reference_ops.stack_expert_grads(
            [dws.get(n) for n in range(weight.shape[0])], weight))
        grads.append(reference_ops.stack_expert_grads(
            [dbs.get(n) for n in range(weight.shape[0])], bias))
        return tuple(grads)

    inputs = (x, selected_weights, weight, bias)
    result = ad._node("mix_experts", out.reshape(*lead, c_out), inputs, vjp)
    return result, applications


def _dispatch_instance(rng):
    """Random mix_experts arguments: 0-3 grid axes, k in 1..N, unused experts."""
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 1))
    lead = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(0, 4))))
    c_in, c_out = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    # Draw each position's k distinct experts from a pool that may leave some out.
    pool = rng.permutation(n)[: int(rng.integers(k, n + 1))]
    positions = int(np.prod(lead))
    selected = np.stack([rng.permutation(pool)[:k] for _ in range(positions)])
    grads = rng.random(2 + 2 * n) < 0.8
    x = Tensor(rng.normal(size=(*lead, c_in)), requires_grad=grads[0])
    weight = Tensor(np.stack([rng.normal(size=(c_out, c_in)) for _ in range(n)]),
                    requires_grad=grads[2])
    bias = Tensor(np.stack([rng.normal(size=c_out) for _ in range(n)]), requires_grad=grads[2 + n])
    selected = selected.reshape(*lead, k)
    selected_w = Tensor(rng.random(selected.shape), requires_grad=grads[1])
    return x, weight, bias, selected, selected_w


def _as_bytes(arrays):
    return [None if a is None else (a.shape, a.dtype, a.tobytes()) for a in arrays]


class TestSortedDispatch:
    def test_matches_mask_dispatch_bit_for_bit(self):
        rng = np.random.default_rng(2211)
        seen_k3 = seen_unused = seen_single = 0
        for _ in range(300):
            args = _dispatch_instance(rng)
            x, weight, _, selected, _ = args
            seen_k3 += selected.shape[-1] >= 3
            seen_unused += len(np.unique(selected)) < weight.shape[0]
            seen_single += x.data.ndim == 1
            out = ad.mix_experts(*args)
            ref, ref_applications = oracle_mix_experts(*args)
            assert ref_applications == selected.size
            assert out.shape == ref.shape
            assert out.data.tobytes() == ref.data.tobytes()
            if ref._op is None:
                assert out._op is None
                continue
            g = rng.normal(size=out.shape)
            assert _as_bytes(out._op.vjp(g)) == _as_bytes(ref._op.vjp(g))
        assert seen_k3 > 20 and seen_unused > 20 and seen_single > 20

    def test_expert_id_outside_bank_rejected(self):
        weight = Tensor(np.stack([np.eye(2)] * 3))
        bias = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.mix_experts(Tensor(np.ones((2, 2))), weight, bias,
                           np.array([[0], [3]]), Tensor(np.ones((2, 1))))


    def test_repeated_expert_id_rejected(self):
        weight = Tensor(np.stack([np.eye(2)] * 3))
        bias = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="same expert twice"):
            ad.mix_experts(Tensor(np.ones((2, 2))), weight, bias,
                           np.array([[0, 1], [2, 2]]), Tensor(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# take-based dispatch against the fancy-index dispatch, byte for byte
# ---------------------------------------------------------------------------

def _signed_zero_adjoint(rng, shape):
    """A normal adjoint with scattered 0.0 and -0.0 entries and one all -0.0 row."""
    g = rng.normal(size=shape)
    draw = rng.random(shape)
    g[draw < 0.1] = 0.0
    g[draw > 0.9] = -0.0
    g.reshape(-1, shape[-1])[int(rng.integers(math.prod(shape[:-1])))] = -0.0
    return g


class TestTakeDispatch:
    def test_mix_matches_fancy_index_dispatch(self):
        rng = np.random.default_rng(2213)
        seen = dict(samples=0, k3=0, unused=0)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            samples = int(rng.integers(1, 4))
            lead = (samples, *(int(v) for v in rng.integers(1, 5, size=int(rng.integers(0, 3)))))
            c_in, c_out = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            pool = rng.permutation(n)[: int(rng.integers(k, n + 1))]
            selected = np.stack([rng.permutation(pool)[:k]
                                 for _ in range(math.prod(lead))]).reshape(*lead, k)
            x = rng.normal(size=(*lead, c_in))
            flags = rng.random(2 * n) < 0.8
            weight = Tensor(np.stack([rng.normal(size=(c_out, c_in)) for _ in range(n)]),
                            requires_grad=flags[0])
            bias = Tensor(np.stack([rng.normal(size=c_out) for _ in range(n)]),
                          requires_grad=flags[n])
            weights, biases = reference_ops.split_bank(weight, bias)
            gate_w = rng.random(selected.shape)
            gate_w[rng.random(selected.shape) < 0.1] = 0.0
            out, d = ad._mix(x, weight.data, bias.data, selected, gate_w, samples)
            ref_out, ref_d = reference_ops.mix(x, weights, biases, selected, gate_w, samples)
            assert out.tobytes() == ref_out.tobytes()

            g = _signed_zero_adjoint(rng, out.shape)
            dx, table, dw, db = ad._mix_vjp(g, d, weight, bias, True, True)
            ref_dx, ref_dsel, ref_dws, ref_dbs = reference_ops.mix_vjp(
                g, ref_d, weights, biases, True, True)
            assert _as_bytes([dx, dw, db]) == _as_bytes(
                [ref_dx, reference_ops.stack_expert_grads(ref_dws, weight),
                 reference_ops.stack_expert_grads(ref_dbs, bias)])
            # The table is what gather_last's vjp scatters the (..., k) gradient to.
            ref_table = reference_ops.gather_vjp(ref_dsel, selected, (*lead, n))
            assert table.tobytes() == ref_table.tobytes()
            assert ad._gather(ref_table, selected).tobytes() == ref_dsel.tobytes()
            probs = rng.random((*lead, n))
            assert (ad._gather(probs, selected).tobytes()
                    == np.take_along_axis(probs, selected, axis=-1).tobytes())
            seen["samples"] += samples > 1
            seen["k3"] += k >= 3
            seen["unused"] += np.unique(selected).size < n
        assert min(seen.values()) > 20, seen

    def test_small_key_argsort_matches_int64_argsort(self):
        rng = np.random.default_rng(2214)
        for top in (1, 255, 256, 65535, 65536, 2**40):
            for size in (0, 1, 7, 300, 2000):
                keys = rng.integers(0, min(top, 40) + 1, size=size) * (top // min(top, 40))
                small = keys.astype(np.min_scalar_type(top)).argsort(kind="stable")
                assert small.tobytes() == np.argsort(keys, kind="stable").tobytes()


# ---------------------------------------------------------------------------
# the one-node layer against the five-node composition, byte for byte
# ---------------------------------------------------------------------------

def oracle_moe_forward(x, mixture):
    """The five-node composition that ``moe_forward`` records as one node.

    Gate ``grid_linear`` -> ``gate_logits`` -> ``softmax`` -> ``topk_select``
    -> ``gather_last`` -> ``mix_experts``, each recorded as its own node, with
    the checks in the order the layer makes them. It routes one sample: the
    batch may only hold one.
    """
    assert x.shape[0] == 1, "the five-node oracle routes one sample per call"
    W, E, cfg = mixture.W, mixture.E, mixture.cfg
    if x.shape[-1] != W.shape[1]:
        raise ShapeError(f"routing: expected {W.shape[1]} channels, got {x.shape[-1]}")
    u = ad.grid_linear(x, W)
    probs = ad.softmax(ad.gate_logits(u, E, cfg.gate_temperature))
    selected = moe_mod.topk_select(probs.data, cfg.top_k)
    selected_w = ad.gather_last(probs, selected)
    out = ad.mix_experts(x, mixture.weight, mixture.bias, selected, selected_w)
    decision = RoutingDecision(selected, selected_w.data.copy(), probs.data.copy())
    return out, decision


def _layer_instance(rng):
    """Random layer: 0-3 grid axes, k in 1..N, zero rows, frozen tensors."""
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 1))
    c_in, c_out = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    gate_dim = int(rng.integers(1, 6))
    cfg = MoEConfig(n_experts=n, top_k=k, gate_temperature=float(rng.uniform(0.05, 2.0)),
                    gate_dim=gate_dim)
    lead = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(0, 4))))
    x = rng.normal(size=(*lead, c_in))
    if lead and rng.random() < 0.5:
        x.reshape(-1, c_in)[rng.random(int(np.prod(lead))) < 0.3] = 0.0
    # Mostly trainable; some x, W, E and the bank's weight or bias frozen.
    grads = rng.random(3) < 0.75
    mixture = ExpertMixture(
        Tensor(rng.normal(size=(gate_dim, c_in)), requires_grad=grads[1]),
        Tensor(rng.normal(size=(gate_dim, n)), requires_grad=grads[2]),
        Tensor(np.stack([rng.normal(size=(c_out, c_in)) for _ in range(n)]), requires_grad=True),
        Tensor(np.stack([rng.normal(size=c_out) for _ in range(n)]), requires_grad=True), cfg)
    if rng.random() < 0.5:
        rng.integers(n)  # an expert id: drawn so that every instance keeps its values
        for t in (mixture.weight, mixture.bias)[: int(rng.integers(1, 3))]:
            t.requires_grad = False
    return Tensor(x, requires_grad=grads[0]), mixture


def _one_sample(x):
    """An instance's input as a batch of one sample under the rank limit: no grid
    axes become one of length 1, and a third grid axis folds into the second."""
    lead = x.shape[:-1]
    grid = (1,) if not lead else lead if len(lead) < 3 else (lead[0], lead[1] * lead[2])
    return Tensor(x.data.reshape(1, *grid, x.shape[-1]), requires_grad=x.requires_grad)


def _decision_bytes(decision):
    return (_as_bytes([decision.selected_indices, decision.gate_weights,
                       decision.full_softmax]), decision.expert_applications)


class TestOneNodeLayer:
    def test_one_node_named_moe_layer(self):
        x, mixture = _layer_instance(np.random.default_rng(1))
        x = _one_sample(x)
        x.requires_grad = True
        out, _ = moe_forward(x, mixture)
        record = ad.ComputationRecord.trace(out)
        assert [op.name for op in record.ops] == ["moe_layer"]
        assert record.ops[0].inputs == (x, mixture.W, mixture.E, mixture.weight, mixture.bias)

    def test_returned_decision_is_frozen_and_read_only(self):
        # moe_forward hands back the decision its vjp reads, so no caller may change it.
        x, mixture = _layer_instance(np.random.default_rng(7))
        _, decision = moe_forward(_one_sample(x), mixture)
        with pytest.raises(ValueError, match="read-only"):
            decision.full_softmax[...] = 0.0
        with pytest.raises(FrozenInstanceError):
            decision.full_softmax = np.zeros_like(decision.full_softmax)

    def test_matches_five_node_composition_bit_for_bit(self):
        rng = np.random.default_rng(2403)
        seen = dict(single=0, k_is_n=0, unused=0, zero_row=0, x_frozen=0, expert_frozen=0)
        for _ in range(300):
            x, mixture = _layer_instance(rng)
            cfg, x = mixture.cfg, _one_sample(x)
            out, decision = moe_forward(x, mixture)
            ref, ref_decision = oracle_moe_forward(x, mixture)
            assert out.shape == ref.shape
            assert out.data.tobytes() == ref.data.tobytes()
            assert _decision_bytes(decision) == _decision_bytes(ref_decision)
            if ref._op is None:
                assert out._op is None
                continue
            g = rng.normal(size=out.shape)
            layer_inputs = (x, mixture.W, mixture.E, mixture.weight, mixture.bias)
            assert _as_bytes(out._op.vjp(g)) == _as_bytes(replayed_adjoints(ref, g, layer_inputs))

            seen["single"] += math.prod(x.shape[:-1]) == 1
            seen["k_is_n"] += cfg.top_k == cfg.n_experts
            seen["unused"] += len(np.unique(decision.selected_indices)) < cfg.n_experts
            seen["zero_row"] += bool(np.any(np.all(x.data == 0.0, axis=-1)))
            seen["x_frozen"] += not x.requires_grad
            seen["expert_frozen"] += not (mixture.weight.requires_grad
                                          and mixture.bias.requires_grad)
        assert min(seen.values()) > 20, seen

    def test_backward_through_a_preceding_op_bit_for_bit(self):
        # x is an intermediate here, so its adjoint flows on into W0 and x0.
        rng = np.random.default_rng(2211)
        for _ in range(100):
            _, mixture = _layer_instance(rng)
            c_in, c_out = mixture.W.shape[1], mixture.weight.shape[1]
            x0 = Tensor(rng.normal(size=(3, 2, c_in))[None], requires_grad=True)
            W0 = Tensor(rng.normal(size=(c_in, c_in)), requires_grad=True)
            coef = Tensor(rng.normal(size=(3, 2, c_out))[None])
            leaves = (x0, W0, mixture.W, mixture.E, mixture.weight, mixture.bias)
            grads = []
            for forward in (moe_forward, oracle_moe_forward):
                for t in leaves:
                    t.grad = None
                out, _ = forward(ad.relu(ad.grid_linear(x0, W0)), mixture)
                backward(ad.sum_all(ad.mul(out, coef)))
                grads.append(_as_bytes([t.grad for t in leaves]))
            assert grads[0] == grads[1]

    @pytest.mark.parametrize("case", ["count", "gate_columns", "zero_embedding",
                                      "expert_columns"])
    def test_same_errors_in_the_same_order(self, case):
        rng = np.random.default_rng(7)
        cfg = MoEConfig(n_experts=3, top_k=2)
        mixture = build_mixture(rng, cfg, Tensor(rng.normal(size=(4, 4))),
                                Tensor(rng.normal(size=(4, 3))), c_out=2)
        x = Tensor(rng.normal(size=(2, 2, 4))[None])
        if case == "count":  # refused as the mixture is built, so no forward call sees it
            with pytest.raises(ShapeError, match="expert count disagrees"):
                replace(mixture, weight=Tensor(mixture.weight.data[:2]),
                        bias=Tensor(mixture.bias.data[:2]))
            return
        if case == "gate_columns":
            mixture = replace(mixture, W=Tensor(rng.normal(size=(4, 5))))
        elif case == "zero_embedding":
            mixture.E.data[:, 1] = 0.0
        else:
            mixture = replace(
                mixture, weight=Tensor(np.stack([rng.normal(size=(2, 3)) for _ in range(3)])),
                bias=Tensor(np.stack([rng.normal(size=2) for _ in range(3)])))
        errors = []
        for forward in (moe_forward, oracle_moe_forward):
            with pytest.raises((ShapeError, DomainError)) as excinfo:
                forward(x, mixture)
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors[0] == errors[1]
        expected = {"gate_columns": "routing: expected 5 channels, got 4",
                    "zero_embedding": "(near-)zero norm",
                    "expert_columns": "expert parameter shapes"}[case]
        assert expected in errors[0][1]

    @pytest.mark.parametrize("dispatch", ["sorted", "mask"])
    def test_training_artifacts_identical_to_five_nodes(self, tmp_path, monkeypatch, dispatch):
        # "mask" also swaps in the per-expert-mask dispatch that the sorted one
        # replaced, so the layer is checked against both. The five-node side
        # runs one graph per sample, so the oracle routes one sample per call.
        from gridmoe import model as model_mod
        from gridmoe.train import benchmark_config, train

        train(benchmark_config(0, 30, str(tmp_path / "fused"), True), keep_model=False)
        monkeypatch.setattr(model_mod.Model, "forward_batch", per_sample_forward_batch)
        monkeypatch.setattr(moe_mod, "moe_forward", oracle_moe_forward)
        monkeypatch.setattr(model_mod, "moe_forward", oracle_moe_forward)
        if dispatch == "mask":
            monkeypatch.setattr(ad, "mix_experts", lambda *args: oracle_mix_experts(*args)[0])
        train(benchmark_config(0, 30, str(tmp_path / "five"), True), keep_model=False)
        for name in ("losses.csv", "dso_log.csv", "checkpoint.bin"):
            assert ((tmp_path / "fused" / name).read_bytes()
                    == (tmp_path / "five" / name).read_bytes()), name


# ---------------------------------------------------------------------------
# the sample axis: a batched layer against one layer per sample, byte for byte
# ---------------------------------------------------------------------------

def summed_per_sample(per_sample_grads):
    """What ``backward`` adds up from one op per sample, input by input.

    The non-None terms in sample order, the first taken as it is; None when
    no sample gives one.
    """
    summed = []
    for terms in zip(*per_sample_grads):
        present = [t for t in terms if t is not None]
        total = present[0] if present else None
        for term in present[1:]:
            total = total + term
        summed.append(total)
    return summed


class TestSampleAxis:
    def test_batched_layer_matches_one_layer_per_sample(self):
        rng = np.random.default_rng(5101)
        seen = dict(batch=0, k3=0, absent=0, zero_row=0, x_frozen=0, expert_frozen=0)
        for _ in range(300):
            x, mixture = _layer_instance(rng)
            cfg = mixture.cfg
            # One to two grid axes: room for the sample axis under the rank limit.
            grid = np.atleast_2d(x.data[(0,) * max(0, x.data.ndim - 3)])
            batch = int(rng.integers(1, 5))
            grids = [grid] + [rng.normal(size=grid.shape) for _ in range(batch - 1)]
            xb = np.stack([grids[i] for i in rng.permutation(batch)])
            out, decision = moe_forward(Tensor(xb, requires_grad=x.requires_grad), mixture)
            per = [moe_forward(Tensor(xb[s][None], requires_grad=x.requires_grad), mixture)
                   for s in range(batch)]
            assert out.data.tobytes() == np.stack([o.data[0] for o, _ in per]).tobytes()
            assert decision.expert_applications == sum(d.expert_applications for _, d in per)
            for s, (_, ref_decision) in enumerate(per):
                assert (_decision_bytes(sample_decision(decision, s))
                        == _decision_bytes(sample_decision(ref_decision, 0)))
            if out._op is None:
                assert all(o._op is None for o, _ in per)
                continue
            g = rng.normal(size=out.shape)
            per_grads = [o._op.vjp(g[s][None]) for s, (o, _) in enumerate(per)]
            dx = None if per_grads[0][0] is None else np.stack([p[0][0] for p in per_grads])
            expected = [dx, *summed_per_sample([p[1:] for p in per_grads])]
            assert _as_bytes(out._op.vjp(g)) == _as_bytes(expected)

            seen["batch"] += batch >= 3
            seen["k3"] += cfg.top_k >= 3
            seen["absent"] += any(len(np.unique(d.selected_indices)) < cfg.n_experts
                                  for _, d in per)
            seen["zero_row"] += bool(np.any(np.all(xb == 0.0, axis=-1)))
            seen["x_frozen"] += not x.requires_grad
            seen["expert_frozen"] += not (mixture.weight.requires_grad
                                          and mixture.bias.requires_grad)
        assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=["no_axes", "no_grid_axis"])
@pytest.mark.parametrize("op", ["grid_linear", "moe_forward"])
def test_trunk_op_needs_sample_and_grid_axes(op, shape, monkeypatch):
    rng = np.random.default_rng(5102)
    cfg, W, E = random_instance(rng, 4, 2, 3, 3)
    mixture = build_mixture(rng, cfg, W, E)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    with pytest.raises(ShapeError, match=f"^{op}: .*" + re.escape(f"got shape {shape}")):
        if op == "grid_linear":
            ad.grid_linear(x, W)
        else:
            # moe_forward refuses the input before its gate runs.
            def routed(*args):
                raise AssertionError("moe_forward routed an input it must refuse")
            monkeypatch.setattr(moe_mod, "topk_select", routed)
            moe_forward(x, mixture)


def test_readme_library_use_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(snippet, scope)
    features, out, routing = scope["features"], scope["out"], scope["routing"]
    k = scope["cfg"].top_k
    assert len(features.shape) == 4  # samples, grid rows, grid columns, channels
    assert out.shape == features.shape
    # One decision per (sample, grid position): the sample axis leads.
    assert routing.selected_indices.shape == (*features.shape[:-1], k)
    assert sample_decision(routing, 0).selected_indices.shape == (*features.shape[1:-1], k)

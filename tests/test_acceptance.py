"""Acceptance suite: ten numbered criteria, each printed pass/fail.

Criteria 8 and 9 share one deterministic benchmark execution (five paired
runs of 2000 iterations); everything else is self-contained. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import functools
import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from gridmoe import autodiff as ad
from gridmoe.autodiff import Tensor, backward, finite_diff_check
from gridmoe.cli import main as cli_main
from gridmoe.dso import (
    DsoConfig,
    backbone_multiplier,
    consistency_score,
    convergence_ratios,
    head_multipliers,
)
from gridmoe.moe import (
    MoEConfig,
    init_from_pretrained,
    moe_forward,
)
from gridmoe.train import imbalance_benchmark

from reference_ops import gate
from test_dso import make_tracker, oracle_consistency, oracle_gamma, oracle_lambdas
from test_moe import _fd_instance, build_mixture, oracle_gate, random_instance


def report(number: int, name: str):
    def decorator(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorator


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Criteria 8 and 9 share these five paired 2000-iteration runs."""
    out = tmp_path_factory.mktemp("imbalance_benchmark")
    start = time.monotonic()
    rows = imbalance_benchmark(out, seeds=(0, 1, 2, 3, 4), iterations=2000)
    elapsed = time.monotonic() - start
    return rows, elapsed


@report(1, "routing oracle")
def test_criterion_1_routing_oracle():
    rng = np.random.default_rng(1234)
    start = time.monotonic()
    for _ in range(1000):
        cfg, W, E = random_instance(rng)
        x = rng.normal(size=W.shape[1])
        decision = gate(x, W, E, cfg)
        want_sel, want_probs = oracle_gate(
            x, W.data, E.data, cfg.gate_temperature, cfg.top_k
        )
        assert np.array_equal(decision.selected_indices, want_sel)
        assert np.max(np.abs(decision.full_softmax - want_probs)) <= 1e-12
        assert np.max(np.abs(decision.gate_weights - want_probs[want_sel])) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"routing oracle took {elapsed:.2f}s"


@report(2, "scale invariance")
def test_criterion_2_scale_invariance():
    rng = np.random.default_rng(56)
    for _ in range(200):
        cfg, W, E = random_instance(rng)
        x = rng.normal(size=W.shape[1])
        base = gate(x, W, E, cfg)
        for c in (0.5, 3.0, 100.0):
            scaled = gate(c * x, W, E, cfg)
            assert np.array_equal(scaled.selected_indices, base.selected_indices)
            assert np.max(np.abs(scaled.full_softmax - base.full_softmax)) <= 1e-12
            assert np.max(np.abs(scaled.gate_weights - base.gate_weights)) <= 1e-12


@report(3, "gradient correctness")
def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(777)
    start = time.monotonic()
    for _ in range(100):
        mixture, x, coef, decision = _fd_instance(rng)
        coef_t = Tensor(coef)

        def through_x(t):
            out, _ = moe_forward(t, mixture)
            return ad.sum_all(ad.mul(out, coef_t))

        def through_w(t):
            out, _ = moe_forward(Tensor(x), replace(mixture, W=t))
            return ad.sum_all(ad.mul(out, coef_t))

        def through_e(t):
            out, _ = moe_forward(Tensor(x), replace(mixture, E=t))
            return ad.sum_all(ad.mul(out, coef_t))

        assert finite_diff_check(through_x, x, h=1e-5) < 1e-4
        assert finite_diff_check(through_w, mixture.W.data, h=1e-5) < 1e-4
        assert finite_diff_check(through_e, mixture.E.data, h=1e-5) < 1e-4

        selected = set(decision.selected_indices.reshape(-1).tolist())

        def through_experts(t):
            out, _ = moe_forward(Tensor(x), replace(mixture, weight=t))
            return ad.sum_all(ad.mul(out, coef_t))

        assert finite_diff_check(through_experts, mixture.weight.data, h=1e-5) < 1e-4

        for p in (mixture.weight, mixture.bias):
            p.grad = None
        out, decision = moe_forward(Tensor(x), mixture)
        backward(ad.sum_all(ad.mul(out, coef_t)))
        for n in range(mixture.cfg.n_experts):
            if n not in selected:
                assert np.all(mixture.weight.grad[n] == 0.0)
                assert np.all(mixture.bias.grad[n] == 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.2f}s"


@report(4, "governor formula suite")
def test_criterion_4_dso_formula_suite():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        t = int(rng.integers(2, 7))
        cfg = DsoConfig(theta=float(rng.uniform(0.3, 3.0)))
        tracker = make_tracker(rng.uniform(1e-3, 10.0, size=t),
                               rng.uniform(1e-3, 10.0, size=t))
        lambdas = head_multipliers(convergence_ratios(tracker), cfg)
        assert abs(lambdas.sum() - t) < 1e-9

    for b in (-0.2, 0.0, 0.4, 0.9):
        cfg = DsoConfig(tau=3.0, bias_b=b)
        assert abs(backbone_multiplier(b, cfg) - 1.0) < 1e-12
    cfg = DsoConfig(tau=3.0, bias_b=0.4)
    for c in np.linspace(1.0 - math.log(1e12), 1.0, 200):
        assert 0.0 < backbone_multiplier(float(c), cfg) < 2.0

    tracker = make_tracker([0.7, 1.3, 2.9], [0.7, 1.3, 2.9])
    assert consistency_score(tracker) == 1.0

    # worked examples against the independent arithmetic oracles
    lam = head_multipliers(convergence_ratios(make_tracker([2.0, 1.0], [1.0, 2.0])),
                           DsoConfig(theta=1.0))
    lam_oracle = oracle_lambdas([0.5, 2.0], 1.0)
    assert abs(lam[0] - lam_oracle[0]) < 1e-5
    assert abs(lam[1] - lam_oracle[1]) < 1e-5

    c_score = consistency_score(make_tracker([1.0, 2.0], [1.5, 1.5]))
    assert abs(c_score - oracle_consistency([1.0, 2.0], [1.5, 1.5])) < 1e-5

    gamma = backbone_multiplier(1.0, DsoConfig(tau=3.0, bias_b=0.4))
    assert abs(gamma - oracle_gamma(1.0, 0.4, 3.0)) < 1e-5


@report(5, "duplication-init identity")
def test_criterion_5_duplication_init():
    rng = np.random.default_rng(21)
    cfg = MoEConfig(n_experts=6, top_k=2, gate_temperature=0.07)
    pre_w = rng.normal(size=(4, 5))
    pre_b = rng.normal(size=4)
    mixture = init_from_pretrained(pre_w, pre_b, cfg, seed=3)
    for x in rng.normal(size=(100, 5)):
        outputs = [w @ x + b for w, b in zip(mixture.weight.data, mixture.bias.data)]
        reference = outputs[0].tobytes()
        assert all(out.tobytes() == reference for out in outputs[1:])

    mixture = init_from_pretrained(pre_w, pre_b, cfg, seed=3)
    mixture.E.data = np.repeat(mixture.E.data[:, :1], cfg.n_experts, axis=1)  # identical embeddings
    x = rng.normal(size=(6, 7, 5))
    out, _ = moe_forward(Tensor(x[None]), mixture)
    expected = (cfg.top_k / cfg.n_experts) * (x @ pre_w.T + pre_b)
    assert np.max(np.abs(out.data[0] - expected)) <= 1e-12


@report(6, "dense equivalence at k = N")
def test_criterion_6_k_equals_n_dense():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        c = int(rng.integers(2, 6))
        cfg = MoEConfig(n_experts=n, top_k=n, gate_temperature=float(rng.uniform(0.1, 1.5)))
        _, W, E = random_instance(rng, n, n, c, c)
        mixture = build_mixture(rng, cfg, W, E)
        x = rng.normal(size=(3, 2, c))
        out, decision = moe_forward(Tensor(x[None]), mixture)
        dense = np.zeros_like(out.data)
        for e in range(n):
            dense += decision.full_softmax[..., e : e + 1] * (
                x @ mixture.weight.data[e].T + mixture.bias.data[e]
            )
        assert np.max(np.abs(out.data - dense)) <= 1e-12


@report(7, "sparsity accounting")
def test_criterion_7_sparsity_accounting():
    rng = np.random.default_rng(44)
    for h, w, n, k in [(8, 8, 8, 2), (8, 8, 4, 2), (5, 3, 6, 3), (2, 9, 10, 1)]:
        cfg = MoEConfig(n_experts=n, top_k=k, gate_temperature=0.3)
        _, W, E = random_instance(rng, n, k, 4, 4)
        mixture = build_mixture(rng, cfg, W, E)
        _, decision = moe_forward(Tensor(rng.normal(size=(h, w, 4))[None]), mixture)
        assert decision.expert_applications == h * w * k


@report(8, "directional balancing")
def test_criterion_8_directional_balancing(benchmark_runs):
    rows, elapsed = benchmark_runs
    assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"
    with_dso = statistics.median(row["spread_with_dso"] for row in rows)
    without_dso = statistics.median(row["spread_without_dso"] for row in rows)
    print(f"\n  median normalized-loss spread: dso={with_dso:.4f} "
          f"plain={without_dso:.4f} ({elapsed:.0f}s)")
    assert with_dso <= without_dso


@report(9, "directional specialization")
def test_criterion_9_directional_specialization(benchmark_runs):
    rows, _ = benchmark_runs
    for modality in ("A", "B", "C"):
        drop = statistics.median(row[f"entropy_change_{modality}"] for row in rows)
        print(f"\n  modality {modality}: median participation-entropy change {drop:+.4f}")
        assert drop < 0.0, modality


@report(10, "end-to-end determinism")
def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.3},
        "run": {"iterations": 40, "base_lr": 0.05, "seed": 11, "stats_samples": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for out in ("r1", "r2"):
        code = cli_main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)])
        assert code == 0
    for name in ("losses.csv", "dso_log.csv"):
        first = (tmp_path / "r1" / name).read_bytes()
        second = (tmp_path / "r2" / name).read_bytes()
        assert first == second, name

"""Dynamic submodule optimization: a per-group learning-rate governor.

The governor watches one scalar loss per task. Each task keeps an
exponential moving average of its losses (``his``); the ratio his/cur feeds
a temperature softmax that reweights every task head's learning rate (the
weights always sum to the task count), and the KL divergence between the
softmax-normalized current and historical loss vectors yields a consistency
score that modulates the shared backbone's learning rate through a scaled
sigmoid bounded in (0, 2).

The governor is a pure learning-rate transformer: it never touches losses or
gradients, so disabling it is exactly equivalent to multiplying every rate
by one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UsageError
from .numerics import sigmoid, stable_softmax

log = logging.getLogger(__name__)

CUR_LOSS_FLOOR = 1e-12
KL_FLOOR = 1e-12


@dataclass(frozen=True)
class DsoConfig:
    """Governor hyperparameters, the ``dso`` section; the tracker holds the task count.

    ``tau`` and ``bias_b`` shape the backbone sigmoid (gamma equals 1 exactly
    when the consistency score equals ``bias_b``); they are distinct from the
    gate temperature of the MoE layer.
    """

    alpha: float = 0.05
    theta: float = 1.0
    tau: float = 3.0
    bias_b: float = 0.4

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("dso.alpha", f"must be in [0, 1], got {self.alpha}")
        if self.theta <= 0.0:
            raise ConfigError("dso.theta", f"must be > 0, got {self.theta}")
        if self.tau <= 0.0:
            raise ConfigError("dso.tau", f"must be > 0, got {self.tau}")


@dataclass(frozen=True)
class LrMultipliers:
    """Per-head and backbone multipliers, and the ratios and score behind them."""

    head_lambdas: np.ndarray
    backbone_gamma: float
    consistency: float
    ratios: np.ndarray

    @classmethod
    def identity(cls, n_tasks: int) -> "LrMultipliers":
        return cls(np.ones(n_tasks), 1.0, 1.0, np.ones(n_tasks))


@dataclass
class LossTracker:
    """Per-task current losses and their EMA history."""

    n_tasks: int
    cur: np.ndarray | None = field(init=False, default=None)
    his: np.ndarray | None = field(init=False, default=None)
    last_multipliers: LrMultipliers = field(init=False)

    def __post_init__(self):
        if self.n_tasks < 1:
            raise ConfigError("n_tasks", f"must be >= 1, got {self.n_tasks}")
        self.last_multipliers = LrMultipliers.identity(self.n_tasks)


def losses_valid(observed: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(observed)) and np.all(observed > 0.0))


def update_ema(tracker: LossTracker, observed_losses, cfg: DsoConfig) -> None:
    """Fold this iteration's losses into the tracker.

    his <- alpha * cur + (1 - alpha) * his_prev; on the very first iteration
    the history bootstraps to the observed losses, so the governor starts
    neutral.
    """
    observed = np.asarray(observed_losses, dtype=np.float64).reshape(-1)
    if observed.shape[0] != tracker.n_tasks:
        raise DomainError(f"expected {tracker.n_tasks} task losses, got {observed.shape[0]}")
    if not losses_valid(observed):
        raise DomainError("task losses must be finite and > 0 (upstream divergence?)")
    if tracker.his is None or cfg.alpha == 1.0:
        tracker.his = observed.copy()
    else:
        # incremental form of alpha*cur + (1-alpha)*his: identical algebra,
        # but a constant stream stays a bit-exact fixed point
        tracker.his = tracker.his + cfg.alpha * (observed - tracker.his)
    tracker.cur = observed.copy()


def head_multipliers(ratios: np.ndarray, cfg: DsoConfig) -> np.ndarray:
    """Convergence-ratio softmax, scaled so the multipliers sum to the task count.

    lambda_t = T * exp(w_t / theta) / sum_k exp(w_k / theta) over the ratios
    w_t = his_t / cur_t, computed with max-subtraction.
    """
    return ratios.size * stable_softmax(ratios / cfg.theta)


def convergence_ratios(tracker: LossTracker) -> np.ndarray:
    """w_t = his_t / cur_t; a current loss below 1e-12 is clamped to it, with a warning."""
    if tracker.cur is None:
        raise UsageError("convergence_ratios requires an updated tracker")
    if np.any(tracker.cur < CUR_LOSS_FLOOR):
        log.warning("current loss at or below %g clamped for ratio computation", CUR_LOSS_FLOOR)
    return tracker.his / np.maximum(tracker.cur, CUR_LOSS_FLOOR)


def consistency_score(tracker: LossTracker) -> float:
    """1 - KL(softmax(cur) || softmax(his)); equals 1 iff the two match.

    The softmax is taken over raw loss magnitudes. Probabilities are floored
    at 1e-12 inside the logs, so the score is finite and bounded above by 1.
    """
    if tracker.cur is None:
        raise UsageError("consistency_score requires an updated tracker")
    if tracker.n_tasks < 2:
        raise ConfigError("tracker", f"consistency score needs >= 2 tasks, got {tracker.n_tasks}")
    p_cur = stable_softmax(tracker.cur)
    p_his = stable_softmax(tracker.his)
    kl = float(
        np.sum(p_cur * (np.log(np.maximum(p_cur, KL_FLOOR)) - np.log(np.maximum(p_his, KL_FLOOR))))
    )
    return 1.0 - kl


def backbone_multiplier(consistency: float, cfg: DsoConfig) -> float:
    """gamma = 2 * sigmoid((C - b) * tau): strictly increasing, inside (0, 2)."""
    return 2.0 * sigmoid((consistency - cfg.bias_b) * cfg.tau)


def step(tracker: LossTracker, observed_losses, cfg: DsoConfig, governed=True) -> LrMultipliers:
    """One governor update: EMA, ratios, head multipliers, consistency, backbone.

    Invalid losses (non-finite or <= 0) skip the whole update and return the
    previous multipliers unchanged, signalling upstream divergence without
    corrupting the tracker. Ungoverned, the step only advances the EMA and
    returns the identity record, which such a tracker never replaces.
    """
    observed = np.asarray(observed_losses, dtype=np.float64).reshape(-1)
    if observed.shape[0] != tracker.n_tasks:
        raise DomainError(f"expected {tracker.n_tasks} task losses, got {observed.shape[0]}")
    if not losses_valid(observed):
        log.warning("skipping governor update: invalid losses %s", observed)
        return tracker.last_multipliers
    update_ema(tracker, observed, cfg)
    if not governed:
        return tracker.last_multipliers
    ratios = convergence_ratios(tracker)
    lambdas = head_multipliers(ratios, cfg)
    consistency = consistency_score(tracker)
    gamma = backbone_multiplier(consistency, cfg)
    tracker.last_multipliers = LrMultipliers(lambdas, gamma, consistency, ratios)
    return tracker.last_multipliers


def apply_multipliers(base_lr: float, multipliers: LrMultipliers) -> list[float]:
    """Effective learning rates in ``Model.param_groups`` order: the backbone
    (shared trunk, including MoE gates and experts), then each task head."""
    if base_lr <= 0.0:
        raise ConfigError("base_lr", f"must be > 0, got {base_lr}")
    return [base_lr * multipliers.backbone_gamma,
            *(base_lr * float(lam) for lam in multipliers.head_lambdas)]

"""Grid-level sparse mixture-of-experts layer.

Routing runs independently per grid position: the input vector is projected
into gating space, compared against every expert embedding by temperature-
scaled cosine similarity, softmaxed into a full probability vector, and
sparsified by keeping the top-k probabilities as-is while zeroing the rest
(no renormalization). The layer output is the probability-weighted sum of the
selected 1x1-projection experts only. One ``ExpertMixture`` is a whole layer:
its gate, its stacked experts and its ``MoEConfig``.

With all experts initialized as copies of one pretrained projection and all
embeddings identical, the layer reproduces the pretrained output scaled by
k/N; that scaling is a documented consequence of not renormalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .csvio import write_csv
from .errors import ConfigError, ShapeError, UsageError
from .numerics import NORM_EPS, stable_softmax

GATE_INIT_STD = 0.02


@dataclass(frozen=True)
class MoEConfig:
    """The ``moe`` section: expert count, sparsity, gating space; channels are the weight's."""

    n_experts: int
    top_k: int
    gate_temperature: float = 0.07
    gate_dim: int | None = None

    def __post_init__(self):
        if self.n_experts < 1:
            raise ConfigError("moe.n_experts", f"must be >= 1, got {self.n_experts}")
        if not (1 <= self.top_k <= self.n_experts):
            raise ConfigError(
                "moe.top_k", f"must be in [1, n_experts={self.n_experts}], got {self.top_k}"
            )
        if self.gate_temperature <= 0.0:
            raise ConfigError(
                "moe.gate_temperature", f"must be > 0, got {self.gate_temperature}"
            )
        if self.gate_dim is not None and self.gate_dim < 1:
            raise ConfigError("moe.gate_dim", f"must be positive, got {self.gate_dim}")


@dataclass(frozen=True)
class ExpertMixture:
    """One MoE layer: the gate's transform W (gate_dim x C_in) and embeddings E
    (gate_dim x N), N per-grid linear experts stacked on axis 0 (expert n is
    ``weight.data[n]`` (C_out, C_in) and ``bias.data[n]`` (C_out,)), and its config."""

    W: Tensor
    E: Tensor
    weight: Tensor
    bias: Tensor
    cfg: MoEConfig

    def __post_init__(self):
        W, E, weight, bias = self.W, self.E, self.weight, self.bias
        if W.data.ndim != 2 or E.data.ndim != 2 or W.shape[0] != E.shape[0]:
            raise ShapeError(f"gate parameter shapes are inconsistent: W {W.shape}, E {E.shape}")
        if np.any(np.linalg.norm(E.data, axis=0) <= NORM_EPS):
            raise ShapeError("every expert embedding column must have norm > 1e-12")
        if weight.data.ndim != 3 or weight.shape[0] < 1 or bias.shape != weight.shape[:2]:
            raise ShapeError(f"expert bank needs an (N >= 1, C_out, C_in) weight and an "
                             f"(N, C_out) bias, got {weight.shape} and {bias.shape}")
        if weight.shape[0] != self.cfg.n_experts or E.shape[1] != self.cfg.n_experts:
            raise ShapeError("expert mixture: expert count disagrees with the configuration")


@dataclass(frozen=True)
class RoutingDecision:
    """Routing outcome per grid position, the one record of a routing.

    ``selected_indices`` holds k distinct expert ids ordered by descending
    probability with ties broken toward the lowest index; ``gate_weights``
    are the matching full-softmax entries (everything else is implicitly
    zero); ``full_softmax``, read-only, holds the dense probabilities for
    statistics and the ``moe_layer`` vjp. Leading axes: samples, then grid.
    """

    selected_indices: np.ndarray
    gate_weights: np.ndarray
    full_softmax: np.ndarray

    @property
    def expert_applications(self) -> int:
        """Expert evaluations the decision asks for: one per selected id."""
        return self.selected_indices.size

    @property
    def top_k(self) -> int:
        return self.selected_indices.shape[-1]

    @property
    def n_experts(self) -> int:
        return self.full_softmax.shape[-1]


def topk_select(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, stable ties.

    Stable descending sort means equal probabilities resolve to the lowest
    expert index, which pins down routing for oracle comparisons.
    """
    order = (-probs).argsort(axis=-1, kind="stable")
    return order[..., :k]


def _route(x: np.ndarray, W: Tensor, E: Tensor, cfg: MoEConfig) -> tuple[RoutingDecision, tuple]:
    """The gate's decision at every position of x, and the (u, logits, cosine) its vjp reuses:
    ``moe_forward``'s vjp reads only the decision's softmax, made read-only here, and ``_mix``
    copies the ids and the gate weights into its dispatch."""
    if x.shape[-1] != W.shape[1]:
        raise ShapeError(f"routing: expected {W.shape[1]} channels, got {x.shape[-1]}")
    u = ad._linear(x, W.data)
    logits, cosine = ad._cosine_logits(u, E.data, cfg.gate_temperature)
    probs = stable_softmax(logits)
    probs.flags.writeable = False
    selected = topk_select(probs, cfg.top_k)
    return RoutingDecision(selected, ad._gather(probs, selected), probs), (u, logits, cosine)


def moe_forward(x: Tensor, mixture: ExpertMixture) -> tuple[Tensor, RoutingDecision]:
    """Apply the sparse expert mixture to a batch of grid feature maps.

    ``x`` has shape (B, grid..., in_channels): axis 0 indexes samples, then
    one or more grid axes; fewer axes are refused before routing. Exactly k
    experts are evaluated per position; gradients flow to the input, the gate
    parameters, and the selected experts' bank rows. The layer is one graph
    node, ``moe_layer``: the batch is routed and mixed at once, and the
    decision it returns, the one its vjp reads, keeps the sample axis. The vjp
    replays, in reverse and with the same expressions, the vjps of the five
    ops the node stands for (``mix_experts``, ``gather_last``, ``softmax``,
    ``gate_logits``, the gate's ``grid_linear``), so each gradient has the bits
    of that graph per sample replayed in sample order: dx is the mixture's
    term plus the gate's, and a gradient is None where that graph has none.
    """
    x = ad._lift(x)
    samples = ad._sample_count(x.data, "moe_forward")
    W, E, weight, bias = mixture.W, mixture.E, mixture.weight, mixture.bias
    decision, (u, logits, cosine) = _route(x.data, W, E, mixture.cfg)
    out, dispatch = ad._mix(x.data, weight.data, bias.data, decision.selected_indices,
                            decision.gate_weights, samples)
    need_gate = x.requires_grad or W.requires_grad or E.requires_grad
    probs = decision.full_softmax

    def vjp(g):
        dx, table, *d_bank = ad._mix_vjp(g, dispatch, weight, bias, x.requires_grad, need_gate)
        dw = de = None
        if table is not None:
            # The table is the gradient gather_last's vjp scatters into zeros.
            dlogits = ad._softmax_vjp(table.reshape(probs.shape), probs)
            du, de = ad._cosine_logits_vjp(dlogits, u, logits, cosine,
                                           x.requires_grad or W.requires_grad,
                                           E.requires_grad, samples)
            if du is not None:
                dx_gate, dw, _ = ad._linear_vjp(du, x.data, W.data, x.requires_grad,
                                                W.requires_grad, False, samples)
                if dx_gate is not None:
                    dx = dx + dx_gate
        return (dx, dw, de, *d_bank)

    return ad._node("moe_layer", out, (x, W, E, weight, bias), vjp), decision


def init_from_pretrained(
    pretrained_weight: np.ndarray,
    pretrained_bias: np.ndarray,
    cfg: MoEConfig,
    seed: int = 0,
) -> ExpertMixture:
    """Duplicate one pretrained projection into every expert of ``cfg`` and seed the gate.

    Every expert starts bit-identical to the pretrained pair so the mixture
    output is routing-independent at step zero. W and then E are drawn from a
    seeded zero-mean normal (std 0.02): ties are broken, yet routing stays
    near uniform in expectation.
    """
    weight = np.asarray(pretrained_weight, dtype=np.float64)
    bias = np.asarray(pretrained_bias, dtype=np.float64)
    if weight.ndim != 2 or weight.shape[1] < 1 or bias.shape != weight.shape[:1]:
        raise ShapeError(f"init_from_pretrained: needs a (C_out, C_in >= 1) weight and a "
                         f"(C_out,) bias, got {weight.shape} and {bias.shape}")
    rng = np.random.default_rng(seed)

    gate_dim = weight.shape[1] if cfg.gate_dim is None else cfg.gate_dim
    W = _orthogonal_frame(rng, gate_dim, weight.shape[1])
    E = _orthogonal_frame(rng, gate_dim, cfg.n_experts)
    return ExpertMixture(
        Tensor(W, requires_grad=True), Tensor(E, requires_grad=True),
        Tensor(np.repeat(weight[None], cfg.n_experts, axis=0), requires_grad=True),
        Tensor(np.repeat(bias[None], cfg.n_experts, axis=0), requires_grad=True), cfg)


def _orthogonal_frame(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Seeded zero-mean columns with marginal std ``GATE_INIT_STD``, orthonormal in blocks.

    Orthogonal embedding columns under an isotropy-preserving transform make
    every expert's top-1 region equally likely at initialization (an iid
    gaussian draw skews top-1 frequencies well past the documented +-0.1
    band). Entries of a scaled random orthogonal frame keep zero mean and
    that marginal std.
    """
    cols: list[np.ndarray] = []
    while len(cols) < count:
        g = rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # Haar-distributed frame
        take = min(dim, count - len(cols))
        cols.extend(q[:, i] for i in range(take))
    return np.column_stack(cols) * (GATE_INIT_STD * np.sqrt(dim))


# ---------------------------------------------------------------------------
# participation statistics
# ---------------------------------------------------------------------------

STATS_CSV_COLUMNS = (
    "dataset",
    "layer",
    "expert",
    "participation_mass",
    "top1_count",
    "grid_positions",
)


@dataclass
class _StatsCell:
    participation: np.ndarray
    top1: np.ndarray


@dataclass
class ExpertStats:
    """Per (dataset, layer, expert) routing mass and top-1 counts.

    A cell's expert count is its first decision's. Participation records
    the post-top-k gate weight mass; the full softmax is retained on each
    decision, so pre-top-k statistics can be derived if ever needed.
    """

    cells: dict[tuple[str, str], _StatsCell] = field(default_factory=dict)

    def accumulate(self, decision: RoutingDecision, dataset: str, layer: str) -> None:
        n = decision.n_experts
        cell = self.cells.get((dataset, layer))
        if cell is None:
            cell = _StatsCell(np.zeros(n), np.zeros(n, dtype=np.int64))
            self.cells[(dataset, layer)] = cell
        elif cell.top1.size != n:
            raise UsageError(f"decision for layer {layer!r} has {n} experts, "
                             f"expected {cell.top1.size}")
        sel = decision.selected_indices.reshape(-1, decision.top_k)
        np.add.at(cell.participation, sel.reshape(-1), decision.gate_weights.reshape(-1))
        # Ids come in descending probability, ties to the lowest id, so the
        # first is the argmax of the full softmax.
        cell.top1 += np.bincount(sel[:, 0], minlength=n)

    def participation_entropy(self, dataset: str) -> float:
        """Mean (over this dataset's layers) entropy of normalized participation."""
        entropies = []
        for (ds, _layer), cell in sorted(self.cells.items()):
            if ds != dataset:
                continue
            mass = cell.participation
            total = mass.sum()
            if total <= 0.0:
                continue
            p = mass / total
            nonzero = p[p > 0.0]
            entropies.append(float(-(nonzero * np.log(nonzero)).sum()))
        if not entropies:
            raise UsageError(f"no accumulated statistics for dataset {dataset!r}")
        return float(np.mean(entropies))

    def rows(self) -> list[dict]:
        """One row per (dataset, layer, expert), keyed by ``STATS_CSV_COLUMNS`` in order."""
        return [dict(zip(STATS_CSV_COLUMNS, (dataset, layer, expert, float(mass), int(top1),
                                             int(cell.top1.sum())), strict=True))
                for (dataset, layer), cell in sorted(self.cells.items())
                for expert, (mass, top1) in enumerate(zip(cell.participation, cell.top1))]

    def to_csv(self, path) -> None:
        write_csv(path, STATS_CSV_COLUMNS, self.rows(), schema="expert_stats")


def export_top1_map(decision: RoutingDecision) -> np.ndarray:
    """Grid of winning expert indices (argmax of the full softmax, ties low)."""
    return np.argmax(decision.full_softmax, axis=-1)


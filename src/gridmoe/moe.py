"""Grid-level sparse mixture-of-experts layer.

Routing runs independently per grid position: the input vector is projected
into gating space, compared against every expert embedding by temperature-
scaled cosine similarity, softmaxed into a full probability vector, and
sparsified by keeping the top-k probabilities as-is while zeroing the rest
(no renormalization). The layer output is the probability-weighted sum of the
selected 1x1-projection experts only.

With all experts initialized as copies of one pretrained projection and all
embeddings identical, the layer reproduces the pretrained output scaled by
k/N; that scaling is a documented consequence of not renormalizing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, UsageError
from .numerics import NORM_EPS, stable_softmax

GATE_INIT_STD = 0.02


@dataclass(frozen=True)
class MoEConfig:
    """Static layer shape: expert count, sparsity, gating space, channels."""

    n_experts: int
    top_k: int
    in_channels: int
    out_channels: int
    gate_temperature: float = 0.07
    gate_dim: int | None = None

    def __post_init__(self):
        if self.n_experts < 1:
            raise ConfigError("moe.n_experts", f"must be >= 1, got {self.n_experts}")
        if not (1 <= self.top_k <= self.n_experts):
            raise ConfigError(
                "moe.top_k", f"must be in [1, n_experts={self.n_experts}], got {self.top_k}"
            )
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("moe.channels", "channel counts must be positive")
        if self.gate_temperature <= 0.0:
            raise ConfigError(
                "moe.gate_temperature", f"must be > 0, got {self.gate_temperature}"
            )
        if self.gate_dim is not None and self.gate_dim < 1:
            raise ConfigError("moe.gate_dim", f"must be positive, got {self.gate_dim}")

    @property
    def effective_gate_dim(self) -> int:
        return self.in_channels if self.gate_dim is None else self.gate_dim


class GateParams:
    """Gating transform W (gate_dim x in_channels) and embeddings E (gate_dim x N)."""

    def __init__(self, W: Tensor, E: Tensor):
        if W.data.ndim != 2 or E.data.ndim != 2 or W.shape[0] != E.shape[0]:
            raise ShapeError(f"gate parameter shapes are inconsistent: W {W.shape}, E {E.shape}")
        norms = np.linalg.norm(E.data, axis=0)
        if np.any(norms <= NORM_EPS):
            raise ShapeError("every expert embedding column must have norm > 1e-12")
        self.W = W
        self.E = E


class ExpertBank:
    """N per-grid linear experts stacked on axis 0: expert n is ``weight.data[n]``
    (C_out, C_in) and ``bias.data[n]`` (C_out,)."""

    def __init__(self, weight: Tensor, bias: Tensor):
        if weight.data.ndim != 3 or weight.shape[0] < 1 or bias.shape != weight.shape[:2]:
            raise ShapeError(f"expert bank needs an (N >= 1, C_out, C_in) weight and an "
                             f"(N, C_out) bias, got {weight.shape} and {bias.shape}")
        self.weight = weight
        self.bias = bias

    @property
    def n_experts(self) -> int:
        return self.weight.shape[0]


@dataclass
class RoutingDecision:
    """Routing outcome per grid position.

    ``selected_indices`` holds k distinct expert ids ordered by descending
    probability with ties broken toward the lowest index; ``gate_weights``
    are the matching full-softmax entries (everything else is implicitly
    zero); ``full_softmax`` keeps the dense probabilities for statistics.
    Leading axes are the grid axes (a single position has none), after the
    sample axis when the layer ran batched.
    """

    selected_indices: np.ndarray
    gate_weights: np.ndarray
    full_softmax: np.ndarray
    expert_applications: int = 0

    @property
    def top_k(self) -> int:
        return self.selected_indices.shape[-1]

    @property
    def n_experts(self) -> int:
        return self.full_softmax.shape[-1]

    def sample(self, index: int) -> "RoutingDecision":
        """One sample's decision out of a batched one (axis 0 indexes samples)."""
        selected = self.selected_indices[index]
        return RoutingDecision(selected, self.gate_weights[index], self.full_softmax[index],
                               selected.size)


def topk_select(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, stable ties.

    Stable descending sort means equal probabilities resolve to the lowest
    expert index, which pins down routing for oracle comparisons.
    """
    order = (-probs).argsort(axis=-1, kind="stable")
    return order[..., :k]


def _route(x: np.ndarray, params: GateParams, cfg: MoEConfig) -> ad.Routing:
    """Gate projection, cosine logits, full softmax, top-k expert ids and their
    gate weights at every position of x."""
    if x.shape[-1] != cfg.in_channels:
        raise ShapeError(f"routing: expected {cfg.in_channels} channels, got {x.shape[-1]}")
    u = ad._linear(x, params.W.data)
    logits, cosine = ad._cosine_logits(u, params.E.data, cfg.gate_temperature)
    probs = stable_softmax(logits)
    selected = topk_select(probs, cfg.top_k)
    return ad.Routing(u, logits, cosine, probs, selected, ad._gather(probs, selected))


def gate(x_grid, params: GateParams, cfg: MoEConfig) -> RoutingDecision:
    """Route a single grid position.

    A degenerate projection (|W x| < 1e-12, e.g. a zero input) falls back to
    the uniform distribution, so the first k experts are selected with weight
    1/N each.
    """
    routing = _route(np.asarray(np.reshape(x_grid, -1), dtype=np.float64), params, cfg)
    return RoutingDecision(routing.selected, routing.weights, routing.probs, cfg.top_k)


def moe_forward(
    x: Tensor, bank: ExpertBank, params: GateParams, cfg: MoEConfig, batched: bool = False
) -> tuple[Tensor, RoutingDecision]:
    """Apply the sparse expert mixture to a full grid feature map.

    ``x`` has shape (..., in_channels) with the leading axes treated as grid
    axes. Exactly k experts are evaluated per position; gradients flow to the
    input, the gate parameters, and the selected experts' bank rows. The layer is
    one graph node, ``moe_layer``. With ``batched``, axis 0 of x indexes
    samples: the batch is routed and mixed at once, its gradients have the
    bits of one layer per sample replayed in sample order, and the decision
    keeps the sample axis (see ``RoutingDecision.sample``).
    """
    x = ad._lift(x)
    routing = _route(x.data, params, cfg)
    if bank.n_experts != cfg.n_experts or params.E.shape[1] != cfg.n_experts:
        raise ShapeError("moe_forward: expert count disagrees with the configuration")
    out, applications = ad.moe_layer(x, params.W, params.E, bank.weight, bank.bias, routing,
                                     batched)
    # A copy: the layer's vjp reads routing.probs.
    decision = RoutingDecision(routing.selected, routing.weights, routing.probs.copy(),
                               applications)
    return out, decision


def init_from_pretrained(
    pretrained_weight: np.ndarray,
    pretrained_bias: np.ndarray,
    cfg: MoEConfig,
    seed: int = 0,
    identical_embeddings: bool = False,
) -> tuple[ExpertBank, GateParams]:
    """Duplicate one pretrained projection into every expert and seed the gate.

    Every expert starts bit-identical to the pretrained pair so the mixture
    output is routing-independent at step zero. W and E are drawn from a
    seeded zero-mean normal (std 0.02): ties are broken, yet routing stays
    near uniform in expectation. ``identical_embeddings`` is a test mode that
    repeats one embedding column so the gate is exactly uniform.
    """
    weight = np.asarray(pretrained_weight, dtype=np.float64)
    bias = np.asarray(pretrained_bias, dtype=np.float64)
    if weight.shape != (cfg.out_channels, cfg.in_channels) or bias.shape != (cfg.out_channels,):
        raise ShapeError(
            f"init_from_pretrained: weight {weight.shape} / bias {bias.shape} do not match "
            f"({cfg.out_channels}, {cfg.in_channels})"
        )
    rng = np.random.default_rng(seed)

    gate_dim = cfg.effective_gate_dim
    W = _orthogonal_frame(rng, gate_dim, cfg.in_channels, GATE_INIT_STD)
    if identical_embeddings:
        column = _orthogonal_frame(rng, gate_dim, 1, GATE_INIT_STD)[:, 0]
        E = np.repeat(column[:, None], cfg.n_experts, axis=1)
    else:
        E = _orthogonal_frame(rng, gate_dim, cfg.n_experts, GATE_INIT_STD)
    bank = ExpertBank(Tensor(np.repeat(weight[None], cfg.n_experts, axis=0), requires_grad=True),
                      Tensor(np.repeat(bias[None], cfg.n_experts, axis=0), requires_grad=True))
    gate_params = GateParams(
        Tensor(W, requires_grad=True), Tensor(E, requires_grad=True)
    )
    return bank, gate_params


def _orthogonal_frame(rng: np.random.Generator, dim: int, count: int, std: float) -> np.ndarray:
    """Seeded zero-mean columns with marginal std ``std``, orthonormal in blocks.

    Orthogonal embedding columns under an isotropy-preserving transform make
    every expert's top-1 region equally likely at initialization (an iid
    gaussian draw skews top-1 frequencies well past the documented +-0.1
    band). Entries of a scaled random orthogonal frame keep zero mean and the
    requested marginal std.
    """
    cols: list[np.ndarray] = []
    while len(cols) < count:
        g = rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # Haar-distributed frame
        take = min(dim, count - len(cols))
        cols.extend(q[:, i] for i in range(take))
    return np.column_stack(cols) * (std * np.sqrt(dim))


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
    positions: int = 0


@dataclass
class ExpertStats:
    """Per (dataset, layer, expert) routing mass and top-1 counts.

    ``layers`` maps each layer id to its expert count. Participation records
    the post-top-k gate weight mass; the full softmax is retained on each
    decision, so pre-top-k statistics can be derived if ever needed.
    """

    layers: dict[str, int] = field(default_factory=dict)
    cells: dict[tuple[str, str], _StatsCell] = field(default_factory=dict)

    def accumulate(self, decision: RoutingDecision, dataset: str, layer: str) -> None:
        n = self.layers.get(layer)
        if n is None:
            raise UsageError(f"unknown layer id {layer!r}")
        if decision.n_experts != n:
            raise UsageError(
                f"decision for layer {layer!r} has {decision.n_experts} experts, expected {n}"
            )
        cell = self.cells.get((dataset, layer))
        if cell is None:
            cell = _StatsCell(np.zeros(n), np.zeros(n, dtype=np.int64))
            self.cells[(dataset, layer)] = cell
        sel = decision.selected_indices.reshape(-1, decision.top_k)
        np.add.at(cell.participation, sel.reshape(-1), decision.gate_weights.reshape(-1))
        # Ids come in descending probability, ties to the lowest id, so the
        # first is the argmax of the full softmax.
        cell.top1 += np.bincount(sel[:, 0], minlength=n)
        cell.positions += sel.shape[0]

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
        out = []
        for (dataset, layer), cell in sorted(self.cells.items()):
            for expert in range(self.layers[layer]):
                out.append(
                    {
                        "dataset": dataset,
                        "layer": layer,
                        "expert": expert,
                        "participation_mass": float(cell.participation[expert]),
                        "top1_count": int(cell.top1[expert]),
                        "grid_positions": cell.positions,
                    }
                )
        return out

    def to_csv(self, path) -> None:
        from .csvio import write_csv

        write_csv(path, STATS_CSV_COLUMNS, self.rows(), schema="expert_stats")


def export_top1_map(decision: RoutingDecision) -> np.ndarray:
    """Grid of winning expert indices (argmax of the full softmax, ties low)."""
    return np.argmax(decision.full_softmax, axis=-1)


def write_top1_map_csv(path, top1_map: np.ndarray) -> None:
    grid = np.atleast_2d(np.asarray(top1_map))
    with open(path, "w", newline="") as fh:
        fh.write("# schema=top1_map.v1\n")
        writer = csv.writer(fh)
        for row in grid:
            writer.writerow([int(v) for v in row])

"""Shared trunk of per-grid linear blocks with optional MoE, plus task heads.

Every trunk block owns a base 1x1 projection (its "pretrained" weights).
Blocks named in the placement mask wrap that projection in a sparse expert
mixture initialized by duplication; with the mixture disabled the base
projection is used directly, which is the plain-joint-training baseline.
Heads are zero-initialized single projections, one per task.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as gdata
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .moe import ExpertBank, GateParams, MoEConfig, RoutingDecision, init_from_pretrained, moe_forward


@dataclass(frozen=True)
class ModelSpec:
    """Trunk geometry and expert placement."""

    depth: int = 4
    channels: int = 8
    moe_layers: tuple[int, ...] = (0, 2)
    n_experts: int = 4
    top_k: int = 2
    gate_temperature: float = 0.07
    gate_dim: int | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("model.depth", f"must be >= 1, got {self.depth}")
        if self.channels < 1:
            raise ConfigError("model.channels", f"must be >= 1, got {self.channels}")
        bad = [i for i in self.moe_layers if not (0 <= i < self.depth)]
        if bad:
            raise ConfigError(
                "model.moe_layers", f"indices {bad} outside trunk depth {self.depth}"
            )
        if len(set(self.moe_layers)) != len(self.moe_layers):
            raise ConfigError("model.moe_layers", "duplicate placement indices")

    def moe_config(self) -> MoEConfig:
        return MoEConfig(self.n_experts, self.top_k, self.gate_temperature, self.gate_dim)


class TrunkBlock:
    def __init__(self, index: int, weight: Tensor, bias: Tensor):
        self.index = index
        self.weight = weight
        self.bias = bias
        self.bank: ExpertBank | None = None
        self.gate: GateParams | None = None
        self.cfg: MoEConfig | None = None

    @property
    def has_moe(self) -> bool:
        return self.bank is not None

    def attach_moe(self, cfg: MoEConfig, seed: int) -> None:
        self.bank, self.gate = init_from_pretrained(self.weight.data, self.bias.data, cfg, seed=seed)
        self.cfg = cfg

    def forward(self, h: Tensor) -> tuple[Tensor, RoutingDecision | None]:
        """The block over a batch whose axis 0 indexes samples."""
        if self.has_moe:
            return moe_forward(h, self.bank, self.gate, self.cfg)
        return ad.grid_linear(h, self.weight, self.bias), None

    def parameters(self) -> list[Tensor]:
        if self.has_moe:
            return [self.gate.W, self.gate.E, self.bank.weight, self.bank.bias]
        return [self.weight, self.bias]

    def named_parameters(self) -> list[tuple[str, Tensor, tuple]]:
        prefix = f"trunk.{self.index}"
        named = [(f"{prefix}.base.weight", self.weight, ()), (f"{prefix}.base.bias", self.bias, ())]
        if self.has_moe:
            named += [(f"{prefix}.gate.W", self.gate.W, ()), (f"{prefix}.gate.E", self.gate.E, ())]
            for n in range(self.bank.n_experts):
                named += [(f"{prefix}.expert.{n}.weight", self.bank.weight, (n,)),
                          (f"{prefix}.expert.{n}.bias", self.bank.bias, (n,))]
        return named


class Model:
    """Trunk + heads; parameters grouped as one backbone and one group per task."""

    def __init__(self, spec: ModelSpec, tasks: dict[str, gdata.TaskSpec], seed: int = 0,
                 moe_enabled: bool = True):
        self.spec = spec
        self.tasks = dict(sorted(tasks.items()))
        self.task_order = list(self.tasks)
        rng = np.random.default_rng(seed)

        c = spec.channels
        self.blocks: list[TrunkBlock] = []
        for i in range(spec.depth):
            weight = rng.normal(0.0, np.sqrt(2.0 / c), size=(c, c))
            block = TrunkBlock(
                i,
                Tensor(weight, requires_grad=True),
                Tensor(np.zeros(c), requires_grad=True),
            )
            if moe_enabled and i in spec.moe_layers:
                block.attach_moe(spec.moe_config(), seed=seed * 997 + i)
            self.blocks.append(block)

        self.heads: dict[str, tuple[Tensor, Tensor]] = {}
        for task_id, task in self.tasks.items():
            w = Tensor(np.zeros((task.head_width, c)), requires_grad=True)
            b = Tensor(np.zeros(task.head_width), requires_grad=True)
            self.heads[task_id] = (w, b)

    @property
    def moe_layer_names(self) -> list[str]:
        return [f"trunk.{b.index}" for b in self.blocks if b.has_moe]

    def features(self, images: np.ndarray) -> tuple[Tensor, list[tuple[str, RoutingDecision]]]:
        """Trunk features of a (B, H, W, C) batch; decisions keep the sample axis."""
        if images.ndim != 4 or images.shape[-1] != self.spec.channels:
            raise ShapeError(f"expected (H, W, {self.spec.channels}) input per sample, "
                             f"got a batch of shape {images.shape}")
        h = Tensor(images)
        routings: list[tuple[str, RoutingDecision]] = []
        for block in self.blocks:
            h, decision = block.forward(h)
            if decision is not None:
                routings.append((f"trunk.{block.index}", decision))
            h = ad.relu(h)
        return h, routings

    def head_output(self, features: Tensor, task_id: str) -> Tensor:
        """The task head's per-grid prediction from features, samples on axis 0."""
        w, b = self.heads[task_id]
        return ad.grid_linear(features, w, b)

    def forward_batch(self, samples):
        """The summed task losses of a tagged batch, run as one (B, H, W, C) batch.

        ``samples`` is an iterable of (task_id, sample_index, image, target).
        The batch is stacked in (task order, sample index) order, so each
        task's samples are adjacent and its losses are added in sample-index
        order: the result is exactly independent of batch order. Returns the
        ``heads_loss`` node (the task means added in task order), each task's
        mean as a float, and the routing decisions, one per (sample, MoE
        layer) in stacked order, the order ``BatchSampler`` yields.
        """
        samples = list(samples)
        task_index = {task_id: i for i, task_id in enumerate(self.task_order)}
        for task_id, *_ in samples:
            if task_id not in task_index:
                raise ShapeError(f"sample tagged with unknown task {task_id!r}")
        stacked = sorted(range(len(samples)),
                         key=lambda i: (task_index[samples[i][0]], samples[i][1]))
        features, routings = self.features(np.stack([samples[i][2] for i in stacked]))

        task_ids, heads = [], []
        for task_id, group in itertools.groupby(stacked, key=lambda i: samples[i][0]):
            loss = ("cross_entropy_mean" if self.tasks[task_id].kind == gdata.CLASSIFICATION
                    else "smooth_l1_mean")
            task_ids.append(task_id)
            heads.append((*self.heads[task_id], np.stack([samples[i][3] for i in group]), loss))
        total, means = ad.heads_loss(features, heads)

        all_routings = [(samples[i][0], layer, decision.sample(p))
                        for p, i in enumerate(stacked) for layer, decision in routings]
        return total, dict(zip(task_ids, means)), all_routings

    # -- parameter bookkeeping -------------------------------------------

    def param_groups(self) -> list[list[Tensor]]:
        """The backbone (trunk, gates, experts), then each task head in task order."""
        backbone = [p for block in self.blocks for p in block.parameters()]
        return [backbone, *(list(self.heads[task_id]) for task_id in self.task_order)]

    def named_parameters(self) -> list[tuple[str, Tensor, tuple]]:
        """(checkpoint entry, tensor, index) triples; the entry is ``tensor.data[index]``,
        so each expert of a stacked bank is an entry of its own."""
        named: list[tuple[str, Tensor, tuple]] = []
        for block in self.blocks:
            named.extend(block.named_parameters())
        for task_id in self.task_order:
            w, b = self.heads[task_id]
            named.append((f"head.{task_id}.weight", w, ()))
            named.append((f"head.{task_id}.bias", b, ()))
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: tensor.data[index].copy() for name, tensor, index in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        named = {name: (tensor, index) for name, tensor, index in self.named_parameters()}
        missing = sorted(set(named) - set(state))
        extra = sorted(set(state) - set(named))
        if missing or extra:
            raise ShapeError(
                f"checkpoint does not match the model: missing={missing}, unexpected={extra}"
            )
        # Fresh arrays, filled entry by entry: a live record may hold the old ones.
        fresh: dict[int, tuple[Tensor, np.ndarray]] = {}
        for name, (tensor, index) in named.items():
            arr = np.asarray(state[name], dtype=np.float64)
            expected = tensor.shape[len(index):]
            if arr.shape != expected:
                raise ShapeError(
                    f"checkpoint entry {name!r} has shape {arr.shape}, expected {expected}"
                )
            fresh.setdefault(id(tensor), (tensor, np.empty(tensor.shape)))[1][index] = arr
        for tensor, data in fresh.values():
            tensor.data = data
            tensor.grad = None

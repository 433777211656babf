"""Reference code that only the tests run.

- Pointwise primitives and a mean that the model never uses; the autodiff
  tests check the engine's backward and finite-difference machinery with
  them.
- ``per_sample_forward_batch``: the forward that ``Model.forward_batch``
  replaced, one graph per sample. The batched model must match it bit for
  bit.
- ``ShuffledSampler``: the ``BatchSampler`` that shuffled each batch with a
  generator seeded by ``run.seed``. With ``per_sample_forward_batch``, which
  returns routing decisions in batch order, it is the training pipeline from
  before batches came in ``forward_batch``'s order, bit for bit.
- ``head_loss``: one task head's node as it was before ``heads_loss`` took
  all heads, scoring each sample with its own loss call
  (``PER_SAMPLE_LOSSES``).
- ``replayed_adjoints``: what ``backward`` accumulates from a given root
  adjoint, which may be -0.0.
- ``mix``, ``mix_vjp`` and ``gather_vjp``: the expert mixture with 2-D
  fancy-index gathers, per-position sums added into zeros and the gate-weight
  gradient scattered twice, which the take-based dispatch replaced. They
  take per-expert lists, which ``split_bank`` makes of a stacked bank, and
  ``stack_expert_grads`` stacks their per-expert gradients as the bank's.
- ``linear_param_grads`` and ``cosine_embedding_grad``: the weight, bias and
  embedding gradients as one term per sample added by ``sample_sum``, the
  loop the stacked reductions in ``autodiff`` replaced.
- ``cross_entropy_recompute``: the cross-entropy whose vjp builds the
  softmax again.
- ``gate``: the router of one grid position, the single-position case of
  ``moe._route``, which the routing oracles and properties are checked on.
- ``sample_decision``: one sample's routing decision out of a layer's, the
  per-sample decisions that ``per_sample_forward_batch`` returns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from gridmoe import autodiff as ad
from gridmoe import data as gdata
from gridmoe import model as model_mod
from gridmoe import moe as moe_mod
from gridmoe.autodiff import Tensor
from gridmoe.errors import DomainError, ShapeError


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic that never exponentiates a positive argument."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = ad._lift(x)
    s = sigmoid_array(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return ad._node("sigmoid", s, (x,), vjp)


def log(x) -> Tensor:
    x = ad._lift(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")

    def vjp(g):
        return (g / x.data,)

    return ad._node("log", np.log(x.data), (x,), vjp)


def square(x) -> Tensor:
    x = ad._lift(x)

    def vjp(g):
        return (g * 2.0 * x.data,)

    return ad._node("square", x.data * x.data, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    x = ad._lift(x)
    n = x.data.size

    def vjp(g):
        return (np.full(x.shape, float(g) / n),)

    return ad._node("mean_all", np.array(np.mean(x.data)), (x,), vjp)


def gate(x_grid, W, E, cfg: moe_mod.MoEConfig) -> moe_mod.RoutingDecision:
    """Route a single grid position with the gate's transform W and embeddings E.

    A degenerate projection (|W x| < 1e-12, e.g. a zero input) falls back to
    the uniform distribution, so the first k experts are selected with weight
    1/N each.
    """
    return moe_mod._route(np.asarray(np.reshape(x_grid, -1), dtype=np.float64), W, E, cfg)[0]


def sample_decision(decision: moe_mod.RoutingDecision, index: int) -> moe_mod.RoutingDecision:
    """Sample ``index``'s decision out of a layer's (axis 0 indexes samples), that axis dropped."""
    return moe_mod.RoutingDecision(decision.selected_indices[index], decision.gate_weights[index],
                                   decision.full_softmax[index])


def per_sample_forward_batch(model, samples):
    """``Model.forward_batch`` as one graph per sample, each a (1, H, W, C) batch alone.

    Every trunk block runs on one sample: ``moe_forward`` (looked up in
    ``gridmoe.model`` at call time, so a patched one is used) or the base
    ``grid_linear``, then ``relu``; then the head ``grid_linear`` and the
    sample's loss. A task's losses are added in sample-index order and
    multiplied by 1/n, and the task means are added in task order. Returns
    the total, each task's mean as a float and the decisions, per (sample,
    MoE layer) in batch order.
    """
    per_task = {t: [] for t in model.tasks}
    all_routings = []
    for task_id, sample_index, image, target in samples:
        if task_id not in per_task:
            raise ShapeError(f"sample tagged with unknown task {task_id!r}")
        h = Tensor(image[None])
        for block in model.blocks:
            if block.mixture is not None:
                h, decision = model_mod.moe_forward(h, block.mixture)
                all_routings.append((task_id, f"trunk.{block.index}",
                                     sample_decision(decision, 0)))
            else:
                h = ad.grid_linear(h, block.weight, block.bias)
            h = ad.relu(h)
        out = model.head_output(h, task_id)
        if model.tasks[task_id].kind == gdata.CLASSIFICATION:
            loss = ad.cross_entropy_mean(out, target[None])
        else:
            loss = ad.smooth_l1_mean(out, target[None])
        per_task[task_id].append((sample_index, loss))

    means = {}
    for task_id, entries in per_task.items():
        if not entries:
            continue
        entries.sort(key=lambda pair: pair[0])
        total = entries[0][1]
        for _, loss in entries[1:]:
            total = ad.add(total, loss)
        means[task_id] = ad.mul(total, 1.0 / len(entries))
    losses = list(means.values())
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    return total, {task_id: float(mean.data) for task_id, mean in means.items()}, all_routings


class ShuffledSampler(gdata.BatchSampler):
    """``BatchSampler`` with each batch permuted by its own generator seeded with ``seed``."""

    def __init__(self, counts: tuple[tuple[str, int], ...], seed: int):
        super().__init__(counts)
        self._rng = np.random.default_rng(seed)

    def next_batch(self) -> list[tuple[str, int]]:
        pairs = super().next_batch()
        return [pairs[i] for i in self._rng.permutation(len(pairs))]


def sample_sum(terms):
    """Sum per-sample terms in order, the first taken as it is (not added to zeros).

    This is how ``backward`` adds the contributions of one op per sample.
    """
    return reduce(operator.add, terms)


def linear_param_grads(g, x, weight, samples):
    """``grid_linear``'s weight and bias gradients, one term per sample."""
    c_out, c_in = weight.shape
    gf = g.reshape(samples, -1, c_out)
    xf = x.reshape(samples, -1, c_in)
    dw = sample_sum(gf[s].T @ xf[s] for s in range(samples))
    db = sample_sum(gf[s].sum(axis=0) for s in range(samples))
    return dw, db


def cosine_embedding_grad(g, u, logits, saved, samples):
    """The cosine gate's embedding gradient, one term per sample.

    ``saved`` is what ``autodiff._cosine_logits`` returns beside the logits.
    """
    emb, temperature, norm_e, degenerate, inv_norm_u = saved
    g = np.where(degenerate[..., None], 0.0, g)
    g_scaled = g * (inv_norm_u[..., None] / (temperature * norm_e))
    d, n = emb.shape
    uf = u.reshape(samples, -1, d)
    gs = g_scaled.reshape(samples, -1, n)
    radial_terms = (g * logits).reshape(samples, -1, n)
    return sample_sum(uf[s].T @ gs[s] - emb * (radial_terms[s].sum(axis=0) / (norm_e**2))
                      for s in range(samples))


def cross_entropy_recompute(z: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its vjp, the vjp recomputing the softmax.

    Labels are picked and the one-hot built with ``take_along_axis`` and
    ``put_along_axis``.
    """
    shifted = z - z.max(axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    count = max(labels.size, 1)

    def vjp(g: float) -> np.ndarray:
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        p = e / np.sum(e, axis=-1, keepdims=True)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
        return (p - onehot) * (g / count)

    return float(np.sum(log_norm - picked)) / count, vjp


def smooth_l1_whole(pred: np.ndarray, target: np.ndarray):
    """Mean smooth-L1 loss of a whole array and its vjp at a scalar."""
    d = pred - np.asarray(target, dtype=np.float64)
    per_elem = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
    count = max(d.size, 1)

    def vjp(g: float) -> np.ndarray:
        return np.clip(d, -1.0, 1.0) * (g / count)

    return float(per_elem.sum()) / count, vjp


PER_SAMPLE_LOSSES = {"cross_entropy_mean": cross_entropy_recompute,
                     "smooth_l1_mean": smooth_l1_whole}


def head_loss(x: Tensor, weight: Tensor, bias: Tensor, lo: int, targets, loss: str) -> Tensor:
    """One graph node for a task head over samples lo, lo+1, ... of a batch.

    x is a batch whose axis 0 indexes samples; ``targets`` has one target per
    head sample. The node projects those samples as ``grid_linear``
    does, scores each with its own ``PER_SAMPLE_LOSSES[loss]`` call, adds the
    scores in order and multiplies by 1/n. The rows of x outside the head's
    samples get a -0.0 adjoint, the additive identity.
    """
    n = len(targets)
    rows = x.data[lo:lo + n]
    out = ad._linear(rows, weight.data, bias.data)
    scored = [PER_SAMPLE_LOSSES[loss](out[s], target) for s, target in enumerate(targets)]
    total = scored[0][0]
    for value, _ in scored[1:]:
        total = total + value

    def vjp(g):
        scale = float(g) * (1.0 / n)
        dout = np.stack([grad(scale) for _, grad in scored])
        drows, dw, db = ad._linear_vjp(dout, rows, weight.data, x.requires_grad,
                                       weight.requires_grad, bias.requires_grad, n)
        dx = None
        if drows is not None:
            dx = np.full(x.shape, -0.0)
            dx[lo:lo + n] = drows
        return dx, dw, db

    return ad._node("head_loss", np.array(total * (1.0 / n)), (x, weight, bias), vjp)


@dataclass
class Dispatch:
    """What ``mix_vjp`` replays."""

    x_shape: tuple
    sel_shape: tuple
    positions: int
    k: int
    order: np.ndarray
    rows: np.ndarray
    by_position: np.ndarray
    segments: list
    xs: np.ndarray
    ws: np.ndarray
    ys: np.ndarray

    def per_position(self, terms):
        total = np.zeros((self.positions, terms.shape[1]))
        for j in range(self.k):
            total += terms[self.by_position[:, j]]
        return total


def mix(x, weights, biases, sel, selected_weights, samples=1):
    """The sorted expert mixture with int64 sorts and 2-D fancy-index gathers."""
    c_in = x.shape[-1]
    c_out = weights[0].shape[0]
    lead = x.shape[:-1]
    positions = math.prod(lead)
    k = sel.shape[-1]
    n_experts = len(weights)
    xf = x.reshape(positions, c_in)
    flat_sel = sel.reshape(-1)
    keys = flat_sel + np.repeat(np.arange(0, n_experts * samples, n_experts),
                                flat_sel.size // samples)
    bounds = list(accumulate(np.bincount(keys, minlength=n_experts * samples).tolist(),
                             initial=0))
    segments = [(key % n_experts, bounds[key], bounds[key + 1])
                for key in range(n_experts * samples) if bounds[key] < bounds[key + 1]]
    order = np.argsort(keys, kind="stable")
    rows = order // k
    by_position = np.argsort(rows, kind="stable").reshape(positions, k)
    xs = xf[rows]
    ws = selected_weights.reshape(-1)[order][:, None]
    ys = np.empty((order.size, c_out))
    for n, lo, hi in segments:
        np.matmul(xs[lo:hi], weights[n].data.T, out=ys[lo:hi])
    ys += np.stack([b.data for b in biases])[flat_sel[order]]
    dispatch = Dispatch(x.shape, sel.shape, positions, k, order, rows, by_position, segments,
                        xs, ws, ys)
    return dispatch.per_position(ws * ys).reshape(*lead, c_out), dispatch


def mix_vjp(g, d, weights, biases, need_x, need_sel):
    """dx, d(selected weights) as a (..., k) array, and per-expert lists."""
    c_out = d.ys.shape[1]
    g_rows = g.reshape(d.positions, c_out)[d.rows]
    gs = g_rows * d.ws
    n_experts = len(weights)
    dws = [None] * n_experts
    dbs = [None] * n_experts
    dxs = np.empty((d.order.size, d.x_shape[-1])) if need_x else None
    for n, lo, hi in d.segments:
        if weights[n].requires_grad:
            term = gs[lo:hi].T @ d.xs[lo:hi]
            dws[n] = term if dws[n] is None else dws[n] + term
        if biases[n].requires_grad:
            term = gs[lo:hi].sum(axis=0)
            dbs[n] = term if dbs[n] is None else dbs[n] + term
        if dxs is not None:
            dxs[lo:hi] = gs[lo:hi] @ weights[n].data
    dx = d.per_position(dxs).reshape(d.x_shape) if dxs is not None else None
    dsel = None
    if need_sel:
        dsel = np.zeros(d.order.size)
        dsel[d.order] += (g_rows * d.ys).sum(axis=1)
        dsel = dsel.reshape(d.sel_shape)
    return dx, dsel, dws, dbs


def split_bank(weight: Tensor, bias: Tensor) -> tuple[list[Tensor], list[Tensor]]:
    """One weight and one bias Tensor per expert of a stacked bank, with its flags."""
    return ([Tensor(w, requires_grad=weight.requires_grad) for w in weight.data],
            [Tensor(b, requires_grad=bias.requires_grad) for b in bias.data])


def stack_expert_grads(terms, bank: Tensor):
    """Per-expert gradients as the bank's: None when the bank is frozen, else
    stacked with a zero row for each expert that got none."""
    if not bank.requires_grad:
        return None
    return np.stack([np.zeros(bank.shape[1:]) if t is None else t for t in terms])


def gather_vjp(g, idx, shape):
    """Scatter g back to ``shape`` at distinct ids idx by a fancy-index add into zeros."""
    dx = np.zeros(shape)
    flat = dx.reshape(-1, shape[-1])
    rows = np.repeat(np.arange(flat.shape[0]), idx.shape[-1])
    flat[rows, idx.reshape(-1)] += g.reshape(-1)
    return dx


def replayed_adjoints(out, g, tensors):
    """What ``backward`` accumulates for each of ``tensors`` from ``g`` at ``out``.

    The same replay as ``backward`` (reverse topological order, first
    contribution taken as is, later ones added), without the zero fill for
    tensors that got no contribution: those read None. As in ``backward``, an op
    output's adjoint is keyed by its record and a leaf's by the leaf.
    """
    adjoint = {id(out._op or out): g}
    for op in reversed(ad.ComputationRecord.trace(out).ops):
        out_grad = adjoint.get(id(op))
        if out_grad is None:
            continue
        for parent, contribution in zip(op.inputs, op.vjp(out_grad)):
            if contribution is None:
                continue
            key = id(parent._op or parent)
            adjoint[key] = contribution if key not in adjoint else adjoint[key] + contribution
    return [adjoint.get(id(t._op or t)) for t in tensors]

"""Reference code that only the tests run.

- Pointwise primitives and a mean that the model never uses; the autodiff
  tests check the engine's backward and finite-difference machinery with
  them.
- ``per_sample_forward_batch``: the forward that ``Model.forward_batch``
  replaced, one graph per sample. The batched model must match it bit for
  bit.
- ``linear_param_grads`` and ``cosine_embedding_grad``: the weight, bias and
  embedding gradients as one term per sample added by ``sample_sum``, the
  loop the stacked reductions in ``autodiff`` replaced.
- ``cross_entropy_recompute``: the cross-entropy whose vjp builds the
  softmax again.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from gridmoe import autodiff as ad
from gridmoe import data as gdata
from gridmoe import model as model_mod
from gridmoe.autodiff import Tensor
from gridmoe.errors import DomainError, ShapeError
from gridmoe.numerics import stable_softmax


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


def per_sample_forward_batch(model, samples):
    """``Model.forward_batch`` as one graph per sample, each (H, W, C) grid alone.

    Every trunk block runs on one sample: ``moe_forward`` (looked up in
    ``gridmoe.model`` at call time, so a patched one is used) or the base
    ``grid_linear``, then ``relu``; then the head ``grid_linear`` and the
    sample's loss. A task's losses are added in sample-index order and
    multiplied by 1/n. Decisions come back per (sample, MoE layer) in batch
    order.
    """
    per_task = {t: [] for t in model.task_order}
    all_routings = []
    for task_id, sample_index, image, target in samples:
        if task_id not in per_task:
            raise ShapeError(f"sample tagged with unknown task {task_id!r}")
        h = Tensor(image)
        for block in model.blocks:
            if block.has_moe:
                h, decision = model_mod.moe_forward(h, block.bank, block.gate, block.cfg)
                all_routings.append((task_id, f"trunk.{block.index}", decision))
            else:
                h = ad.grid_linear(h, block.weight, block.bias)
            h = ad.relu(h)
        out = model.head_output(h, task_id)
        if model.tasks[task_id].kind == gdata.CLASSIFICATION:
            loss = ad.cross_entropy_mean(out, target)
        else:
            loss = ad.smooth_l1_mean(out, target)
        per_task[task_id].append((sample_index, loss))

    losses = {}
    for task_id, entries in per_task.items():
        if not entries:
            continue
        entries.sort(key=lambda pair: pair[0])
        total = entries[0][1]
        for _, loss in entries[1:]:
            total = ad.add(total, loss)
        losses[task_id] = ad.mul(total, 1.0 / len(entries))
    return losses, all_routings


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
        p = stable_softmax(z, axis=-1)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
        return (p - onehot) * (g / count)

    return float(np.sum(log_norm - picked)) / count, vjp

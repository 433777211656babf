"""Dense-tensor engine with reverse-mode automatic differentiation.

The engine covers exactly what the grid mixture-of-experts layer, the task
heads, and the losses need: per-grid linear maps, last-axis softmax, relu,
add, mul, cosine gate logits, sparse expert mixing, and two mean-reduced
losses. Everything is 64-bit, dense, row-major, rank <= 4. All task heads
with their losses and the total record one node, ``heads_loss``, built from
the same array-level helpers as those ops; ``moe.moe_forward`` chains them
the same way into one ``moe_layer`` node per MoE layer. The trunk's ops take
a batch of samples on axis 0, with every gradient bit for bit as one op per
sample would give it.

Execution is eager. Each operation whose inputs carry gradients appends an
``OpRecord`` to the output tensor; ``backward`` linearizes the records
reachable from a scalar root into a ``ComputationRecord`` (topological order)
and replays them in reverse, accumulating adjoints exactly once per
contributing parent; only leaves keep a ``grad``. Broadcasting is restricted
to scalar-with-tensor.

Tensors are treated as immutable once created: training code swaps in a fresh
``data`` array between forward/backward cycles instead of mutating an array a
live record still references.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, UsageError
from .numerics import NORM_EPS, last_axis_max, stable_softmax

MAX_RANK = 4

Vjp = Callable[[np.ndarray], tuple]


class Tensor:
    """A dense float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} tensors are not supported (max {MAX_RANK})")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op: OpRecord | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"


class OpRecord:
    """One executed primitive: its inputs and the adjoint rule to replay.

    The output tensor owns its record (``Tensor._op``) and the record does not
    refer back to it, so a graph holds no reference cycle and is freed as soon
    as its root goes out of scope.
    """

    __slots__ = ("name", "inputs", "vjp")

    def __init__(self, name: str, inputs: tuple[Tensor, ...], vjp: Vjp):
        self.name = name
        self.inputs = inputs
        self.vjp = vjp


@dataclass
class ComputationRecord:
    """Topologically ordered operations reachable from one root tensor."""

    ops: list[OpRecord]

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        ops: list[OpRecord] = []
        done: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node._op is None or id(node) in done:
                continue
            if expanded:
                done.add(id(node))
                ops.append(node._op)
            else:
                stack.append((node, True))
                for parent in node._op.inputs:
                    if parent._op is not None and id(parent) not in done:
                        stack.append((parent, False))
        return cls(ops)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(name: str, data: np.ndarray, inputs: Sequence[Tensor], vjp: Vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        out._op = OpRecord(name, tuple(inputs), vjp)
    return out


def _check_elementwise(a: Tensor, b: Tensor, name: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(
        f"{name}: shapes {a.shape} and {b.shape} differ and neither is a scalar "
        "(only scalar-with-tensor broadcast is supported)"
    )


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    # Only the scalar-broadcast case can reach here (target has size 1).
    return np.array(np.sum(grad)).reshape(shape)


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every gradient-carrying leaf ancestor of a scalar root.

    Only leaves (tensors no op produced, such as parameters) get a ``grad``, and
    only where a contribution arrives: every op here returns one for each input
    that requires grad. Repeated calls without resetting grads accumulate
    additively; each call uses a fresh adjoint pass so earlier accumulations
    never leak into the propagation itself.
    """
    if root.data.size != 1:
        raise UsageError("backward requires a scalar root tensor")
    record = ComputationRecord.trace(root)
    # An op output's adjoint is keyed by the output's record, a leaf's by the leaf.
    adjoint: dict[int, np.ndarray] = {id(root._op or root): np.ones_like(root.data)}
    leaves: dict[int, Tensor] = {} if root._op is not None else {id(root): root}
    for op in reversed(record.ops):
        out_grad = adjoint.get(id(op))
        if out_grad is None:
            continue
        for parent, contribution in zip(op.inputs, op.vjp(out_grad)):
            if contribution is None:
                continue
            key = id(parent._op or parent)
            if parent._op is None:
                leaves[key] = parent
            adjoint[key] = adjoint[key] + contribution if key in adjoint else contribution
    for key, leaf in leaves.items():
        if leaf.requires_grad:
            acc = np.array(adjoint[key], dtype=np.float64, copy=True).reshape(leaf.shape)
            leaf.grad = acc if leaf.grad is None else leaf.grad + acc


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "add")

    def vjp(g):
        return (
            _reduce_to(g, a.shape) if a.requires_grad else None,
            _reduce_to(g, b.shape) if b.requires_grad else None,
        )

    return _node("add", a.data + b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "mul")

    def vjp(g):
        return (
            _reduce_to(g * b.data, a.shape) if a.requires_grad else None,
            _reduce_to(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _node("mul", a.data * b.data, (a, b), vjp)


def relu(x) -> Tensor:
    x = _lift(x)
    # Keeps NaN (``x > 0`` would zero it), so a diverged run reaches the loss check.
    mask = ~(x.data <= 0.0)

    def vjp(g):
        return (g * mask,)

    return _node("relu", np.where(mask, x.data, 0.0), (x,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    x = _lift(x)

    def vjp(g):
        return (np.full(x.shape, float(g)),)

    return _node("sum_all", np.array(np.sum(x.data)), (x,), vjp)


# ---------------------------------------------------------------------------
# structured primitives
#
# Each one is written once as an array-level forward (with its checks) and
# vjp, which record nothing. The public op is a thin wrapper that records one
# node; ``moe.moe_forward`` chains the same helpers into one node per MoE layer.
#
# The trunk ops, ``grid_linear`` and ``moe_forward``, take a (B, grid..., C)
# input whose axis 0 indexes samples. Their forward and input gradient run
# on the whole batch; every reduction over grid positions (a weight or bias
# gradient) gives one term per sample
# through a stacked matmul or axis reduction, and ``.sum(axis=0)`` adds the
# terms in sample order. That is how ``backward`` adds the contributions of
# one op per sample, so a trunk op has the bits of B single-sample ops
# replayed in sample order. numpy starts that sum from 0.0 where ``backward``
# takes the first term as it is; the two differ only for a -0.0 first term,
# and no term is -0.0: a matmul or numpy sum accumulates from +0.0.
# ---------------------------------------------------------------------------

def _sample_count(x: np.ndarray, op: str) -> int:
    # A sample without grid axes would be a matrix-vector product on its own,
    # and those bits differ from one row of a matrix product.
    if x.ndim < 3:
        raise ShapeError(f"{op}: an input needs (B, grid..., C) axes, got shape {x.shape}")
    return x.shape[0]


def _softmax_vjp(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The vjp at temperature 1; dividing it by the temperature gives the others."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def softmax(v, temperature: float = 1.0) -> Tensor:
    """Probability vector along the last axis of ``v / temperature``.

    Computed with max-subtraction, so it is invariant (to rounding) under a
    common shift of the inputs and never overflows for finite logits.
    """
    v = _lift(v)
    if temperature <= 0.0:
        raise ConfigError("softmax.temperature", f"must be > 0, got {temperature}")
    s = stable_softmax(v.data / temperature)

    def vjp(g):
        return (_softmax_vjp(g, s) / temperature,)

    return _node("softmax", s, (v,), vjp)


def _linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    if weight.ndim != 2:
        raise ShapeError(f"grid_linear weight must be rank 2, got shape {weight.shape}")
    c_out, c_in = weight.shape
    if x.ndim < 1 or x.shape[-1] != c_in:
        raise ShapeError(
            f"grid_linear: input channels {x.shape[-1] if x.ndim else 'none'} "
            f"do not match weight columns {c_in}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"grid_linear bias shape {bias.shape} != ({c_out},)")
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def _linear_vjp(g, x, weight, need_x: bool, need_w: bool, need_b: bool, samples: int = 1):
    c_out, c_in = weight.shape
    gf = g.reshape(samples, -1, c_out)
    dx = (g @ weight) if need_x else None
    dw = None
    if need_w:
        dw = np.matmul(gf.transpose(0, 2, 1), x.reshape(samples, -1, c_in)).sum(axis=0)
    db = gf.sum(axis=1).sum(axis=0) if need_b else None
    return dx, dw, db


def grid_linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-grid linear map: out[..., :] = weight @ x[..., :] (+ bias).

    x is (B, grid..., C): samples on axis 0 (see above), then one or more grid
    axes, channels last. This is the 1x1-projection building block used by
    the trunk and the heads.
    """
    x = _lift(x)
    samples = _sample_count(x.data, "grid_linear")
    out = _linear(x.data, weight.data, None if bias is None else bias.data)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def vjp(g):
        grads = _linear_vjp(g, x.data, weight.data, x.requires_grad, weight.requires_grad,
                            bias is not None and bias.requires_grad, samples)
        return grads[:len(inputs)]

    return _node("grid_linear", out, inputs, vjp)


def _cosine_logits(u: np.ndarray, emb: np.ndarray, temperature: float):
    """Cosine logits of u against the columns of emb, and what their vjp needs."""
    if temperature <= 0.0:
        raise ConfigError("gate_temperature", f"must be > 0, got {temperature}")
    if emb.ndim != 2 or u.shape[-1] != emb.shape[0]:
        raise ShapeError(
            f"gate_logits: input dim {u.shape[-1]} does not match embedding rows "
            f"{emb.shape[0] if emb.ndim == 2 else emb.shape}"
        )
    # np.linalg.norm's expression for real input, without its dispatch.
    norm_e = np.sqrt(np.add.reduce(emb * emb, 0))
    if (norm_e < NORM_EPS).any():
        raise DomainError("gate_logits: an expert embedding column has (near-)zero norm")
    norm_u = np.sqrt(np.add.reduce(u * u, -1))
    degenerate = norm_u < NORM_EPS
    inv_norm_u = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, norm_u))
    logits = (u @ emb) * inv_norm_u[..., None] / (temperature * norm_e)
    return logits, (emb, temperature, norm_e, degenerate, inv_norm_u)


def _cosine_logits_vjp(g, u, logits, saved, need_u: bool, need_e: bool, samples: int = 1):
    emb, temperature, norm_e, degenerate, inv_norm_u = saved
    g = np.where(degenerate[..., None], 0.0, g)
    scale = inv_norm_u[..., None] / (temperature * norm_e)  # (..., N)
    g_scaled = g * scale
    g_logits = g * logits
    du = None
    if need_u:
        radial = g_logits.sum(axis=-1, keepdims=True)
        du = g_scaled @ emb.T - radial * u * (inv_norm_u**2)[..., None]
    de = None
    if need_e:
        d, n = emb.shape
        uf = u.reshape(samples, -1, d)
        radial_terms = g_logits.reshape(samples, -1, n).sum(axis=1)  # (samples, N)
        terms = (np.matmul(uf.transpose(0, 2, 1), g_scaled.reshape(samples, -1, n))
                 - emb * (radial_terms / (norm_e**2))[:, None, :])
        de = terms.sum(axis=0)
    return du, de


def gate_logits(u: Tensor, embeddings: Tensor, temperature: float) -> Tensor:
    """Cosine similarity of each grid vector against expert embedding columns.

    logit[..., n] = <u, e_n> / (temperature * |u| * |e_n|). Positions whose
    norm falls below the degeneracy threshold get all-zero logits (uniform
    after softmax) and are excluded from gradient flow, since the direction
    of a zero vector is undefined.
    """
    u = _lift(u)
    logits, saved = _cosine_logits(u.data, embeddings.data, temperature)

    def vjp(g):
        return _cosine_logits_vjp(g, u.data, logits, saved, u.requires_grad,
                                  embeddings.requires_grad)

    return _node("gate_logits", logits, (u, embeddings), vjp)


def _gather(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if idx.shape[:-1] != x.shape[:-1]:
        raise ShapeError(f"gather_last: leading dims {idx.shape[:-1]} != {x.shape[:-1]}")
    # The entries of np.take_along_axis, through one take of flat cells.
    n = x.shape[-1]
    rows = math.prod(x.shape[:-1])
    cells = idx.reshape(rows, -1) + np.arange(0, rows * n, n)[:, None]
    return x.reshape(-1).take(cells).reshape(idx.shape)


def gather_last(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick entries along the last axis: out[..., j] = x[..., indices[..., j]].

    ``indices`` is constant metadata; gradients scatter-add back into ``x``.
    """
    x = _lift(x)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise ShapeError(f"gather_last: an index lies outside [0, {x.shape[-1]})")
    out = _gather(x.data, idx)

    def vjp(g):
        dx = np.zeros(x.shape)
        flat = dx.reshape(-1, x.shape[-1])
        rows = np.repeat(np.arange(flat.shape[0]), idx.shape[-1])
        np.add.at(flat, (rows, idx.reshape(-1)), g.reshape(-1))
        return (dx,)

    return _node("gather_last", out, (x,), vjp)


@dataclass(slots=True)
class _Dispatch:
    """Sorted dispatch of one expert mixture: what its vjp replays."""

    x_shape: tuple
    rows: np.ndarray          # the position of each sorted (position, slot) entry
    experts: np.ndarray       # the expert of each sorted entry
    by_position: np.ndarray   # (positions, k) indices into the sorted order, ids ascending
    segments: list            # (expert, lo, hi) of each (sample, expert) run, samples in order
    xs: np.ndarray            # input row of each sorted entry
    ws: np.ndarray            # gate weight of each sorted entry, as a column
    ys: np.ndarray            # expert output of each sorted entry

    def per_position(self, terms: np.ndarray) -> np.ndarray:
        """Each position's k terms added in ascending expert id, starting from zero."""
        picked = terms.take(self.by_position, axis=0)
        total = picked[:, 0] + 0.0  # the bits of adding into zeros: -0.0 reads 0.0
        for j in range(1, picked.shape[1]):
            total += picked[:, j]
        return total


def _mix(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, sel: np.ndarray,
         selected_weights: np.ndarray, samples: int = 1) -> tuple[np.ndarray, _Dispatch]:
    lead = x.shape[:-1]
    if sel.shape[:-1] != lead or selected_weights.shape != sel.shape:
        raise ShapeError("mix_experts: selection shapes do not match the grid")
    if weight.ndim != 3 or weight.shape[2] != x.shape[-1] or bias.shape != weight.shape[:2]:
        raise ShapeError("mix_experts: expert parameter shapes are inconsistent")

    n_experts, c_out, c_in = weight.shape
    positions = math.prod(lead)
    k = sel.shape[-1]
    flat_sel = sel.reshape(-1)
    if flat_sel.size and flat_sel.max() >= n_experts:
        raise ShapeError(f"mix_experts: selection names an expert >= {n_experts}")
    # Sorting by expert + N * sample gives every (sample, expert) pair its own
    # segment and gemm, with exactly the rows a single-sample call gives it.
    keys = flat_sel + np.arange(0, n_experts * samples, n_experts).repeat(flat_sel.size // samples)
    bounds = list(accumulate(np.bincount(keys, minlength=n_experts * samples).tolist(),
                             initial=0))
    segments = [(key % n_experts, bounds[key], bounds[key + 1])
                for key in range(n_experts * samples) if bounds[key] < bounds[key + 1]]
    # A stable sort's permutation does not depend on the key dtype, and numpy
    # sorts keys of 16 bits or fewer by radix.
    order = keys.astype(np.min_scalar_type(n_experts * samples - 1)).argsort(kind="stable")
    rows = order // k
    # by_position[p] lists p's entries of the sorted order in ascending expert id.
    by_position = rows.astype(np.min_scalar_type(positions - 1)).argsort(kind="stable")
    experts = flat_sel.take(order)
    xs = x.reshape(positions, c_in).take(rows, axis=0)
    ws = selected_weights.reshape(-1).take(order)[:, None]

    ys = np.empty((order.size, c_out))
    for n, lo, hi in segments:
        np.matmul(xs[lo:hi], weight[n].T, out=ys[lo:hi])
    ys += bias.take(experts, axis=0)

    dispatch = _Dispatch(x.shape, rows, experts, by_position.reshape(positions, k),
                         segments, xs, ws, ys)
    out = dispatch.per_position(ws * ys)
    return out.reshape(*lead, c_out), dispatch


def _mix_vjp(g, d: _Dispatch, weight: Tensor, bias: Tensor, need_x: bool, need_sel: bool):
    """Gradients of a mixture: dx, the gate-weight table, and the bank's dW and dB.

    The table is (positions, N): each selected (position, expert) cell holds its
    gate weight's gradient added into zero, every other cell is 0.0, as is each
    row of dW and dB whose expert no position selected.
    """
    w = weight.data
    n_experts, c_out, c_in = w.shape
    g_rows = g.reshape(-1, c_out).take(d.rows, axis=0)
    gs = g_rows * d.ws
    dw = np.zeros(w.shape) if weight.requires_grad else None
    db = np.zeros(bias.shape) if bias.requires_grad else None
    dxs = np.empty((d.rows.size, c_in)) if need_x else None
    # Segments run in sample order, so each expert's per-sample terms are added
    # in sample order, into zeros: no term is -0.0 (see above).
    for n, lo, hi in d.segments:
        g_seg = gs[lo:hi]
        if dw is not None:
            dw[n] += g_seg.T @ d.xs[lo:hi]
        if db is not None:
            db[n] += g_seg.sum(axis=0)
        if dxs is not None:
            np.matmul(g_seg, w[n], out=dxs[lo:hi])
    dx = d.per_position(dxs).reshape(d.x_shape) if dxs is not None else None
    table = None
    if need_sel:
        # Added into zeros, like every other accumulated sum here, so a
        # -0.0 dot product reads 0.0.
        table = np.zeros((d.by_position.shape[0], n_experts))
        table.reshape(-1)[d.rows * n_experts + d.experts] += (g_rows * d.ys).sum(axis=1)
    return dx, table, dw, db


def mix_experts(x: Tensor, weight: Tensor, bias: Tensor, selected: np.ndarray,
                selected_weights: Tensor) -> Tensor:
    """Sparse weighted sum of the per-grid linear experts stacked on axis 0.

    out[pos] = sum_j selected_weights[pos, j] * (weight[sel] @ x[pos] + bias[sel]),
    with ``weight`` (N, C_out, C_in) and ``bias`` (N, C_out). Only the experts
    named in ``selected`` are applied: positions * k applications. A
    non-selected expert's gradient rows are 0.0. A position must name k
    distinct experts.

    Dispatch is one stable sort of the flattened selection by expert id, so
    each expert's (position, slot) pairs form one contiguous segment with
    positions ascending, and one gemm per expert covers its segment. Each
    position's terms are summed in ascending expert id starting from zero,
    so the result does not depend on the order of ids within ``selected``.
    """
    x = _lift(x)
    sel = np.asarray(selected)
    ids = np.sort(sel, axis=-1)
    if (ids[..., 1:] == ids[..., :-1]).any():
        raise ShapeError("mix_experts: a position names the same expert twice")
    out, dispatch = _mix(x.data, weight.data, bias.data, sel, selected_weights.data)

    def vjp(g):
        dx, table, dw, db = _mix_vjp(g, dispatch, weight, bias, x.requires_grad,
                                     selected_weights.requires_grad)
        dsel = None if table is None else _gather(table.reshape(*sel.shape[:-1], -1), sel)
        return dx, dsel, dw, db

    return _node("mix_experts", out, (x, selected_weights, weight, bias), vjp)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

# A loss helper scores samples stacked on axis 0: it returns each sample's
# mean and their vjp at one scalar. numpy sums a sample's contiguous row as it
# sums that sample alone, so each mean has the bits of one call per sample.

def _cross_entropy(z: np.ndarray, labels) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """Per-sample mean NLL of integer labels under last-axis softmax, and its vjp."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("cross_entropy: labels must be integers")
    n_classes = z.shape[-1]
    if labels.shape != z.shape[:-1]:
        raise ShapeError(f"cross_entropy: label shape {labels.shape} != {z.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DomainError("cross_entropy: label outside [0, n_classes)")

    shifted = z - last_axis_max(z)
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    log_norm = np.log(norm[..., 0])
    # The label cell of every position in the flattened classes.
    at_label = np.arange(0, labels.size * n_classes, n_classes) + labels.reshape(-1)
    picked = shifted.reshape(-1).take(at_label).reshape(labels.shape)
    count = max(math.prod(labels.shape[1:]), 1)

    def vjp(g: float) -> np.ndarray:
        # stable_softmax(z) from the forward's pieces, minus the one-hot
        # labels: x - 0.0 is x, so only the label entries change.
        p = e / norm
        p.reshape(-1)[at_label] -= 1.0
        return p * (g / count)

    return (log_norm - picked).reshape(len(labels), -1).sum(axis=1) / count, vjp


def _smooth_l1(pred: np.ndarray, target) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """Per-sample mean Huber-style loss and its vjp."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(f"smooth_l1: target shape {target.shape} != {pred.shape}")
    d = pred - target
    small = np.abs(d) < 1.0
    per_elem = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    count = max(math.prod(d.shape[1:]), 1)

    def vjp(g: float) -> np.ndarray:
        return np.clip(d, -1.0, 1.0) * (g / count)

    return per_elem.reshape(len(d), -1).sum(axis=1) / count, vjp


_LOSSES = {"cross_entropy_mean": _cross_entropy, "smooth_l1_mean": _smooth_l1}


def _one_sample_loss(name: str, pred: Tensor, target) -> Tensor:
    """The loss ``name`` of ``pred`` as one sample, recorded as its own node."""
    values, grad = _LOSSES[name](pred.data[None], np.asarray(target)[None])
    return _node(name, np.array(values[0]), (pred,), lambda g: (grad(float(g))[0],))


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under last-axis softmax."""
    return _one_sample_loss("cross_entropy_mean", logits, labels)


def smooth_l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean Huber-style loss: 0.5 d^2 for |d| < 1, |d| - 0.5 otherwise."""
    return _one_sample_loss("smooth_l1_mean", pred, target)


def heads_loss(x: Tensor, heads: Sequence[tuple[Tensor, Tensor, np.ndarray, str]]
               ) -> tuple[Tensor, list[float]]:
    """All task heads of a batch and the sum of their mean losses, as one graph node.

    ``heads`` lists each head's weight, bias, targets stacked on axis 0 and
    loss name, in task order; together they take the samples of x in turn.
    Per head: project as ``grid_linear``, score with one loss call,
    add the scores in sample order, multiply by 1/n; then add the means in
    task order. These are the expressions of per-sample head and loss ops,
    ``add`` and ``mul``, so every bit is kept. Returns the node and the means.
    """
    parts, means, lo = [], [], 0
    for weight, bias, targets, loss in heads:
        n = len(targets)
        rows = x.data[lo:lo + n]
        values, grad = _LOSSES[loss](_linear(rows, weight.data, bias.data), targets)
        means.append(reduce(operator.add, values.tolist()) * (1.0 / n))
        parts.append((lo, n, rows, weight, bias, grad))
        lo += n
    if lo != x.shape[0]:
        raise ShapeError(f"heads_loss: the heads take {lo} samples of a batch of {x.shape[0]}")

    def vjp(g):
        dx = np.empty(x.shape) if x.requires_grad else None  # each row is written once
        grads = []
        for lo, n, rows, weight, bias, grad in parts:
            drows, dw, db = _linear_vjp(grad(float(g) * (1.0 / n)), rows, weight.data,
                                        dx is not None, weight.requires_grad,
                                        bias.requires_grad, n)
            if dx is not None:
                dx[lo:lo + n] = drows
            grads += (dw, db)
        return (dx, *grads)

    inputs = (x, *(t for weight, bias, *_ in heads for t in (weight, bias)))
    return _node("heads_loss", np.array(reduce(operator.add, means)), inputs, vjp), means


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[Tensor], Tensor], point, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and centered-difference grads.

    ``f`` must map one parameter tensor to a scalar tensor. Returns
    max_i |autodiff_i - fd_i| / (|fd_i| + 1e-8).
    """
    if h <= 0.0:
        raise ConfigError("finite_diff_check.h", f"must be > 0, got {h}")
    base = np.array(point, dtype=np.float64)
    param = Tensor(base.copy(), requires_grad=True)
    out = f(param)
    if out.data.size != 1:
        raise UsageError("finite_diff_check requires a scalar-valued function")
    backward(out)
    auto = param.grad if param.grad is not None else np.zeros_like(base)

    worst = 0.0
    flat = base.reshape(-1)
    auto_flat = np.asarray(auto).reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        plus = float(f(Tensor(base.copy())).data)
        flat[i] = keep - h
        minus = float(f(Tensor(base.copy())).data)
        flat[i] = keep
        fd = (plus - minus) / (2.0 * h)
        worst = max(worst, abs(auto_flat[i] - fd) / (abs(fd) + 1e-8))
    return worst

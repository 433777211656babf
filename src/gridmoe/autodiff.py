"""Dense-tensor engine with reverse-mode automatic differentiation.

The engine covers exactly what the grid mixture-of-experts layer, the task
heads, and the losses need: per-grid linear maps, last-axis softmax, a small
set of pointwise functions, cosine gate logits, sparse expert mixing, and two
mean-reduced losses. Everything is 64-bit, dense, row-major, rank <= 4.

Execution is eager. Each operation whose inputs carry gradients appends an
``OpRecord`` to the output tensor; ``backward`` linearizes the records
reachable from a scalar root into a ``ComputationRecord`` (topological order)
and replays them in reverse, accumulating adjoints exactly once per
contributing parent. Broadcasting is restricted to scalar-with-tensor.

Tensors are treated as immutable once created: training code swaps in a fresh
``data`` array between forward/backward cycles instead of mutating an array a
live record still references.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, UsageError
from .numerics import NORM_EPS, sigmoid_array, stable_softmax

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

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"

    # Operator sugar; scalars are lifted to constant tensors.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_lift(other), -1.0))


class OpRecord:
    """One executed primitive: its inputs and the adjoint rule to replay.

    The output tensor owns its record (``Tensor._op``), so the record refers
    back to it weakly. A strong back-reference would make every graph a
    reference cycle that only the cyclic garbage collector frees; this way a
    graph is freed as soon as its root goes out of scope.
    """

    __slots__ = ("name", "inputs", "vjp", "_output")

    def __init__(self, name: str, inputs: tuple[Tensor, ...], output: Tensor, vjp: Vjp):
        self.name = name
        self.inputs = inputs
        self.vjp = vjp
        self._output = weakref.ref(output)

    @property
    def output(self) -> Tensor | None:
        """The tensor this op produced, or None once it has been freed."""
        return self._output()


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
        out._op = OpRecord(name, tuple(inputs), out, vjp)
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
    """Populate ``grad`` on every gradient-carrying ancestor of a scalar root.

    Repeated calls without resetting grads accumulate additively; each call
    uses a fresh adjoint pass so earlier accumulations never leak into the
    propagation itself.
    """
    if root.data.size != 1:
        raise UsageError("backward requires a scalar root tensor")
    record = ComputationRecord.trace(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    holders: dict[int, Tensor] = {id(root): root}
    reached: dict[int, Tensor] = {}
    for op in reversed(record.ops):
        out_grad = adjoint.get(id(op.output))
        if out_grad is None:
            continue
        for parent, contribution in zip(op.inputs, op.vjp(out_grad)):
            reached.setdefault(id(parent), parent)
            if contribution is None:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + contribution
            else:
                adjoint[key] = contribution
                holders[key] = parent
    for key, tensor in holders.items():
        if tensor.requires_grad:
            acc = np.array(adjoint[key], dtype=np.float64, copy=True).reshape(tensor.shape)
            tensor.grad = acc if tensor.grad is None else tensor.grad + acc
    # Ancestors that were reached but never contributed (e.g. experts the
    # router skipped everywhere) still get an exact-zero gradient.
    for key, tensor in reached.items():
        if tensor.requires_grad and key not in adjoint and tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)


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
    mask = x.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _node("relu", np.where(mask, x.data, 0.0), (x,), vjp)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    s = sigmoid_array(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _node("sigmoid", s, (x,), vjp)


def log(x) -> Tensor:
    x = _lift(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")

    def vjp(g):
        return (g / x.data,)

    return _node("log", np.log(x.data), (x,), vjp)


def square(x) -> Tensor:
    x = _lift(x)

    def vjp(g):
        return (g * 2.0 * x.data,)

    return _node("square", x.data * x.data, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    x = _lift(x)

    def vjp(g):
        return (np.full(x.shape, float(g)),)

    return _node("sum_all", np.array(np.sum(x.data)), (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    x = _lift(x)
    n = x.data.size

    def vjp(g):
        return (np.full(x.shape, float(g) / n),)

    return _node("mean_all", np.array(np.mean(x.data)), (x,), vjp)


# ---------------------------------------------------------------------------
# structured primitives
# ---------------------------------------------------------------------------

def softmax(v, temperature: float = 1.0) -> Tensor:
    """Probability vector along the last axis of ``v / temperature``.

    Computed with max-subtraction, so it is invariant (to rounding) under a
    common shift of the inputs and never overflows for finite logits.
    """
    if temperature <= 0.0:
        raise ConfigError("softmax.temperature", f"must be > 0, got {temperature}")
    v = _lift(v)
    s = stable_softmax(v.data / temperature, axis=-1)

    def vjp(g):
        inner = g - np.sum(g * s, axis=-1, keepdims=True)
        return (s * inner / temperature,)

    return _node("softmax", s, (v,), vjp)


def grid_linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-grid linear map: out[..., :] = weight @ x[..., :] (+ bias).

    Accepts any leading grid shape; the channel axis is last. This is the
    1x1-projection building block used by the trunk, the experts, and the
    gate transform.
    """
    x = _lift(x)
    if weight.data.ndim != 2:
        raise ShapeError(f"grid_linear weight must be rank 2, got shape {weight.shape}")
    c_out, c_in = weight.shape
    if x.data.ndim < 1 or x.shape[-1] != c_in:
        raise ShapeError(
            f"grid_linear: input channels {x.shape[-1] if x.data.ndim else 'none'} "
            f"do not match weight columns {c_in}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"grid_linear bias shape {bias.shape} != ({c_out},)")

    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def vjp(g):
        gf = g.reshape(-1, c_out)
        xf = x.data.reshape(-1, c_in)
        dx = (g @ weight.data) if x.requires_grad else None
        dw = (gf.T @ xf) if weight.requires_grad else None
        if bias is None:
            return (dx, dw)
        db = gf.sum(axis=0) if bias.requires_grad else None
        return (dx, dw, db)

    return _node("grid_linear", out, inputs, vjp)


def gate_logits(u: Tensor, embeddings: Tensor, temperature: float) -> Tensor:
    """Cosine similarity of each grid vector against expert embedding columns.

    logit[..., n] = <u, e_n> / (temperature * |u| * |e_n|). Positions whose
    norm falls below the degeneracy threshold get all-zero logits (uniform
    after softmax) and are excluded from gradient flow, since the direction
    of a zero vector is undefined.
    """
    if temperature <= 0.0:
        raise ConfigError("gate_temperature", f"must be > 0, got {temperature}")
    u = _lift(u)
    emb = embeddings.data
    if emb.ndim != 2 or u.shape[-1] != emb.shape[0]:
        raise ShapeError(
            f"gate_logits: input dim {u.shape[-1]} does not match embedding rows "
            f"{emb.shape[0] if emb.ndim == 2 else emb.shape}"
        )
    norm_e = np.linalg.norm(emb, axis=0)
    if np.any(norm_e < NORM_EPS):
        raise DomainError("gate_logits: an expert embedding column has (near-)zero norm")
    norm_u = np.linalg.norm(u.data, axis=-1)
    degenerate = norm_u < NORM_EPS
    inv_norm_u = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, norm_u))
    logits = (u.data @ emb) * inv_norm_u[..., None] / (temperature * norm_e)

    def vjp(g):
        g = np.where(degenerate[..., None], 0.0, g)
        scale = inv_norm_u[..., None] / (temperature * norm_e)  # (..., N)
        g_scaled = g * scale
        du = None
        if u.requires_grad:
            radial = np.sum(g * logits, axis=-1, keepdims=True)
            du = g_scaled @ emb.T - radial * u.data * (inv_norm_u**2)[..., None]
        de = None
        if embeddings.requires_grad:
            d = emb.shape[0]
            uf = u.data.reshape(-1, d)
            gs = g_scaled.reshape(-1, emb.shape[1])
            col_radial = np.sum((g * logits).reshape(-1, emb.shape[1]), axis=0)
            de = uf.T @ gs - emb * (col_radial / (norm_e**2))
        return (du, de)

    return _node("gate_logits", logits, (u, embeddings), vjp)


def gather_last(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick entries along the last axis: out[..., j] = x[..., indices[..., j]].

    ``indices`` is constant metadata; gradients scatter-add back into ``x``.
    """
    x = _lift(x)
    idx = np.asarray(indices)
    if idx.shape[:-1] != x.shape[:-1]:
        raise ShapeError(f"gather_last: leading dims {idx.shape[:-1]} != {x.shape[:-1]}")
    n = x.shape[-1]
    k = idx.shape[-1]
    out = np.take_along_axis(x.data, idx, axis=-1)

    def vjp(g):
        dx = np.zeros_like(x.data)
        flat = dx.reshape(-1, n)
        rows = np.repeat(np.arange(flat.shape[0]), k)
        np.add.at(flat, (rows, idx.reshape(-1)), g.reshape(-1))
        return (dx,)

    return _node("gather_last", out, (x,), vjp)


def mix_experts(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    selected: np.ndarray,
    selected_weights: Tensor,
) -> tuple[Tensor, int]:
    """Sparse weighted sum of per-grid linear experts.

    out[pos] = sum_j selected_weights[pos, j] * (W_sel @ x[pos] + b_sel).
    Only the experts named in ``selected`` are applied; the second return
    value counts the expert applications, which equals positions * k.
    Non-selected experts receive no gradient.

    Dispatch is one stable sort of the flattened selection by expert id, so
    each expert's (position, slot) pairs form one contiguous segment with
    positions ascending, and one gemm per expert covers its segment. Each
    position's terms are summed in ascending expert id starting from zero,
    so the result does not depend on the order of ids within ``selected``.
    """
    x = _lift(x)
    c_in = x.shape[-1]
    c_out = weights[0].shape[0]
    lead = x.shape[:-1]
    sel = np.asarray(selected)
    if sel.shape[:-1] != lead or selected_weights.shape != sel.shape:
        raise ShapeError("mix_experts: selection shapes do not match the grid")
    for w, b in zip(weights, biases):
        if w.shape != (c_out, c_in) or b.shape != (c_out,):
            raise ShapeError("mix_experts: expert parameter shapes are inconsistent")

    positions = int(np.prod(lead)) if lead else 1
    k = sel.shape[-1]
    n_experts = len(weights)
    xf = x.data.reshape(positions, c_in)
    flat_sel = sel.reshape(-1)
    counts = np.bincount(flat_sel, minlength=n_experts)
    if counts.size != n_experts:
        raise ShapeError(f"mix_experts: selection names an expert >= {n_experts}")
    bounds = list(accumulate(counts.tolist(), initial=0))
    segments = [(n, bounds[n], bounds[n + 1]) for n in range(n_experts)
                if bounds[n] < bounds[n + 1]]
    order = np.argsort(flat_sel, kind="stable")
    rows = order // k
    # by_position[p] lists p's entries of the sorted order in ascending expert id.
    by_position = np.argsort(rows, kind="stable").reshape(positions, k)
    xs = xf[rows]
    ws = selected_weights.data.reshape(-1)[order][:, None]

    ys = np.empty((order.size, c_out))
    for n, lo, hi in segments:
        ys[lo:hi] = xs[lo:hi] @ weights[n].data.T + biases[n].data

    def per_position(terms: np.ndarray) -> np.ndarray:
        total = np.zeros((positions, terms.shape[1]))
        for j in range(k):
            total += terms[by_position[:, j]]
        return total

    out = per_position(ws * ys)
    inputs = (x, selected_weights, *weights, *biases)

    def vjp(g):
        g_rows = g.reshape(positions, c_out)[rows]
        gs = g_rows * ws
        dws: list[np.ndarray | None] = [None] * n_experts
        dbs: list[np.ndarray | None] = [None] * n_experts
        dxs = np.empty((order.size, c_in)) if x.requires_grad else None
        for n, lo, hi in segments:
            if weights[n].requires_grad:
                dws[n] = gs[lo:hi].T @ xs[lo:hi]
            if biases[n].requires_grad:
                dbs[n] = gs[lo:hi].sum(axis=0)
            if dxs is not None:
                dxs[lo:hi] = gs[lo:hi] @ weights[n].data
        dx = per_position(dxs).reshape(x.shape) if dxs is not None else None
        dsel = None
        if selected_weights.requires_grad:
            # Added into zeros, like every other accumulated sum here, so a
            # -0.0 dot product reads 0.0.
            dsel = np.zeros(order.size)
            dsel[order] += np.sum(g_rows * ys, axis=1)
            dsel = dsel.reshape(selected_weights.shape)
        return (dx, dsel, *dws, *dbs)

    result = _node("mix_experts", out.reshape(*lead, c_out), inputs, vjp)
    return result, order.size


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under last-axis softmax."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("cross_entropy: labels must be integers")
    n_classes = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: label shape {labels.shape} != {logits.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DomainError("cross_entropy: label outside [0, n_classes)")

    z = logits.data
    shifted = z - z.max(axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    count = max(labels.size, 1)
    value = float(np.sum(log_norm - picked)) / count

    def vjp(g):
        p = stable_softmax(z, axis=-1)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
        return ((p - onehot) * (float(g) / count),)

    return _node("cross_entropy_mean", np.array(value), (logits,), vjp)


def smooth_l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean Huber-style loss: 0.5 d^2 for |d| < 1, |d| - 0.5 otherwise."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(f"smooth_l1: target shape {target.shape} != {pred.shape}")
    d = pred.data - target
    small = np.abs(d) < 1.0
    per_elem = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    count = max(d.size, 1)

    def vjp(g):
        return (np.clip(d, -1.0, 1.0) * (float(g) / count),)

    return _node("smooth_l1_mean", np.array(float(per_elem.sum()) / count), (pred,), vjp)


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

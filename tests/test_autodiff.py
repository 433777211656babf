"""Tensor engine tests: forward semantics against hand oracles, gradients
against centered finite differences."""

import gc
import math
import weakref

import numpy as np
import pytest

from gridmoe import autodiff as ad
from gridmoe.autodiff import Tensor, backward, finite_diff_check
from gridmoe.errors import ConfigError, DomainError, ShapeError, UsageError
import reference_ops as ref
from gridmoe.numerics import last_axis_max, stable_softmax
from reference_ops import head_loss, log, mean_all, replayed_adjoints, sigmoid, square

LOGISTIC_1 = 1.0 / (1.0 + math.exp(-1.0))  # 0.731059...


# ---------------------------------------------------------------------------
# grid_linear
# ---------------------------------------------------------------------------

class TestGridLinear:
    def test_identity_weight_passes_through(self):
        x = np.zeros((1, 1, 2))
        x[0, 0] = [3.0, 4.0]
        out = ad.grid_linear(Tensor(x), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0])

    def test_zero_input_broadcasts_bias(self):
        out = ad.grid_linear(
            Tensor(np.zeros((3, 5, 2))), Tensor(np.zeros((2, 2))), Tensor([1.0, 2.0])
        )
        assert np.all(out.data[..., 0] == 1.0)
        assert np.all(out.data[..., 1] == 2.0)

    def test_hand_matrix_vector(self):
        # W @ [1, 1] for W = [[1,2],[3,4]] is [3, 7] by direct arithmetic.
        x = np.ones((1, 1, 2))
        out = ad.grid_linear(
            Tensor(x), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([0.0, 0.0])
        )
        np.testing.assert_allclose(out.data[0, 0], [3.0, 7.0])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.grid_linear(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((4, 2))))

    def test_bias_shape_rejected(self):
        with pytest.raises(ShapeError):
            ad.grid_linear(
                Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3))
            )

    def test_bias_grad_counts_grid_positions(self):
        h, w = 5, 7
        x = Tensor(np.random.default_rng(0).normal(size=(h, w, 3)))
        weight = Tensor(np.random.default_rng(1).normal(size=(2, 3)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        backward(ad.sum_all(ad.grid_linear(x, weight, bias)))
        np.testing.assert_array_equal(bias.grad, np.full(2, h * w))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_constant_vector_is_uniform(self):
        for c in (-3.0, 0.0, 17.5):
            out = ad.softmax(Tensor([c, c, c]), temperature=0.7)
            np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_log_two_closed_form(self):
        out = ad.softmax(Tensor([0.0, math.log(2.0)]), temperature=1.0)
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_logistic_pair(self):
        out = ad.softmax(Tensor([1.0, 0.0]), temperature=1.0)
        np.testing.assert_allclose(out.data, [LOGISTIC_1, 1.0 - LOGISTIC_1], atol=1e-12)
        assert abs(out.data[0] - 0.731059) < 1e-6

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(scale=10.0, size=rng.integers(2, 9))
            out = ad.softmax(Tensor(v), temperature=float(rng.uniform(0.05, 5.0)))
            assert abs(out.data.sum() - 1.0) < 1e-12
            assert np.all(out.data > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(scale=50.0, size=5)
            c = float(rng.uniform(-100.0, 100.0))
            base = ad.softmax(Tensor(v), temperature=2.0).data
            shifted = ad.softmax(Tensor(v + c), temperature=2.0).data
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            ad.softmax(Tensor([1.0, 2.0]), temperature=0.0)
        with pytest.raises(ConfigError):
            ad.softmax(Tensor([1.0, 2.0]), temperature=-1.0)

    def test_extreme_logits_stay_finite(self):
        out = ad.softmax(Tensor([1000.0, -1000.0, 0.0]), temperature=1.0)
        assert np.all(np.isfinite(out.data))
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_column_max_matches_np_max(self):
        # Ties, signed zeros, infinities and NaN. On rows longer than 8 np.max
        # may return either zero of a +-0.0 tie; the softmax does not see it.
        rng = np.random.default_rng(9)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5])
        for trial in range(600):
            n = int(rng.integers(1, 13))
            lead = tuple(int(v) for v in rng.integers(1, 5, size=int(rng.integers(0, 3))))
            if trial % 3 == 0:
                z = rng.choice(special, size=(*lead, n))
            elif trial % 3 == 1:
                z = rng.integers(-1, 2, size=(*lead, n)) * rng.choice([1.0, -1.0], size=(*lead, n))
            else:
                z = rng.normal(size=(*lead, n)) * 300.0
            got = last_axis_max(z)
            expected = np.max(z, axis=-1, keepdims=True)
            if n <= 8:
                assert got.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(got, expected)
            with np.errstate(invalid="ignore"):  # inf - inf
                e = np.exp(z - expected)
                softmax = stable_softmax(z)
            assert softmax.tobytes() == (e / np.sum(e, axis=-1, keepdims=True)).tobytes()


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_oracle_value(self):
        # direct arithmetic: 1 / (1 + e^{-1.8})
        expected = 1.0 / (1.0 + math.exp(-1.8))
        got = sigmoid(Tensor([1.8])).data[0]
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.858149) < 1e-6

    def test_square_value_and_grad(self):
        x = Tensor([3.0], requires_grad=True)
        y = square(x)
        assert y.data[0] == 9.0
        backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            log(Tensor([-2.0]))

    def test_scalar_broadcast_allowed(self):
        x = Tensor(np.ones((2, 3)))
        out = ad.add(x, 2.5)
        assert np.all(out.data == 3.5)
        out = ad.mul(x, Tensor(4.0))
        assert np.all(out.data == 4.0)

    def test_general_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))

    def test_scalar_broadcast_grad_sums(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        backward(ad.sum_all(ad.mul(x, s)))
        np.testing.assert_allclose(s.grad, np.arange(6.0).sum())

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=30.0, size=(4, 4))
        for op in (ad.relu, sigmoid, square):
            assert np.all(np.isfinite(op(Tensor(x)).data))
        assert np.all(np.isfinite(log(Tensor(np.abs(x) + 0.1)).data))

    def test_relu_lets_nan_through_and_keeps_other_bits(self):
        x = np.array([np.nan, -np.nan, -0.0, 0.0, -2.5, 1.5, np.inf, -np.inf])
        out = ad.relu(Tensor(x)).data
        assert np.isnan(out[:2]).all()
        expected = np.where(x[2:] > 0.0, x[2:], 0.0)
        assert out[2:].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

class TestBackward:
    def test_square_chain(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ad.sum_all(square(x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            backward(ad.mul(x, 2.0))

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.sum_all(square(x))
        backward(y)
        backward(y)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_adjoint_linearity(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=4)

        def roots(x):
            a = ad.sum_all(square(x))
            b = ad.sum_all(sigmoid(x))
            return a, b

        x1 = Tensor(v.copy(), requires_grad=True)
        a, b = roots(x1)
        backward(ad.add(a, b))
        combined = x1.grad.copy()

        x2 = Tensor(v.copy(), requires_grad=True)
        a, b = roots(x2)
        backward(a)
        backward(b)
        np.testing.assert_allclose(x2.grad, combined, atol=1e-15)

    def test_diamond_reuse_counts_both_paths(self):
        # y = x*x + x: dy/dx = 2x + 1, x reused by two ops
        x = Tensor([5.0], requires_grad=True)
        backward(ad.sum_all(ad.add(ad.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [11.0])

    def test_computation_record_is_topological(self):
        x = Tensor([1.0], requires_grad=True)
        y = square(x)
        z = ad.add(y, ad.mul(y, 2.0))
        root = ad.sum_all(z)
        record = ad.ComputationRecord.trace(root)
        positions = {id(op.output): i for i, op in enumerate(record.ops)}
        for op in record.ops:
            for parent in op.inputs:
                if parent._op is not None:
                    assert positions[id(parent)] < positions[id(op.output)]

    def test_graph_freed_by_refcount_once_root_dropped(self):
        # Records hold their outputs weakly, so no graph is a reference cycle:
        # with the cyclic collector off, dropping the root frees every node.
        rng = np.random.default_rng(8)
        weight = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        experts = Tensor(np.stack([rng.normal(size=(3, 3)) for _ in range(3)]), requires_grad=True)
        biases = Tensor(np.zeros((3, 3)), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = ad.relu(ad.grid_linear(Tensor(rng.normal(size=(2, 2, 3))), weight))
            probs = ad.softmax(hidden)
            selected = np.argsort(-probs.data, axis=-1)[..., :2]
            mixed, _ = ad.mix_experts(hidden, experts, biases, selected,
                                      ad.gather_last(probs, selected))
            root = ad.sum_all(square(mixed))
            backward(root)
            refs = [weakref.ref(t) for t in (hidden, probs, mixed, root)]
            del hidden, probs, mixed, root
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert weight.grad is not None and experts.grad is not None


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

class TestFiniteDiffCheck:
    def test_square_tight(self):
        err = finite_diff_check(lambda t: ad.sum_all(square(t)), np.array([3.0]), h=1e-5)
        assert err < 1e-6

    def test_softmax_dot(self):
        rng = np.random.default_rng(5)
        coef = rng.normal(size=6)

        def f(t):
            return ad.sum_all(ad.mul(ad.softmax(t, temperature=0.8), Tensor(coef)))

        err = finite_diff_check(f, rng.normal(size=6), h=1e-5)
        assert err < 1e-4

    def test_constant_function_zero_error(self):
        err = finite_diff_check(lambda t: ad.sum_all(Tensor([1.5])), np.array([2.0, 3.0]))
        assert err == 0.0

    def test_invalid_h(self):
        with pytest.raises(ConfigError):
            finite_diff_check(lambda t: ad.sum_all(t), np.array([1.0]), h=0.0)

    @pytest.mark.parametrize("case", ["add", "mul", "relu", "sigmoid", "log", "square",
                                      "softmax", "grid_linear", "mean"])
    def test_primitives_against_central_differences(self, case):
        """Every primitive at 100 random points, relative error < 1e-4."""
        rng = np.random.default_rng(hash(case) % (2**32))
        other = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(size=(2, 4)))
        bias = Tensor(rng.normal(size=2))
        builders = {
            "add": lambda t: ad.sum_all(ad.add(t, other)),
            "mul": lambda t: ad.sum_all(ad.mul(t, other)),
            # keep relu inputs away from the kink
            "relu": lambda t: ad.sum_all(ad.relu(t)),
            "sigmoid": lambda t: ad.sum_all(sigmoid(t)),
            "log": lambda t: ad.sum_all(log(t)),
            "square": lambda t: ad.sum_all(square(t)),
            "softmax": lambda t: ad.sum_all(square(ad.softmax(t, temperature=0.5))),
            "grid_linear": lambda t: ad.sum_all(square(ad.grid_linear(t, weight, bias))),
            "mean": lambda t: mean_all(square(t)),
        }
        f = builders[case]
        for trial in range(100):
            point = rng.normal(size=(3, 4))
            if case == "log":
                point = np.abs(point) + 0.5
            if case == "relu":
                point = np.where(np.abs(point) < 0.05, 0.5, point)
            assert finite_diff_check(f, point, h=1e-5) < 1e-4, f"{case} trial {trial}"


# ---------------------------------------------------------------------------
# gate_logits
# ---------------------------------------------------------------------------

class TestGateLogits:
    def test_degenerate_row_on_a_grid(self):
        """A zero row of u gets zero logits and zero du, and adds nothing to dE."""
        rng = np.random.default_rng(21)
        u_data = rng.normal(size=(2, 3, 4))
        u_data[1, 2] = 0.0
        emb = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(2, 3, 5))

        def run(rows, weights):
            u = Tensor(rows, requires_grad=True)
            E = Tensor(emb, requires_grad=True)
            logits = ad.gate_logits(u, E, 0.3)
            backward(ad.sum_all(ad.mul(logits, Tensor(weights))))
            return logits.data, u.grad, E.grad

        logits, du, dE = run(u_data, upstream)
        np.testing.assert_array_equal(logits[1, 2], np.zeros(5))
        np.testing.assert_array_equal(du[1, 2], np.zeros(4))
        keep = np.ones((2, 3), dtype=bool)
        keep[1, 2] = False
        rest_logits, _, rest_dE = run(u_data[keep], upstream[keep])
        np.testing.assert_allclose(logits[keep], rest_logits, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dE, rest_dE, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# structured ops: gather / mix / losses
# ---------------------------------------------------------------------------

class TestGatherLast:
    def test_forward_and_scatter_grad(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        idx = np.array([[0, 3], [1, 1], [2, 0]])
        out = ad.gather_last(x, idx)
        np.testing.assert_array_equal(out.data, [[0, 3], [5, 5], [10, 8]])
        backward(ad.sum_all(out))
        expected = np.zeros((3, 4))
        expected[0, 0] = expected[0, 3] = 1
        expected[1, 1] = 2  # duplicated index accumulates
        expected[2, 2] = expected[2, 0] = 1
        np.testing.assert_array_equal(x.grad, expected)

    def test_index_outside_last_axis_rejected(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        for bad in (4, -1):
            with pytest.raises(ShapeError, match="outside"):
                ad.gather_last(x, np.array([[0], [bad], [1]]))


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 2, 3)), requires_grad=True)
        labels = np.zeros((2, 2), dtype=int)
        loss = ad.cross_entropy_mean(logits, labels)
        assert abs(loss.item() - math.log(3.0)) < 1e-12

    def test_cross_entropy_oracle(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(2, 3, 4))
        labels = rng.integers(0, 4, size=(2, 3))
        # independent oracle: direct -log softmax picked entries
        p = np.exp(z - z.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        expected = -np.log(np.take_along_axis(p, labels[..., None], axis=-1)).mean()
        got = ad.cross_entropy_mean(Tensor(z), labels).item()
        assert abs(got - expected) < 1e-12

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 3, size=(2, 2))
        err = finite_diff_check(
            lambda t: ad.cross_entropy_mean(t, labels), rng.normal(size=(2, 2, 3)), h=1e-5
        )
        assert err < 1e-4

    def test_cross_entropy_rejects_bad_labels(self):
        with pytest.raises(DomainError):
            ad.cross_entropy_mean(Tensor(np.zeros((2, 3))), np.array([0, 5]))
        with pytest.raises(ShapeError):
            ad.cross_entropy_mean(Tensor(np.zeros((2, 3))), np.array([[0], [1]]))

    def test_smooth_l1_regions(self):
        target = np.array([0.0, 0.0])
        # |d| < 1 -> quadratic; |d| >= 1 -> linear minus 0.5
        small = ad.smooth_l1_mean(Tensor([0.4, -0.4]), target)
        assert abs(small.item() - 0.5 * 0.4**2) < 1e-15
        large = ad.smooth_l1_mean(Tensor([3.0, -3.0]), target)
        assert abs(large.item() - 2.5) < 1e-15

    def test_smooth_l1_grad(self):
        rng = np.random.default_rng(23)
        target = rng.normal(size=(3, 2))
        # keep |pred - target| away from the |d| = 1 junction
        point = target + np.where(rng.random((3, 2)) < 0.5, 0.4, 1.9)
        err = finite_diff_check(lambda t: ad.smooth_l1_mean(t, target), point, h=1e-5)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# batched ops against one op per sample, byte for byte
# ---------------------------------------------------------------------------

def _bytes(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def _summed(terms):
    """Per-sample terms added in sample order, the first taken as it is."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


class TestSampleAxis:
    def test_batched_grid_linear_matches_one_op_per_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            batch = int(rng.integers(1, 5))
            grid = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 3))))
            c_in, c_out = (int(v) for v in rng.integers(1, 9, size=2))
            x = rng.normal(size=(batch, *grid, c_in))
            weight = Tensor(rng.normal(size=(c_out, c_in)), requires_grad=True)
            bias = Tensor(rng.normal(size=c_out), requires_grad=True) if rng.random() < 0.7 else None
            out = ad.grid_linear(Tensor(x, requires_grad=True), weight, bias, batched=True)
            per = [ad.grid_linear(Tensor(x[s], requires_grad=True), weight, bias)
                   for s in range(batch)]
            assert out.data.tobytes() == np.stack([p.data for p in per]).tobytes()
            g = rng.normal(size=out.shape)
            got = out._op.vjp(g)
            grads = [p._op.vjp(g[s]) for s, p in enumerate(per)]
            expected = [np.stack([gr[0] for gr in grads]),
                        *(_summed([gr[i] for gr in grads]) for i in range(1, len(got)))]
            assert _bytes(got) == _bytes(expected)

    def test_batched_input_needs_a_grid_axis(self):
        with pytest.raises(ShapeError, match="needs \\(B, grid..., C\\) axes"):
            ad.grid_linear(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3))), batched=True)

    @pytest.mark.parametrize("loss", ["cross_entropy_mean", "smooth_l1_mean"])
    def test_head_loss_matches_per_sample_heads_losses_and_mean(self, loss):
        rng = np.random.default_rng(32 if loss == "smooth_l1_mean" else 33)
        for _ in range(100):
            batch = int(rng.integers(1, 5))
            lo = int(rng.integers(0, batch))
            n = int(rng.integers(1, batch - lo + 1))
            h, w, c = (int(v) for v in rng.integers(1, 5, size=3))
            width = int(rng.integers(2, 6))
            x = Tensor(rng.normal(size=(batch, h, w, c)), requires_grad=True)
            weight = Tensor(rng.normal(size=(width, c)), requires_grad=True)
            bias = Tensor(rng.normal(size=width), requires_grad=True)
            if loss == "cross_entropy_mean":
                targets = [rng.integers(0, width, size=(h, w)) for _ in range(n)]
            else:
                targets = [rng.normal(size=(h, w, width)) * 2.0 for _ in range(n)]
            node = head_loss(x, weight, bias, lo, targets, loss)
            backward(node)
            got = [x.grad, weight.grad, bias.grad]
            weight.zero_grad()
            bias.zero_grad()

            # One head and one loss per sample, then add in order and mul by 1/n.
            rows = [Tensor(x.data[lo + s], requires_grad=True) for s in range(n)]
            scores = [getattr(ad, loss)(ad.grid_linear(r, weight, bias), t)
                      for r, t in zip(rows, targets)]
            total = scores[0]
            for score in scores[1:]:
                total = ad.add(total, score)
            ref = ad.mul(total, 1.0 / n)
            backward(ref)
            assert node.data.tobytes() == ref.data.tobytes()
            assert got[0][lo:lo + n].tobytes() == np.stack([r.grad for r in rows]).tobytes()
            outside = np.delete(got[0], np.s_[lo:lo + n], axis=0)
            assert np.all(outside == 0.0) and np.all(np.signbit(outside))
            assert _bytes(got[1:]) == _bytes([weight.grad, bias.grad])


class TestHeadsNode:
    """``heads_loss`` against one ``head_loss`` node per task and ``add``, byte for byte."""

    def test_matches_head_loss_nodes_and_adds(self):
        rng = np.random.default_rng(34)
        seen = dict(both_losses=0, extreme=0, frozen=0)
        for _ in range(150):
            h, w, c = (int(v) for v in rng.integers(1, 4, size=3))
            counts = [int(v) for v in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            kinds = rng.choice(["cross_entropy_mean", "smooth_l1_mean"], size=len(counts))
            x = Tensor(rng.normal(size=(sum(counts), h, w, c)), requires_grad=rng.random() < 0.9)
            heads = []
            for n, loss in zip(counts, kinds):
                width = int(rng.integers(2, 6))
                weight = rng.normal(size=(width, c)) * rng.choice([1.0, 300.0])
                bias = rng.normal(size=width)
                # Zero rows with a +-700 bias give logits of exactly +-700.
                extreme = rng.random(width) < 0.3
                weight[extreme] = 0.0
                bias[extreme] = rng.choice([700.0, -700.0], size=int(extreme.sum()))
                if loss == "cross_entropy_mean":
                    # Every class is a label when there are enough positions.
                    targets = rng.permutation(np.resize(np.arange(width), n * h * w))
                    targets = targets.reshape(n, h, w)
                else:
                    targets = rng.normal(size=(n, h, w, width)) * 2.0
                heads.append((Tensor(weight, requires_grad=rng.random() < 0.9),
                              Tensor(bias, requires_grad=rng.random() < 0.9), targets, loss))
                seen["extreme"] += bool(extreme.any()) and loss == "cross_entropy_mean"
            seen["both_losses"] += len(set(kinds)) == 2
            seen["frozen"] += not all(t.requires_grad for t in [x, *(p for hd in heads
                                                                     for p in hd[:2])])

            node, means = ad.heads_loss(x, heads)
            ref_means, lo = [], 0
            for weight, bias, targets, loss in heads:
                ref_means.append(head_loss(x, weight, bias, lo, list(targets), loss))
                lo += len(targets)
            total = ref_means[0]
            for mean in ref_means[1:]:
                total = ad.add(total, mean)
            assert node.data.tobytes() == total.data.tobytes()
            assert [np.float64(m).tobytes() for m in means] == [m.data.tobytes() for m in ref_means]
            if node._op is None:
                assert total._op is None
                continue
            params = [p for weight, bias, *_ in heads for p in (weight, bias)]
            for g in (1.0, -0.0, float(rng.normal())):
                got = node._op.vjp(np.array(g))
                assert _bytes(got) == _bytes(replayed_adjoints(total, np.array(g), [x, *params]))
        assert min(seen.values()) > 10, seen

    def test_heads_must_take_the_whole_batch(self):
        x = Tensor(np.zeros((3, 2, 2, 2)), requires_grad=True)
        head = (Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)), np.zeros((2, 2, 2), dtype=int),
                "cross_entropy_mean")
        with pytest.raises(ShapeError, match="take 2 samples of a batch of 3"):
            ad.heads_loss(x, [head])


# ---------------------------------------------------------------------------
# stacked reductions and reused passes against the parent's loops, byte for byte
# ---------------------------------------------------------------------------

def _relu_adjoint(rng, shape):
    """An adjoint as relu's vjp gives it, -0.0 where a negative entry is masked.

    One sample's first channel is masked everywhere with negative entries, so
    its whole adjoint column is -0.0.
    """
    g = rng.normal(size=shape)
    pre = rng.normal(size=shape)
    s = int(rng.integers(shape[0]))
    g[s, ..., 0] = -np.abs(g[s, ..., 0]) - 0.1
    pre[s, ..., 0] = -1.0
    adjoint = ad.relu(Tensor(pre, requires_grad=True))._op.vjp(g)[0]
    column = adjoint[s, ..., 0]
    assert np.all(column == 0.0) and np.all(np.signbit(column))
    return adjoint


def _batch_shape(rng, channels):
    batch = int(rng.integers(1, 5))
    grid = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 3))))
    return (batch, *grid, channels)


class TestStackedReductions:
    def test_grid_linear_grads_match_per_sample_sum(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            c_in, c_out = (int(v) for v in rng.integers(1, 9, size=2))
            shape = _batch_shape(rng, c_in)
            x = rng.normal(size=shape)
            weight = Tensor(rng.normal(size=(c_out, c_in)), requires_grad=True)
            bias = Tensor(rng.normal(size=c_out), requires_grad=True)
            g = _relu_adjoint(rng, (*shape[:-1], c_out))
            expected = ref.linear_param_grads(g, x, weight.data, shape[0])
            batched = ad.grid_linear(Tensor(x), weight, bias, batched=True)
            assert _bytes(batched._op.vjp(g)[1:]) == _bytes(expected)
            one = ad.grid_linear(Tensor(x[0]), weight, bias)
            expected_one = ref.linear_param_grads(g[0], x[0], weight.data, 1)
            assert _bytes(one._op.vjp(g[0])[1:]) == _bytes(expected_one)

    def test_gate_embedding_grad_matches_per_sample_sum(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            d, n = (int(v) for v in rng.integers(1, 7, size=2))
            shape = _batch_shape(rng, d)
            u = rng.normal(size=shape)
            u[rng.random(shape[:-1]) < 0.1] = 0.0  # degenerate positions
            emb = rng.normal(size=(d, n))
            logits, saved = ad._cosine_logits(u, emb, float(rng.uniform(0.05, 2.0)))
            g = _relu_adjoint(rng, logits.shape)
            _, de = ad._cosine_logits_vjp(g, u, logits, saved, False, True, shape[0])
            expected = ref.cosine_embedding_grad(g, u, logits, saved, shape[0])
            assert _bytes([de]) == _bytes([expected])

    @pytest.mark.parametrize("loss", ["cross_entropy_mean", "smooth_l1_mean"])
    def test_head_loss_grads_match_per_sample_sum(self, loss):
        rng = np.random.default_rng(37 if loss == "smooth_l1_mean" else 38)
        negative_zero_columns = 0
        for _ in range(100):
            h, w, c = (int(v) for v in rng.integers(1, 5, size=3))
            n = int(rng.integers(1, 5))
            width = int(rng.integers(2, 6))
            x = Tensor(rng.normal(size=(n, h, w, c)), requires_grad=True)
            weight = Tensor(rng.normal(size=(width, c)), requires_grad=True)
            bias = Tensor(rng.normal(size=width), requires_grad=True)
            if loss == "cross_entropy_mean":
                targets = [rng.integers(0, width, size=(h, w)) for _ in range(n)]
            else:
                targets = [rng.normal(size=(h, w, width)) * 2.0 for _ in range(n)]
            node, _ = ad.heads_loss(x, [(weight, bias, np.stack(targets), loss)])
            out = ad._linear(x.data, weight.data, bias.data)
            # A -0.0 root adjoint turns every loss gradient into signed zeros.
            for g in (1.0, -0.0):
                scale = g * (1.0 / n)
                dout = np.stack([ref.PER_SAMPLE_LOSSES[loss](out[s], t)[1](scale)
                                 for s, t in enumerate(targets)])
                negative_zero = np.signbit(dout) & (dout == 0.0)
                negative_zero_columns += int(np.sum(np.all(negative_zero, axis=(1, 2))))
                expected = ref.linear_param_grads(dout, x.data, weight.data, n)
                assert _bytes(node._op.vjp(np.array(g))[1:]) == _bytes(expected)
        assert negative_zero_columns > 20

    def test_cross_entropy_matches_recomputed_softmax(self):
        rng = np.random.default_rng(39)
        for _ in range(300):
            n_classes = int(rng.integers(2, 7))
            lead = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(0, 3))))
            z = rng.normal(size=(*lead, n_classes)) * float(rng.choice([1.0, 40.0]))
            extreme = rng.random(z.shape)
            z[extreme < 0.1] = 700.0
            z[extreme > 0.9] = -700.0
            size = math.prod(lead)
            # Every class is a label when there are enough positions.
            labels = rng.permutation(np.resize(np.arange(n_classes), size)).reshape(lead)
            assert np.unique(labels).size == min(size, n_classes)
            values, stacked_vjp = ad._cross_entropy(z[None], labels[None])
            value, vjp = values[0], lambda g: stacked_vjp(g)[0]
            ref_value, ref_vjp = ref.cross_entropy_recompute(z, labels)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            for g in (1.0, 0.3, -0.0):
                assert vjp(g).tobytes() == ref_vjp(g).tobytes()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _composite(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    out = ad.softmax(ad.grid_linear(x, w), temperature=0.3)
    backward(mean_all(square(out)))
    return np.concatenate([out.data.reshape(-1), x.grad.reshape(-1), w.grad.reshape(-1)])


def test_bit_identical_across_runs():
    a, b = _composite(42), _composite(42)
    assert a.tobytes() == b.tobytes()

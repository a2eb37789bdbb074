"""Autodiff engine: forward values, backward rules, and tape behavior."""

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.tensor import (
    NumericError,
    ShapeError,
    Tensor,
    UsageError,
    backward,
    grad_check,
    layer_norm,
    matmul,
    no_grad,
    softmax,
)


def randt(rng, *shape, lo=-2.0, hi=2.0, requires_grad=True):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_additive_identity(self):
        x = Tensor([1.5, -2.0, 0.25])
        y = T.add(x, Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(y.data, x.data)

    def test_mul_backward_matches_finite_difference(self):
        # d(a*b)/da at a=[2], b=[3] -> [3]
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0])
        backward(T.tsum(a * b))
        assert a.grad[0] == pytest.approx(3.0, abs=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_log_domain_raises(self):
        with pytest.raises(NumericError):
            T.log(Tensor([1.0, -1.0]))

    def test_exp_overflow_raises(self):
        with pytest.raises(NumericError):
            T.exp(Tensor([1000.0]))

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "silu"])
    def test_unary_gradients(self, kind):
        rng = np.random.default_rng(3)
        x = randt(rng, 5)
        x.data += 0.1  # keep relu away from its kink
        rep = grad_check(lambda t: T.tsum(getattr(T, kind)(t)), x, h=1e-5, tol=1e-6)
        assert rep.passed, rep

    def test_trailing_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = randt(rng, 3, 4)
        b = randt(rng, 4)
        backward(T.tsum(a * b))
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=1e-12)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3)))
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data[0, 0] == pytest.approx(11.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(1)
        a = randt(rng, 3, 4)
        b = Tensor(rng.uniform(-2, 2, size=(4, 2)))
        rep = grad_check(lambda t: T.tsum(matmul(t, b)), a, h=1e-5, tol=1e-5)
        assert rep.passed, rep

    def test_batched_grad(self):
        rng = np.random.default_rng(2)
        a = randt(rng, 2, 3, 4)
        b = randt(rng, 2, 4, 3)
        rep = grad_check(lambda t: T.tsum(matmul(t, b)), a, h=1e-5, tol=1e-5)
        assert rep.passed
        rep = grad_check(lambda t: T.tsum(matmul(a, t)), b, h=1e-5, tol=1e-5)
        assert rep.passed

    def test_broadcast_2d_rhs_grad(self):
        rng = np.random.default_rng(5)
        a = randt(rng, 2, 3, 4)
        w = randt(rng, 4, 5)
        rep = grad_check(lambda t: T.tsum(matmul(a, t)), w, h=1e-5, tol=1e-5)
        assert rep.passed


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_max_subtraction_prevents_overflow(self):
        np.testing.assert_allclose(softmax(Tensor([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_against_high_precision_oracle(self):
        # independent evaluation via mpmath at 50 decimal digits
        import mpmath

        mpmath.mp.dps = 50
        logits = [1.0, 2.0, 3.0]
        es = [mpmath.e ** v for v in logits]
        tot = sum(es)
        expected = np.array([float(e / tot) for e in es])
        np.testing.assert_allclose(softmax(Tensor(logits)).data, expected, atol=1e-15)

    def test_probability_vector_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = Tensor(rng.uniform(-30, 30, size=(4, 9)))
            p = softmax(x, axis=-1).data
            assert (p >= 0).all()
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = randt(rng, 2, 5)
        w = Tensor(rng.normal(size=(2, 5)))
        rep = grad_check(lambda t: T.tsum(softmax(t, axis=-1) * w), x, h=1e-5, tol=1e-5)
        assert rep.passed


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_input(self):
        eps = 1e-12
        x = Tensor([[1.0, -1.0]])
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=eps)
        expected = 1.0 / np.sqrt(1.0 + eps)
        np.testing.assert_allclose(out.data, [[expected, -expected]], atol=1e-12)

    def test_mean_zero_unit_variance(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(2.0, 3.0, size=(6, 16)))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-12).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        x = randt(rng, 3, 6)
        gain = randt(rng, 6)
        bias = randt(rng, 6)
        w = Tensor(rng.normal(size=(3, 6)))

        def f_x(t):
            return T.tsum(layer_norm(t, gain, bias, 1e-5) * w)

        assert grad_check(f_x, x, h=1e-5, tol=1e-4).passed
        assert grad_check(lambda t: T.tsum(layer_norm(x, t, bias, 1e-5) * w), gain, h=1e-5, tol=1e-4).passed

    def test_bad_eps(self):
        with pytest.raises(UsageError):
            layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]), eps=0.0)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_diamond_accumulation(self):
        x = Tensor([3.0], requires_grad=True)
        y = x + x
        backward(y.sum())
        assert x.grad[0] == pytest.approx(2.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            backward(x + x)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        backward((x * 2.0).sum())
        backward((x * 3.0).sum())
        assert x.grad[0] == pytest.approx(5.0)

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            loss = T.tsum(softmax(matmul(x, w), axis=-1) * Tensor(rng.normal(size=(4, 4))))
            backward(loss)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run()
        h1, h2 = run()
        assert (g1 == h1).all() and (g2 == h2).all()

    def test_no_grad_records_nothing(self):
        T.reset_tape()
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            _ = (x * 2.0).sum()
        assert T.tape_size() == 0

    def test_tape_topological_order(self):
        T.reset_tape()
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0 + 1.0).sum()
        seen = set()
        for op in T._TAPE:
            for t in op.inputs:
                assert t._is_leaf or t.node_id in seen
            seen.add(op.output.node_id)
        backward(y)


class TestGatherOps:
    def test_gather_rows_grad(self):
        rng = np.random.default_rng(11)
        x = randt(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        backward(T.tsum(T.gather_rows(x, idx)))
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_rows_batched(self):
        rng = np.random.default_rng(12)
        x = randt(rng, 2, 4, 3)
        idx = np.array([[0, 1], [3, 3]])
        out = T.gather_rows_batched(x, idx)
        np.testing.assert_array_equal(out.data[1, 0], x.data[1, 3])
        rep = grad_check(lambda t: T.tsum(T.gather_rows_batched(t, idx)), x, h=1e-5, tol=1e-6)
        assert rep.passed

    def test_take_along_last_grad(self):
        rng = np.random.default_rng(13)
        x = randt(rng, 3, 5)
        idx = np.array([[0], [4], [2]])
        out = T.take_along_last(x, idx)
        np.testing.assert_array_equal(out.data[:, 0], x.data[[0, 1, 2], [0, 4, 2]])
        rep = grad_check(lambda t: T.tsum(T.take_along_last(t, idx)), x, h=1e-5, tol=1e-6)
        assert rep.passed

    def test_getitem_slice_grad(self):
        rng = np.random.default_rng(14)
        x = randt(rng, 6, 2)
        backward(T.tsum(x[1:4]))
        expected = np.zeros((6, 2))
        expected[1:4] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_concat_grad(self):
        rng = np.random.default_rng(15)
        a, b = randt(rng, 2, 3), randt(rng, 4, 3)
        w = Tensor(rng.normal(size=(6, 3)))
        backward(T.tsum(T.concat([a, b], axis=0) * w))
        np.testing.assert_allclose(a.grad, w.data[:2], rtol=1e-12)
        np.testing.assert_allclose(b.grad, w.data[2:], rtol=1e-12)


class TestGradCheck:
    def test_sigmoid_sum(self):
        rng = np.random.default_rng(16)
        x = randt(rng, 6)
        rep = grad_check(lambda t: T.tsum(T.sigmoid(t)), x, h=1e-5, tol=1e-6)
        assert rep.passed

    def test_linear_is_exact(self):
        rng = np.random.default_rng(17)
        x = randt(rng, 4)
        w = Tensor(rng.normal(size=4))
        rep = grad_check(lambda t: T.tsum(t * w), x, h=1e-4, tol=1e-9)
        assert rep.passed

    def test_h_out_of_range_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(UsageError):
            grad_check(lambda t: t.sum(), x, h=1e-2)


class TestRandomOpGradients:
    """Every differentiable op matches central differences on random
    inputs in [-2, 2]."""

    @pytest.mark.parametrize("seed", range(3))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = randt(rng, 4, 6)
        w1 = Tensor(rng.uniform(-1, 1, size=(6, 6)))
        gain = Tensor(np.ones(6))
        bias = Tensor(np.zeros(6))

        def f(t):
            h = layer_norm(matmul(t, w1), gain, bias, 1e-5)
            return T.tsum(softmax(h, axis=-1) * T.silu(t))

        rep = grad_check(f, x, h=1e-5, tol=1e-4)
        assert rep.passed, rep


class TestAllocator:
    def test_peak_tracks_allocations(self):
        T.reset_peak_memory()
        base = T.peak_memory_mb()
        big = Tensor(np.zeros((1024, 1024)))  # 8 MB
        assert T.peak_memory_mb() - base >= 7.9
        del big
        T.reset_peak_memory()
        assert T.peak_memory_mb() < base + 8.0


class TestTapeAfterFailure:
    """A failed forward or backward leaves no ops behind on the tape."""

    @pytest.mark.parametrize("fail", ["finite_check", "exp_overflow", "log_domain"])
    def test_failed_forward_clears_tape(self, fail):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reset_tape()
        h = T.mul(T.add(x, 1.0), 3.0)          # two ops recorded before the failure
        assert T.tape_size() == 2
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            if fail == "finite_check":
                T.mul(h, 1e308)                 # overflows to inf in the output
            elif fail == "exp_overflow":
                T.exp(T.mul(h, 1e3))
            else:
                T.log(T.sub(h, 100.0))
        assert T.tape_size() == 0

    def test_failed_backward_clears_tape(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reset_tape()

        def broken_rule(g):
            raise RuntimeError("backward rule failed")

        y = T._make_output(x.data * 2.0, (x,), broken_rule, "broken")
        loss = T.tsum(T.add(y, 1.0))
        with pytest.raises(RuntimeError):
            T.backward(loss)
        assert T.tape_size() == 0

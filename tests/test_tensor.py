"""Autodiff engine: forward values, backward rules, and tape behavior."""

import tracemalloc
import weakref

import numpy as np
import pytest

from hydra_lab import model, moe, pkm, ssm, workspace
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

    @pytest.mark.parametrize("kind", ["sigmoid", "silu"])
    def test_unary_gradients(self, kind):
        rng = np.random.default_rng(3)
        x = randt(rng, 5)
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

    def test_affine_must_broadcast_to_input(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 1, 4))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("shape", [(7,), (3, 5, 33)])
    def test_bit_identical_to_five_array_forward(self, shape):
        rng = np.random.default_rng(11)
        xd, gd, bd = rng.normal(1.0, 3.0, size=shape), rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mu = xd.mean(axis=-1, keepdims=True)
        xc = xd - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        expected = (xc * inv) * gd + bd
        out = layer_norm(Tensor(xd), Tensor(gd), Tensor(bd), 1e-5)
        np.testing.assert_array_equal(out.data, expected)

    def test_no_grad_peak_two_arrays(self):
        x = Tensor(np.random.default_rng(12).normal(size=(512, 1024)))     # 4 MiB
        gain, bias = Tensor(np.ones(1024)), Tensor(np.zeros(1024))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = layer_norm(x, gain, bias, 1e-5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output and one more array; the five-array forward peaked at four
        assert peak < 2.5 * out.data.nbytes, peak / out.data.nbytes


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


def silu_oracle(x: Tensor) -> Tensor:
    """``T.silu`` as it was before the SiLU kernel, kept as its oracle."""
    xd = x.data
    s = T._stable_sigmoid(xd)

    def bwd(g):
        return (g * (s + xd * s * (1.0 - s)),)

    return T._make_output(xd * s, (x,), bwd, "silu_oracle")


class TestSiluKernel:
    """One SiLU kernel: blockwise without a full-size sigmoid under
    ``no_grad``, and the old op's bits either way."""

    @pytest.mark.parametrize("shape", [(), (5,), (3, T.SILU_CHUNK // 3 + 7), (2 * T.SILU_CHUNK + 1,)])
    def test_bit_identical_to_old_silu(self, shape):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(0.0, 8.0, size=shape), requires_grad=True)
        w = rng.normal(size=shape)
        outs, grads = [], []
        for f in (T.silu, silu_oracle):
            x.zero_grad()
            T.reset_tape()
            y = f(x)
            backward(T.tsum(T.mul(y, w)))
            outs.append(y.data)
            grads.append(x.grad)
            with no_grad():
                outs.append(f(x).data)
        for o in outs[1:]:
            np.testing.assert_array_equal(outs[0], o)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_in_place_and_kept_sigmoid(self):
        x = np.random.default_rng(51).normal(size=(7, 9))
        ref = x * T._stable_sigmoid(x)
        out, s = T._silu(x.copy(), np.empty(x.shape), keep=True)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(s, T._stable_sigmoid(x))
        buf = x.copy()
        out, s = T._silu(buf, buf)
        assert out is buf and s is None
        np.testing.assert_array_equal(buf, ref)

    def test_grad_check_across_blocks(self, monkeypatch):
        monkeypatch.setattr(T, "SILU_CHUNK", 3)
        x = randt(np.random.default_rng(52), 2, 5)
        with no_grad():
            np.testing.assert_array_equal(T.silu(x).data, silu_oracle(x).data)
        rep = grad_check(lambda t: T.tsum(T.silu(t) * t), x, h=1e-5, tol=1e-6)
        assert rep.passed, rep

    def test_no_grad_peak_keeps_no_sigmoid(self):
        x = Tensor(np.random.default_rng(53).normal(size=(512, 1024)))     # 4 MiB
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = T.silu(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output and one block's sigmoid; the old op added a 4 MiB sigmoid
        assert peak < out.data.nbytes + 4 * 8 * T.SILU_CHUNK, peak / out.data.nbytes


class TestGatedAdd:
    """``gated_add(x, g, p)`` is ``add(x, mul(g, p))`` as one op."""

    @pytest.fixture(params=["scalar", "per_token"])
    def operands(self, request):
        rng = np.random.default_rng(54)
        gshape = () if request.param == "scalar" else (2, 7, 1)
        return (randt(rng, 2, 7, 5), randt(rng, *gshape, lo=0.0, hi=1.0), randt(rng, 2, 7, 5),
                rng.normal(size=(2, 7, 5)))

    def test_bit_identical_to_add_mul_chain(self, operands):
        x, g, p, w = operands
        outs, grads = [], []
        for f in (T.gated_add, lambda a, b, c: T.add(a, T.mul(b, c))):
            for t in (x, g, p):
                t.zero_grad()
            T.reset_tape()
            y = f(x, g, p)
            backward(T.tsum(T.mul(y, w)))
            outs.append(y.data)
            grads.append([t.grad for t in (x, g, p)])
            with no_grad():             # gated_add writes into p here: pass a copy
                outs.append(f(x, g, Tensor(p.data.copy())).data)
        for o in outs[1:]:
            np.testing.assert_array_equal(outs[0], o)
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check(self, operands, which):
        x, g, p, w = operands
        ops = [x, g, p]

        def f(t):
            a, b, c = ops[:which] + [t] + ops[which + 1:]
            # c times one is a fresh p: the finite differences run under
            # no_grad, where gated_add writes into p
            return T.tsum(T.mul(T.gated_add(a, b, T.mul(c, 1.0)), w))

        rep = grad_check(f, ops[which], h=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_one_tape_op_keeps_no_product(self, operands):
        x, g, p, _ = operands
        T.reset_tape()
        y = T.gated_add(x, g, p)
        assert T.tape_size() == 1 and T._TAPE[0].name == "gated_add"
        assert not np.shares_memory(y.data, p.data)          # recorded: p is kept for the backward
        T.reset_tape()

    def test_writes_into_p_when_not_recorded(self, operands):
        x, g, p, _ = operands
        want = T.add(x, T.mul(g, p)).data
        T.reset_tape()
        buf = p.data.copy()
        with no_grad():
            y = T.gated_add(x, g, Tensor(buf))
            np.testing.assert_array_equal(y.data, want)
            assert np.shares_memory(y.data, buf)
            x0 = x.data.copy()
            z = T.gated_add(x, g, x)                          # p is x: a new array
            assert not np.shares_memory(z.data, x.data)
            np.testing.assert_array_equal(x.data, x0)
            ro = p.data.copy()
            ro.flags.writeable = False
            r = T.gated_add(x, g, Tensor(ro))                 # read-only p: a new array
            row = p.data[:, :, :1].copy()
            b = T.gated_add(x, g, Tensor(row))                # p broadcast up: a new array
        np.testing.assert_array_equal(z.data, T.add(x, T.mul(g, x)).data)
        assert not np.shares_memory(r.data, ro)
        np.testing.assert_array_equal(r.data, want)
        np.testing.assert_array_equal(row, p.data[:, :, :1])
        np.testing.assert_array_equal(b.data, T.add(x, T.mul(g, Tensor(row))).data)
        T.reset_tape()


def sigmoid_oracle(xd):
    """The clipped formula ``_stable_sigmoid`` replaced, kept as its oracle."""
    out = np.exp(-np.clip(np.abs(xd), 0.0, 709.0))
    out = 1.0 / (1.0 + out)
    return np.where(xd >= 0, out, 1.0 - out)


class TestStableSigmoid:
    def test_bit_identical_to_clipped_formula(self):
        special = np.array([0.0, 1e-300, 5e-324, 708.0, 709.0, 710.0, 745.0, 800.0, np.inf])
        rng = np.random.default_rng(40)
        x = np.concatenate([rng.normal(0.0, 30.0, size=20000), rng.normal(0.0, 1e-3, size=2000),
                            special, -special])
        got = T._stable_sigmoid(x)
        np.testing.assert_array_equal(got.view(np.int64), sigmoid_oracle(x).view(np.int64))

    def test_shape_kept_and_input_untouched(self):
        x = np.random.default_rng(41).normal(size=(3, 4))
        before = x.copy()
        assert T._stable_sigmoid(x).shape == (3, 4)
        assert T._stable_sigmoid(np.array(-2.0)).shape == ()
        np.testing.assert_array_equal(x, before)


class TestAllocator:
    def test_peak_tracks_allocations(self):
        T.reset_peak_memory()
        base = T.peak_memory_mb()
        big = Tensor(np.zeros((1024, 1024)))  # 8 MB
        assert T.peak_memory_mb() - base >= 7.9
        del big
        T.reset_peak_memory()
        assert T.peak_memory_mb() < base + 8.0


class TestTapeRelease:
    """``backward`` frees each op, and what it saved, once its rule has run."""

    def test_interior_output_dead_before_earlier_rule_runs(self):
        x = Tensor(np.ones(4), requires_grad=True)
        T.reset_tape()
        seen = []

        def probe_rule(g):
            seen.append(ref())
            return (g * 2.0,)

        def build():
            h = T._make_output(x.data * 2.0, (x,), probe_rule, "probe")
            h = T.mul(h, 3.0)
            h = T.mul(h, 4.0)
            return weakref.ref(h), T.tsum(T.mul(h, 5.0))

        ref, loss = build()
        assert ref() is not None
        backward(loss)
        assert seen == [None]
        np.testing.assert_array_equal(x.grad, np.full(4, 120.0))

    def test_live_bytes_in_first_rule_stay_small(self):
        mib = 2**20
        x = Tensor(np.ones(mib // 8), requires_grad=True)
        T.reset_tape()
        live = []

        def build():
            saved = x.data * 2.0                # a fresh 1 MiB array the op keeps

            def rule(g):
                live.append(tracemalloc.get_traced_memory()[0] - base)
                return (g * 2.0,)

            h = T._make_output(saved, (x,), rule, "saves")
            for _ in range(16):
                h = T.mul(h, 1.0)
            return T.tsum(h)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward(build())
        finally:
            tracemalloc.stop()
        # the rule's own array and its incoming gradient: 2 MiB; keeping the
        # sixteen mul outputs for the whole sweep would add 16 MiB more
        assert live[0] < 4 * mib
        np.testing.assert_array_equal(x.grad, np.full(mib // 8, 2.0))


class TestTapeAfterFailure:
    """A failed forward or backward leaves no ops behind on the tape."""

    @pytest.mark.parametrize("fail", ["finite_check", "dense_ffn_hidden"])
    def test_failed_forward_clears_tape(self, fail):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reset_tape()
        h = T.mul(T.add(x, 1.0), 3.0)          # two ops recorded before the failure
        assert T.tape_size() == 2
        with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
            if fail == "finite_check":
                T.mul(h, 1e308)                 # overflows to inf in the output
            else:                               # x W_in overflows to inf
                model.dense_ffn(T.reshape(h, (1, 2)), Tensor(np.full((2, 3), 1e308)), Tensor(np.ones((3, 1))))
        assert T.tape_size() == 0

    @pytest.mark.parametrize("fail", ["add_shape", "matmul_shape", "reshape_shape", "concat_shape",
                                      "layer_norm_usage", "transpose_axis", "getitem_index",
                                      "take_along_last_index", "scatter_rows_index", "load_balance_usage",
                                      "cross_entropy_index", "cross_entropy_usage", "pkm_blend_usage",
                                      "workspace_read_usage", "pkm_read_index", "ssm_scan_shape",
                                      "pkm_bruteforce_usage", "gated_add_shape"])
    def test_shape_or_usage_error_clears_tape(self, fail):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        T.reset_tape()
        h = T.matmul(T.mul(x, 2.0), np.ones((3, 3)))   # two ops recorded before the failure
        assert T.tape_size() == 2
        err = UsageError if fail.endswith("_usage") else ShapeError
        with pytest.raises(err):
            if fail == "add_shape":
                T.add(h, np.ones((4, 3)))
            elif fail == "matmul_shape":
                T.matmul(h, np.ones((2, 3)))
            elif fail == "reshape_shape":
                T.reshape(h, (5,))
            elif fail == "concat_shape":
                T.concat([h, np.ones((2, 4))], axis=0)
            elif fail == "layer_norm_usage":
                T.layer_norm(h, np.ones(3), np.zeros(3), eps=0.0)
            elif fail == "transpose_axis":
                T.transpose(h, (0, 5))
            elif fail == "getitem_index":
                h[5]
            elif fail == "take_along_last_index":
                T.take_along_last(h, np.array([[0, 3], [1, 2]]))
            elif fail == "scatter_rows_index":
                moe.scatter_rows([(h, np.array([0, 4]))], 3)
            elif fail == "cross_entropy_index":
                T.cross_entropy(h, np.array([0, 3]), np.ones(2))
            elif fail == "cross_entropy_usage":
                T.cross_entropy(h, np.array([0, 2]), np.zeros(2))
            elif fail == "pkm_blend_usage":
                pkm.pkm_blend(h, h, 1.5, Tensor(np.eye(3)))
            elif fail == "workspace_read_usage":
                ws = workspace.init_workspace_params(3, 2, 2, 2, np.random.default_rng(0))
                workspace.workspace_read(T.reshape(h, (1, 2, 3)), Tensor(np.zeros((1, 1, 2, 3))),
                                         Tensor(np.full((1, 2), -0.5)), ws, 2)
            elif fail == "pkm_read_index":
                pkm.pkm_read(h[:, :2], Tensor(np.ones((4, 3))), np.array([[0, 4], [1, 2]]))
            elif fail == "ssm_scan_shape":
                ssm.ssm_scan(h, ssm.init_ssm_params(4, np.random.default_rng(0)))
            elif fail == "pkm_bruteforce_usage":
                N = 1001                                # N^2 over the 10^6 guard
                store = pkm.PkmStore(codebook1=Tensor(np.zeros((N, 1))), codebook2=Tensor(np.zeros((N, 1))),
                                     values=Tensor(np.zeros((N * N, 1))), t_candidates=1, k_composites=1,
                                     w_query=Tensor(np.zeros((2, 3))), w_val=Tensor(np.zeros((3, 1))))
                pkm.pkm_bruteforce(h[:, :2], store)
            elif fail == "gated_add_shape":
                T.gated_add(h, 2.0, np.ones((4, 3)))
            else:
                moe.load_balance_loss(Tensor(np.ones((0, 4))), np.full(4, 0.25))
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

    def test_rule_raising_mid_sweep_clears_tape(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reset_tape()

        def broken_rule(g):
            raise RuntimeError("backward rule failed")

        h = T.mul(x, 3.0)                       # still on the tape when the rule raises
        y = T._make_output(h.data * 2.0, (h,), broken_rule, "broken")
        loss = T.tsum(T.add(y, 1.0))
        with pytest.raises(RuntimeError):
            T.backward(loss)
        assert T.tape_size() == 0
        assert x.grad is None

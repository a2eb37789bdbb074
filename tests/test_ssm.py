"""Recurrent backbone: recurrence semantics, prefix-invariance, boundedness,
and the fused layer op against the seven-op chain it replaced."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.ssm import SSM_TAPE_OPS, SsmLayerParams, diag_recurrence, init_ssm_params, ssm_scan
from hydra_lab.tensor import Tensor, backward, grad_check, no_grad


@pytest.fixture
def params():
    return init_ssm_params(4, np.random.default_rng(0))


def unrolled_reference(x, params):
    """Straight-line recomputation of the scan, no shared code path."""
    a = 1.0 / (1.0 + np.exp(-params.decay_logits.data))
    h = np.zeros(x.shape[1])
    ys = []
    for t in range(x.shape[0]):
        u = x[t] @ params.input_proj.data
        h = a * h + (1 - a) * u
        g = x[t] @ params.gate_proj.data
        sil = g / (1.0 + np.exp(-g))
        ys.append((h @ params.output_proj.data) * sil)
    return np.stack(ys), h


def recurrence_oracle(a: Tensor, u: Tensor) -> Tensor:
    """The recurrence as the tape op it was before ``ssm_scan`` was fused:
    h_t = a * h_{t-1} + (1-a) * u_t, with its reverse-loop backward."""
    ad, ud = a.data, u.data
    L = ud.shape[-2]
    one_minus = 1.0 - ad
    h = np.empty_like(ud)
    prev = np.zeros(ud.shape[:-2] + ud.shape[-1:])
    for t in range(L):
        prev = ad * prev + one_minus * ud[..., t, :]
        h[..., t, :] = prev

    def bwd(g):
        gu = np.empty_like(ud)
        ga = np.zeros_like(ad)
        carry = np.zeros(ud.shape[:-2] + ud.shape[-1:])
        batch_axes = tuple(range(ud.ndim - 2))
        for t in range(L - 1, -1, -1):
            gt = g[..., t, :] + ad * carry
            gu[..., t, :] = one_minus * gt
            hprev = h[..., t - 1, :] if t > 0 else 0.0
            contrib = gt * (hprev - ud[..., t, :])
            ga += contrib.sum(axis=batch_axes) if batch_axes else contrib
            carry = gt
        return ga, gu

    return T._make_output(h, (a, u), bwd, "recurrence_oracle")


def ssm_chain_oracle(x: Tensor, params: SsmLayerParams) -> Tensor:
    """The seven-op chain ``ssm_scan`` replaced, kept as its oracle."""
    a = T.sigmoid(params.decay_logits)
    u = T.matmul(x, params.input_proj)
    h = recurrence_oracle(a, u)
    gate = T.silu(T.matmul(x, params.gate_proj))
    return T.mul(T.matmul(h, params.output_proj), gate)


def recurrence(a, u):
    """h from the numpy kernel, for u [..., L, d] and a [d] as arrays."""
    return diag_recurrence(a, (1.0 - a) * u)


class TestScan:
    def test_zero_input_zero_output(self, params):
        with no_grad():
            y = ssm_scan(Tensor(np.zeros((5, 4))), params)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_single_step_base_case(self, params):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        a = 1.0 / (1.0 + np.exp(-params.decay_logits.data))
        expected_h = (1 - a) * (x[0] @ params.input_proj.data)
        h = recurrence(a, x @ params.input_proj.data)
        np.testing.assert_allclose(h[0], expected_h, rtol=1e-12)

    def test_three_step_hand_unroll(self, params):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        expected, _ = unrolled_reference(x, params)
        with no_grad():
            y = ssm_scan(Tensor(x), params)
        np.testing.assert_allclose(y.data, expected, rtol=1e-10, atol=1e-12)

    def test_batched_matches_per_sequence(self, params):
        rng = np.random.default_rng(3)
        xb = rng.normal(size=(3, 6, 4))
        with no_grad():
            yb = ssm_scan(Tensor(xb), params).data
            for b in range(3):
                y1 = ssm_scan(Tensor(xb[b]), params).data
                np.testing.assert_allclose(yb[b], y1, atol=1e-14)


class TestStateCarry:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_split_invariance(self, params, k):
        # the first k outputs depend on the first k inputs only
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 4))
        with no_grad():
            full = ssm_scan(Tensor(x), params).data
            prefix = ssm_scan(Tensor(x[:k]), params).data
        np.testing.assert_allclose(prefix, full[:k], atol=1e-12)

    def test_geometric_decay_on_zero_input(self, params):
        # an impulse at t = 0 decays geometrically: h_t = a^t (1 - a) v
        v = np.array([1.0, -1.0, 0.5, 2.0])
        a = 1.0 / (1.0 + np.exp(-params.decay_logits.data))
        u = np.zeros((5, 4))
        u[0] = v
        h = recurrence(a, u)
        for t in range(5):
            np.testing.assert_allclose(h[t], a ** t * (1 - a) * v, rtol=1e-12)


class TestGradients:
    # the recurrence is not a tape op of its own: its inputs a and u reach
    # it through the decay logits and the input projection
    def test_recurrence_grads(self):
        rng = np.random.default_rng(6)
        p = init_ssm_params(3, rng)
        p.decay_logits.data[:] = rng.uniform(-1, 2, size=3)
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(5, 3)))
        for name in ("decay_logits", "input_proj"):
            rep = grad_check(lambda t: T.tsum(ssm_scan(x, replace(p, **{name: t})) * w),
                             getattr(p, name), h=1e-5, tol=1e-5)
            assert rep.passed, (name, rep)

    def test_h0_grad(self):
        # gradient of an impulse at t = 0, which every later state carries
        rng = np.random.default_rng(7)
        p = init_ssm_params(3, rng)
        p.decay_logits.data[:] = np.log(0.8 / 0.2)              # a = 0.8
        rest = Tensor(rng.normal(size=(3, 3)))
        x0 = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        rep = grad_check(lambda t: T.tsum(ssm_scan(T.concat([t, rest], axis=0), p)), x0,
                         h=1e-5, tol=1e-6)
        assert rep.passed, rep

    def test_full_layer_grads(self, params):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        rep = grad_check(lambda t: T.tsum(ssm_scan(t, params)), x, h=1e-5, tol=1e-4)
        assert rep.passed
        rep = grad_check(lambda t: T.tsum(ssm_scan(x, SsmLayerParams(t, params.input_proj, params.gate_proj, params.output_proj, 4))), params.decay_logits, h=1e-5, tol=1e-4)
        assert rep.passed


class TestBoundedness:
    def test_no_overflow_on_16k_scan(self):
        params = init_ssm_params(16, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-1, 1, size=(16384, 16)))
        with no_grad():
            y = ssm_scan(x, params)  # finite-check inside every op
        a = 1.0 / (1.0 + np.exp(-params.decay_logits.data))
        row_norm = np.abs(params.input_proj.data).sum(axis=0).max()
        h = recurrence(a, x.data @ params.input_proj.data)
        bound = row_norm  # sup over geometric mixture of |u| <= row_norm
        assert np.abs(h).max() <= bound + 1e-9
        assert np.isfinite(y.data).all()


class TestFusedLayer:
    """``ssm_scan`` is one op that gives the seven-op chain's bits."""

    NAMES = ("decay_logits", "input_proj", "gate_proj", "output_proj")

    @staticmethod
    def _case(shape, seed):
        rng = np.random.default_rng(seed)
        p = init_ssm_params(shape[-1], rng)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        return p, x, rng.normal(size=shape)

    @staticmethod
    def _grads(f, x, p, w):
        for t in (x,) + tuple(t for _, t in p.parameters()):
            t.zero_grad()
        T.reset_tape()
        y = f(x, p)
        backward(T.tsum(T.mul(y, w)))
        return y.data, [x.grad] + [t.grad for _, t in p.parameters()]

    # B > 1, ragged L, and [.., L, d] sizes that are not a multiple of the
    # SiLU block (3 * 701 * 16 spans two blocks)
    @pytest.mark.parametrize("shape", [(3, 701, 16), (2, 37, 5), (29, 4), (1, 1, 6)])
    def test_bit_identical_to_chain(self, shape):
        p, x, w = self._case(shape, 30)
        y, grads = self._grads(ssm_scan, x, p, w)
        y_ref, grads_ref = self._grads(ssm_chain_oracle, x, p, w)
        np.testing.assert_array_equal(y, y_ref)
        for name, g, g_ref in zip(("x",) + self.NAMES, grads, grads_ref):
            assert np.array_equal(g, g_ref), name
        with no_grad():
            plain = ssm_scan(x, p)
            plain_ref = ssm_chain_oracle(x, p)
        assert not plain.requires_grad
        np.testing.assert_array_equal(plain.data, y)
        np.testing.assert_array_equal(plain_ref.data, y)

    @pytest.mark.parametrize("name", ("x",) + NAMES)
    def test_grad_check_every_input(self, name):
        p, x, w = self._case((2, 5, 3), 31)
        p.decay_logits.data[:] = np.random.default_rng(32).uniform(-1, 2, size=3)

        def loss(t):
            q = p if name == "x" else replace(p, **{name: t})
            return T.tsum(T.mul(ssm_scan(t if name == "x" else x, q), w))

        rep = grad_check(loss, x if name == "x" else getattr(p, name), h=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_tape_ops_per_call(self):
        p, x, _ = self._case((2, 9, 4), 33)
        T.reset_tape()
        ssm_scan(x, p)
        assert T.tape_size() == SSM_TAPE_OPS == 1
        assert T._TAPE[0].name == "ssm_scan"
        assert T._TAPE[0].inputs == (x, p.decay_logits, p.input_proj, p.gate_proj, p.output_proj)
        T.reset_tape()

    def test_no_grad_peak_two_layer_arrays(self):
        # [2, 2048, 64]: one [.., L, d] array is 2 MiB. The forward holds two
        # at a time plus small buffers; the chain it replaced held six
        p = init_ssm_params(64, np.random.default_rng(34))
        x = Tensor(np.random.default_rng(35).normal(size=(2, 2048, 64)))
        full = x.data.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                y = ssm_scan(x, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.data.nbytes == full
        assert peak < 2.5 * full, peak / full

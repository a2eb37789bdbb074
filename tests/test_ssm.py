"""Recurrent backbone: recurrence semantics, prefix-invariance, boundedness."""

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.ssm import SsmLayerParams, diag_recurrence, init_ssm_params, ssm_scan
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
        with no_grad():
            u = T.matmul(Tensor(x), params.input_proj)
            h = diag_recurrence(T.sigmoid(params.decay_logits), u)
        np.testing.assert_allclose(h.data[0], expected_h, rtol=1e-12)

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
        with no_grad():
            h = diag_recurrence(T.sigmoid(params.decay_logits), Tensor(u))
        for t in range(5):
            np.testing.assert_allclose(h.data[t], a ** t * (1 - a) * v, rtol=1e-12)


class TestGradients:
    def test_recurrence_grads(self):
        rng = np.random.default_rng(6)
        a_logits = Tensor(rng.uniform(-1, 2, size=3), requires_grad=True)
        u = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)))

        def f_a(t):
            return T.tsum(diag_recurrence(T.sigmoid(t), u) * w)

        def f_u(t):
            return T.tsum(diag_recurrence(T.sigmoid(a_logits), t) * w)

        assert grad_check(f_a, a_logits, h=1e-5, tol=1e-5).passed
        assert grad_check(f_u, u, h=1e-5, tol=1e-5).passed

    def test_h0_grad(self):
        # gradient of an impulse at t = 0, which every later state carries
        rng = np.random.default_rng(7)
        a = Tensor(np.full(3, 0.8))
        rest = Tensor(rng.normal(size=(3, 3)))
        u0 = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        rep = grad_check(lambda t: T.tsum(diag_recurrence(a, T.concat([t, rest], axis=0))), u0,
                         h=1e-5, tol=1e-6)
        assert rep.passed

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
        with no_grad():
            u = T.matmul(x, params.input_proj)
            h = diag_recurrence(T.sigmoid(params.decay_logits), u)
        bound = row_norm  # sup over geometric mixture of |u| <= row_norm
        assert np.abs(h.data).max() <= bound + 1e-9
        assert np.isfinite(y.data).all()

"""Workspace memory: causal write/read semantics, gating, cost."""

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.tensor import Tensor, UsageError, backward, no_grad
from hydra_lab.workspace import (
    init_workspace_params,
    workspace_read,
    workspace_write,
)


@pytest.fixture
def params():
    return init_workspace_params(d=8, s_total=6, s_active=3, rank=4, rng=np.random.default_rng(0))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def write_oracle(summ, p):
    """Plain-numpy causal write for one sequence: summ [C, d] -> [C, S_a, d]."""
    sa, scale = p.s_active, 1.0 / np.sqrt(p.rank)
    k, v = summ @ p.w_kw.data, summ @ p.w_vw.data
    active = p.init_slots.data[:sa].copy()
    states = [active.copy()]
    for c in range(len(summ) - 1):
        attn = _softmax((active @ p.w_qw.data) @ k[:c + 1].T * scale)
        active = active + (attn @ v[:c + 1]) @ p.w_ow.data
        states.append(active.copy())
    return np.stack(states)


def read_oracle(h, states, beta, p, cs):
    """Plain-numpy read for one sequence: token t attends to its chunk's slots."""
    out = h.copy()
    for t in range(len(h)):
        slots = states[t // cs]
        attn = _softmax((h[t] @ p.w_qr.data) @ (slots @ p.w_kr.data).T / np.sqrt(p.rank))
        out[t] += beta[t] * ((attn @ (slots @ p.w_vr.data)) @ p.w_or.data)
    return out


class TestWrite:
    def test_zero_value_projection_leaves_slots(self, params):
        params.w_vw.data[:] = 0.0
        summaries = Tensor(np.random.default_rng(1).normal(size=(1, 4, 8)))
        with no_grad():
            states = workspace_write(summaries, params)
        for c in range(4):
            np.testing.assert_allclose(states.data[0, c], params.init_slots.data[:3], atol=1e-15)

    def test_single_summary_gets_full_attention(self, params):
        summaries = Tensor(np.random.default_rng(2).normal(size=(1, 2, 8)))
        with no_grad():
            states = workspace_write(summaries, params)
        # chunk 0 reads the initial slots; the first round attends to one
        # summary, softmax over one element is 1: update = (s_0 Wv) Wo for every active slot
        np.testing.assert_array_equal(states.data[0, 0], params.init_slots.data[:3])
        upd = (summaries.data[0, :1] @ params.w_vw.data) @ params.w_ow.data
        expected = params.init_slots.data[:3] + upd
        np.testing.assert_allclose(states.data[0, 1], expected, atol=1e-12)

    def test_inactive_slots_unchanged(self, params):
        # only the s_active slots are written; rows past them never enter
        summaries = Tensor(np.random.default_rng(3).normal(size=(1, 5, 8)))
        states = workspace_write(summaries, params)
        assert states.data.shape == (1, 5, 3, 8)
        backward(T.tsum(states))
        assert np.abs(params.init_slots.grad[:3]).max() > 0
        np.testing.assert_array_equal(params.init_slots.grad[3:], 0.0)

    def test_double_write_accumulates(self, params):
        summaries = Tensor(np.random.default_rng(4).normal(size=(1, 3, 8)))
        with no_grad():
            states = workspace_write(summaries, params).data[0]
        assert np.abs(states[1] - states[0]).max() > 1e-8
        assert np.abs(states[2] - states[1]).max() > 1e-8

    def test_batched_matches_single(self, params):
        rng = np.random.default_rng(5)
        summ = rng.normal(size=(2, 4, 8))
        with no_grad():
            wsb = workspace_write(Tensor(summ), params)
            for b in range(2):
                ws1 = workspace_write(Tensor(summ[b:b + 1]), params)
                np.testing.assert_allclose(wsb.data[b], ws1.data[0], atol=1e-12)

    def test_matches_numpy_oracle(self, params):
        summ = np.random.default_rng(17).normal(size=(2, 5, 8))
        with no_grad():
            states = workspace_write(Tensor(summ), params)
        for b in range(2):
            np.testing.assert_allclose(states.data[b], write_oracle(summ[b], params), atol=1e-12)

    def test_state_c_sees_only_earlier_chunks(self, params):
        summ = np.random.default_rng(18).normal(size=(1, 5, 8))
        pert = summ.copy()
        pert[0, 2] += 3.0
        with no_grad():
            a = workspace_write(Tensor(summ), params).data
            b = workspace_write(Tensor(pert), params).data
        np.testing.assert_array_equal(a[:, :3], b[:, :3])
        assert np.abs(a[:, 3:] - b[:, 3:]).min() > 0


class TestRead:
    def _slots(self, params, C, seed):
        summ = Tensor(np.random.default_rng(seed).normal(size=(1, C, 8)))
        with no_grad():
            return workspace_write(summ, params)

    def test_closed_gate_is_identity(self, params):
        slots = self._slots(params, 2, 1)
        h = Tensor(np.random.default_rng(6).normal(size=(1, 5, 8)))
        with no_grad():
            out = workspace_read(h, slots, Tensor(np.zeros((1, 5))), params, 4)
        np.testing.assert_array_equal(out.data, h.data)

    def test_single_active_slot_read(self):
        params = init_workspace_params(d=8, s_total=4, s_active=1, rank=4, rng=np.random.default_rng(7))
        slots = self._slots(params, 2, 2)
        h = Tensor(np.random.default_rng(8).normal(size=(1, 6, 8)))
        with no_grad():
            out = workspace_read(h, slots, Tensor(np.ones((1, 6))), params, 3)
        # one slot: every token of chunk c reads exactly that chunk's slot value
        for c in range(2):
            read = (slots.data[0, c] @ params.w_vr.data) @ params.w_or.data
            np.testing.assert_allclose(out.data[0, 3 * c:3 * c + 3], h.data[0, 3 * c:3 * c + 3] + read,
                                       atol=1e-12)

    def test_aligned_query_dominates(self):
        # two orthogonal slots; a query aligned with slot 0's key wins
        p = init_workspace_params(d=4, s_total=2, s_active=2, rank=2, rng=np.random.default_rng(9))
        p.w_kr.data[:] = np.array([[1.0, 0.0], [0.0, 1.0], [0, 0], [0, 0]])
        p.w_qr.data[:] = p.w_kr.data
        slots = np.zeros((2, 4))
        slots[0, 0] = 10.0  # key ~ [10, 0] after projection
        slots[1, 1] = 10.0
        h = np.zeros((1, 4))
        h[0, 0] = 1.0  # query [1, 0] -> logit gap 10/sqrt(2) >= 5
        q = h @ p.w_qr.data
        k = slots @ p.w_kr.data
        logits = (q @ k.T) / np.sqrt(2)
        assert logits[0, 0] - logits[0, 1] >= 5.0
        w = np.exp(logits - logits.max())
        w /= w.sum()
        assert w[0, 0] > 0.9
        with no_grad():
            out = workspace_read(Tensor(h[None]), Tensor(slots[None, None]), Tensor(np.ones((1, 1))), p, 1)
        values = (slots @ p.w_vr.data) @ p.w_or.data
        np.testing.assert_allclose(out.data[0, 0], h[0] + w[0] @ values, atol=1e-12)

    def test_beta_out_of_range(self, params):
        slots = self._slots(params, 1, 3)
        with pytest.raises(UsageError):
            workspace_read(Tensor(np.zeros((1, 2, 8))), slots, Tensor([[0.5, 1.5]]), params, 4)

    def test_matches_numpy_oracle_at_ragged_length(self, params):
        rng = np.random.default_rng(19)
        h = rng.normal(size=(2, 10, 8))
        beta = rng.uniform(size=(2, 10))
        summ = rng.normal(size=(2, 3, 8))
        with no_grad():
            slots = workspace_write(Tensor(summ), params)
            out = workspace_read(Tensor(h), slots, Tensor(beta), params, 4)
        for b in range(2):
            want = read_oracle(h[b], write_oracle(summ[b], params), beta[b], params, 4)
            np.testing.assert_allclose(out.data[b], want, atol=1e-12)

    def test_gradient_reaches_initial_slots(self, params):
        summ = Tensor(np.random.default_rng(10).normal(size=(1, 2, 8)))
        h = Tensor(np.random.default_rng(10).normal(size=(1, 4, 8)))
        out = workspace_read(h, workspace_write(summ, params), Tensor(np.full((1, 4), 0.7)), params, 2)
        backward(T.tsum(out))
        assert params.init_slots.grad is not None
        assert np.abs(params.init_slots.grad[:3]).max() > 0

    def test_read_gradcheck(self, params):
        rng = np.random.default_rng(11)
        h = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        summ = Tensor(rng.normal(size=(1, 2, 8)))
        beta = Tensor(np.full((1, 3), 0.5))

        def f(t):
            return T.tsum(workspace_read(t, workspace_write(summ, params), beta, params, 2))

        assert T.grad_check(f, h, h=1e-5, tol=1e-4).passed


class TestCostScaling:
    def test_time_roughly_linear_in_rank(self, monkeypatch):
        # the multiply-accumulates of every matmul in one write plus read,
        # counted exactly: the rank-proportional work should ~double when
        # the projection rank doubles
        d, L, S, cs = 32, 512, 16, 64
        rng = np.random.default_rng(15)
        h = Tensor(rng.normal(size=(1, L, d)))
        summaries = Tensor(rng.normal(size=(1, L // cs, d)))
        beta = Tensor(np.full((1, L), 0.5))
        macs = []
        matmul = T.matmul

        def counting_matmul(a, b):
            out = matmul(a, b)
            macs[-1] += out.data.size * a.data.shape[-1]
            return out

        monkeypatch.setattr(T, "matmul", counting_matmul)

        def work(rank):
            params = init_workspace_params(d=d, s_total=S, s_active=8, rank=rank, rng=np.random.default_rng(16))
            macs.append(0)
            with no_grad():
                workspace_read(h, workspace_write(summaries, params), beta, params, cs)
            return macs[-1]

        ratio = work(512) / work(256)
        assert 1.6 <= ratio <= 2.4, f"rank-doubling work ratio {ratio:.2f}"

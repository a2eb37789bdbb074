"""Mixture-of-experts: routing, conditional compute, balance loss."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hydra_lab import moe
from hydra_lab import tensor as T
from hydra_lab.moe import (
    chunk_spans,
    dispatch_fractions,
    init_expert_pool,
    load_balance_loss,
    moe_apply,
    moe_tape_ops,
    top2_pairs,
)
from hydra_lab.tensor import Tensor, backward, no_grad


def route_all(x, pool, w_moe):
    """Route each chunk of x [B, L, d] by its own mean: (full, ids, weights)."""
    L = x.data.shape[1]
    means = [T.tmean(x[:, s:t], axis=1, keepdims=True) for s, t in chunk_spans(L, pool.chunk_size)]
    summaries = T.concat(means, axis=1) if len(means) > 1 else means[0]
    return top2_pairs(T.matmul(summaries, T.transpose(w_moe)))


def fixed_routing(ids, weights, B, C):
    """The same expert ids/weights for every (sequence, chunk)."""
    ids = np.broadcast_to(np.asarray(ids), (B, C, len(ids))).copy()
    w = Tensor(np.broadcast_to(np.asarray(weights, dtype=float), (B, C, len(weights))).copy())
    return ids, w


class TestRouteChunk:
    """Top-2 selection on router logits (``top2_pairs``)."""

    def test_k_equals_e_uses_both(self):
        full, ids, weights = top2_pairs(Tensor([1.0, -0.5]))
        np.testing.assert_array_equal(ids, [0, 1])
        np.testing.assert_allclose(weights.data, full.data, atol=1e-12)

    def test_dominant_logit_weight(self):
        # logits [10,0,0,0]: pair {0,1}, renormalized weight of expert 0
        # is 1/(1+e^-10) (computed independently at high precision)
        _, ids, weights = top2_pairs(Tensor([10.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(ids, [0, 1])
        import mpmath

        mpmath.mp.dps = 40
        expected = float(1 / (1 + mpmath.e ** -10))
        assert weights.data[0] == pytest.approx(expected, abs=1e-12)
        assert weights.data.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_tie_break(self):
        _, ids, weights = top2_pairs(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(ids, [0, 1])
        np.testing.assert_allclose(weights.data, [0.5, 0.5], atol=1e-12)

    def test_single_expert_takes_all(self):
        _, ids, weights = top2_pairs(Tensor(np.zeros((2, 3, 1))))
        assert ids.shape == (2, 3, 1) and (ids == 0).all()
        np.testing.assert_array_equal(weights.data, 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        r_c = rng.normal(size=5)
        w = rng.normal(size=(4, 5))
        perm = np.array([2, 0, 3, 1])
        _, base, _ = top2_pairs(Tensor(w @ r_c))
        _, permed, _ = top2_pairs(Tensor(w[perm] @ r_c))
        # expert j of the permuted pool is expert perm[j] of the base pool
        np.testing.assert_array_equal(np.sort(perm[permed]), base)

    def test_rows_route_independently(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, 5, 6))
        full, ids, weights = top2_pairs(Tensor(logits))
        for b in range(3):
            for c in range(5):
                f1, i1, w1 = top2_pairs(Tensor(logits[b, c]))
                np.testing.assert_array_equal(ids[b, c], i1)
                np.testing.assert_array_equal(weights.data[b, c], w1.data)
                np.testing.assert_array_equal(full.data[b, c], f1.data)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(8, 6)) @ rng.normal(size=6)
        _, ids_a, w_a = top2_pairs(Tensor(logits))
        _, ids_b, w_b = top2_pairs(Tensor(logits))
        np.testing.assert_array_equal(ids_a, ids_b)
        assert (w_a.data == w_b.data).all()


class TestMoeForward:
    """Chunk-routed expert application (``moe_apply``) on [B, L, d]."""

    def test_degenerate_single_expert_is_dense_ffn(self):
        rng = np.random.default_rng(2)
        pool = init_expert_pool(d=6, hidden=8, n_experts=1, chunk_size=4, rng=rng)
        x = Tensor(rng.normal(size=(2, 10, 6)))
        ids, w = fixed_routing([0], [1.0], B=2, C=3)
        with no_grad():
            out = moe_apply(x, pool, ids, w)
            dense = pool.experts[0](x)
        np.testing.assert_allclose(out.data, dense.data, atol=1e-12)

    def test_identical_routing_equals_weighted_dense_passes(self):
        rng = np.random.default_rng(3)
        pool = init_expert_pool(d=6, hidden=8, n_experts=4, chunk_size=4, rng=rng)
        x = Tensor(rng.normal(size=(1, 12, 6)))
        ids, w = fixed_routing([1, 2], [0.3, 0.7], B=1, C=3)
        with no_grad():
            out = moe_apply(x, pool, ids, w)
            oracle = 0.3 * pool.experts[1](x).data + 0.7 * pool.experts[2](x).data
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(4)
        pool = init_expert_pool(d=6, hidden=8, n_experts=2, chunk_size=8, rng=rng)
        x = Tensor(np.zeros((1, 8, 6)))
        ids, w = fixed_routing([0, 1], [0.5, 0.5], B=1, C=1)
        with no_grad():
            out = moe_apply(x, pool, ids, w)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_exactly_two_expert_evaluations_per_token(self):
        rng = np.random.default_rng(5)
        for E in (2, 4, 8):
            pool = init_expert_pool(d=4, hidden=4, n_experts=E, chunk_size=4, rng=rng)
            rows = []
            pool.experts = [_counting(e, rows) for e in pool.experts]
            x = Tensor(rng.normal(size=(2, 16, 4)))
            w_moe = Tensor(rng.normal(size=(E, 4)))
            _, ids, weights = route_all(x, pool, w_moe)
            with no_grad():
                moe_apply(x, pool, ids, weights)
            assert sum(rows) == 2 * 2 * 16  # two per token, independent of E

    def test_gradient_through_routing_weights(self):
        rng = np.random.default_rng(6)
        pool = init_expert_pool(d=5, hidden=6, n_experts=3, chunk_size=3, rng=rng)
        w_moe = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 9, 5)), requires_grad=True)

        def f(t):
            _, ids, weights = route_all(t, pool, w_moe)
            return T.tsum(moe_apply(t, pool, ids, weights))

        # selection is held fixed by construction at these inputs; the
        # soft weights and expert params carry the gradient
        rep = T.grad_check(f, x, h=1e-6, tol=1e-3)
        assert rep.passed, rep

    def test_router_weight_grad_nonzero(self):
        rng = np.random.default_rng(7)
        pool = init_expert_pool(d=5, hidden=6, n_experts=3, chunk_size=3, rng=rng)
        w_moe = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 6, 5)))
        _, ids, weights = route_all(x, pool, w_moe)
        backward(T.tsum(moe_apply(x, pool, ids, weights)))
        assert w_moe.grad is not None and np.abs(w_moe.grad).max() > 0

    def test_ragged_last_chunk_uses_its_own_pair(self):
        rng = np.random.default_rng(10)
        pool = init_expert_pool(d=4, hidden=5, n_experts=3, chunk_size=4, rng=rng)
        x = Tensor(rng.normal(size=(1, 10, 4)))
        ids = np.array([[[0, 1], [0, 2], [1, 2]]])
        w = Tensor(np.array([[[0.6, 0.4], [0.5, 0.5], [0.1, 0.9]]]))
        with no_grad():
            out = moe_apply(x, pool, ids, w).data[0]
            tail = 0.1 * pool.experts[1](x).data[0, 8:] + 0.9 * pool.experts[2](x).data[0, 8:]
        np.testing.assert_allclose(out[8:], tail, atol=1e-12)


class TestSwigluOp:
    """One expert call is one ``swiglu`` tape op with a hand-written backward."""

    @pytest.fixture
    def expert(self):
        rng = np.random.default_rng(20)
        e = init_expert_pool(d=5, hidden=6, n_experts=1, chunk_size=4, rng=rng).experts[0]
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=True)    # a ragged row count
        return e, x, rng.normal(size=(7, 5))

    @pytest.mark.parametrize("name", ["x", "w_gate", "w_in", "w_out"])
    def test_grad_check_every_input(self, expert, name):
        e, x, weight = expert

        def loss(t):
            ex = e if name == "x" else replace(e, **{name: t})
            return T.tsum(T.mul(ex(t if name == "x" else x), weight))

        rep = T.grad_check(loss, x if name == "x" else getattr(e, name), h=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_one_tape_op(self, expert):
        e, x, _ = expert
        T.reset_tape()
        e(x)
        assert T.tape_size() == 1 and T._TAPE[0].name == "swiglu"
        assert T._TAPE[0].inputs == (x, e.w_gate, e.w_in, e.w_out)
        T.reset_tape()

    def test_recorded_and_no_grad_forward_bit_identical(self, expert):
        e, x, _ = expert
        T.reset_tape()
        recorded = e(x)
        T.reset_tape()
        with no_grad():
            plain = e(x)
        assert recorded.requires_grad and not plain.requires_grad
        np.testing.assert_array_equal(recorded.data, plain.data)
        # the per-op chain it replaces, bit for bit
        with no_grad():
            chain = T.matmul(T.mul(T.silu(T.matmul(x, e.w_gate)), T.matmul(x, e.w_in)), e.w_out)
        np.testing.assert_array_equal(plain.data, chain.data)

    def test_no_grad_peak_keeps_no_sigmoid(self):
        # x [2048, 64] and h = 256: a and b are 4 MiB each. Under no_grad the
        # SiLU runs in place and b goes before the output is made; the old
        # forward also held a 4 MiB sigmoid and b beside the output
        rng = np.random.default_rng(23)
        e = init_expert_pool(d=64, hidden=256, n_experts=1, chunk_size=4, rng=rng).experts[0]
        x = Tensor(rng.normal(size=(2048, 64)))
        hidden = 2048 * 256 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                e(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * hidden, peak / hidden


class TestDispatch:
    """The rows ``moe_apply`` hands to ``scatter_rows``, and its tape cost."""

    def test_rows_distinct_per_expert_and_each_token_covered_k_times(self, monkeypatch):
        rng = np.random.default_rng(21)
        pool = init_expert_pool(d=4, hidden=4, n_experts=4, chunk_size=3, rng=rng)
        x = Tensor(rng.normal(size=(3, 11, 4)))                    # ragged last chunk
        _, ids, weights = route_all(x, pool, Tensor(rng.normal(size=(4, 4))))
        monkeypatch.setattr(T, "ROW_BLOCK", 8)                    # several blocks per expert
        called = []
        pool.experts = [lambda t, e=e, f=f: called.append(e) or f(t) for e, f in enumerate(pool.experts)]
        blocks = {}
        scatter = moe.scatter_rows

        def tap(parts):         # each part, filed under the expert that made it
            for v, rows in parts:
                blocks.setdefault(called[-1], []).append(rows)
                yield v, rows

        monkeypatch.setattr(moe, "scatter_rows", lambda parts, n: scatter(tap(parts), n))
        with no_grad():
            moe_apply(x, pool, ids, weights)
        assert max(len(b) for b in blocks.values()) > 1
        for b in blocks.values():
            rows = np.concatenate(b)
            assert np.unique(rows).size == rows.size
        counts = np.bincount(np.concatenate([np.concatenate(b) for b in blocks.values()]), minlength=3 * 11)
        np.testing.assert_array_equal(counts, ids.shape[-1])

    @pytest.mark.parametrize("E", [2, 4])
    def test_tape_ops_per_call(self, E):
        rng = np.random.default_rng(22)
        pool = init_expert_pool(d=4, hidden=4, n_experts=E, chunk_size=4, rng=rng)
        x = Tensor(rng.normal(size=(2, 10, 4)), requires_grad=True)
        ids, w = fixed_routing([0, 1], [0.5, 0.5], B=2, C=3)
        ids[1] = np.arange(E).reshape(-1, 2)[np.arange(3) % (E // 2)]   # every expert gets work
        w.requires_grad = True              # router weights carry gradient in the model
        T.reset_tape()
        moe_apply(x, pool, ids, w)
        assert T.tape_size() == moe_tape_ops(E)
        T.reset_tape()


class TestStreamedExperts:
    """Under ``no_grad`` the experts run in row blocks that ``scatter_rows``
    adds into the sum as they are made; the output keeps the recorded bits."""

    @staticmethod
    def _case(L, seed):
        # B = 2, chunk 4, E = 4 with expert 2 idle: top-2 pairs drawn from {0, 1, 3}
        rng = np.random.default_rng(seed)
        pool = init_expert_pool(d=8, hidden=16, n_experts=4, chunk_size=4, rng=rng)
        C = -(-L // 4)
        pairs = np.array([[0, 1], [0, 3], [1, 3]])
        ids = pairs[rng.integers(0, 3, size=(2, C))]
        w = Tensor(rng.dirichlet([1.0, 1.0], size=(2, C)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, L, 8)), requires_grad=True)
        return pool, x, ids, w

    @pytest.mark.parametrize("L, block", [(37, 16), (4099, None)])
    def test_no_grad_equals_recorded(self, monkeypatch, L, block):
        pool, x, ids, w = self._case(L, seed=24)
        if block is not None:
            monkeypatch.setattr(T, "ROW_BLOCK", block)
        rows = []
        pool.experts = [_counting(e, rows) for e in pool.experts]
        T.reset_tape()
        recorded = moe_apply(x, pool, ids, w)
        T.reset_tape()
        assert len(rows) == 3                                      # one call per busy expert
        with no_grad():
            plain = moe_apply(x, pool, ids, w)
        # every busy expert makes the same number of blocks: near-equal
        # ones of at most ROW_BLOCK rows, then empty ones
        n_blocks = -(-2 * L // T.ROW_BLOCK)
        assert n_blocks > 1 and len(rows) == 3 + 3 * n_blocks
        for e in range(3):
            _assert_blocks(rows[3 + e * n_blocks:3 + (e + 1) * n_blocks], rows[e])
        assert max(rows[3:]) > T.ROW_BLOCK // 2                    # some expert is split
        assert recorded.requires_grad and not plain.requires_grad
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_small_expert_runs_whole(self, monkeypatch):
        # B = 2, L = 37, chunk 4, ROW_BLOCK = 8: 10 blocks per busy expert.
        # Expert 2 gets one chunk (4 rows), expert 1 one chunk fewer than
        # expert 0. Splitting 4 rows ten ways would give 1-row blocks
        rng = np.random.default_rng(26)
        pool = init_expert_pool(d=8, hidden=16, n_experts=3, chunk_size=4, rng=rng)
        ids, _ = fixed_routing([0, 1], [0.5, 0.5], B=2, C=10)
        ids[1, 3] = [0, 2]
        w = Tensor(rng.dirichlet([1.0, 1.0], size=(2, 10)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 37, 8)), requires_grad=True)
        monkeypatch.setattr(T, "ROW_BLOCK", 8)
        rows = []
        pool.experts = [_counting(e, rows) for e in pool.experts]
        T.reset_tape()
        recorded = moe_apply(x, pool, ids, w)
        T.reset_tape()
        assert rows == [74, 70, 4]
        with no_grad():
            plain = moe_apply(x, pool, ids, w)
        assert len(rows) == 3 + 3 * 10
        for e in range(3):
            _assert_blocks(rows[3 + e * 10:3 + (e + 1) * 10], rows[e])
        assert rows[3 + 2 * 10:] == [4] + [0] * 9
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_no_grad_peak(self):
        # L = 16384, d = 32, h = 64: the output is 4 MiB, and every expert
        # runs over about 8192 rows. The layer now holds its output and one
        # block's arrays; it used to hold every weighted expert output
        # (2 outputs) until the scatter, beside the last expert's arrays
        rng = np.random.default_rng(25)
        pool = init_expert_pool(d=32, hidden=64, n_experts=4, chunk_size=64, rng=rng)
        x = Tensor(rng.normal(size=(1, 16384, 32)))
        _, ids, w = route_all(x, pool, Tensor(rng.normal(size=(4, 32))))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = moe_apply(x, pool, ids, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n = out.data.nbytes
        assert peak < 2 * n, peak / n


def _assert_blocks(blocks, total):
    """An expert's blocks: ceil(total / ROW_BLOCK) near-equal ones, each the
    whole or of at least ROW_BLOCK / 2 rows, then empty ones."""
    m = -(-total // T.ROW_BLOCK)
    full, empty = blocks[:m], blocks[m:]
    assert sum(full) == total and max(full) - min(full) <= 1 and max(full) <= T.ROW_BLOCK
    assert m == 1 or min(full) >= T.ROW_BLOCK / 2
    assert not any(empty)


def _counting(expert, rows):
    def call(x):
        rows.append(x.data.shape[0])
        return expert(x)
    return call


class TestLoadBalance:
    def test_uniform_is_one(self):
        E, C = 4, 8
        dist = Tensor(np.full((C, E), 1.0 / E))
        f = np.full(E, 1.0 / E)
        assert load_balance_loss(dist, f).item() == pytest.approx(1.0, abs=1e-12)

    def test_concentrated_exceeds_one(self):
        # every chunk sends all mass to expert 0 (conceptual k=1 case):
        # loss = E * p_hot * 1 = 4 * 0.85
        E, C = 4, 6
        p = np.full((C, E), 0.05)
        p[:, 0] = 0.85
        loss = load_balance_loss(Tensor(p), np.array([1.0, 0.0, 0.0, 0.0]))
        assert loss.item() == pytest.approx(4 * 0.85, abs=1e-12)
        assert loss.item() > 1.0

    def test_single_expert_always_one(self):
        dist = Tensor(np.ones((5, 1)))
        assert load_balance_loss(dist, np.array([1.0])).item() == pytest.approx(1.0)

    def test_dispatch_fractions(self):
        f = dispatch_fractions(np.array([[[0, 1], [0, 2]]]), 4)
        np.testing.assert_allclose(f, [0.5, 0.25, 0.25, 0.0])

    def test_balance_gradient_direction(self):
        # gradient pushes mean probability of the over-dispatched expert down
        rng = np.random.default_rng(8)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        dist = T.softmax(logits, axis=-1)
        loss = load_balance_loss(dist, np.array([1.0, 0.0, 0.0, 0.0]))
        backward(loss)
        assert logits.grad[:, 0].sum() > 0  # increasing expert-0 logits raises the loss

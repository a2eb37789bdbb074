"""Sparse attention: dense equivalence, causality, global-token reach."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from hydra_lab import tensor as T
from hydra_lab.attention import (DENSE_TAPE_OPS, SGA_TAPE_OPS, SgaLayerParams, _prefix_topk, init_sga_params,
                                 sga_cost, sga_forward, tiled_attention)
from hydra_lab.tensor import Tensor, no_grad


def dense_causal_oracle(h, params):
    """Brute-force L x L masked attention, plain numpy."""
    L, d = h.shape
    H = params.n_heads
    dh = d // H
    q = (h @ params.q_proj.data).reshape(L, H, dh).transpose(1, 0, 2)
    k = (h @ params.k_proj.data).reshape(L, H, dh).transpose(1, 0, 2)
    v = (h @ params.v_proj.data).reshape(L, H, dh).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    mask = np.triu(np.full((L, L), -np.inf), k=1)
    scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = (probs @ v).transpose(1, 0, 2).reshape(L, d)
    return out @ params.out_proj.data


def run(h, params, **kw):
    """sga_forward on one [L, d] sequence, under no_grad; returns [L, d]."""
    with no_grad():
        return sga_forward(Tensor(h[None]), params, **kw).data[0]


@pytest.fixture
def params():
    return init_sga_params(d=16, n_heads=4, window=4, max_globals=4, rng=np.random.default_rng(0))


class TestSelectGlobals:
    """The per-block selection rule: top-K saliency within the causal prefix."""

    def test_k_equals_l(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=16)
        np.testing.assert_array_equal(_prefix_topk(scores, 8, 8), np.arange(8))

    def test_spike_selected_first(self):
        h = np.zeros((10, 4))
        h[7] = [5.0, 0, 0, 0]
        assert _prefix_topk(h @ np.array([1.0, 0, 0, 0]), 10, 1).tolist() == [7]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(32, 16)) @ rng.normal(size=16)
        for hi in (5, 20, 32):
            expected = np.sort(np.argsort(-scores[:hi], kind="stable")[:4])
            np.testing.assert_array_equal(_prefix_topk(scores, hi, 4), expected)

    def test_tie_break_lower_index(self):
        np.testing.assert_array_equal(_prefix_topk(np.ones(6), 6, 3), [0, 1, 2])

    def test_k_too_large(self):
        # a prefix shorter than K contributes all of its positions
        np.testing.assert_array_equal(_prefix_topk(np.arange(9.0), 3, 4), [0, 1, 2])
        assert _prefix_topk(np.arange(9.0), 0, 4).size == 0


class TestDenseEquivalence:
    @pytest.mark.parametrize("L", [1, 7, 33, 64])
    def test_full_window_matches_oracle(self, L):
        rng = np.random.default_rng(L)
        params = init_sga_params(d=16, n_heads=4, window=max(L, 1), max_globals=0, rng=rng)
        h = rng.normal(size=(L, 16))
        np.testing.assert_allclose(run(h, params), dense_causal_oracle(h, params), atol=1e-10)

    def test_full_window_with_globals_still_dense(self):
        # with the window covering the prefix there is nothing left to
        # select: globals and explore positions add no reachable position
        rng = np.random.default_rng(99)
        params = init_sga_params(d=16, n_heads=2, window=64, max_globals=4, rng=rng)
        h = rng.normal(size=(48, 16))
        out = run(h, params, block_size=16, explore=np.array([[3, 20, 40]]))
        np.testing.assert_allclose(out, dense_causal_oracle(h, params), atol=1e-10)

    def test_blocking_invariance(self, params):
        # exact only without globals: selection is per query block
        windowed = replace(params, max_globals=0)
        h = np.random.default_rng(3).normal(size=(70, 16))
        np.testing.assert_allclose(run(h, windowed, block_size=16), run(h, windowed, block_size=512),
                                   atol=1e-12)

    def test_batched_matches_single(self, params):
        rng = np.random.default_rng(4)
        hb = rng.normal(size=(3, 40, 16))
        # explore positions give the rows different global counts per block,
        # so short rows are padded and masked
        explore = np.stack([np.array([2, 11, 30, 35]), np.array([0, 1, 2, 3]), np.array([5, 6, 20, 39])])
        with no_grad():
            out_b = sga_forward(Tensor(hb), params, block_size=8, explore=explore).data
        for b in range(3):
            out_1 = run(hb[b], params, block_size=8, explore=explore[b:b + 1])
            np.testing.assert_allclose(out_b[b], out_1, atol=1e-12)


class TestSingleToken:
    def test_l1_self_attention(self, params):
        h = np.random.default_rng(5).normal(size=(1, 16))
        expected = (h @ params.v_proj.data) @ params.out_proj.data
        np.testing.assert_allclose(run(h, params), expected, atol=1e-12)


class TestGlobalReach:
    def test_distant_global_contributes(self):
        # premise outside the window, reachable only as a global token
        rng = np.random.default_rng(6)
        params = init_sga_params(d=16, n_heads=2, window=8, max_globals=0, rng=rng)
        h = rng.normal(size=(64, 16))
        premise = np.array([[10]])
        out_with = run(h, params, block_size=1, explore=premise)
        out_without = run(h, params, block_size=1)
        # final token sits ~54 positions past the premise: only the
        # global route can move its value there
        assert np.abs(out_with[-1] - out_without[-1]).max() > 1e-8
        h2 = h.copy()
        h2[10] += 1.0
        assert np.abs(run(h2, params, block_size=1, explore=premise)[-1] - out_with[-1]).max() > 1e-8
        np.testing.assert_array_equal(run(h2, params, block_size=1)[-1], out_without[-1])

    def test_salient_spike_reaches_last_token(self):
        rng = np.random.default_rng(12)
        params = init_sga_params(d=16, n_heads=2, window=8, max_globals=2, rng=rng)
        sal = params.saliency_proj.data
        h = rng.normal(size=(64, 16))
        h[10] += 6.0 * sal / np.linalg.norm(sal)
        h2 = h.copy()
        h2[10] += 0.5
        moved = np.abs(run(h2, params, block_size=8)[-1] - run(h, params, block_size=8)[-1]).max()
        assert moved > 1e-8
        windowed = replace(params, max_globals=0)
        np.testing.assert_array_equal(run(h2, windowed, block_size=8)[-1], run(h, windowed, block_size=8)[-1])

    def test_no_double_counting_when_global_in_window(self):
        rng = np.random.default_rng(7)
        params = init_sga_params(d=8, n_heads=2, window=6, max_globals=0, rng=rng)
        h = rng.normal(size=(12, 8))
        # position 10 is within the window of token 11
        out = run(h, params, block_size=1, explore=np.array([[10]]))
        ref = run(h, params, block_size=1)
        np.testing.assert_allclose(out[11], ref[11], atol=1e-12)


class TestCausality:
    def test_future_perturbation_invisible(self, params):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(40, 16))
        base = run(h, params, block_size=4)
        for t in [5, 17, 33]:
            h2 = h.copy()
            h2[t] += rng.normal(size=16)
            np.testing.assert_allclose(run(h2, params, block_size=4)[:t], base[:t], atol=1e-12)

    def test_row_weights_sum_to_one(self, params):
        # probabilities are normalized inside; verify through a constant-v probe
        rng = np.random.default_rng(9)
        d = 16
        probe = SgaLayerParams(
            q_proj=Tensor(rng.normal(size=(d, d))),
            k_proj=Tensor(rng.normal(size=(d, d))),
            v_proj=Tensor(np.eye(d)),
            out_proj=Tensor(np.eye(d)),
            n_heads=4, window=4, max_globals=2,
            saliency_proj=Tensor(rng.normal(size=d)),
        )
        out = run(np.ones((30, d)), probe, block_size=4)
        np.testing.assert_allclose(out, 1.0, atol=1e-9)


class TestGradients:
    def test_grad_through_attention(self):
        rng = np.random.default_rng(10)
        params = init_sga_params(d=8, n_heads=2, window=3, max_globals=2, rng=rng)
        h = Tensor(rng.normal(size=(1, 10, 8)), requires_grad=True)
        rep = T.grad_check(lambda t: T.tsum(sga_forward(t, params, block_size=2)), h, h=1e-5, tol=1e-4)
        assert rep.passed, rep

    def test_saliency_bias_receives_grad(self):
        # the selection score also biases the global columns' logits,
        # which is the saliency projection's only gradient path
        rng = np.random.default_rng(11)
        params = init_sga_params(d=8, n_heads=2, window=3, max_globals=2, rng=rng)
        h = Tensor(rng.normal(size=(1, 12, 8)))
        T.backward(T.tsum(sga_forward(h, params, block_size=2)))
        assert np.abs(params.saliency_proj.grad).max() > 0
        rep = T.grad_check(lambda sp: T.tsum(sga_forward(h, replace(params, saliency_proj=sp), block_size=2)),
                           params.saliency_proj, h=1e-5, tol=1e-4)
        assert rep.passed, rep

    def test_windowed_only_needs_no_saliency(self, params):
        # max_globals == 0 and no explore: no score, no selection
        windowed = replace(params, max_globals=0, saliency_proj=None)
        h = np.random.default_rng(13).normal(size=(20, 16))
        np.testing.assert_array_equal(run(h, windowed, block_size=4), run(h, replace(params, max_globals=0), block_size=4))


class TestCost:
    def test_linear_in_l(self):
        assert sga_cost(2048, 64, 16, 256) == 2 * sga_cost(1024, 64, 16, 256)

    def test_dense_limit(self):
        L, d = 128, 32
        assert sga_cost(L, L, 0, d) == 4.0 * L * L * d

    def test_homogeneity(self):
        a = sga_cost(4096, 256, 512, 256)
        b = sga_cost(8192, 256, 512, 256)
        assert b / a == pytest.approx(2.0)


def tiled_oracle(h, params, block_size, explore=None):
    """Plain-numpy sparse attention on [B, L, d], one query row at a time.

    Row t of the tile starting at t0 sees its window [t - w, t] and the
    globals of that tile: the top-K saliency positions of [0, t0 - w)
    (ties to the lower index) plus the ``explore`` positions there, whose
    logits carry the saliency score as a bias.
    """
    B, L, d = h.shape
    H, w = params.n_heads, params.window
    dh = d // H
    K = min(params.max_globals, L)
    q, k, v = (h @ p.data for p in (params.q_proj, params.k_proj, params.v_proj))
    sal = h @ params.saliency_proj.data if params.saliency_proj is not None else None
    out = np.zeros((B, L, d))
    for b in range(B):
        for t in range(L):
            hi = max(0, (t // block_size) * block_size - w)
            glob = set()
            if K > 0 or explore is not None:
                glob = set(np.argsort(-sal[b, :hi], kind="stable")[:K].tolist())
                if explore is not None:
                    glob |= {int(p) for p in explore[b] if p < hi}
            glob = sorted(glob)
            cols = list(range(max(0, t - w), t + 1)) + glob
            bias = np.array([0.0] * (len(cols) - len(glob)) + [sal[b, p] for p in glob])
            for hd in range(H):
                sl = slice(hd * dh, (hd + 1) * dh)
                logits = k[b, cols, sl] @ q[b, t, sl] / np.sqrt(dh) + bias
                e = np.exp(logits - logits.max())
                out[b, t, sl] = (e / e.sum()) @ v[b, cols, sl]
    return out @ params.out_proj.data


def _salient_at_zero(rng, B, L, d, params):
    """Inputs whose sequence 0 ranks position 0 first by saliency."""
    h = rng.normal(size=(B, L, d))
    sal = params.saliency_proj.data
    h[0, 0] += 4.0 * sal / np.linalg.norm(sal)
    return h


class TestTiledKernel:
    """The fused attention op against a plain-numpy oracle."""

    @pytest.mark.parametrize("block_size", [1, 4, 8, 256])
    def test_matches_oracle(self, block_size):
        rng = np.random.default_rng(20 + block_size)
        params = init_sga_params(d=16, n_heads=4, window=3, max_globals=2, rng=rng)
        h = _salient_at_zero(rng, 2, 29, 16, params)
        # sequence 1 explores more positions than sequence 0, so sequence
        # 0's global columns are padded with position 0 beside a real 0
        explore = np.array([[0, 0, 0, 5], [2, 9, 14, 20]])
        for ex in (None, explore):
            expected = tiled_oracle(h, params, block_size, ex)
            with no_grad():
                got = sga_forward(Tensor(h), params, block_size=block_size, explore=ex).data
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_windowed_matches_oracle(self):
        rng = np.random.default_rng(30)
        params = init_sga_params(d=16, n_heads=2, window=5, max_globals=0, rng=rng)
        h = rng.normal(size=(2, 23, 16))
        expected = tiled_oracle(h, replace(params, saliency_proj=None), 4)
        with no_grad():
            got = sga_forward(Tensor(h), params, block_size=4).data
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["h", "q_proj", "k_proj", "v_proj", "saliency_proj"])
    def test_grad_check_through_op(self, name):
        rng = np.random.default_rng(31)
        params = init_sga_params(d=8, n_heads=2, window=2, max_globals=2, rng=rng)
        h = Tensor(_salient_at_zero(rng, 2, 11, 8, params))
        explore = np.array([[0, 0, 3], [1, 4, 6]])
        weight = Tensor(rng.normal(size=(2, 11, 8)))

        def loss(x):
            p = replace(params, **{name: x}) if name != "h" else params
            y = sga_forward(x if name == "h" else h, p, block_size=4, explore=explore)
            return T.tsum(T.mul(y, weight))

        x = h if name == "h" else getattr(params, name)
        x.requires_grad = True
        rep = T.grad_check(loss, x, h=1e-5, tol=1e-5)
        assert rep.passed, rep

    def test_no_selected_global_leaves_saliency_without_grad(self, params):
        # one tile whose window starts at 0: nothing is selected, so the
        # saliency score gets no gradient (a zero one would still move AdamW)
        h = Tensor(np.random.default_rng(35).normal(size=(1, 8, 16)), requires_grad=True)
        T.backward(T.tsum(sga_forward(h, params, block_size=8)))
        assert params.saliency_proj.grad is None
        assert np.abs(params.q_proj.grad).max() > 0

    @pytest.mark.parametrize("L,block_size", [(13, 4), (40, 8), (40, 256)])
    def test_tape_ops_per_call(self, L, block_size):
        params = init_sga_params(d=8, n_heads=2, window=3, max_globals=2, rng=np.random.default_rng(32))
        h = Tensor(np.random.default_rng(33).normal(size=(2, L, 8)), requires_grad=True)
        T.reset_tape()
        sga_forward(h, params, block_size=block_size)
        assert T.tape_size() == SGA_TAPE_OPS
        T.reset_tape()
        sga_forward(h, replace(params, max_globals=0), block_size=block_size)
        assert T.tape_size() == DENSE_TAPE_OPS
        T.reset_tape()

    def test_score_overflow_raises_and_clears_tape(self):
        rng = np.random.default_rng(34)
        params = init_sga_params(d=8, n_heads=2, window=3, max_globals=2, rng=rng)
        big = replace(params, q_proj=Tensor(params.q_proj.data * 1e155, requires_grad=True),
                      k_proj=Tensor(params.k_proj.data * 1e155, requires_grad=True))
        h = Tensor(rng.normal(size=(1, 12, 8)), requires_grad=True)
        T.reset_tape()
        with pytest.raises(T.NumericError), np.errstate(over="ignore", invalid="ignore"):
            sga_forward(h, big, block_size=4)
        assert T.tape_size() == 0

    def test_bad_block_size_clears_tape(self, params):
        h = Tensor(np.ones((1, 6, 16)), requires_grad=True)
        T.reset_tape()
        with pytest.raises(T.UsageError):
            sga_forward(h, params, block_size=0)
        assert T.tape_size() == 0

    # (L, window, K, explore, block_size)
    CASES = {
        "dense_window": (32, 32, 0, None, 8),
        "globals_and_explore": (40, 4, 3, [[0, 5, 9], [2, 2, 30]], 8),
        "ragged_last_tile": (29, 5, 2, None, 8),
        "block_over_length": (20, 6, 2, None, 64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_unrecorded_equals_recorded(self, case):
        # the unrecorded call reuses one score buffer and never divides the
        # scores; the recorded one keeps each tile's probabilities
        L, w, K, explore, block_size = self.CASES[case]
        rng = np.random.default_rng(36)
        q, k, v = (rng.normal(size=(2, 3, L, 8)) for _ in range(3))
        sal = rng.normal(size=(2, L, 1)) if K or explore is not None else None
        explore = None if explore is None else np.array(explore)

        def call():
            ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            return tiled_attention(*ts, None if sal is None else Tensor(sal, requires_grad=True),
                                   w, K, explore, block_size)

        T.reset_tape()
        recorded = call()
        assert T.tape_size() == 1
        T.reset_tape()
        with no_grad():
            unrecorded = call()
        assert T.tape_size() == 0
        np.testing.assert_array_equal(unrecorded.data, recorded.data)

    def test_unrecorded_peak_is_one_score_buffer(self):
        B, H, L, dh, block_size = 1, 4, 1024, 16, 256
        rng = np.random.default_rng(37)
        q, k, v = (Tensor(rng.normal(size=(B, H, L, dh))) for _ in range(3))
        tile_bytes = B * H * block_size * L * 8      # the last tile's scores
        with no_grad():
            tracemalloc.start()
            try:
                tiled_attention(q, k, v, None, L, 0, None, block_size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * tile_bytes, peak / tile_bytes


def _backward_bytes(L):
    """Sum over the backward rules of one sga_forward call of each rule's
    tracemalloc peak above the bytes live when it started."""
    rng = np.random.default_rng(40)
    params = init_sga_params(d=16, n_heads=2, window=4, max_globals=2, rng=rng)
    h = Tensor(rng.normal(size=(1, L, 16)), requires_grad=True)
    T.reset_tape()
    y = sga_forward(h, params, block_size=8)
    total = [0]

    def measured(rule):
        def run(g):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = rule(g)
            total[0] += tracemalloc.get_traced_memory()[1] - base
            return out
        return run

    for op in T._TAPE:
        op.backward_fn = measured(op.backward_fn)
    loss = T.tsum(y)
    tracemalloc.start()
    try:
        T.backward(loss)
    finally:
        tracemalloc.stop()
    return total[0]


class TestBackwardScaling:
    def test_backward_bytes_linear_in_l(self):
        for L in (64, 128):
            assert _backward_bytes(2 * L) <= 2.3 * _backward_bytes(L)

"""Product-key memory: factorized retrieval vs exhaustive oracle, and the
fused value read against the chain it replaced."""

import tracemalloc

import numpy as np
import pytest

from hydra_lab import pkm
from hydra_lab import tensor as T
from hydra_lab.pkm import (
    PKM_TAPE_OPS,
    PkmStore,
    candidate_counter,
    init_pkm_store,
    pkm_blend,
    pkm_bruteforce,
    pkm_query_batch,
    pkm_read,
)
from hydra_lab.tensor import Tensor, UsageError, backward, no_grad


def make_store(N=8, d_k=8, d_v=6, t=4, k_c=4, seed=0, d=6):
    return init_pkm_store(d=d, n_sub_keys=N, d_k=d_k, d_v=d_v, t=t, k_c=k_c, rng=np.random.default_rng(seed))


def read_oracle(alphas: Tensor, values: Tensor, ids: np.ndarray) -> Tensor:
    """The gather -> mul -> tsum chain ``pkm_read`` replaced, kept as its oracle."""
    v_sel = T.gather_rows(values, ids)                         # [L, K, d_v]
    return T.tsum(T.mul(T.reshape(alphas, alphas.data.shape + (1,)), v_sel), axis=-2)


class TestFactorizedEqualsExhaustive:
    def test_t_equals_n_always_agrees(self):
        store = make_store(N=6, t=6, k_c=4, seed=1)
        q = Tensor(np.random.default_rng(2).normal(size=(50, 8)))
        with no_grad():
            a = pkm_query_batch(q, store)
            b = pkm_bruteforce(q, store)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.value.data, b.value.data, atol=1e-12)

    def test_guarded_agreement_on_1000_queries(self):
        store = make_store(N=8, t=3, k_c=4, seed=3)
        n = 1000
        q = np.random.default_rng(4).normal(size=(n, 8))
        with no_grad():
            a = pkm_query_batch(Tensor(q), store)
            b = pkm_bruteforce(Tensor(q), store)
        agree = cond_holds = 0
        for row in range(n):
            same = np.array_equal(a.indices[row], b.indices[row])
            agree += same
            i_short = np.argsort(-((q[row, :4]) @ store.codebook1.data.T), kind="stable")[:3]
            j_short = np.argsort(-((q[row, 4:]) @ store.codebook2.data.T), kind="stable")[:3]
            covered = all(i in i_short and j in j_short for i, j in b.indices[row])
            cond_holds += covered
            if covered:
                assert same, "exhaustive winners inside the shortlist must match"
        rate = agree / n
        print(f"factorized/exhaustive agreement rate: {rate:.3f} (condition held {cond_holds/n:.3f})")
        assert rate >= cond_holds / n

    def test_single_composite_store(self):
        store = make_store(N=1, t=1, k_c=1, seed=5)
        q = Tensor(np.random.default_rng(6).normal(size=(1, 8)))
        with no_grad():
            a = pkm_query_batch(q, store)
            b = pkm_bruteforce(q, store)
        np.testing.assert_array_equal(a.indices, [[[0, 0]]])
        np.testing.assert_array_equal(b.indices, [[[0, 0]]])

    def test_adversarial_shortlist_miss(self):
        # side-1 scores (10, 9.5, 9.2), side-2 scores (10, 9): the true
        # top-4 contains (2, 0) but sub-key 2 misses the t=2 shortlist
        store = make_store(N=3, d_k=6, d_v=4, t=2, k_c=4, seed=7)
        store.codebook1.data[:] = np.eye(3)
        store.codebook2.data[:] = np.eye(3)
        q = Tensor(np.array([[10.0, 9.5, 9.2, 10.0, 9.0, -1.0]]))
        with no_grad():
            fact = pkm_query_batch(q, store)
            truth = pkm_bruteforce(q, store)
        fact_set = {tuple(p) for p in fact.indices[0]}
        truth_set = {tuple(p) for p in truth.indices[0]}
        assert (2, 0) in truth_set and (2, 0) not in fact_set
        assert fact_set != truth_set


class TestScoring:
    def test_score_additivity(self):
        store = make_store(seed=8)
        q = np.random.default_rng(9).normal(size=8)
        with no_grad():
            r = pkm_query_batch(Tensor(q[None]), store)
        for (i, j), s in zip(r.indices[0], r.scores.data[0]):
            manual = q[:4] @ store.codebook1.data[i] + q[4:] @ store.codebook2.data[j]
            assert abs(manual - s) <= 1e-12

    def test_one_hot_alignment(self):
        store = make_store(N=8, d_k=16, t=2, k_c=1, seed=10)
        store.codebook1.data[:] = np.eye(8)
        store.codebook2.data[:] = np.eye(8)
        q = np.zeros(16)
        q[3] = 5.0   # q1 aligned to sub-key 3
        q[8 + 7] = 5.0  # q2 aligned to sub-key 7
        with no_grad():
            r = pkm_query_batch(Tensor(q[None]), store)
        np.testing.assert_array_equal(r.indices[0], [[3, 7]])

    def test_kc1_returns_argmax_value_exactly(self):
        store = make_store(N=6, t=3, k_c=1, seed=11)
        q = Tensor(np.random.default_rng(12).normal(size=(1, 8)))
        with no_grad():
            r = pkm_query_batch(q, store)
        i, j = r.indices[0, 0]
        np.testing.assert_array_equal(r.value.data[0], store.values.data[i * 6 + j])
        assert r.weights.data[0, 0] == pytest.approx(1.0)

    def test_weights_sum_to_one(self):
        store = make_store(seed=13)
        rng = np.random.default_rng(14)
        with no_grad():
            r = pkm_query_batch(Tensor(rng.normal(size=(32, 8))), store)
        np.testing.assert_allclose(r.weights.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_bijective_index_map(self):
        store = make_store(N=5, t=5, k_c=25, seed=15)
        q = Tensor(np.random.default_rng(16).normal(size=(1, 8)))
        with no_grad():
            r = pkm_query_batch(q, store)
        flat = r.indices[0, :, 0] * 5 + r.indices[0, :, 1]
        assert len(set(flat.tolist())) == 25


class TestCandidateCounting:
    def test_query_touches_t_squared_only(self):
        store = make_store(N=16, t=4, k_c=4, seed=17)
        candidate_counter.reset()
        with no_grad():
            pkm_query_batch(Tensor(np.random.default_rng(18).normal(size=(5, 8))), store)
        assert candidate_counter.scored == 5 * 16  # 5 tokens * t^2
        assert candidate_counter.scored < 5 * 16 * 16  # never N^2

    def test_bruteforce_guard(self):
        store = make_store(N=8, seed=19)
        store2 = PkmStore(
            codebook1=Tensor(np.zeros((1001, 4))), codebook2=Tensor(np.zeros((1001, 4))),
            values=Tensor(np.zeros((1001 * 1001, 2))), t_candidates=2, k_composites=2,
            w_query=store.w_query, w_val=store.w_val,
        )
        with pytest.raises(UsageError):
            pkm_bruteforce(Tensor(np.zeros((1, 8))), store2)


class TestBlend:
    def test_beta_zero_identity(self):
        store = make_store(seed=20)
        h = Tensor(np.random.default_rng(21).normal(size=(3, 6)))
        m = Tensor(np.random.default_rng(22).normal(size=(3, 6)))
        with no_grad():
            out = pkm_blend(h, m, 0.0, store.w_val)
        np.testing.assert_array_equal(out.data, h.data)

    def test_beta_one_identity_projection(self):
        w_val = Tensor(np.eye(4))
        h = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        m = Tensor(np.array([[0.5, 0.5, -0.5, 0.0]]))
        with no_grad():
            out = pkm_blend(h, m, 1.0, w_val)
        np.testing.assert_allclose(out.data, h.data + m.data, atol=1e-15)

    def test_beta_half_is_midpoint(self):
        w_val = Tensor(np.eye(4))
        h = Tensor(np.zeros((1, 4)))
        m = Tensor(np.array([[2.0, -2.0, 4.0, 0.0]]))
        with no_grad():
            lo = pkm_blend(h, m, 0.0, w_val)
            hi = pkm_blend(h, m, 1.0, w_val)
            mid = pkm_blend(h, m, 0.5, w_val)
        np.testing.assert_allclose(mid.data, (lo.data + hi.data) / 2, atol=1e-15)

    def test_per_token_beta(self):
        # the model passes beta as [B, L, 1]: each token blends by its own weight
        m = Tensor(np.random.default_rng(28).normal(size=(2, 3, 4)))
        beta = Tensor(np.array([[[0.0], [1.0], [0.5]]] * 2))
        with no_grad():
            out = pkm_blend(Tensor(np.zeros((2, 3, 4))), m, beta, Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data, beta.data * m.data, atol=1e-15)

    def test_beta_range_checked(self):
        store = make_store(seed=23)
        with pytest.raises(UsageError):
            pkm_blend(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))), 1.5, store.w_val)


class TestGradients:
    def test_values_and_query_receive_grads(self):
        store = make_store(seed=24)
        rng = np.random.default_rng(25)
        q = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        r = pkm_query_batch(q, store)
        backward(T.tsum(r.value))
        assert store.values.grad is not None and np.abs(store.values.grad).max() > 0
        assert q.grad is not None and np.abs(q.grad).max() > 0

    def test_retrieval_gradcheck(self):
        store = make_store(N=4, t=4, k_c=3, seed=26)
        rng = np.random.default_rng(27)
        q = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6)))

        def f(t):
            return T.tsum(T.mul(pkm_query_batch(t, store).value, w))

        rep = T.grad_check(f, q, h=1e-6, tol=1e-4)
        assert rep.passed, rep


class TestFusedRead:
    """``pkm_read`` is one op that gives the gather -> mul -> tsum bits."""

    @staticmethod
    def _case(L, K, rows, d_v, seed):
        rng = np.random.default_rng(seed)
        alphas = T.softmax(Tensor(rng.normal(size=(L, K))), axis=-1)
        alphas = Tensor(alphas.data, requires_grad=True)
        values = Tensor(rng.normal(size=(rows, d_v)), requires_grad=True)
        ids = rng.integers(0, rows, size=(L, K))               # rows repeat across and within queries
        return alphas, values, ids, rng.normal(size=(L, d_v))

    @staticmethod
    def _grads(f, alphas, values, ids, w):
        alphas.zero_grad()
        values.zero_grad()
        T.reset_tape()
        m = f(alphas, values, ids)
        backward(T.tsum(T.mul(m, w)))
        return m.data, alphas.grad, values.grad

    @pytest.mark.parametrize("L, K, rows, d_v", [(37, 4, 16, 6), (5, 1, 3, 7), (200, 7, 9, 33)])
    def test_bit_identical_to_chain(self, L, K, rows, d_v):
        case = self._case(L, K, rows, d_v, 40)
        got = self._grads(pkm_read, *case)
        ref = self._grads(read_oracle, *case)
        for name, a, b in zip(("m", "alphas", "values"), got, ref):
            assert np.array_equal(a, b), name
        alphas, values, ids, _ = case
        with no_grad():
            plain = pkm_read(alphas, values, ids)
        assert not plain.requires_grad
        np.testing.assert_array_equal(plain.data, got[0])

    def test_query_batch_bit_identical_to_chain(self, monkeypatch):
        store = make_store(N=6, t=4, k_c=4, seed=41)
        q = Tensor(np.random.default_rng(42).normal(size=(23, 8)), requires_grad=True)
        w = np.random.default_rng(43).normal(size=(23, 6))

        def run():
            q.zero_grad()
            store.values.zero_grad()
            T.reset_tape()
            r = pkm_query_batch(q, store)
            backward(T.tsum(T.mul(r.value, w)))
            return r.value.data, q.grad, store.values.grad

        got = run()
        monkeypatch.setattr(pkm, "pkm_read", read_oracle)
        ref = run()
        for name, a, b in zip(("value", "q", "values"), got, ref):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("which", ["alphas", "values"])
    def test_grad_check_every_input(self, which):
        alphas, values, ids, w = self._case(6, 3, 4, 5, 44)
        if which == "alphas":
            rep = T.grad_check(lambda t: T.tsum(T.mul(pkm_read(t, values, ids), w)), alphas, h=1e-6, tol=1e-6)
        else:
            rep = T.grad_check(lambda t: T.tsum(T.mul(pkm_read(alphas, t, ids), w)), values, h=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_no_grad_peak_skips_the_rows_array(self):
        # L = 2048, K_c = 4, d_v = 256: the [L, K_c, d_v] rows are 16 MiB and
        # the read 4 MiB; the query now peaks at the read and one row buffer
        store = make_store(N=16, d_k=16, d_v=256, t=4, k_c=4, seed=45, d=8)
        q = Tensor(np.random.default_rng(46).normal(size=(2048, 16)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                r = pkm_query_batch(q, store)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out = r.value.data.nbytes
        assert peak < 3 * out, peak / out

    def test_row_blocks_bit_identical_to_chain(self, monkeypatch):
        monkeypatch.setattr(T, "ROW_BLOCK", 8)                 # 37 rows: four full blocks and a ragged one
        case = self._case(37, 4, 16, 6, 44)
        got = self._grads(pkm_read, *case)
        ref = self._grads(read_oracle, *case)
        for name, a, b in zip(("m", "alphas", "values"), got, ref):
            assert np.array_equal(a, b), name
        with no_grad():
            np.testing.assert_array_equal(pkm_read(*case[:3]).data, got[0])

    def test_no_grad_read_peak_one_output_and_a_block(self):
        # L = 16384, K = 4, d_v = 64: the read is 8 MiB and a block of
        # T.ROW_BLOCK gathered rows 1 MiB. The read used to gather its k = 0
        # rows into a temporary and keep an [L, d_v] row buffer beside m
        alphas, values, ids, _ = self._case(16384, 4, 256, 64, 49)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                m = pkm_read(alphas, values, ids)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.data.nbytes, peak / m.data.nbytes

    def test_no_grad_blend_writes_into_its_projection(self):
        # h and m [4096, 128], 4 MiB each: the blend allocates its projection
        # and nothing more; it used to add a product and a sum beside it
        rng = np.random.default_rng(50)
        h = Tensor(rng.normal(size=(4096, 128)))
        m = Tensor(rng.normal(size=(4096, 128)))
        beta = Tensor(rng.uniform(size=(4096, 1)))
        w_val = Tensor(rng.normal(size=(128, 128)))
        want = T.add(h, T.mul(beta, T.matmul(m, T.transpose(w_val)))).data
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = pkm_blend(h, m, beta, w_val)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out.data, want)
        assert peak < 1.5 * out.data.nbytes, peak / out.data.nbytes

    def test_tape_ops_of_query_and_blend(self):
        store = make_store(seed=47)
        rng = np.random.default_rng(48)
        q = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        h = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        T.reset_tape()
        r = pkm_query_batch(q, store)
        pkm_blend(h, r.value, Tensor(np.full((5, 1), 0.5)), store.w_val)
        assert T.tape_size() == PKM_TAPE_OPS
        assert sum(op.name == "pkm_read" for op in T._TAPE) == 1
        T.reset_tape()

"""Product-key memory: factorized key space with gated value blending.

Composite key (i, j) pairs row i of the first codebook with row j of
the second and maps to value row i*N + j. A query is split in half,
each half shortlists its top-t sub-keys, the t*t Cartesian candidates
are scored additively, and the best K_c composites contribute values
through a softmax over their scores. Retrieval therefore touches t*t
candidates, never N^2; the exhaustive scorer exists as a test oracle.

The value read is one tape op, ``pkm_read``: the weighted bag of value
rows (Lample et al. 2019, arXiv 1907.05242), summed one composite at a
time, so a query batch never holds a [L, K_c, d_v] array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, UsageError


class _CandidateCounter:
    """Counts composite keys scored, to prove the t^2 bound holds."""

    def __init__(self):
        self.scored = 0

    def reset(self):
        self.scored = 0


candidate_counter = _CandidateCounter()


@dataclass
class PkmStore:
    codebook1: Tensor      # [N, d_k/2]
    codebook2: Tensor      # [N, d_k/2]
    values: Tensor         # [N*N, d_v]
    t_candidates: int      # per-side shortlist size
    k_composites: int      # composites kept (K_c)
    w_query: Tensor        # [d_k, d]
    w_val: Tensor          # [d, d_v]

    def __post_init__(self):
        N = self.codebook1.data.shape[0]
        if self.t_candidates > N:
            raise UsageError("t must be <= codebook size")
        if self.k_composites > self.t_candidates ** 2:
            raise UsageError("K_c must be <= t^2")
        if self.values.data.shape[0] != N * N:
            raise UsageError("values must have N^2 rows")

    @property
    def n_sub_keys(self) -> int:
        return self.codebook1.data.shape[0]

    def parameters(self):
        return [("codebook1", self.codebook1), ("codebook2", self.codebook2),
                ("values", self.values), ("w_query", self.w_query), ("w_val", self.w_val)]


@dataclass
class PkmRetrieval:
    indices: np.ndarray    # [.., K_c, 2] selected (i, j) pairs
    scores: Tensor         # [.., K_c] additive composite scores
    weights: Tensor        # [.., K_c] softmax over the selected scores
    value: Tensor          # [.., d_v] aggregated retrieval


def init_pkm_store(d, n_sub_keys, d_k, d_v, t, k_c, rng) -> PkmStore:
    half = d_k // 2
    return PkmStore(
        codebook1=Tensor(rng.normal(0.0, 1.0 / np.sqrt(half), size=(n_sub_keys, half)), requires_grad=True),
        codebook2=Tensor(rng.normal(0.0, 1.0 / np.sqrt(half), size=(n_sub_keys, half)), requires_grad=True),
        values=Tensor(rng.normal(0.0, 0.02, size=(n_sub_keys**2, d_v)), requires_grad=True),
        t_candidates=t,
        k_composites=k_c,
        w_query=Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d_k, d)), requires_grad=True),
        w_val=Tensor(rng.normal(0.0, 1.0 / np.sqrt(d_v), size=(d, d_v)), requires_grad=True),
    )


def pkm_read(alphas: Tensor, values: Tensor, ids: np.ndarray) -> Tensor:
    """m[l] = sum over k of alphas[l, k] * values[ids[l, k]], as one op:
    alphas and ids [L, K], values [R, d_v] -> m [L, d_v].

    The forward gathers the k = 0 rows straight into m, then adds one k at
    a time, in k order, with one buffer of at most ``T.ROW_BLOCK`` gathered
    rows. The backward keeps nothing of its own.
    The float operations and their order are those of ``gather_rows``,
    ``mul`` and ``tsum`` over the [L, K, d_v] rows, so the value and both
    gradients equal that chain's bit for bit.
    """
    ad, vd = alphas.data, values.data
    ids = np.asarray(ids)
    if ad.ndim != 2 or ids.shape != ad.shape or vd.ndim != 2:
        raise T._op_error(ShapeError, f"pkm_read: alphas {ad.shape} and ids {ids.shape} must be one [L, K] "
                                      f"shape, values [R, d_v] (got {vd.shape})")
    if ids.size and (ids.min() < 0 or ids.max() >= vd.shape[0]):
        raise T._op_error(ShapeError, "pkm_read: value row out of range")
    L, K = ids.shape
    m = np.take(vd, ids[:, 0], axis=0)
    m *= ad[:, :1]
    buf = np.empty((min(T.ROW_BLOCK, L), vd.shape[1]))
    for lo in range(0, L, T.ROW_BLOCK):
        hi = min(lo + T.ROW_BLOCK, L)
        rows = buf[:hi - lo]
        for k in range(1, K):
            np.take(vd, ids[lo:hi, k], axis=0, out=rows, mode="clip")     # range checked above
            rows *= ad[lo:hi, k:k + 1]
            m[lo:hi] += rows

    def bwd(g):
        ga = np.empty(ad.shape)
        for k in range(K):
            ga[:, k] = (g * vd[ids[:, k]]).sum(axis=-1)
        gv = np.zeros(vd.shape)
        np.add.at(gv, ids, g[:, None, :] * ad[:, :, None])
        return ga, gv

    return T._make_output(m, (alphas, values), bwd, "pkm_read")


def _select_topk(flat_scores: Tensor, comp_ids: np.ndarray, k: int, store: PkmStore):
    """Top-k rows of [L, M] scores; ties go to the lower composite id."""
    order = np.lexsort((comp_ids, -flat_scores.data), axis=-1)[..., :k]
    scores = T.take_along_last(flat_scores, order)
    sel_ids = np.take_along_axis(comp_ids, order, axis=-1)
    alphas = T.softmax(scores, axis=-1)
    m = pkm_read(alphas, store.values, sel_ids)
    N = store.n_sub_keys
    pairs = np.stack([sel_ids // N, sel_ids % N], axis=-1)
    return PkmRetrieval(indices=pairs, scores=scores, weights=alphas, value=m)


#: tape ops one recorded ``pkm_query_batch`` and one ``pkm_blend`` add: the
#: two query halves; per codebook a transpose, the scores and the shortlist
#: gather (8); the grid's two reshapes, add and flattening (4); the top-k
#: gather, softmax and ``pkm_read`` (3); and the blend's transpose, matmul
#: and ``gated_add`` (3)
PKM_TAPE_OPS = 18


def pkm_query_batch(q: Tensor, store: PkmStore) -> PkmRetrieval:
    """Factorized retrieval for queries [L, d_k]."""
    L, d_k = q.data.shape
    half = d_k // 2
    N, t = store.n_sub_keys, store.t_candidates
    q1, q2 = q[:, :half], q[:, half:]
    s1 = T.matmul(q1, T.transpose(store.codebook1))            # [L, N]
    s2 = T.matmul(q2, T.transpose(store.codebook2))
    i_idx = np.argsort(-s1.data, axis=-1, kind="stable")[:, :t]
    j_idx = np.argsort(-s2.data, axis=-1, kind="stable")[:, :t]
    s1_sel = T.take_along_last(s1, i_idx)                      # [L, t]
    s2_sel = T.take_along_last(s2, j_idx)
    grid = T.add(T.reshape(s1_sel, (L, t, 1)), T.reshape(s2_sel, (L, 1, t)))
    flat = T.reshape(grid, (L, t * t))
    comp_ids = (i_idx[:, :, None] * N + j_idx[:, None, :]).reshape(L, t * t)
    candidate_counter.scored += L * t * t
    return _select_topk(flat, comp_ids, store.k_composites, store)


def pkm_bruteforce(q: Tensor, store: PkmStore) -> PkmRetrieval:
    """Exhaustive scoring of all N^2 composites for queries [L, d_k]
    (ground-truth oracle)."""
    N = store.n_sub_keys
    if N * N > 10**6:
        raise T._op_error(UsageError, "pkm_bruteforce: N^2 exceeds the 10^6 guard")
    L, d_k = q.data.shape
    half = d_k // 2
    s1 = T.matmul(q[:, :half], T.transpose(store.codebook1))
    s2 = T.matmul(q[:, half:], T.transpose(store.codebook2))
    grid = T.add(T.reshape(s1, (L, N, 1)), T.reshape(s2, (L, 1, N)))
    flat = T.reshape(grid, (L, N * N))
    comp_ids = np.broadcast_to(np.arange(N * N), (L, N * N))
    candidate_counter.scored += L * N * N
    return _select_topk(flat, comp_ids, store.k_composites, store)


def pkm_blend(h: Tensor, m: Tensor, beta, w_val: Tensor) -> Tensor:
    """h <- h + beta * (m W_val^T) for h [.., d] and retrieved values m [.., d_v];
    beta is a scalar or [.., 1] tensor in [0, 1]. Under ``no_grad`` the
    result is written into the projection's buffer."""
    beta = beta if isinstance(beta, Tensor) else Tensor(np.asarray(beta, dtype=float))
    if np.any(beta.data < 0) or np.any(beta.data > 1):
        raise T._op_error(UsageError, "pkm_blend: beta must lie in [0, 1]")
    proj = T.matmul(m, T.transpose(w_val))                     # [.., d]
    return T.gated_add(h, beta, proj)

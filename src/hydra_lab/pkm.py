"""Product-key memory: factorized key space with gated value blending.

Composite key (i, j) pairs row i of the first codebook with row j of
the second and maps to value row i*N + j. A query is split in half,
each half shortlists its top-t sub-keys, the t*t Cartesian candidates
are scored additively, and the best K_c composites contribute values
through a softmax over their scores. Retrieval therefore touches t*t
candidates, never N^2; the exhaustive scorer exists as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, UsageError


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


def _select_topk(flat_scores: Tensor, comp_ids: np.ndarray, k: int, store: PkmStore):
    """Top-k rows of [L, M] scores; ties go to the lower composite id."""
    order = np.lexsort((comp_ids, -flat_scores.data), axis=-1)[..., :k]
    scores = T.take_along_last(flat_scores, order)
    sel_ids = np.take_along_axis(comp_ids, order, axis=-1)
    alphas = T.softmax(scores, axis=-1)
    v_sel = T.gather_rows(store.values, sel_ids)               # [L, k, d_v]
    m = T.tsum(T.mul(T.reshape(alphas, alphas.data.shape + (1,)), v_sel), axis=-2)
    N = store.n_sub_keys
    pairs = np.stack([sel_ids // N, sel_ids % N], axis=-1)
    return PkmRetrieval(indices=pairs, scores=scores, weights=alphas, value=m)


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
        raise UsageError("pkm_bruteforce: N^2 exceeds the 10^6 guard")
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
    beta is a scalar or [.., 1] tensor in [0, 1]."""
    beta = beta if isinstance(beta, Tensor) else Tensor(np.asarray(beta, dtype=float))
    if np.any(beta.data < 0) or np.any(beta.data > 1):
        raise UsageError("pkm_blend: beta must lie in [0, 1]")
    proj = T.matmul(m, T.transpose(w_val))                     # [.., d]
    return T.add(h, T.mul(beta, proj))

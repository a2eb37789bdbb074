"""Workspace memory: a fixed set of learnable slots used as a scratchpad.

Chunk summaries are written into the active slots by low-rank cross
attention, one round per chunk; the tokens of each chunk read the slot
state written from strictly earlier chunks through a separate low-rank
path, gated per token by an interpolation weight in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, UsageError


@dataclass
class WorkspaceParams:
    init_slots: Tensor              # [S_total, d] learned initial embeddings
    w_qw: Tensor                    # write path, [d, r] each
    w_kw: Tensor
    w_vw: Tensor
    w_ow: Tensor                    # [r, d]
    w_qr: Tensor                    # read path
    w_kr: Tensor
    w_vr: Tensor
    w_or: Tensor                    # [r, d]
    # allocated but unused (nothing pools slots across segments): dropping
    # them would shift the init stream of every parameter drawn after them
    pool_queries: Tensor            # [S_active, r]
    w_kp: Tensor
    w_vp: Tensor
    w_op: Tensor                    # [r, d]
    s_total: int
    s_active: int
    rank: int

    def parameters(self):
        names = ["init_slots", "w_qw", "w_kw", "w_vw", "w_ow", "w_qr", "w_kr",
                 "w_vr", "w_or", "pool_queries", "w_kp", "w_vp", "w_op"]
        return [(n, getattr(self, n)) for n in names]


def init_workspace_params(d, s_total, s_active, rank, rng) -> WorkspaceParams:
    if s_active > s_total:
        raise UsageError("s_active must be <= s_total")
    scale = 1.0 / np.sqrt(d)
    rscale = 1.0 / np.sqrt(rank)
    mk = lambda rows, cols, s: Tensor(rng.normal(0.0, s, size=(rows, cols)), requires_grad=True)
    return WorkspaceParams(
        init_slots=mk(s_total, d, 1.0),
        w_qw=mk(d, rank, scale), w_kw=mk(d, rank, scale), w_vw=mk(d, rank, scale), w_ow=mk(rank, d, rscale),
        w_qr=mk(d, rank, scale), w_kr=mk(d, rank, scale), w_vr=mk(d, rank, scale), w_or=mk(rank, d, rscale),
        pool_queries=mk(s_active, rank, 1.0), w_kp=mk(d, rank, scale), w_vp=mk(d, rank, scale), w_op=mk(rank, d, rscale),
        s_total=s_total, s_active=s_active, rank=rank,
    )


def workspace_write(summaries: Tensor, params: WorkspaceParams) -> Tensor:
    """Causal chunk-by-chunk write: [B, C, d] summaries -> [B, C, S_a, d].

    Entry c is the active-slot state that the tokens of chunk c read: the
    learned initial slots for c = 0, then one write round per earlier
    chunk. In each round the current slot values issue the queries (so
    rounds compose: what a slot absorbed earlier steers what it grabs
    next) against the causal prefix of summaries, and the attended
    values are added to the slots.
    """
    B, C, d = summaries.data.shape
    sa = params.s_active
    scale = 1.0 / np.sqrt(params.rank)
    k_w = T.matmul(summaries, params.w_kw)                     # [B, C, r]
    v_w = T.matmul(summaries, params.w_vw)
    init = params.init_slots[:sa]                              # [S, d]
    active = T.add(T.reshape(init, (1, sa, d)), Tensor(np.zeros((B, 1, 1))))
    states = [T.reshape(active, (B, 1, sa, d))]
    for c in range(C - 1):
        q = T.matmul(active, params.w_qw)                      # [B, S, r]
        pre_k = k_w[:, :c + 1]
        scores = T.matmul(q, T.transpose(pre_k, (0, 2, 1))) * scale
        attn = T.softmax(scores, axis=-1)
        upd = T.matmul(T.matmul(attn, v_w[:, :c + 1]), params.w_ow)
        active = T.add(active, upd)
        states.append(T.reshape(active, (B, 1, sa, d)))
    return T.concat(states, axis=1) if C > 1 else states[0]


def workspace_read(h: Tensor, slots: Tensor, beta: Tensor, params: WorkspaceParams,
                   chunk_size: int) -> Tensor:
    """out_t = h_t + beta_t * attn(h_t, slots of t's chunk); beta in [0, 1].

    h is [B, L, d], slots [B, C, S_a, d] as written by workspace_write
    and beta [B, L]. The reads of all chunks run as one batched attention.
    """
    if np.any(beta.data < 0) or np.any(beta.data > 1):
        raise T._op_error(UsageError, "workspace_read: beta must lie in [0, 1]")
    B, L, d = h.data.shape
    C = slots.data.shape[1]
    cs = chunk_size
    scale = 1.0 / np.sqrt(params.rank)
    pad = C * cs - L
    h_pad = T.concat([h, Tensor(np.zeros((B, pad, d)))], axis=1) if pad else h
    hq = T.matmul(T.reshape(h_pad, (B, C, cs, d)), params.w_qr)    # [B, C, cs, r]
    k_r = T.matmul(slots, params.w_kr)                             # [B, C, S, r]
    v_r = T.matmul(slots, params.w_vr)
    scores = T.matmul(hq, T.transpose(k_r, (0, 1, 3, 2))) * scale
    read = T.matmul(T.matmul(T.softmax(scores, axis=-1), v_r), params.w_or)
    read = T.reshape(read, (B, C * cs, d))
    if pad:
        read = read[:, :L]
    return T.gated_add(h, T.reshape(beta, (B, L, 1)), read)

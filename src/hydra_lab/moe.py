"""Chunk-level Top-2 mixture of experts.

Contiguous token chunks share one routing decision. Each chunk runs
exactly two experts, weighted by the pair-renormalized router softmax,
so per-token compute is independent of the pool size. A Switch-style
auxiliary loss discourages the router from collapsing onto one expert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, UsageError


@dataclass
class ExpertFfn:
    """Two-layer SiLU-gated feed-forward: (silu(x Wg) * x Wi) Wo."""
    w_gate: Tensor  # [d, h]
    w_in: Tensor    # [d, h]
    w_out: Tensor   # [h, d]

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(T.mul(T.silu(T.matmul(x, self.w_gate)), T.matmul(x, self.w_in)), self.w_out)

    def parameters(self):
        return [("w_gate", self.w_gate), ("w_in", self.w_in), ("w_out", self.w_out)]


@dataclass
class ExpertPool:
    n_experts: int
    experts: list[ExpertFfn]
    chunk_size: int

    def __post_init__(self):
        if self.chunk_size < 1:
            raise UsageError("chunk_size must be >= 1")
        shapes = {tuple(e.w_in.data.shape) for e in self.experts}
        if len(shapes) > 1:
            raise UsageError("all experts must be identically shaped")

    def parameters(self):
        out = []
        for i, e in enumerate(self.experts):
            out.extend((f"expert{i}.{n}", p) for n, p in e.parameters())
        return out


def init_expert_pool(d, hidden, n_experts, chunk_size, rng) -> ExpertPool:
    scale = 1.0 / np.sqrt(d)
    out_scale = 1.0 / np.sqrt(hidden)
    experts = [
        ExpertFfn(
            w_gate=Tensor(rng.normal(0.0, scale, size=(d, hidden)), requires_grad=True),
            w_in=Tensor(rng.normal(0.0, scale, size=(d, hidden)), requires_grad=True),
            w_out=Tensor(rng.normal(0.0, out_scale, size=(hidden, d)), requires_grad=True),
        )
        for _ in range(n_experts)
    ]
    return ExpertPool(n_experts=n_experts, experts=experts, chunk_size=chunk_size)


def chunk_spans(L: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + chunk_size, L)) for s in range(0, L, chunk_size)]


def top2_pairs(logits: Tensor):
    """Top-2 expert choice per row of router logits [.., E].

    Returns (full, ids, weights): the router softmax [.., E], the chosen
    ids [.., k] sorted ascending (k = min(2, E); ties go to the lower
    index), and their pair-renormalized masses [.., k], which equal the
    softmax of the chosen logits.
    """
    k = min(2, logits.data.shape[-1])
    full = T.softmax(logits, axis=-1)
    ids = np.argsort(-full.data, axis=-1, kind="stable")[..., :k]
    ids = np.sort(ids, axis=-1)
    pair_logits = T.take_along_last(logits, ids)
    weights = T.softmax(pair_logits, axis=-1)
    return full, ids, weights


def scatter_rows(values: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """Inverse of gather_rows: accumulate value rows at idx into [n_rows, d]."""
    idx = np.asarray(idx)
    out = np.zeros((n_rows,) + values.data.shape[1:])
    np.add.at(out, idx, values.data)

    def bwd(g):
        return (g[idx],)

    return T._make_output(out, (values,), bwd, "scatter_rows")


def moe_apply(u: Tensor, pool: ExpertPool, expert_ids: np.ndarray,
              expert_weights: Tensor) -> Tensor:
    """Vectorized chunk-routed expert application on [B, L, d]."""
    B, L, d = u.data.shape
    cs = pool.chunk_size
    spans = chunk_spans(L, cs)
    C = len(spans)
    k = expert_ids.shape[-1]
    x2 = T.reshape(u, (B * L, d))
    w_flat = T.reshape(expert_weights, (B * C * k,))
    ids_flat = expert_ids.reshape(B * C, k)

    # row ranges per (batch, chunk)
    chunk_rows = [np.arange(b * L + s, b * L + t) for b in range(B) for s, t in spans]

    parts = []
    for e in range(pool.n_experts):
        sel_chunks, sel_slots = np.nonzero(ids_flat == e)
        if sel_chunks.size == 0:
            continue
        rows = np.concatenate([chunk_rows[c] for c in sel_chunks])
        wpos = np.concatenate([
            np.full(chunk_rows[c].size, c * k + s)
            for c, s in zip(sel_chunks, sel_slots)
        ])
        tok_w = T.reshape(T.gather_rows(w_flat, wpos), (rows.size, 1))
        y = T.mul(pool.experts[e](T.gather_rows(x2, rows)), tok_w)
        parts.append(scatter_rows(y, rows, B * L))
    out = parts[0]
    for p in parts[1:]:
        out = T.add(out, p)
    return T.reshape(out, (B, L, d))


def dispatch_fractions(expert_ids: np.ndarray, n_experts: int) -> np.ndarray:
    """Fraction of chunk-assignments routed to each expert."""
    counts = np.bincount(np.asarray(expert_ids).reshape(-1), minlength=n_experts).astype(float)
    return counts / max(counts.sum(), 1.0)


def load_balance_loss(all_distributions: Tensor, fractions_dispatched: np.ndarray) -> Tensor:
    """Switch-style balance objective: E * sum_e meanprob_e * dispatched_e.

    Equals 1 under perfectly uniform routing and grows as routing
    concentrates; only the mean probabilities carry gradient.
    """
    C, E = all_distributions.data.shape
    if C < 1:
        raise UsageError("load_balance_loss: need at least one chunk")
    mean_probs = T.tmean(all_distributions, axis=0)
    return T.tsum(T.mul(mean_probs, Tensor(np.asarray(fractions_dispatched)))) * float(E)

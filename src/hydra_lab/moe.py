"""Chunk-level Top-2 mixture of experts.

Contiguous token chunks share one routing decision. Each chunk runs
exactly two experts, weighted by the pair-renormalized router softmax,
so per-token compute is independent of the pool size. A Switch-style
auxiliary loss discourages the router from collapsing onto one expert.

Each expert is one tape op (``swiglu``) with a hand-written backward; it
keeps its hidden activations for that backward only when the op is
recorded, so under ``no_grad`` it holds nothing. The expert outputs of a
layer are summed back into token order by one ``scatter_rows`` op, which
relies on an expert's rows being distinct: the top-2 choice never picks
the same expert twice for a chunk. Under ``no_grad`` the experts run over
row blocks that the scatter adds into the sum as each is made, so the
layer holds its output and one block, not every expert's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, UsageError


@dataclass
class ExpertFfn:
    """Two-layer SiLU-gated feed-forward: (silu(x Wg) * x Wi) Wo.

    One call is one tape op, ``swiglu`` (Shazeer 2020, arXiv 2002.05202),
    over x [..., d] and the three weights. Only a recorded call keeps its
    [rows, h] activations: a * sigmoid(a), sigmoid(a), x Wi and the hidden
    product, where a = x Wg. Under ``no_grad`` the SiLU runs in place on
    ``a`` through ``T._silu``, with no [rows, h] sigmoid buffer, and
    ``moe_apply`` calls the expert once per block of at most
    ``T.ROW_BLOCK`` rows, so a call's two [rows, h] arrays stay that size.
    """
    w_gate: Tensor  # [d, h]
    w_in: Tensor    # [d, h]
    w_out: Tensor   # [h, d]

    def __call__(self, x: Tensor) -> Tensor:
        inputs = (x, self.w_gate, self.w_in, self.w_out)
        keep = T._GRAD_ENABLED and any(t.requires_grad for t in inputs)
        xd, wg, wi, wo = (t.data for t in inputs)
        if xd.shape[-1] != wg.shape[0]:
            raise T._op_error(ShapeError, f"swiglu: input dim {xd.shape[-1]} != {wg.shape[0]}")
        x2 = np.ascontiguousarray(xd).reshape(-1, xd.shape[-1])
        out_shape = xd.shape[:-1] + (wo.shape[1],)
        a = x2 @ wg
        b = x2 @ wi
        _, s = T._silu(a, a, keep)     # silu(a) in place; the product order is ((a * s) * b)
        if not keep:
            a *= b
            del b           # freed before the output is allocated
            return T._make_output((a @ wo).reshape(out_shape), inputs, None, "swiglu")
        hid = a * b

        def bwd(g):
            g2 = np.ascontiguousarray(g).reshape(-1, wo.shape[1])
            ghid = g2 @ wo.T
            gb = ghid * a
            ga = (ghid * b) * (s + a * (1.0 - s))
            gx = gb @ wi.T + ga @ wg.T
            return gx.reshape(xd.shape), x2.T @ ga, x2.T @ gb, hid.T @ g2

        return T._make_output((hid @ wo).reshape(out_shape), inputs, bwd, "swiglu")

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


def scatter_rows(parts, n_rows: int) -> Tensor:
    """Sum of the (values [n, d], rows [n]) parts, each written at its rows
    of one zero [n_rows, d] buffer, in order. A part's rows must be
    distinct; rows shared between parts add up.

    ``parts`` is any iterable of pairs, such as a generator that makes each
    part on demand. Only a recorded call keeps the parts, as its inputs;
    otherwise each is dropped once added, so the sum and the part at hand
    are all that is live.
    """
    out, kept = None, []
    for v, rows in parts:
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise T._op_error(ShapeError, "scatter_rows: row index out of range")
        if out is None:
            out = np.zeros((n_rows,) + v.data.shape[1:])
        out[rows] += v.data
        if T._GRAD_ENABLED:
            kept.append((v, rows))
        del v               # not held while the next part is made
    if out is None:
        raise T._op_error(UsageError, "scatter_rows: no parts to sum")

    def bwd(g):
        return tuple(g[rows] for _, rows in kept)

    return T._make_output(out, tuple(v for v, _ in kept), bwd, "scatter_rows")


def moe_tape_ops(n_experts: int) -> int:
    """Tape ops one recorded ``moe_apply`` call adds when every expert has
    work: per expert the weight gather and reshape, the row gather, the
    expert and the weighting (5), plus two input reshapes, the scatter and
    the output reshape (4)."""
    return 5 * n_experts + 4


def moe_apply(u: Tensor, pool: ExpertPool, expert_ids: np.ndarray,
              expert_weights: Tensor) -> Tensor:
    """Vectorized chunk-routed expert application on [B, L, d].

    The weighted rows of each expert go to ``scatter_rows`` in expert
    order, each part made as the scatter pulls it. A recorded call runs
    each expert once, over all its rows. Under ``no_grad`` an expert with
    more than ``T.ROW_BLOCK`` rows runs over ceil(rows / ``T.ROW_BLOCK``)
    near-equal blocks, each of at least ``T.ROW_BLOCK`` / 2 rows, and one
    with fewer runs whole, as when recorded. Empty blocks then pad every
    busy expert to ceil(B * L / ``T.ROW_BLOCK``) blocks (an expert has at
    most B * L rows), so the number of ops does not depend on the routing.
    No [rows, d] or [rows, h] array larger than a block is live; the
    scatter adds each block into the sum and drops it.
    """
    B, L, d = u.data.shape
    cs = pool.chunk_size
    k = expert_ids.shape[-1]
    x2 = T.reshape(u, (B * L, d))
    C = -(-L // cs)
    w_flat = T.reshape(expert_weights, (B * C * k,))
    ids_flat = expert_ids.reshape(B * C, k)
    n_blocks = 1 if T._GRAD_ENABLED else -(-B * L // T.ROW_BLOCK)

    # first row and length of each (batch, chunk)
    offsets = np.arange(0, L, cs)
    starts = (np.arange(B)[:, None] * L + offsets).reshape(-1)
    lengths = np.tile(np.minimum(cs, L - offsets), B)

    def parts():
        for e in range(pool.n_experts):
            sel_chunks, sel_slots = np.nonzero(ids_flat == e)
            if sel_chunks.size == 0:
                continue
            n = lengths[sel_chunks]
            # rows of the selected chunks back to back: each chunk's start,
            # shifted by the rows placed before it, plus a running count
            rows = np.repeat(starts[sel_chunks] - (np.cumsum(n) - n), n) + np.arange(n.sum())
            wpos = np.repeat(sel_chunks * k + sel_slots, n)
            # near-equal blocks of at least ROW_BLOCK / 2 rows, or the
            # whole: a sliver of a few rows may go through another BLAS
            # kernel (one row through gemv) and round differently from the
            # whole. Then empty blocks up to n_blocks
            m = min(n_blocks, -(-rows.size // T.ROW_BLOCK))
            edges = np.concatenate([np.arange(m + 1) * rows.size // m, np.full(n_blocks - m, rows.size)])
            for lo, hi in zip(edges[:-1], edges[1:]):
                r = rows[lo:hi]
                tok_w = T.reshape(T.gather_rows(w_flat, wpos[lo:hi]), (r.size, 1))
                yield T.mul(pool.experts[e](T.gather_rows(x2, r)), tok_w), r

    return T.reshape(scatter_rows(parts(), B * L), (B, L, d))


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
        raise T._op_error(UsageError, "load_balance_loss: need at least one chunk")
    mean_probs = T.tmean(all_distributions, axis=0)
    return T.tsum(T.mul(mean_probs, Tensor(np.asarray(fractions_dispatched)))) * float(E)

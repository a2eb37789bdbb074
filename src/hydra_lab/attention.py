"""Sparse global attention: local causal window plus selected global tokens.

Each token attends to its trailing window of ``w`` positions and to any
globally selected positions further back. Work is done in query blocks
so cost and transient memory stay O(L * (w + K) * d) instead of O(L^2).
The blocked softmax(q kᵀ) v is one tape op per call (``tiled_attention``)
with a hand-written backward, in the manner of FlashAttention (Dao et
al. 2022). It keeps each block's probabilities for that backward only
when the op is recorded, so a forward under ``no_grad`` holds one
block's scores at a time. Global selection is a hard top-K over a
learned linear saliency score, redone per query block over the causal
prefix; the same score biases the logits of the selected columns, so
the saliency projection keeps receiving gradient through the attention
weights it induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, UsageError

_MASK = -1e30  # additive mask; large-negative keeps buffers finite


@dataclass
class SgaLayerParams:
    q_proj: Tensor
    k_proj: Tensor
    v_proj: Tensor
    out_proj: Tensor
    n_heads: int
    window: int
    max_globals: int
    saliency_proj: Tensor = None  # [d], scores positions for global selection

    def __post_init__(self):
        d = self.q_proj.data.shape[0]
        if d % self.n_heads != 0:
            raise UsageError("model dim must be divisible by n_heads")
        if self.window < 1 or self.max_globals < 0:
            raise UsageError("window must be >= 1 and max_globals >= 0")

    def parameters(self):
        ps = [("q_proj", self.q_proj), ("k_proj", self.k_proj),
              ("v_proj", self.v_proj), ("out_proj", self.out_proj)]
        if self.saliency_proj is not None:
            ps.append(("saliency_proj", self.saliency_proj))
        return ps


def init_sga_params(d, n_heads, window, max_globals, rng) -> SgaLayerParams:
    scale = 1.0 / np.sqrt(d)
    mk = lambda: Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True)
    return SgaLayerParams(
        q_proj=mk(), k_proj=mk(), v_proj=mk(), out_proj=mk(),
        n_heads=n_heads, window=window, max_globals=max_globals,
        saliency_proj=Tensor(rng.normal(0.0, scale, size=d), requires_grad=True),
    )


def _split_heads(x, n_heads):
    # [..., L, d] -> [..., H, L, dh]
    L, d = x.shape[-2], x.shape[-1]
    dh = d // n_heads
    lead = x.data.shape[:-2]
    x = T.reshape(x, lead + (L, n_heads, dh))
    axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    return T.transpose(x, axes)


def _merge_heads(x):
    # [..., H, L, dh] -> [..., L, d]
    lead = x.data.shape[:-3]
    H, L, dh = x.data.shape[-3:]
    axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    return T.reshape(T.transpose(x, axes), lead + (L, H * dh))


def _prefix_topk(sal_row: np.ndarray, hi: int, K: int) -> np.ndarray:
    """Top-K positions by score within [0, hi), sorted ascending."""
    if hi <= 0 or K <= 0:
        return np.empty(0, dtype=np.int64)
    prefix = sal_row[:hi]
    if hi <= K:
        return np.arange(hi, dtype=np.int64)
    part = np.argpartition(-prefix, K - 1)[:K]
    # deterministic order among the selected: score desc, index asc
    part = part[np.lexsort((part, -prefix[part]))]
    return np.sort(part)


def _block_globals(saliency: np.ndarray, hi: int, K: int, explore):
    """Global columns of one query block: per sequence, the top-K of the
    causal prefix [0, hi) plus any ``explore`` positions inside it.

    Returns (gidx [B, G], mask [B, 1, 1, G]) with short rows padded by
    position 0 under the mask, or None when no sequence has a global.
    """
    per_row = []
    for b in range(saliency.shape[0]):
        sel = _prefix_topk(saliency[b], hi, K)
        if explore is not None:
            extra = explore[b][explore[b] < hi]
            if extra.size:
                sel = np.unique(np.concatenate([sel, extra]))
        per_row.append(sel)
    G = max(s.size for s in per_row)
    if not G:
        return None
    gidx = np.zeros((len(per_row), G), dtype=np.int64)
    mask = np.full((len(per_row), 1, 1, G), _MASK)
    for b, sel in enumerate(per_row):
        gidx[b, :sel.size] = sel
        mask[b, 0, 0, :sel.size] = 0.0
    return gidx, mask


#: tape ops one ``sga_forward`` call records: the q/k/v projections and
#: their head splits (9), the fused attention op (1), the head merge and the
#: output projection (3), plus the saliency score (2) when globals are selected
SGA_TAPE_OPS = 15
DENSE_TAPE_OPS = 13


def sga_forward(h, params: SgaLayerParams, block_size: int = 256,
                explore: np.ndarray | None = None) -> Tensor:
    """Windowed causal attention with causally selected global tokens.

    ``h`` is [B, L, d]. Every query block re-selects its top-K globals
    (K = ``params.max_globals``) by the saliency score ``h . saliency_proj``
    of the positions strictly before the block's window span, so selection
    never looks ahead of the query. The same score, computed once as a
    tape op, is added to the logits of the global columns, which is how
    ``saliency_proj`` receives gradient. ``explore`` ([B, n] positions)
    adds train-time candidates, filtered to the same prefix. With
    ``max_globals == 0`` and no ``explore`` this is windowed attention
    only, and dense causal attention when w >= L.
    """
    B, L, d = h.data.shape
    H = params.n_heads
    K = min(params.max_globals, L)
    sal = None
    if K > 0 or explore is not None:
        sal = T.matmul(h, T.reshape(params.saliency_proj, (d, 1)))   # [B, L, 1]
    q = _split_heads(T.matmul(h, params.q_proj), H)   # [B,H,L,dh]
    k = _split_heads(T.matmul(h, params.k_proj), H)
    v = _split_heads(T.matmul(h, params.v_proj), H)
    out = tiled_attention(q, k, v, sal, params.window, K, explore, block_size)
    return T.matmul(_merge_heads(out), params.out_proj)


def _window_mask(t0: int, t1: int, win_start: int, w: int):
    """Additive mask of query rows [t0, t1) over window columns
    [win_start, t1): row t sees t - w <= pos <= t. Returns (c0, mask
    [rows, cols - c0]); columns before c0 are inside every row's window."""
    c0 = 0 if t1 - 1 - w > win_start else t0 + 1 - win_start
    pos = np.arange(win_start + c0, t1)
    rows = np.arange(t0, t1)[:, None]
    return c0, np.where((pos >= rows - w) & (pos <= rows), 0.0, _MASK)


def tiled_attention(q: Tensor, k: Tensor, v: Tensor, sal: Tensor | None, w: int, K: int,
                    explore, block_size: int) -> Tensor:
    """softmax(q kᵀ / sqrt(dh) + mask + bias) v over the window and global
    columns of each query tile, recorded as one tape op.

    q, k, v are [B, H, L, dh]. ``sal`` ([B, L, 1]) is the saliency score
    that selects each tile's globals (``_block_globals``) and biases their
    logits; None means no globals. Tiles are computed on numpy views, and
    a tile's probabilities are kept for the backward only when the op is
    recorded.
    """
    qd, kd, vd = q.data, k.data, v.data
    B, H, L, dh = qd.shape
    if block_size < 1:
        raise T._op_error(UsageError, "tiled_attention: block_size must be >= 1")
    inputs = (q, k, v) if sal is None else (q, k, v, sal)
    keep = T._GRAD_ENABLED and any(t.requires_grad for t in inputs)
    saliency = None if sal is None else sal.data[..., 0]
    scale = 1.0 / np.sqrt(dh)
    bi = np.arange(B)[:, None]
    out = np.empty_like(qd)
    saved = []
    for t0 in range(0, L, block_size):
        t1 = min(t0 + block_size, L)
        ws = max(0, t0 - w)
        nw = t1 - ws
        picked = None if sal is None else _block_globals(saliency, ws, K, explore)
        gidx, glob_mask = (None, None) if picked is None else picked
        G = 0 if gidx is None else gidx.shape[1]
        q_t = qd[:, :, t0:t1]
        s = np.empty((B, H, t1 - t0, nw + G))
        np.matmul(q_t, kd[:, :, ws:t1].swapaxes(-1, -2), out=s[..., :nw])
        v_t = vd[:, :, ws:t1]
        if G:
            np.matmul(q_t, kd[bi, :, gidx].transpose(0, 2, 3, 1), out=s[..., nw:])
        if not np.isfinite(s.sum()):
            T._check_finite(s, "tiled_attention")
        s *= scale
        c0, mask = _window_mask(t0, t1, ws, w)
        s[..., c0:nw] += mask
        if G:
            s[..., nw:] += saliency[bi, gidx][:, None, None, :]
            s[..., nw:] += glob_mask
            v_t = np.concatenate([v_t, vd[bi, :, gidx].transpose(0, 2, 1, 3)], axis=-2)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        np.matmul(s, v_t, out=out[:, :, t0:t1])
        if keep:
            saved.append((t0, t1, ws, gidx, s))

    def bwd(g):
        gq = np.empty_like(qd)          # each query row lies in exactly one tile
        gk = np.zeros_like(kd)
        gv = np.zeros_like(vd)
        gsal = None     # stays None when no tile selected a global
        for t0, t1, ws, gidx, p in saved:
            nw = t1 - ws
            g_t = g[:, :, t0:t1]
            k_t, v_t = kd[:, :, ws:t1], vd[:, :, ws:t1]
            if gidx is not None:
                k_t = np.concatenate([k_t, kd[bi, :, gidx].transpose(0, 2, 1, 3)], axis=-2)
                v_t = np.concatenate([v_t, vd[bi, :, gidx].transpose(0, 2, 1, 3)], axis=-2)
            gv_t = p.swapaxes(-1, -2) @ g_t
            ds = g_t @ v_t.swapaxes(-1, -2)          # d(probs), then d(logits)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            if gidx is not None:
                # padding repeats position 0, so scatter with add.at
                if gsal is None:
                    gsal = np.zeros(sal.data.shape)
                np.add.at(gsal[..., 0], (bi, gidx), ds[..., nw:].sum(axis=(1, 2)))
            ds *= scale
            gq[:, :, t0:t1] = ds @ k_t
            gk_t = ds.swapaxes(-1, -2) @ qd[:, :, t0:t1]
            gk[:, :, ws:t1] += gk_t[:, :, :nw]
            gv[:, :, ws:t1] += gv_t[:, :, :nw]
            if gidx is not None:
                np.add.at(gk, (bi, slice(None), gidx), gk_t[:, :, nw:].transpose(0, 2, 1, 3))
                np.add.at(gv, (bi, slice(None), gidx), gv_t[:, :, nw:].transpose(0, 2, 1, 3))
        return (gq, gk, gv) if sal is None else (gq, gk, gv, gsal)

    return T._make_output(out, inputs, bwd, "tiled_attention")


def sga_cost(L, w, g, d, flops_per_mac: float = 4.0) -> float:
    """Analytic cost of one sparse-attention layer.

    Counts score and value MACs over the (window + globals) candidate
    set: flops_per_mac * L * (w + g) * d. The same constant with
    (w + g) = L gives the dense-attention estimate.
    """
    if min(L, w, d) <= 0 or g < 0:
        raise UsageError("sga_cost: L, w, d must be positive and g >= 0")
    return flops_per_mac * L * (w + g) * d

"""Sparse global attention: local causal window plus selected global tokens.

Each token attends to its trailing window of ``w`` positions and to any
globally selected positions further back. Work is done in query blocks
so cost and transient memory stay O(L * (w + K) * d) instead of O(L^2).
Global selection is a hard top-K over a learned linear saliency score,
redone per query block over the causal prefix; the same score biases
the logits of the selected columns, so the saliency projection keeps
receiving gradient through the attention weights it induces.
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
    H, w = params.n_heads, params.window
    dh = d // H
    K = min(params.max_globals, L)
    select = K > 0 or explore is not None
    if select:
        sal = T.matmul(h, T.reshape(params.saliency_proj, (d, 1)))   # [B, L, 1]
        saliency = sal.data[..., 0]

    q = _split_heads(T.matmul(h, params.q_proj), H)   # [B,H,L,dh]
    k_all = T.matmul(h, params.k_proj)                # [B,L,d]
    v_all = T.matmul(h, params.v_proj)
    scale = 1.0 / np.sqrt(dh)

    out_blocks = []
    for t0 in range(0, L, block_size):
        t1 = min(t0 + block_size, L)
        win_start = max(0, t0 - w)
        pos = np.arange(win_start, t1)
        rows = np.arange(t0, t1)[:, None]

        q_blk = q[:, :, t0:t1]                       # [B,H,nb,dh]
        k_win = _split_heads(k_all[:, win_start:t1], H)
        v_win = _split_heads(v_all[:, win_start:t1], H)

        # window part: allow t-w <= pos <= t
        win_mask = np.where((pos[None, :] >= rows - w) & (pos[None, :] <= rows), 0.0, _MASK)
        scores_w = T.matmul(q_blk, T.transpose(k_win, (0, 1, 3, 2))) * scale
        scores_w = scores_w + Tensor(win_mask)

        picked = _block_globals(saliency, win_start, K, explore) if select else None
        if picked is not None:
            gidx, glob_mask = picked
            G = gidx.shape[1]
            k_glob = _split_heads(T.gather_rows_batched(k_all, gidx), H)
            v_glob = _split_heads(T.gather_rows_batched(v_all, gidx), H)
            scores_g = T.matmul(q_blk, T.transpose(k_glob, (0, 1, 3, 2))) * scale
            bias_glob = T.gather_rows_batched(sal, gidx)  # [B,G,1]
            scores_g = scores_g + T.reshape(T.transpose(bias_glob, (0, 2, 1)), (B, 1, 1, G))
            scores_g = scores_g + Tensor(glob_mask)
            scores = T.concat([scores_w, scores_g], axis=-1)
            v_cat = T.concat([v_win, v_glob], axis=-2)
        else:
            scores, v_cat = scores_w, v_win

        probs = T.softmax(scores, axis=-1)
        out_blocks.append(T.matmul(probs, v_cat))    # [B,H,nb,dh]

    out = T.concat(out_blocks, axis=-2) if len(out_blocks) > 1 else out_blocks[0]
    return T.matmul(_merge_heads(out), params.out_proj)


def sga_cost(L, w, g, d, flops_per_mac: float = 4.0) -> float:
    """Analytic cost of one sparse-attention layer.

    Counts score and value MACs over the (window + globals) candidate
    set: flops_per_mac * L * (w + g) * d. The same constant with
    (w + g) = L gives the dense-attention estimate.
    """
    if min(L, w, d) <= 0 or g < 0:
        raise UsageError("sga_cost: L, w, d must be positive and g >= 0")
    return flops_per_mac * L * (w + g) * d

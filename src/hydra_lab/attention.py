"""Sparse global attention: local causal window plus selected global tokens.

Each token attends to its trailing window of ``w`` positions and to any
globally selected positions further back. Work is done in query blocks
so cost and transient memory stay O(L * (w + K) * d) instead of O(L^2).
Global selection is a hard top-K over a learned linear saliency score;
an optional per-position score bias lets the saliency projection keep
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


@dataclass
class GlobalTokenSet:
    indices: np.ndarray  # strictly increasing positions, <= K of them
    scores: np.ndarray   # saliency score per selected position

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.indices.size and not (np.diff(self.indices) > 0).all():
            raise UsageError("global token indices must be strictly increasing")


def init_sga_params(d, n_heads, window, max_globals, rng) -> SgaLayerParams:
    scale = 1.0 / np.sqrt(d)
    mk = lambda: Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True)
    return SgaLayerParams(
        q_proj=mk(), k_proj=mk(), v_proj=mk(), out_proj=mk(),
        n_heads=n_heads, window=window, max_globals=max_globals,
        saliency_proj=Tensor(rng.normal(0.0, scale, size=d), requires_grad=True),
    )


def select_globals(h, saliency_proj, K: int) -> GlobalTokenSet:
    """Top-K positions by the linear saliency score h_t . saliency_proj.

    Hard selection (no gradient); ties break toward the lower index.
    """
    hd = h.data if isinstance(h, Tensor) else np.asarray(h)
    sal = hd @ (saliency_proj.data if isinstance(saliency_proj, Tensor) else saliency_proj)
    L = hd.shape[0]
    if K > L:
        raise UsageError("select_globals: K must be <= L")
    if K == 0:
        return GlobalTokenSet(np.empty(0, dtype=np.int64), np.empty(0))
    order = np.argsort(-sal, kind="stable")[:K]
    idx = np.sort(order)
    return GlobalTokenSet(idx, sal[idx])


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


def sga_forward(h, params: SgaLayerParams, globals_: GlobalTokenSet | np.ndarray | str,
                saliency_bias: Tensor | None = None, block_size: int = 256,
                explore: np.ndarray | None = None) -> Tensor:
    """Windowed causal attention with global tokens.

    ``h`` is [L, d] or [B, L, d]. ``globals_`` is either a fixed
    GlobalTokenSet (or int array [B, G] of per-sequence positions), or
    the string "causal": then each query block re-selects its top-K
    globals from the saliency scores of positions strictly before the
    block's window span, so selection never looks ahead of the query.
    ``saliency_bias`` ([L] or [B, L]) is added to attention logits at
    global candidate columns. Equals dense causal attention when w >= L.
    ``explore`` optionally appends extra (train-time) candidate
    positions per sequence, filtered to the causal prefix.
    """
    squeeze = h.data.ndim == 2
    if squeeze:
        h = T.reshape(h, (1,) + h.data.shape)
        if saliency_bias is not None:
            saliency_bias = T.reshape(saliency_bias, (1,) + saliency_bias.data.shape)
    B, L, d = h.data.shape
    H, w = params.n_heads, params.window
    dh = d // H

    causal_sel = isinstance(globals_, str)
    if causal_sel:
        if globals_ != "causal":
            raise UsageError(f"unknown selection mode '{globals_}'")
        saliency = h.data @ params.saliency_proj.data
        K_sel = min(params.max_globals, L)
    else:
        if isinstance(globals_, GlobalTokenSet):
            gidx_fixed = np.broadcast_to(globals_.indices, (B, globals_.indices.size)).copy()
        else:
            gidx_fixed = np.asarray(globals_, dtype=np.int64)
            if gidx_fixed.ndim == 1:
                gidx_fixed = np.broadcast_to(gidx_fixed, (B, gidx_fixed.size)).copy()

    q = _split_heads(T.matmul(h, params.q_proj), H)   # [B,H,L,dh]
    k_all = T.matmul(h, params.k_proj)                # [B,L,d]
    v_all = T.matmul(h, params.v_proj)
    scale = 1.0 / np.sqrt(dh)
    sal3 = T.reshape(saliency_bias, (B, L, 1)) if saliency_bias is not None else None

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

        if causal_sel:
            # per-block selection over the causal prefix [0, win_start)
            per_row = []
            for b in range(B):
                sel = _prefix_topk(saliency[b], win_start, K_sel)
                if explore is not None:
                    extra = explore[b][explore[b] < win_start]
                    if extra.size:
                        sel = np.unique(np.concatenate([sel, extra]))
                per_row.append(sel)
            G = max((s.size for s in per_row), default=0)
            if G:
                # pad short rows with position 0 and mask the padding
                gidx = np.zeros((B, G), dtype=np.int64)
                pad = np.full((B, 1, 1, G), _MASK)
                for b, sel in enumerate(per_row):
                    gidx[b, :sel.size] = sel
                    pad[b, 0, 0, :sel.size] = 0.0
                glob_mask = pad                       # selection already causal
            else:
                gidx = None
        else:
            gidx = gidx_fixed if gidx_fixed.shape[1] else None
            if gidx is not None:
                # allow pos < t-w only (window covers the rest)
                glob_mask = np.where(gidx[:, None, :] < rows[None, :, :] - w, 0.0, _MASK)
                glob_mask = glob_mask[:, None, :, :]  # [B,1,nb,G]

        if gidx is not None:
            k_glob = _split_heads(T.gather_rows_batched(k_all, gidx), H)
            v_glob = _split_heads(T.gather_rows_batched(v_all, gidx), H)
            scores_g = T.matmul(q_blk, T.transpose(k_glob, (0, 1, 3, 2))) * scale
            if sal3 is not None:
                bias_glob = T.gather_rows_batched(sal3, gidx)  # [B,G,1]
                scores_g = scores_g + T.reshape(T.transpose(bias_glob, (0, 2, 1)), (B, 1, 1, gidx.shape[1]))
            scores_g = scores_g + Tensor(glob_mask)
            scores = T.concat([scores_w, scores_g], axis=-1)
            v_cat = T.concat([v_win, v_glob], axis=-2)
        else:
            scores, v_cat = scores_w, v_win

        probs = T.softmax(scores, axis=-1)
        out_blocks.append(T.matmul(probs, v_cat))    # [B,H,nb,dh]

    out = T.concat(out_blocks, axis=-2) if len(out_blocks) > 1 else out_blocks[0]
    out = T.matmul(_merge_heads(out), params.out_proj)
    return T.reshape(out, (L, d)) if squeeze else out


def sga_cost(L, w, g, d, flops_per_mac: float = 4.0) -> float:
    """Analytic cost of one sparse-attention layer.

    Counts score and value MACs over the (window + globals) candidate
    set: flops_per_mac * L * (w + g) * d. The same constant with
    (w + g) = L gives the dense-attention estimate.
    """
    if min(L, w, d) <= 0 or g < 0:
        raise UsageError("sga_cost: L, w, d must be positive and g >= 0")
    return flops_per_mac * L * (w + g) * d

"""Model assembly: router, tri-path blocks, the full decoder, and the
parameter-matched dense transformer baseline.

The router runs once per forward on chunk means of the embedded input
and produces every gating decision from the same routing vector:
expert choice per chunk, a sparse-attention on/off probability per
chunk, and two per-token memory interpolation weights (workspace and
product-key memory). Chunk c is routed by the summary of chunk c-1
(zero for the first chunk) so no decision depends on a token's own
future. Each block mixes its scheduled paths through learnable scalar
gates over a shared pre-norm input; at init g1=1 and g2=g3=0, so a
fresh model is exactly an SSM stack.

Sparse-attention gating is soft while training (the path is scaled by
the on-probability) and hard at eval (chunks at or below the threshold
contribute exactly zero, and the path is skipped when every chunk is
off). Memory attaches once, after the middle block: chunk summaries
are written into workspace slots progressively so tokens only ever
read state written from strictly earlier chunks, keeping the model
causal end to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import DENSE_TAPE_OPS, SGA_TAPE_OPS, SgaLayerParams, init_sga_params, sga_cost, sga_forward
from .moe import ExpertPool, chunk_spans, dispatch_fractions, init_expert_pool, moe_apply, moe_tape_ops, top2_pairs
from .pkm import PKM_TAPE_OPS, PkmStore, init_pkm_store, pkm_blend, pkm_query_batch
from .rng import substream
from .ssm import SSM_TAPE_OPS, SsmLayerParams, init_ssm_params, ssm_scan
from .tensor import ShapeError, Tensor, UsageError
from .workspace import WorkspaceParams, init_workspace_params, workspace_read, workspace_write

ABLATABLE = ("workspace", "sga", "moe", "pkm")


@dataclass
class ModelConfig:
    vocab: int
    d: int = 256
    n_blocks: int = 12
    n_heads: int = 4
    chunk_size: int = 64
    routing_dim: int = 32
    n_experts: int = 4
    moe_hidden: int = 512
    sga_period: int = 3          # SGA path lives in every sga_period-th block
    moe_period: int = 2          # MoE path in alternating blocks
    sga_window: int = 64
    sga_max_globals: int = 16
    sga_threshold: float = 0.5
    ws_slots: int = 32
    ws_active: int = 8
    ws_rank: int = 32
    pkm_n: int = 16
    pkm_dk: int = 32
    pkm_dv: int = 256
    pkm_t: int = 4
    pkm_kc: int = 4
    max_len: int = 4096
    seed: int = 0
    attn_block: int = 256        # query-block size for attention kernels
    sga_blocks: list | None = None   # explicit overrides for tiny configs
    moe_blocks: list | None = None

    def sga_block_ids(self):
        if self.sga_blocks is not None:
            return list(self.sga_blocks)
        return [b for b in range(self.n_blocks) if (b + 1) % self.sga_period == 0]

    def moe_block_ids(self):
        if self.moe_blocks is not None:
            return list(self.moe_blocks)
        return [b for b in range(self.n_blocks) if b % self.moe_period == 1]

    def memory_block(self):
        """Memory read/write attaches after this block (mid-stack)."""
        return max(0, self.n_blocks // 2 - 1)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class BlockGates:
    g1: Tensor
    g2: Tensor | None = None     # SGA blocks only
    g3: Tensor | None = None     # MoE blocks only

    @classmethod
    def initial(cls, sga: bool, moe: bool):
        # biased toward the recurrent path: attention/experts start silent
        scalar = lambda v: Tensor(np.array(v), requires_grad=True)
        return cls(g1=scalar(1.0), g2=scalar(0.0) if sga else None,
                   g3=scalar(0.0) if moe else None)

    def parameters(self):
        return [(n, g) for n, g in (("g1", self.g1), ("g2", self.g2), ("g3", self.g3))
                if g is not None]


@dataclass
class RouterParams:
    w1: Tensor           # [d, m]
    w2: Tensor           # [m, m]
    w_moe: Tensor        # [E, m]
    w_sga: Tensor        # [m]
    w_mem_ws: Tensor     # [m]
    w_mem_pkm: Tensor    # [m]

    def parameters(self):
        return [(n, getattr(self, n)) for n in ("w1", "w2", "w_moe", "w_sga", "w_mem_ws", "w_mem_pkm")]


@dataclass
class RouterDecision:
    r_c: Tensor              # [B, C, m] routing vectors
    expert_ids: np.ndarray   # [B, C, 2] argmax-2 of the routing softmax
    expert_weights: Tensor   # [B, C, 2] pair-renormalized
    full_distribution: Tensor  # [B, C, E]
    p_sga: Tensor            # [B, C]
    sga_on: np.ndarray       # [B, C] bool, p_sga > tau
    beta_ws: Tensor          # [B, C]
    beta_pkm: Tensor         # [B, C]


def init_router(config: ModelConfig, rng) -> RouterParams:
    d, m, E = config.d, config.routing_dim, config.n_experts
    s = 1.0 / np.sqrt(d)
    sm = 1.0 / np.sqrt(m)
    return RouterParams(
        w1=Tensor(rng.normal(0, s, size=(d, m)), requires_grad=True),
        w2=Tensor(rng.normal(0, sm, size=(m, m)), requires_grad=True),
        w_moe=Tensor(rng.normal(0, sm, size=(E, m)), requires_grad=True),
        w_sga=Tensor(np.zeros(m), requires_grad=True),
        w_mem_ws=Tensor(np.zeros(m), requires_grad=True),
        w_mem_pkm=Tensor(np.zeros(m), requires_grad=True),
    )


def chunk_summarize(h: Tensor, chunk_size: int) -> Tensor:
    """Mean-pool hidden states per chunk: [.., L, d] -> [.., C, d]."""
    L = h.data.shape[-2]
    if L < 1:
        raise UsageError("chunk_summarize: L must be >= 1")
    spans = chunk_spans(L, chunk_size)
    lead = h.data.shape[:-2]
    if L % chunk_size == 0:
        C = L // chunk_size
        return T.tmean(T.reshape(h, lead + (C, chunk_size, h.data.shape[-1])), axis=-2)
    parts = [T.tmean(h[..., s:t, :], axis=-2, keepdims=True) for s, t in spans]
    return T.concat(parts, axis=-2)


def route(s_c: Tensor, params: RouterParams, tau: float = 0.5) -> RouterDecision:
    """All gate families from one routing vector r_c = f_router(s_c), s_c [B, C, d]."""
    r = T.matmul(T.silu(T.matmul(s_c, params.w1)), params.w2)     # [B, C, m]
    B, C, m = r.data.shape
    full, ids, weights = top2_pairs(T.matmul(r, T.transpose(params.w_moe)))

    def head(w):
        return T.reshape(T.matmul(r, T.reshape(w, (m, 1))), (B, C))

    p_sga = T.sigmoid(head(params.w_sga))
    return RouterDecision(
        r_c=r,
        expert_ids=ids,
        expert_weights=weights,
        full_distribution=full,
        p_sga=p_sga,
        sga_on=p_sga.data > tau,
        beta_ws=T.sigmoid(head(params.w_mem_ws)),
        beta_pkm=T.sigmoid(head(params.w_mem_pkm)),
    )


# ---------------------------------------------------------------------------
# parameters

@dataclass
class HydraBlockParams:
    ln_gain: Tensor
    ln_bias: Tensor
    gates: BlockGates
    ssm: SsmLayerParams
    sga: SgaLayerParams | None
    moe: ExpertPool | None

    def parameters(self):
        ps = [("ln_gain", self.ln_gain), ("ln_bias", self.ln_bias)]
        ps += [(f"gates.{n}", p) for n, p in self.gates.parameters()]
        ps += [(f"ssm.{n}", p) for n, p in self.ssm.parameters()]
        if self.sga is not None:
            ps += [(f"sga.{n}", p) for n, p in self.sga.parameters()]
        if self.moe is not None:
            ps += [(f"moe.{n}", p) for n, p in self.moe.parameters()]
        return ps


@dataclass
class HydraParams:
    embedding: Tensor
    positions: Tensor
    blocks: list[HydraBlockParams]
    router: RouterParams
    workspace: WorkspaceParams
    pkm: PkmStore
    final_gain: Tensor
    final_bias: Tensor

    kind = "hydra"

    def forward(self, tokens, config, **kw) -> Tensor:
        # the module-level name is looked up per call, so a wrapper
        # patched onto it (the benchmark's tracer) sees every forward
        return hydra_forward(tokens, config, self, **kw)

    def parameters(self):
        ps = [("embedding", self.embedding), ("positions", self.positions)]
        for i, b in enumerate(self.blocks):
            ps += [(f"blocks.{i}.{n}", p) for n, p in b.parameters()]
        ps += [(f"router.{n}", p) for n, p in self.router.parameters()]
        ps += [(f"workspace.{n}", p) for n, p in self.workspace.parameters()]
        ps += [(f"pkm.{n}", p) for n, p in self.pkm.parameters()]
        ps += [("final_gain", self.final_gain), ("final_bias", self.final_bias)]
        return ps


@dataclass
class TransformerBlockParams:
    ln1_gain: Tensor
    ln1_bias: Tensor
    attn: SgaLayerParams
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_in: Tensor   # [d, hf]
    ffn_out: Tensor  # [hf, d]

    def parameters(self):
        ps = [("ln1_gain", self.ln1_gain), ("ln1_bias", self.ln1_bias)]
        ps += [(f"attn.{n}", p) for n, p in self.attn.parameters()]
        ps += [("ln2_gain", self.ln2_gain), ("ln2_bias", self.ln2_bias),
               ("ffn_in", self.ffn_in), ("ffn_out", self.ffn_out)]
        return ps


@dataclass
class TransformerParams:
    embedding: Tensor
    positions: Tensor
    blocks: list[TransformerBlockParams]
    final_gain: Tensor
    final_bias: Tensor
    ffn_hidden: int

    kind = "transformer"

    def forward(self, tokens, config, **kw) -> Tensor:
        return transformer_forward(tokens, config, self, **kw)

    def parameters(self):
        ps = [("embedding", self.embedding), ("positions", self.positions)]
        for i, b in enumerate(self.blocks):
            ps += [(f"blocks.{i}.{n}", p) for n, p in b.parameters()]
        ps += [("final_gain", self.final_gain), ("final_bias", self.final_bias)]
        return ps


def count_params(named) -> int:
    return int(sum(p.data.size for _, p in named))


def _ln_pair(d):
    return Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True)


def build_hydra(config: ModelConfig) -> HydraParams:
    rng = substream(config.seed, "init.hydra")
    d = config.d
    sga_ids = set(config.sga_block_ids())
    moe_ids = set(config.moe_block_ids())
    blocks = []
    for b in range(config.n_blocks):
        gain, bias = _ln_pair(d)
        blocks.append(HydraBlockParams(
            ln_gain=gain, ln_bias=bias,
            gates=BlockGates.initial(b in sga_ids, b in moe_ids),
            ssm=init_ssm_params(d, rng),
            sga=init_sga_params(d, config.n_heads, config.sga_window, config.sga_max_globals, rng)
            if b in sga_ids else None,
            moe=init_expert_pool(d, config.moe_hidden, config.n_experts, config.chunk_size, rng)
            if b in moe_ids else None,
        ))
    fg, fb = _ln_pair(d)
    return HydraParams(
        embedding=Tensor(rng.normal(0, 0.02, size=(config.vocab, d)), requires_grad=True),
        positions=Tensor(rng.normal(0, 0.02, size=(config.max_len, d)), requires_grad=True),
        blocks=blocks,
        router=init_router(config, rng),
        workspace=init_workspace_params(d, config.ws_slots, config.ws_active, config.ws_rank, rng),
        pkm=init_pkm_store(d, config.pkm_n, config.pkm_dk, config.pkm_dv, config.pkm_t, config.pkm_kc, rng),
        final_gain=fg, final_bias=fb,
    )


def hydra_param_count(config: ModelConfig) -> int:
    """Closed-form parameter count (no tensors allocated)."""
    d, V = config.d, config.vocab
    n = V * d + config.max_len * d               # tied embedding + positions
    sga_ids, moe_ids = set(config.sga_block_ids()), set(config.moe_block_ids())
    for b in range(config.n_blocks):
        n += 2 * d + 1                           # block LN + g1
        n += d + 3 * d * d                       # ssm decay + projections
        if b in sga_ids:
            n += 4 * d * d + d + 1               # qkvo + saliency + g2
        if b in moe_ids:
            n += config.n_experts * 3 * d * config.moe_hidden + 1   # experts + g3
    m, E = config.routing_dim, config.n_experts
    n += d * m + m * m + E * m + 3 * m           # router
    S, r = config.ws_slots, config.ws_rank
    n += S * d + 8 * d * r + 3 * r * d + config.ws_active * r  # workspace
    N, dk, dv = config.pkm_n, config.pkm_dk, config.pkm_dv
    n += 2 * N * (dk // 2) + N * N * dv + dk * d + d * dv      # pkm
    n += 2 * d                                   # final LN
    return n


def matched_ffn_hidden(config: ModelConfig) -> int:
    """Baseline FFN width that matches the hybrid's parameter count."""
    d, V = config.d, config.vocab
    target = hydra_param_count(config)
    fixed = V * d + config.max_len * d + 2 * d
    fixed += config.n_blocks * (4 * d * d + 4 * d)
    hf = (target - fixed) / (config.n_blocks * 2 * d)
    return max(8, int(round(hf)))


def build_transformer(config: ModelConfig) -> TransformerParams:
    rng = substream(config.seed, "init.transformer")
    d = config.d
    hf = matched_ffn_hidden(config)
    scale = 1.0 / np.sqrt(d)
    blocks = []
    for _ in range(config.n_blocks):
        g1, b1 = _ln_pair(d)
        g2, b2 = _ln_pair(d)
        attn = init_sga_params(d, config.n_heads, config.max_len, 0, rng)
        attn.saliency_proj = None  # dense baseline has no global selection
        blocks.append(TransformerBlockParams(
            ln1_gain=g1, ln1_bias=b1, attn=attn,
            ln2_gain=g2, ln2_bias=b2,
            ffn_in=Tensor(rng.normal(0, scale, size=(d, hf)), requires_grad=True),
            ffn_out=Tensor(rng.normal(0, 1.0 / np.sqrt(hf), size=(hf, d)), requires_grad=True),
        ))
    fg, fb = _ln_pair(d)
    return TransformerParams(
        embedding=Tensor(rng.normal(0, 0.02, size=(config.vocab, d)), requires_grad=True),
        positions=Tensor(rng.normal(0, 0.02, size=(config.max_len, d)), requires_grad=True),
        blocks=blocks, final_gain=fg, final_bias=fb, ffn_hidden=hf,
    )


#: model kind -> builder; each built model reports its own ``kind``
BUILDERS = {"hydra": build_hydra, "transformer": build_transformer}


# ---------------------------------------------------------------------------
# forward passes

def _tok_chunk_map(L, chunk_size):
    return np.arange(L) // chunk_size


def _per_token(decision_field: Tensor, tok_chunk: np.ndarray) -> Tensor:
    """Broadcast a per-chunk tensor [B, C] to per-token [B, L]."""
    B = decision_field.data.shape[0]
    idx = np.broadcast_to(tok_chunk, (B, tok_chunk.size))
    return T.take_along_last(decision_field, idx)


def tri_path_block(x: Tensor, bp: HydraBlockParams, decision: RouterDecision,
                   config: ModelConfig, train_mode: bool = False,
                   ablate: frozenset = frozenset(), explore_rng=None) -> Tensor:
    """y = x + g1*SSM(LN x) + g2*SGA(LN x) + g3*MoE(LN x).

    A block has g2/g3 only where its SGA/MoE path is scheduled; other
    paths, and SGA hard-gated off, contribute exactly zero.
    """
    u = T.layer_norm(x, bp.ln_gain, bp.ln_bias, 1e-5)
    tok_chunk = _tok_chunk_map(x.data.shape[-2], config.chunk_size)
    # each residual is one op; under no_grad it writes into its path's output
    y = T.gated_add(x, bp.gates.g1, ssm_scan(u, bp.ssm))

    if bp.sga is not None and "sga" not in ablate:
        if train_mode:
            gate_tok = _per_token(decision.p_sga, tok_chunk)       # soft
            run = True
        else:
            on = decision.sga_on
            run = bool(on.any())
            if run:
                gate_tok = Tensor(np.take_along_axis(
                    on.astype(float), np.broadcast_to(tok_chunk, (on.shape[0], tok_chunk.size)), axis=1))
        if run:
            B, L, _ = u.data.shape
            explore = None
            if train_mode and explore_rng is not None:
                explore = explore_rng.integers(0, L, size=(B, min(bp.sga.max_globals, L)))
            attn = sga_forward(u, bp.sga, block_size=config.attn_block, explore=explore)
            gated = T.mul(T.reshape(gate_tok, gate_tok.data.shape + (1,)), attn)
            y = T.gated_add(y, bp.gates.g2, gated)

    if bp.moe is not None and "moe" not in ablate:
        moe_out = moe_apply(u, bp.moe, decision.expert_ids, decision.expert_weights)
        del u               # not held through the last residual
        y = T.gated_add(y, bp.gates.g3, moe_out)
    return y


def _memory_stage(h: Tensor, params: HydraParams, decision: RouterDecision,
                  config: ModelConfig, ablate: frozenset, stats: dict | None):
    """Workspace write/read plus PKM blend, applied mid-stack.

    Writes advance chunk by chunk and every token reads the state from
    strictly earlier chunks, so nothing leaks backward in time.
    """
    B, L, d = h.data.shape
    cs = config.chunk_size
    tok_chunk = _tok_chunk_map(L, cs)

    if "workspace" not in ablate:
        beta_ws = _per_token(decision.beta_ws, tok_chunk)          # [B, L]
        slots = workspace_write(chunk_summarize(h, cs), params.workspace)
        h = workspace_read(h, slots, beta_ws, params.workspace, cs)
        if stats is not None:
            stats["mean_beta_ws"] = float(decision.beta_ws.data.mean())

    if "pkm" not in ablate:
        beta_pkm = _per_token(decision.beta_pkm, tok_chunk)
        q = T.matmul(h, T.transpose(params.pkm.w_query))           # [B, L, dk]
        retr = pkm_query_batch(T.reshape(q, (B * L, config.pkm_dk)), params.pkm)
        m = T.reshape(retr.value, (B, L, config.pkm_dv))
        h = pkm_blend(h, m, T.reshape(beta_pkm, (B, L, 1)), params.pkm.w_val)
        if stats is not None:
            stats["mean_beta_pkm"] = float(decision.beta_pkm.data.mean())
    return h


def _embed(tokens, config: ModelConfig, params):
    """Checked token ids [L] or [B, L] -> (embedding plus positions
    [B, L, d], whether the input was one unbatched sequence)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    L = tokens.shape[1]
    if L > config.max_len:
        raise UsageError(f"sequence length {L} exceeds max_len {config.max_len}")
    if tokens.min() < 0 or tokens.max() >= config.vocab:
        raise UsageError("token id outside vocabulary")
    return T.add(T.gather_rows(params.embedding, tokens), params.positions[:L]), squeeze


def _logits(h: Tensor, config: ModelConfig, params, squeeze: bool) -> Tensor:
    """Final layer norm and the logits tied to the embedding."""
    L = h.data.shape[1]
    h = T.layer_norm(h, params.final_gain, params.final_bias, 1e-5)
    logits = T.matmul(h, T.transpose(params.embedding))
    return T.reshape(logits, (L, config.vocab)) if squeeze else logits


def hydra_forward(tokens, config: ModelConfig, params: HydraParams,
                  train_mode: bool = False, ablate=frozenset(),
                  stats: dict | None = None, explore_rng=None) -> Tensor:
    """Token ids -> next-token logits.

    tokens is an int array [L] or [B, L]; returns [L, vocab] or
    [B, L, vocab]. ``ablate`` names components forced hard-off.
    """
    ablate = frozenset(ablate)
    bad = ablate.difference(ABLATABLE)
    if bad:
        raise UsageError(f"unknown ablation target(s): {sorted(bad)}")
    h, squeeze = _embed(tokens, config, params)
    B = h.data.shape[0]

    # decisions for chunk c are derived from the summary of chunk c-1
    # (zero for the first chunk), so no token is routed by content that
    # lies in its own future
    summaries = chunk_summarize(h, config.chunk_size)
    zero = Tensor(np.zeros((B, 1, config.d)))
    shifted = T.concat([zero, summaries[:, :-1]], axis=1) if summaries.data.shape[1] > 1 else zero
    decision = route(shifted, params.router, tau=config.sga_threshold)
    if stats is not None:
        stats["mean_p_sga"] = float(decision.p_sga.data.mean())
        stats["sga_on_rate"] = float(decision.sga_on.mean())
        stats["expert_histogram"] = dispatch_fractions(decision.expert_ids, config.n_experts)
        stats["decision"] = decision

    mem_at = config.memory_block()
    for b, bp in enumerate(params.blocks):
        h = tri_path_block(h, bp, decision, config, train_mode, ablate, explore_rng)
        if b == mem_at:
            h = _memory_stage(h, params, decision, config, ablate, stats)
    return _logits(h, config, params, squeeze)


def dense_ffn(x: Tensor, w_in: Tensor, w_out: Tensor) -> Tensor:
    """The baseline's feed-forward ``silu(x W_in) W_out``, as one tape op.

    Its value and its three gradients equal those of ``matmul(silu(matmul(
    x, W_in)), W_out)`` bit for bit. The SiLU runs in place on ``x W_in``,
    so a call that is not recorded holds one [rows, hidden] array. A
    recorded call keeps the hidden layer and its sigmoid for the backward:
    the pre-activation is not needed, as ``hidden`` equals ``a * s``.
    """
    inputs = (x, w_in, w_out)
    keep = T._GRAD_ENABLED and any(t.requires_grad for t in inputs)
    xd, wi, wo = (t.data for t in inputs)
    if xd.shape[-1] != wi.shape[0] or wi.shape[1] != wo.shape[0]:
        raise T._op_error(ShapeError, f"dense_ffn: shapes {xd.shape}, {wi.shape} and {wo.shape} do not chain")
    x2 = np.ascontiguousarray(xd).reshape(-1, xd.shape[-1])
    hid = x2 @ wi
    _, s = T._silu(hid, hid, keep)
    if not np.isfinite(hid.sum()):
        T._check_finite(hid, "dense_ffn")
    out = (hid @ wo).reshape(xd.shape[:-1] + (wo.shape[1],))

    def bwd(g):
        g2 = np.ascontiguousarray(g).reshape(-1, wo.shape[1])
        ga = (g2 @ wo.T) * (s + hid * (1.0 - s))   # silu's rule, with x * s = hid
        return (ga @ wi.T).reshape(xd.shape), x2.T @ ga, hid.T @ g2

    return T._make_output(out, inputs, bwd, "dense_ffn")


def transformer_forward(tokens, config: ModelConfig, params: TransformerParams,
                        train_mode: bool = False, ablate=frozenset(),
                        stats: dict | None = None, explore_rng=None) -> Tensor:
    """Pre-norm dense-attention decoder. It takes ``hydra_forward``'s
    keywords; with no gates, router or global selection it ignores them,
    and a non-empty ``ablate`` is a ``UsageError``."""
    if ablate:
        raise UsageError(f"the transformer baseline has nothing to ablate: {sorted(ablate)}")
    h, squeeze = _embed(tokens, config, params)
    for bp in params.blocks:
        u = T.layer_norm(h, bp.ln1_gain, bp.ln1_bias, 1e-5)
        # window = max_len and no globals: dense causal attention
        h = T.add(h, sga_forward(u, bp.attn, block_size=config.attn_block))
        u = T.layer_norm(h, bp.ln2_gain, bp.ln2_bias, 1e-5)
        h = T.add(h, dense_ffn(u, bp.ffn_in, bp.ffn_out))
    return _logits(h, config, params, squeeze)


# ---------------------------------------------------------------------------
# analytic cost model

#: relative time-per-flop weights, calibrated to this implementation:
#: BLAS matmuls are the unit; the sequential recurrence loop runs far
#: fewer flops per second than BLAS.
RECURRENCE_WEIGHT = 40.0
#: fixed per-tape-op overhead expressed in BLAS-flop equivalents
#: (python dispatch, allocation, finite checks)
OP_OVERHEAD_FLOPS = 3.0e6
FLOPS_PER_MAC = 2.0


@dataclass
class ActiveDecisions:
    """Which conditional components are live for a forward pass."""
    sga_on: bool = True
    n_globals: int | None = None
    moe_on: bool = True
    workspace_on: bool = True
    pkm_on: bool = True

    @classmethod
    def all_off(cls):
        return cls(sga_on=False, moe_on=False, workspace_on=False, pkm_on=False)


def cost_model(config: ModelConfig, L: int, active: ActiveDecisions | None = None) -> dict:
    """Itemized analytic cost (flop-equivalents) of one forward pass.

    Components follow the architecture's per-path complexity: SSM is
    linear in L, attention linear in L times (window + globals), MoE
    constant per token, memories linear in L plus slot terms. The
    baseline estimate carries the quadratic attention term. With every
    gate off the total reduces exactly to the ssm term.
    """
    if active is None:
        active = ActiveDecisions()
    d = config.d
    nb = config.n_blocks
    comp = {}

    # ssm path: three d x d projections, the recurrence, and the gate mult
    proj = 3 * FLOPS_PER_MAC * L * d * d
    recur = RECURRENCE_WEIGHT * 4 * L * d
    comp["ssm"] = nb * (proj + recur + FLOPS_PER_MAC * L * d) + nb * OP_OVERHEAD_FLOPS * SSM_TAPE_OPS

    g = config.sga_max_globals if active.n_globals is None else active.n_globals
    if active.sga_on:
        n_sga = len(config.sga_block_ids())
        qkvo = 4 * FLOPS_PER_MAC * L * d * d
        comp["sga"] = n_sga * (sga_cost(L, config.sga_window, g, d) + qkvo + OP_OVERHEAD_FLOPS * SGA_TAPE_OPS)
    else:
        comp["sga"] = 0.0

    if active.moe_on:
        n_moe = len(config.moe_block_ids())
        # top-2 experts, three d x h mats each
        comp["moe"] = n_moe * 2 * 3 * FLOPS_PER_MAC * L * d * config.moe_hidden \
            + n_moe * OP_OVERHEAD_FLOPS * moe_tape_ops(config.n_experts)
    else:
        comp["moe"] = 0.0

    S, r = config.ws_active, config.ws_rank
    if active.workspace_on:
        C = max(1, L // config.chunk_size)
        comp["workspace"] = 2 * FLOPS_PER_MAC * (L + S) * d * r + FLOPS_PER_MAC * S * r * C \
            + C * OP_OVERHEAD_FLOPS * 10
    else:
        comp["workspace"] = 0.0

    if active.pkm_on:
        t = config.pkm_t
        comp["pkm"] = FLOPS_PER_MAC * L * (d * config.pkm_dk + t * t
                                           + config.pkm_kc * config.pkm_dv + config.pkm_dv * d) \
            + OP_OVERHEAD_FLOPS * PKM_TAPE_OPS
    else:
        comp["pkm"] = 0.0

    comp["total"] = comp["ssm"] + comp["sga"] + comp["moe"] + comp["workspace"] + comp["pkm"]

    # parameter-matched dense baseline: quadratic attention plus FFN
    hf = matched_ffn_hidden(config)
    attn_quad = FLOPS_PER_MAC * 2 * L * L * d / 2  # causal half
    qkvo = 4 * FLOPS_PER_MAC * L * d * d
    ffn = 2 * FLOPS_PER_MAC * L * d * hf
    comp["baseline_total"] = nb * (attn_quad + qkvo + ffn + OP_OVERHEAD_FLOPS * (8 + DENSE_TAPE_OPS))
    return comp


def predicted_crossover(config: ModelConfig, lo: int = 64, hi: int = 65536) -> float | None:
    """Smallest L (log-grid) where the hybrid's modeled cost drops to or
    below the baseline's; None if it never does in [lo, hi]."""
    grid = np.unique(np.geomspace(lo, hi, 200).astype(int))
    for L in grid:
        c = cost_model(config, int(L))
        if c["total"] <= c["baseline_total"]:
            return float(L)
    return None

"""Model assembly: router, tri-path block, full forwards, cost model."""

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.checkpoint import load_checkpoint, restore_model, save_checkpoint
from hydra_lab.model import (
    ActiveDecisions,
    ModelConfig,
    RouterParams,
    build_hydra,
    build_transformer,
    chunk_summarize,
    cost_model,
    count_params,
    hydra_forward,
    hydra_param_count,
    init_router,
    matched_ffn_hidden,
    moe_apply,
    predicted_crossover,
    route,
    transformer_forward,
    tri_path_block,
)
from hydra_lab.moe import chunk_spans
from hydra_lab.rng import substream
from hydra_lab.tensor import Tensor, UsageError, backward, no_grad
from hydra_lab.training import lm_loss


def tiny_config(**kw):
    base = dict(vocab=17, d=8, n_blocks=2, n_heads=2, chunk_size=4, routing_dim=4,
                n_experts=2, moe_hidden=8, sga_window=4, sga_max_globals=2,
                ws_slots=4, ws_active=2, ws_rank=4, pkm_n=4, pkm_dk=4, pkm_dv=8,
                pkm_t=2, pkm_kc=2, max_len=64, seed=0,
                sga_blocks=[1], moe_blocks=[0, 1])
    base.update(kw)
    return ModelConfig(**base)


def open_gates(params, g2, g3):
    """Set the SGA/MoE gates of the blocks that schedule those paths."""
    for bp in params.blocks:
        for gate, value in ((bp.gates.g2, g2), (bp.gates.g3, g3)):
            if gate is not None:
                gate.data[...] = value


class TestChunkSummarize:
    def test_constant_input(self):
        h = Tensor(np.full((8, 3), 2.0))
        s = chunk_summarize(h, 4)
        np.testing.assert_allclose(s.data, 2.0)
        assert s.data.shape == (2, 3)

    def test_single_chunk_is_global_mean(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(5, 3)))
        s = chunk_summarize(h, 16)
        np.testing.assert_allclose(s.data[0], h.data.mean(axis=0), atol=1e-12)

    def test_two_chunks_match_direct_means(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(128, 4)))
        s = chunk_summarize(h, 64)
        np.testing.assert_allclose(s.data[0], h.data[:64].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(s.data[1], h.data[64:].mean(axis=0), atol=1e-12)

    def test_ragged_last_chunk(self):
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(10, 4)))
        s = chunk_summarize(h, 4)
        assert s.data.shape == (3, 4)
        np.testing.assert_allclose(s.data[2], h.data[8:].mean(axis=0), atol=1e-12)


class TestRoute:
    def test_zero_sga_head_gives_half(self):
        cfg = tiny_config()
        router = init_router(cfg, substream(0, "t"))
        s_c = Tensor(np.random.default_rng(3).normal(size=(1, 3, cfg.d)))
        dec = route(s_c, router, tau=0.5)
        np.testing.assert_allclose(dec.p_sga.data, 0.5, atol=1e-12)
        assert not dec.sga_on.any()  # 0.5 > 0.5 is false

    def test_zero_mem_heads_give_half_beta(self):
        cfg = tiny_config()
        router = init_router(cfg, substream(1, "t"))
        dec = route(Tensor(np.random.default_rng(4).normal(size=(1, 2, cfg.d))), router)
        np.testing.assert_allclose(dec.beta_ws.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(dec.beta_pkm.data, 0.5, atol=1e-12)

    def test_gates_recomputable_from_r_c(self):
        cfg = tiny_config()
        router = init_router(cfg, substream(2, "t"))
        router.w_sga.data[:] = np.random.default_rng(5).normal(size=cfg.routing_dim)
        s_c = Tensor(np.random.default_rng(6).normal(size=(1, 4, cfg.d)))
        dec = route(s_c, router)
        r = dec.r_c.data[0]
        p = 1 / (1 + np.exp(-(r @ router.w_sga.data)))
        np.testing.assert_allclose(dec.p_sga.data[0], p, atol=1e-12)
        logits = r @ router.w_moe.data.T
        e = np.exp(logits - logits.max(-1, keepdims=True))
        np.testing.assert_allclose(dec.full_distribution.data[0], e / e.sum(-1, keepdims=True), atol=1e-12)


def moe_oracle(x, pool, ids, w):
    """Chunk-routed MoE on one sequence, built from per-op tape ops: each
    chunk's tokens x[s:t] run its selected experts' (silu(x Wg) * x Wi) Wo,
    weighted by w[c, slot] and summed. x is [L, d], w [C, k]."""
    chunks = []
    for c, (s, t) in enumerate(chunk_spans(x.data.shape[0], pool.chunk_size)):
        xc = x[s:t]
        acc = None
        for slot, e in enumerate(ids[c]):
            ex = pool.experts[e]
            y = T.matmul(T.mul(T.silu(T.matmul(xc, ex.w_gate)), T.matmul(xc, ex.w_in)), ex.w_out)
            y = T.mul(y, w[c, slot])
            acc = y if acc is None else T.add(acc, y)
        chunks.append(acc)
    return T.concat(chunks, axis=0)


class TestMoeApplyEquivalence:
    def test_matches_reference_moe_forward(self):
        cfg = tiny_config(n_experts=3)
        params = build_hydra(cfg)
        pool = params.blocks[0].moe
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 10, cfg.d)), requires_grad=True)  # ragged: 10 tokens in chunks of 4
        ids = np.array([[[0, 1], [1, 2], [0, 2]], [[1, 2], [0, 2], [0, 1]]])
        w = rng.uniform(0.2, 0.8, size=(2, 3, 2))
        w = Tensor(w / w.sum(-1, keepdims=True), requires_grad=True)
        r = rng.normal(size=(2, 10, cfg.d))
        leaves = [x, w] + [p for _, p in pool.parameters()]

        def grads_of(loss):
            for t in leaves:
                t.zero_grad()
            backward(loss)
            return [t.grad.copy() for t in leaves]

        fast = moe_apply(x, pool, ids, w)
        fast_grads = grads_of(T.tsum(T.mul(fast, r)))
        oracle = [moe_oracle(x[b], pool, ids[b], w[b]) for b in range(2)]
        oracle_grads = grads_of(T.add(T.tsum(T.mul(oracle[0], r[0])), T.tsum(T.mul(oracle[1], r[1]))))
        for b in range(2):
            np.testing.assert_allclose(fast.data[b], oracle[b].data, rtol=0, atol=1e-12)
        for (name, _), gf, go in zip([("x", x), ("w", w)] + pool.parameters(), fast_grads, oracle_grads):
            np.testing.assert_allclose(gf, go, rtol=1e-12, atol=1e-12 * np.abs(go).max(), err_msg=name)


class TestTriPathBlock:
    def setup_method(self):
        self.cfg = tiny_config()
        self.params = build_hydra(self.cfg)
        self.rng = np.random.default_rng(8)
        self.x = Tensor(self.rng.normal(size=(1, 12, self.cfg.d)))
        summaries = chunk_summarize(self.x, self.cfg.chunk_size)
        self.decision = route(summaries, self.params.router, tau=self.cfg.sga_threshold)

    def test_initial_gates_give_pure_ssm(self):
        bp = self.params.blocks[1]  # has sga + moe paths
        with no_grad():
            y = tri_path_block(self.x, bp, self.decision, self.cfg)
            u = T.layer_norm(self.x, bp.ln_gain, bp.ln_bias, 1e-5)
            from hydra_lab.ssm import ssm_scan

            expected = T.add(self.x, ssm_scan(u, bp.ssm))
        np.testing.assert_allclose(y.data, expected.data, atol=1e-14)

    def test_all_gates_zero_is_identity(self):
        bp = self.params.blocks[1]
        bp.gates.g1.data[...] = 0.0
        with no_grad():
            y = tri_path_block(self.x, bp, self.decision, self.cfg)
        np.testing.assert_array_equal(y.data, self.x.data)

    def test_sum_of_isolated_paths(self):
        bp = self.params.blocks[1]
        bp.gates.g1.data[...] = 0.7
        bp.gates.g2.data[...] = 0.3
        bp.gates.g3.data[...] = 0.5
        # force every chunk's hard gate on
        self.params.router.w_sga.data[:] = 10.0
        decision = route(chunk_summarize(self.x, self.cfg.chunk_size),
                         self.params.router, tau=self.cfg.sga_threshold)
        assert decision.sga_on.all()
        with no_grad():
            y = tri_path_block(self.x, bp, decision, self.cfg)
            u = T.layer_norm(self.x, bp.ln_gain, bp.ln_bias, 1e-5)
            from hydra_lab.attention import sga_forward
            from hydra_lab.ssm import ssm_scan

            p1 = ssm_scan(u, bp.ssm)
            p2 = sga_forward(u, bp.sga, block_size=self.cfg.attn_block)
            p3 = moe_apply(u, bp.moe, decision.expert_ids, decision.expert_weights)
            expected = self.x.data + 0.7 * p1.data + 0.3 * p2.data + 0.5 * p3.data
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_hard_gate_off_is_exact_zero_contribution(self):
        bp = self.params.blocks[1]
        bp.gates.g2.data[...] = 0.9
        self.params.router.w_sga.data[:] = -10.0  # p ~ 0 < tau
        decision = route(chunk_summarize(self.x, self.cfg.chunk_size),
                         self.params.router, tau=self.cfg.sga_threshold)
        with no_grad():
            y = tri_path_block(self.x, bp, decision, self.cfg)
            bp.gates.g2.data[...] = 0.0
            y_no_sga = tri_path_block(self.x, bp, decision, self.cfg)
        np.testing.assert_array_equal(y.data, y_no_sga.data)


class TestHydraForward:
    def test_single_token_smoke(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        with no_grad():
            logits = hydra_forward(np.array([3]), cfg, params)
        assert logits.data.shape == (1, cfg.vocab)
        assert np.isfinite(logits.data).all()

    def test_causality_perturbation(self):
        """Prefix invariance: the forward on the first L' tokens equals the
        first L' rows of the forward on all L. That holds exactly when every
        path is causal. Tiles of 4 and 8 rows select globals (w = 4, K = 2);
        a tile of 256 covers the whole sequence."""
        toks = np.random.default_rng(9).integers(0, tiny_config().vocab, size=40)
        for attn_block in (4, 8, 256):
            cfg = tiny_config(n_blocks=3, sga_blocks=[1, 2], moe_blocks=[0, 1, 2],
                              attn_block=attn_block)
            params = build_hydra(cfg)
            open_gates(params, 0.5, 0.5)  # every path is exercised
            w_sga = params.router.w_sga
            w_sga.data[...] = np.random.default_rng(19).choice([-1.0, 1.0], size=w_sga.shape)
            for train_mode in (True, False):    # soft gates, then hard gates
                with no_grad():
                    full = hydra_forward(toks, cfg, params, train_mode=train_mode).data
                    for n in range(1, len(toks)):
                        part = hydra_forward(toks[:n], cfg, params, train_mode=train_mode).data
                        err = np.abs(part - full[:n]).max() / np.abs(full[:n]).max()
                        assert err <= 1e-12, (attn_block, train_mode, n, err)

    def test_init_loss_near_uniform(self):
        cfg = tiny_config(vocab=50)
        params = build_hydra(cfg)
        rng = np.random.default_rng(10)
        toks = rng.integers(0, 50, size=8)
        with no_grad():
            logits = hydra_forward(toks, cfg, params).data
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        nll = -logp[np.arange(7), toks[1:]].mean()
        assert abs(nll - np.log(50)) / np.log(50) < 0.1

    def test_out_of_vocab_rejected(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        with pytest.raises(UsageError):
            hydra_forward(np.array([99]), cfg, params)

    def test_too_long_rejected(self):
        cfg = tiny_config(max_len=8)
        params = build_hydra(cfg)
        with pytest.raises(UsageError):
            hydra_forward(np.zeros(9, dtype=int), cfg, params)

    def test_router_decision_deterministic(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        toks = np.random.default_rng(11).integers(0, cfg.vocab, size=16)
        s1, s2 = {}, {}
        with no_grad():
            hydra_forward(toks, cfg, params, stats=s1)
            hydra_forward(toks, cfg, params, stats=s2)
        assert (s1["decision"].p_sga.data == s2["decision"].p_sga.data).all()
        assert (s1["decision"].expert_ids == s2["decision"].expert_ids).all()

    def test_batched_matches_single(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        rng = np.random.default_rng(12)
        toks = rng.integers(0, cfg.vocab, size=(3, 12))
        with no_grad():
            lb = hydra_forward(toks, cfg, params).data
            for b in range(3):
                l1 = hydra_forward(toks[b], cfg, params).data
                np.testing.assert_allclose(lb[b], l1, atol=1e-10)

    def test_workspace_ablation_changes_output(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        toks = np.random.default_rng(13).integers(0, cfg.vocab, size=10)
        with no_grad():
            full = hydra_forward(toks, cfg, params).data
            cut = hydra_forward(toks, cfg, params, ablate={"workspace"}).data
        assert np.abs(full - cut).max() > 0

    def test_unknown_ablation_rejected(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        with pytest.raises(UsageError):
            hydra_forward(np.array([1]), cfg, params, ablate={"router"})


class TestTransformerForward:
    def test_smoke_and_init_loss(self):
        cfg = tiny_config(vocab=50)
        params = build_transformer(cfg)
        rng = np.random.default_rng(14)
        toks = rng.integers(0, 50, size=8)
        with no_grad():
            logits = transformer_forward(toks, cfg, params).data
        assert logits.shape == (8, 50)
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        nll = -logp[np.arange(7), toks[1:]].mean()
        assert abs(nll - np.log(50)) / np.log(50) < 0.1

    def test_causality(self):
        cfg = tiny_config()
        params = build_transformer(cfg)
        rng = np.random.default_rng(15)
        toks = rng.integers(0, cfg.vocab, size=18)
        with no_grad():
            base = transformer_forward(toks, cfg, params).data
        for t in [3, 10, 16]:
            toks2 = toks.copy()
            toks2[t] = (toks2[t] + 5) % cfg.vocab
            with no_grad():
                pert = transformer_forward(toks2, cfg, params).data
            np.testing.assert_allclose(pert[:t], base[:t], atol=1e-10)

    def test_takes_hydra_keywords_and_rejects_ablation(self):
        cfg = tiny_config()
        params = build_transformer(cfg)
        toks = np.random.default_rng(16).integers(0, cfg.vocab, size=(2, 9))
        with no_grad():
            plain = transformer_forward(toks, cfg, params).data
            keyed = transformer_forward(toks, cfg, params, train_mode=True, ablate=(), stats={},
                                        explore_rng=np.random.default_rng(0)).data
        np.testing.assert_array_equal(plain, keyed)
        with pytest.raises(UsageError, match="sga"):
            transformer_forward(toks, cfg, params, ablate={"sga"})


class TestModelInterface:
    @pytest.mark.parametrize("build,name", [(build_hydra, "hydra_forward"),
                                            (build_transformer, "transformer_forward")])
    def test_forward_calls_the_module_level_function(self, build, name, monkeypatch):
        # the benchmark's tracer patches these module attributes
        from hydra_lab import model

        cfg = tiny_config()
        params = build(cfg)
        calls = []
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *a, **kw: calls.append(1) or original(*a, **kw))
        toks = np.random.default_rng(17).integers(0, cfg.vocab, size=6)
        with no_grad():
            got = params.forward(toks, cfg, train_mode=True).data
            want = original(toks, cfg, params, train_mode=True).data
        assert calls == [1]
        np.testing.assert_array_equal(got, want)
        assert model.BUILDERS[params.kind] is build


class TestParameterMatch:
    def test_closed_form_count_matches_built_model(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        assert count_params(params.parameters()) == hydra_param_count(cfg)

    def test_default_configs_match_within_5pct(self):
        cfg = ModelConfig(vocab=256, max_len=2048)
        nh = hydra_param_count(cfg)
        params = build_transformer(cfg)
        nt = count_params(params.parameters())
        assert abs(nh - nt) / nt <= 0.05

    def test_gates_only_on_scheduled_paths(self):
        cfg = tiny_config(n_blocks=3, sga_blocks=[1], moe_blocks=[1, 2])
        named = build_hydra(cfg).parameters()
        gates = sorted(n for n, _ in named if ".gates." in n)
        assert gates == ["blocks.0.gates.g1", "blocks.1.gates.g1", "blocks.1.gates.g2",
                         "blocks.1.gates.g3", "blocks.2.gates.g1", "blocks.2.gates.g3"]
        assert count_params(named) == hydra_param_count(cfg)

    def test_tiny_config_match(self):
        cfg = tiny_config()
        nh = hydra_param_count(cfg)
        nt = count_params(build_transformer(cfg).parameters())
        assert abs(nh - nt) / nt <= 0.05


class TestDeadParameters:
    #: segment-compression parameters: allocated, never used by the forward
    ALLOWED_DEAD = {"workspace.pool_queries", "workspace.w_kp", "workspace.w_vp", "workspace.w_op"}

    def test_every_parameter_gets_gradient(self):
        # n_experts=2: top-2 routes to both experts; 4 chunks: more than one
        # write round; L=16 > attn_block + sga_window: some query block has
        # a causal prefix to select globals from
        cfg = tiny_config(n_experts=2, attn_block=4, sga_window=4, chunk_size=4)
        params = build_hydra(cfg)
        open_gates(params, 0.5, 0.5)  # at init they are 0 and block every SGA/MoE gradient
        toks = np.random.default_rng(20).integers(0, cfg.vocab, size=(2, 17))
        T.reset_tape()
        logits = hydra_forward(toks[:, :-1], cfg, params, train_mode=True)
        backward(lm_loss(logits, toks[:, 1:], np.ones((2, 16))))
        dead = {n for n, p in params.parameters() if p.grad is None or not np.any(p.grad)}
        assert dead == self.ALLOWED_DEAD


class TestFullGradCheck:
    def test_dim8_two_block_gradients_match_finite_differences(self):
        cfg = tiny_config()
        params = build_hydra(cfg)
        open_gates(params, 0.4, 0.6)  # make every path live
        params.router.w_sga.data[:] = 0.3
        params.router.w_mem_ws.data[:] = 0.2
        params.router.w_mem_pkm.data[:] = -0.1
        toks = np.random.default_rng(16).integers(0, cfg.vocab, size=9)
        target_w = Tensor(np.random.default_rng(17).normal(size=(9, cfg.vocab)))

        named = params.parameters()
        rng = np.random.default_rng(18)
        # spot-check a representative subset of parameters end to end
        chosen = ["embedding", "blocks.0.ssm.decay_logits", "blocks.1.sga.q_proj",
                  "blocks.1.sga.saliency_proj", "blocks.0.moe.expert0.w_gate",
                  "router.w_mem_pkm", "router.w_moe", "workspace.init_slots",
                  "workspace.w_qr", "pkm.values", "pkm.codebook1", "pkm.w_query",
                  "blocks.1.gates.g2", "blocks.0.gates.g3", "final_gain"]
        def loss():
            out = hydra_forward(toks, cfg, params, train_mode=True)
            return T.tsum(T.mul(out, target_w))

        name_map = dict(named)
        for name in chosen:
            rep = _subset_grad_check(loss, name_map[name], rng, n_coords=24)
            assert rep < 1e-3, f"{name}: rel err {rep}"


def _subset_grad_check(loss_fn, p, rng, n_coords=24, h=1e-6):
    """Autodiff grad of one parameter vs central differences on a
    random coordinate subset."""
    from hydra_lab.tensor import backward, reset_tape

    p.zero_grad()
    reset_tape()
    backward(loss_fn())
    g_ad = (p.grad if p.grad is not None else np.zeros_like(p.data)).copy()
    p.zero_grad()
    flat = p.data.reshape(-1)
    coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            fp = loss_fn().item()
        flat[i] = orig - h
        with no_grad():
            fm = loss_fn().item()
        flat[i] = orig
        fd = (fp - fm) / (2 * h)
        ad = g_ad.reshape(-1)[i]
        err = abs(ad - fd) / max(abs(ad), abs(fd), 1e-6)
        worst = max(worst, err)
    return worst


class TestCostModel:
    def test_linear_vs_quadratic_structure(self):
        cfg = ModelConfig(vocab=256, max_len=65536)
        c1 = cost_model(cfg, 4096)
        c2 = cost_model(cfg, 8192)
        assert c2["total"] == pytest.approx(2 * c1["total"], rel=0.05)
        base_quad1 = c1["baseline_total"]
        base_quad2 = c2["baseline_total"]
        assert base_quad2 / base_quad1 > 2.5  # superlinear

    def test_all_gates_off_reduces_to_ssm_term(self):
        cfg = ModelConfig(vocab=256)
        c = cost_model(cfg, 2048, ActiveDecisions.all_off())
        assert c["total"] == c["ssm"]
        assert c["sga"] == c["moe"] == c["workspace"] == c["pkm"] == 0.0

    def test_crossover_exists_for_default_config(self):
        cfg = ModelConfig(vocab=256, max_len=65536)
        l_star = predicted_crossover(cfg)
        assert l_star is not None
        assert 64 <= l_star <= 16384


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        params = build_hydra(cfg)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, "hydra", cfg, params.parameters())
        cfg2, params2 = restore_model(p)
        assert params2.kind == "hydra"
        assert cfg2.to_dict() == cfg.to_dict()
        for (n1, t1), (n2, t2) in zip(params.parameters(), params2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_forward_identical_after_restore(self, tmp_path):
        cfg = tiny_config()
        params = build_hydra(cfg)
        toks = np.random.default_rng(19).integers(0, cfg.vocab, size=11)
        with no_grad():
            before = hydra_forward(toks, cfg, params).data
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, "hydra", cfg, params.parameters())
        cfg2, params2 = restore_model(p)
        with no_grad():
            after = hydra_forward(toks, cfg2, params2).data
        np.testing.assert_array_equal(before, after)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(UsageError):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, "hydra", cfg, build_hydra(cfg).parameters())
        blob = p.read_bytes()
        # cut inside the version, the meta, the first record's name length,
        # name, dims and data, and one byte short of the end
        meta_len = int.from_bytes(blob[12:16], "little")
        rec = 16 + meta_len + 4
        dims_at = rec + 4 + int.from_bytes(blob[rec:rec + 4], "little") + 4
        for cut in (10, 16 + meta_len // 2, rec + 2, rec + 6, dims_at + 3, dims_at + 24,
                    len(blob) - 1):
            bad = tmp_path / f"cut{cut}.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(UsageError, match=bad.name):
                load_checkpoint(bad)

    def test_failed_save_keeps_old_file(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, "hydra", cfg, build_hydra(cfg).parameters())
        old = p.read_bytes()

        class Broken:
            @property
            def data(self):
                raise RuntimeError("parameter unavailable")

        named = build_hydra(tiny_config(seed=1)).parameters()
        with pytest.raises(RuntimeError):
            save_checkpoint(p, "hydra", cfg, named[:3] + [("broken", Broken())] + named[3:])
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(kind="mamba"),
        lambda m: m.pop("kind"),
        lambda m: m.update(config=[1, 2]),
        lambda m: m["config"].update(colour=3),
        lambda m: m["config"].pop("d"),
        lambda m: m["config"].pop("vocab"),
    ], ids=["unknown-kind", "no-kind", "config-not-a-dict", "unknown-key", "missing-key",
            "missing-required-key"])
    def test_corrupt_meta_rejected(self, tmp_path, edit):
        import json

        p = tmp_path / "model.ckpt"
        save_checkpoint(p, "hydra", tiny_config(), build_hydra(tiny_config()).parameters())
        blob = p.read_bytes()
        n = int.from_bytes(blob[12:16], "little")
        meta = json.loads(blob[16:16 + n])
        edit(meta)
        new = json.dumps(meta).encode("utf-8")
        bad = tmp_path / "edited.ckpt"
        bad.write_bytes(blob[:12] + len(new).to_bytes(4, "little") + new + blob[16 + n:])
        with pytest.raises(UsageError, match=bad.name):
            restore_model(bad)

    def test_unknown_kind_not_saved(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(UsageError, match="kind"):
            save_checkpoint(tmp_path / "m.ckpt", "mamba", cfg, build_hydra(cfg).parameters())
        assert list(tmp_path.iterdir()) == []

    def test_old_version_rejected(self, tmp_path):
        import struct

        p = tmp_path / "v1.ckpt"
        p.write_bytes(b"HYDRALAB" + struct.pack("<I", 1) + b"\x00" * 16)
        with pytest.raises(UsageError, match="version 1"):
            load_checkpoint(p)

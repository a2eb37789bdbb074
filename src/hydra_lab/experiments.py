"""Experiment protocols: one function per study, each training a single
arm (model kind + optional ablation) under a fixed scaled recipe and
returning its report, run records, and summary metrics.

Epoch counts accept a scale knob so the same protocol runs in CI at a
fraction of the reference budget. Sequence shapes keep the supervised
position past the first chunk boundary, since routing decisions for a
chunk come from the previous chunk's summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bench import emit_report, fit_scaling, measure_throughput
from .checkpoint import save_checkpoint
from .model import ModelConfig, build_hydra, build_transformer
from .rng import substream
from .tasks import (
    epoch_sample_seeds,
    gen_distant_premise,
    gen_logic_chain,
    gen_multidomain,
    gen_qa_openclosed,
    load_text_corpus,
    logic_vocab,
    multidomain_vocab,
    qa_vocab,
    distant_premise_vocab,
    train_eval_seeds,
)
from .tensor import UsageError, no_grad
from .training import (
    EXPERIMENTS,
    RunRecord,
    TrainReport,
    TrainSettings,
    evaluate_accuracy,
    lm_loss,
    train_model,
)


@dataclass
class ExperimentResult:
    name: str
    variant: str
    seed: int
    report: TrainReport
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    checkpoint: str | None = None
    config: ModelConfig | None = None


def _variant_name(model: str, ablate) -> str:
    if model != "hydra":
        return model
    return "hydra" if not ablate else "hydra_no_" + "_".join(sorted(ablate))


def _apply_overrides(cfg_dict: dict, overrides: dict | None) -> dict:
    if overrides:
        unknown = set(overrides) - set(cfg_dict)
        if unknown:
            raise UsageError(f"unknown config overrides: {sorted(unknown)}")
        cfg_dict.update(overrides)
    return cfg_dict


def _build(model: str, config: ModelConfig):
    return build_hydra(config) if model == "hydra" else build_transformer(config)


def _save(result: ExperimentResult, params, out_dir):
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.report.save(out_dir / "report.csv")
    ck = out_dir / "model.ckpt"
    save_checkpoint(ck, "hydra" if result.variant.startswith("hydra") else "transformer",
                    result.config, params.parameters())
    result.checkpoint = str(ck)


# ---------------------------------------------------------------------------
# logic chaining

LOGIC_BASE_EPOCHS = 1000


def logic_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=4, n_heads=4, chunk_size=4,
             routing_dim=16, n_experts=4, moe_hidden=256, sga_window=128,
             sga_max_globals=4, ws_slots=16, ws_active=8, ws_rank=32,
             pkm_n=8, pkm_dk=16, pkm_dv=128, pkm_t=4, pkm_kc=4, max_len=128,
             seed=seed, sga_blocks=[2], moe_blocks=[1, 3])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_logic(seed=0, scale=1.0, model="hydra", ablate=(), overrides=None,
              chain_len=2, n_vars=26, n_train=1000, n_eval=100, n_distractors=None,
              out_dir=None) -> ExperimentResult:
    """Implication-chain training for one arm at one chain length.

    By default as many parallel distractor chains as the variable pool
    allows are interleaved, so guessing among terminal variables caps
    far below a chain-following solution.
    """
    if n_distractors is None:
        n_distractors = max(1, (n_vars - 1) // (chain_len + 1) - 1)
    vocab = logic_vocab(n_vars)
    config = logic_config(vocab.size, seed, overrides)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)
    evals = [gen_logic_chain(n_vars, chain_len, s, n_distractors) for s in ev_seeds]

    def resample(epoch):  # fresh samples every epoch: nothing to memorize
        return [gen_logic_chain(n_vars, chain_len, s, n_distractors)
                for s in epoch_sample_seeds(seed, epoch, n_train)]

    params = _build(model, config)
    epochs = max(1, round(LOGIC_BASE_EPOCHS * scale))
    settings = TrainSettings(epochs=epochs, batch_size=32, lr=1e-3)
    report = train_model(model, config, params, resample(0), evals, settings, seed,
                         ablate, resample_fn=resample)
    acc = report.rows[-1]["accuracy"]
    variant = _variant_name(model, ablate)
    result = ExperimentResult(
        name="logic", variant=variant, seed=seed, report=report, config=config,
        summary={"accuracy": acc, "chain_len": chain_len, "epochs": epochs},
        records=[RunRecord("logic", variant, seed, f"accuracy_len{chain_len}", acc)],
    )
    _save(result, params, out_dir)
    return result


# ---------------------------------------------------------------------------
# efficiency scaling

def efficiency_config(seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=256, d=256, n_blocks=12, n_heads=4, chunk_size=64,
             routing_dim=32, n_experts=4, moe_hidden=512, sga_window=64,
             sga_max_globals=16, ws_slots=32, ws_active=8, ws_rank=32,
             pkm_n=16, pkm_dk=32, pkm_dv=256, pkm_t=4, pkm_kc=4,
             max_len=16384, seed=seed)
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_efficiency(seed=0, scale=1.0, model="both", overrides=None,
                   lens=(1024, 2048, 4096, 8192, 16384), n_repeats=5,
                   out_dir=None) -> ExperimentResult:
    """Forward throughput/memory scan over sequence lengths."""
    config = efficiency_config(seed, overrides)
    kinds = ["hydra", "transformer"] if model == "both" else [model]
    records = []
    for kind in kinds:
        params = _build(kind, config)
        for L in lens:
            records.append(measure_throughput(kind, config, params, L,
                                              n_repeats=n_repeats, seed=seed))
        del params
    fits, crossover = (fit_scaling(records) if len(lens) >= 4 else ([], None))
    summary = {"crossover": crossover,
               "exponents": {f.variant: f.exponent for f in fits}}
    run_records = []
    for r in records:
        run_records.append(RunRecord("efficiency", r.variant, seed,
                                     f"tokens_per_sec_L{r.seq_len}", r.tokens_per_sec))
        run_records.append(RunRecord("efficiency", r.variant, seed,
                                     f"peak_mem_mb_L{r.seq_len}", r.peak_mem_mb))
    result = ExperimentResult(name="efficiency", variant=model, seed=seed,
                              report=TrainReport(), records=run_records,
                              summary=summary, config=config)
    result.summary["bench_records"] = records
    result.summary["bench_fits"] = fits
    if out_dir is not None:
        result.summary["bench_outputs"] = list(emit_report(records, fits, out_dir).values())
    return result


# ---------------------------------------------------------------------------
# text corpus

def wikitext_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=6, n_heads=4, chunk_size=64,
             routing_dim=16, n_experts=4, moe_hidden=256, sga_window=64,
             sga_max_globals=16, ws_slots=16, ws_active=8, ws_rank=32,
             pkm_n=16, pkm_dk=32, pkm_dv=128, pkm_t=4, pkm_kc=4,
             max_len=4096, seed=seed)
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_wikitext(path, seed=0, scale=1.0, model="hydra", ablate=(), overrides=None,
                 context_len=256, vocab_cap=4096, n_eval_windows=48,
                 bench_len=4096, out_dir=None) -> ExperimentResult:
    """Short-budget language modeling on a plain-text file."""
    corpus = load_text_corpus(path, context_len, vocab_cap)
    if len(corpus.windows) < n_eval_windows + 8:
        raise UsageError("corpus too small for the requested eval split")
    config = wikitext_config(corpus.vocab.size, seed, overrides)
    train = corpus.windows[:-n_eval_windows]
    evals = corpus.windows[-n_eval_windows:]

    params = _build(model, config)
    epochs = max(1, round(2 * scale))
    settings = TrainSettings(epochs=epochs, batch_size=4, lr=1e-3,
                             weight_decay=0.01, log_every_epoch=False)
    report = train_model(model, config, params, train, evals, settings, seed, ablate,
                         eval_fn=lambda prm: 0.0)
    ppl = eval_perplexity(model, config, params, evals, ablate)
    thr = measure_throughput(model, config, params, bench_len, n_repeats=3, seed=seed)
    variant = _variant_name(model, ablate)
    result = ExperimentResult(
        name="wikitext", variant=variant, seed=seed, report=report, config=config,
        summary={"perplexity": ppl, "tokens_per_sec": thr.tokens_per_sec,
                 "peak_mem_mb": thr.peak_mem_mb, "epochs": epochs},
        records=[RunRecord("wikitext", variant, seed, "perplexity", ppl),
                 RunRecord("wikitext", variant, seed, f"tokens_per_sec_L{bench_len}",
                           thr.tokens_per_sec)],
    )
    _save(result, params, out_dir)
    return result


def eval_perplexity(kind, config, params, windows, ablate=frozenset(), batch_size=4):
    from .training import _forward

    total_nll = 0.0
    total_n = 0
    for s0 in range(0, len(windows), batch_size):
        batch = windows[s0:s0 + batch_size]
        toks = np.stack([w.tokens for w in batch])
        targets = np.stack([np.asarray(w.target) for w in batch])
        mask = np.stack([w.meta["mask"] for w in batch])
        with no_grad():
            logits = _forward(kind, toks, config, params, ablate=frozenset(ablate))
            loss = lm_loss(logits, targets, mask)
        n = int(mask.sum())
        total_nll += loss.item() * n
        total_n += n
    return float(np.exp(total_nll / max(total_n, 1)))


# ---------------------------------------------------------------------------
# selective recall (product-key memory)

PKM_BASE_EPOCHS = 16


def pkm_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=4, n_heads=4, chunk_size=4,
             routing_dim=16, n_experts=4, moe_hidden=256, sga_window=8,
             sga_max_globals=2, ws_slots=8, ws_active=4, ws_rank=16,
             pkm_n=16, pkm_dk=32, pkm_dv=128, pkm_t=4, pkm_kc=4, max_len=16,
             seed=seed, sga_blocks=[2], moe_blocks=[1, 3])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_pkm_recall(seed=0, scale=1.0, model="hydra", ablate=(), overrides=None,
                   n_facts=128, n_train=1024, n_eval=256, gate_penalty=0.02,
                   out_dir=None) -> ExperimentResult:
    """Open/closed-book QA; tracks the recall gate per mode."""
    vocab = qa_vocab(n_facts)
    config = pkm_config(vocab.size, seed, overrides)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)
    evals = [gen_qa_openclosed(n_facts, bool(i % 2), s) for i, s in enumerate(ev_seeds)]

    def resample(epoch):
        return [gen_qa_openclosed(n_facts, bool(i % 2), s)
                for i, s in enumerate(epoch_sample_seeds(seed, epoch, n_train))]

    params = _build(model, config)
    epochs = max(1, round(PKM_BASE_EPOCHS * scale))
    settings = TrainSettings(epochs=epochs, batch_size=16, lr=1e-3,
                             gate_penalty=gate_penalty)
    report = train_model(model, config, params, resample(0), evals, settings, seed,
                         ablate, resample_fn=resample)

    collected = []
    acc = evaluate_accuracy(model, config, params, evals, frozenset(ablate), collect=collected)
    open_idx = [i for i, s in enumerate(evals) if s.meta["is_open_book"]]
    closed_idx = [i for i, s in enumerate(evals) if not s.meta["is_open_book"]]

    def acc_of(idx):
        sub = [evals[i] for i in idx]
        return evaluate_accuracy(model, config, params, sub, frozenset(ablate))

    summary = {"accuracy": acc, "acc_open": acc_of(open_idx), "acc_closed": acc_of(closed_idx),
               "epochs": epochs}
    if collected:
        beta = np.array([c["beta_pkm_final"] for c in collected])
        summary["beta_open"] = float(beta[open_idx].mean())
        summary["beta_closed"] = float(beta[closed_idx].mean())
    variant = _variant_name(model, ablate)
    records = [RunRecord("pkm_recall", variant, seed, k, v)
               for k, v in summary.items() if isinstance(v, float)]
    result = ExperimentResult(name="pkm_recall", variant=variant, seed=seed,
                              report=report, records=records, summary=summary,
                              config=config)
    _save(result, params, out_dir)
    return result


# ---------------------------------------------------------------------------
# distant premise (sparse attention)

DP_BASE_EPOCHS = 100


def distant_premise_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=64, n_blocks=2, n_heads=2, chunk_size=64,
             routing_dim=16, n_experts=2, moe_hidden=128, sga_window=64,
             sga_max_globals=16, ws_slots=8, ws_active=4, ws_rank=16,
             pkm_n=8, pkm_dk=16, pkm_dv=64, pkm_t=4, pkm_kc=4, max_len=4096,
             seed=seed, sga_blocks=[1], moe_blocks=[0])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_distant_premise(seed=0, scale=1.0, model="hydra", ablate=(), overrides=None,
                        L=4096, premise_center=2000, premise_jitter=100,
                        n_train=32, n_eval=64, out_dir=None) -> ExperimentResult:
    """Premise-retrieval across long distractor spans, one arm."""
    vocab = distant_premise_vocab()
    config = distant_premise_config(vocab.size, seed, overrides)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)
    evals = [gen_distant_premise(L, premise_center, s) for s in ev_seeds]

    def resample(epoch):
        pos_rng = substream(seed, f"distant.positions.{epoch}")
        return [gen_distant_premise(L, int(pos_rng.integers(premise_center - premise_jitter,
                                                            premise_center + premise_jitter + 1)), s)
                for s in epoch_sample_seeds(seed, epoch, n_train)]

    params = _build(model, config)
    epochs = max(1, round(DP_BASE_EPOCHS * scale))
    settings = TrainSettings(epochs=epochs, batch_size=1, lr=1e-3, weight_decay=0.01,
                             explore_sga=(model == "hydra" and "sga" not in ablate),
                             log_every_epoch=False)
    report = train_model(model, config, params, resample(0), evals, settings, seed,
                         ablate, resample_fn=resample)
    acc = evaluate_accuracy(model, config, params, evals, frozenset(ablate), batch_size=8)

    # per-token forward latency at the task length
    thr = measure_throughput(model, config, params, L, n_repeats=3, seed=seed)
    variant = _variant_name(model, ablate)
    summary = {"accuracy": acc, "ms_per_token": thr.ms_per_token, "epochs": epochs}
    records = [RunRecord("distant_premise", variant, seed, "accuracy", acc),
               RunRecord("distant_premise", variant, seed, "ms_per_token", thr.ms_per_token)]
    result = ExperimentResult(name="distant_premise", variant=variant, seed=seed,
                              report=report, records=records, summary=summary,
                              config=config)
    _save(result, params, out_dir)
    return result


# ---------------------------------------------------------------------------
# mixture-of-experts vs dense

MOE_BASE_EPOCHS = 5


def moe_config(vocab_size: int, seed: int, dense: bool, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=4, n_heads=4, chunk_size=4,
             routing_dim=16, n_experts=4, moe_hidden=192, sga_window=8,
             sga_max_globals=2, ws_slots=8, ws_active=4, ws_rank=16,
             pkm_n=8, pkm_dk=16, pkm_dv=64, pkm_t=4, pkm_kc=4, max_len=16,
             seed=seed, sga_blocks=[], moe_blocks=[1, 3])
    if dense:
        # one expert, widened to match the pool's parameter count
        d["moe_hidden"] = d["moe_hidden"] * d["n_experts"]
        d["n_experts"] = 1
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_moe_dense(seed=0, scale=1.0, model="hydra", ablate=(), overrides=None,
                  arm="moe", n_domains=4, n_train=2000, n_eval=500, seq_len=8,
                  out_dir=None) -> ExperimentResult:
    """Multi-domain arithmetic: chunked Top-2 experts vs one wide FFN."""
    if arm not in ("moe", "dense"):
        raise UsageError("arm must be 'moe' or 'dense'")
    vocab = multidomain_vocab(n_domains)
    config = moe_config(vocab.size, seed, dense=(arm == "dense"), overrides=overrides)
    tr_seeds, ev_seeds = train_eval_seeds(seed, n_train, n_eval)
    train = [gen_multidomain(n_domains, seq_len, s) for s in tr_seeds]
    evals = [gen_multidomain(n_domains, seq_len, s) for s in ev_seeds]

    params = _build(model, config)
    epochs = max(1, round(MOE_BASE_EPOCHS * scale))
    settings = TrainSettings(epochs=epochs, batch_size=8, lr=1e-3, weight_decay=0.01)
    report = train_model(model, config, params, train, evals, settings, seed, ablate)

    collected = []
    acc = evaluate_accuracy(model, config, params, evals, frozenset(ablate), collect=collected)
    mi = 0.0
    if collected and config.n_experts > 1:
        domains = np.array([c["sample"].meta["domain_id"] for c in collected])
        top1 = np.array([c["top_expert_final"] for c in collected])
        mi = mutual_information_bits(top1, domains)

    # per-query latency, batch of one
    from .training import _forward

    t0 = time.monotonic()
    n_lat = min(50, len(evals))
    for s in evals[:n_lat]:
        with no_grad():
            _forward(model, s.tokens[None, :], config, params, ablate=frozenset(ablate))
    ms_per_query = 1000.0 * (time.monotonic() - t0) / n_lat

    variant = arm
    summary = {"accuracy": acc, "expert_domain_mi_bits": mi,
               "ms_per_query": ms_per_query, "epochs": epochs}
    records = [RunRecord("moe_dense", variant, seed, k, float(v))
               for k, v in summary.items()]
    result = ExperimentResult(name="moe_dense", variant=variant, seed=seed,
                              report=report, records=records, summary=summary,
                              config=config)
    _save(result, params, out_dir)
    return result


def mutual_information_bits(x: np.ndarray, y: np.ndarray) -> float:
    """I(X;Y) in bits from empirical joint counts."""
    xs, ys = np.unique(x), np.unique(y)
    n = len(x)
    mi = 0.0
    for xv in xs:
        for yv in ys:
            pxy = ((x == xv) & (y == yv)).sum() / n
            if pxy == 0:
                continue
            px = (x == xv).sum() / n
            py = (y == yv).sum() / n
            mi += pxy * np.log2(pxy / (px * py))
    return float(mi)


# ---------------------------------------------------------------------------
# dispatch

def run_experiment(name: str, seed: int = 0, scale: float = 1.0, model: str = "hydra",
                   ablate=(), overrides=None, out_dir=None, **task_params) -> ExperimentResult:
    """Run one experiment arm by name; see the per-experiment functions."""
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment '{name}'; choose from {sorted(EXPERIMENTS)}")
    fn = {
        "logic": run_logic,
        "efficiency": run_efficiency,
        "wikitext": run_wikitext,
        "pkm_recall": run_pkm_recall,
        "distant_premise": run_distant_premise,
        "moe_dense": run_moe_dense,
    }[name]
    if name == "efficiency":
        task_params.pop("ablate", None)
        return fn(seed=seed, scale=scale, model=model if model != "hydra" else "both",
                  overrides=overrides, out_dir=out_dir, **task_params)
    return fn(seed=seed, scale=scale, model=model, ablate=ablate,
              overrides=overrides, out_dir=out_dir, **task_params)

"""Experiment protocols: each training study is one ``PROTOCOLS`` row
that supplies its config, data, ``TrainSettings`` and summary metrics;
``run_protocol`` trains one arm of it (model kind + optional ablation)
under a fixed scaled recipe and returns its report, run records, and
summary metrics. ``run_efficiency``, a forward-only scan over sequence
lengths, trains nothing and runs on its own.

Epoch counts accept a scale knob so the same protocol runs in CI at a
fraction of the reference budget. Sequence shapes keep the supervised
position past the first chunk boundary, since routing decisions for a
chunk come from the previous chunk's summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .bench import emit_report, fit_scaling, measure_throughput
from .checkpoint import save_checkpoint
from .model import BUILDERS, ModelConfig
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
    params: object | None = None     # the trained model; None for the efficiency scan


@dataclass
class Setup:
    """What a protocol supplies for one run. ``train`` is None when
    ``resample(epoch)`` makes a fresh set each epoch. After training,
    ``measure(params, report)`` returns (summary, [(metric, value)]).
    ``tag`` names the protocol's own arm in the variant."""
    config: ModelConfig
    settings: TrainSettings
    evals: list
    measure: Callable
    train: list | None = None
    resample: Callable | None = None
    tag: str = ""


@dataclass(frozen=True)
class Protocol:
    base_epochs: int     # epochs at scale 1
    setup: Callable      # (seed, epochs, ablate, overrides, **task_params) -> Setup


def _apply_overrides(cfg_dict: dict, overrides: dict | None) -> dict:
    """``cfg_dict`` updated by ``overrides``, whose keys must be
    ``ModelConfig`` fields: those the protocol sets and those it leaves
    at their defaults."""
    if overrides:
        unknown = set(overrides) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise UsageError(f"unknown config overrides: {sorted(unknown)}")
        cfg_dict.update(overrides)
    return cfg_dict


# ---------------------------------------------------------------------------
# logic chaining

def logic_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=4, n_heads=4, chunk_size=4,
             routing_dim=16, n_experts=4, moe_hidden=256, sga_window=128,
             sga_max_globals=4, ws_slots=16, ws_active=8, ws_rank=32,
             pkm_n=8, pkm_dk=16, pkm_dv=128, pkm_t=4, pkm_kc=4, max_len=128,
             seed=seed, sga_blocks=[2], moe_blocks=[1, 3])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def _logic(seed, epochs, ablate, overrides, chain_len=2, n_vars=26, n_train=1000,
           n_eval=100, n_distractors=None) -> Setup:
    """Implication-chain training at one chain length.

    By default as many parallel distractor chains as the variable pool
    allows are interleaved, so guessing among terminal variables caps
    far below a chain-following solution.
    """
    if n_distractors is None:
        n_distractors = max(1, (n_vars - 1) // (chain_len + 1) - 1)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)

    def resample(epoch):  # fresh samples every epoch: nothing to memorize
        return [gen_logic_chain(n_vars, chain_len, s, n_distractors)
                for s in epoch_sample_seeds(seed, epoch, n_train)]

    def measure(params, report):
        acc = report.rows[-1]["accuracy"]
        return ({"accuracy": acc, "chain_len": chain_len, "epochs": epochs},
                [(f"accuracy_len{chain_len}", acc)])

    return Setup(config=logic_config(logic_vocab(n_vars).size, seed, overrides),
                 settings=TrainSettings(epochs=epochs, batch_size=32, lr=1e-3),
                 evals=[gen_logic_chain(n_vars, chain_len, s, n_distractors) for s in ev_seeds],
                 measure=measure, resample=resample)


# ---------------------------------------------------------------------------
# efficiency scaling

def efficiency_config(seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=256, d=256, n_blocks=12, n_heads=4, chunk_size=64,
             routing_dim=32, n_experts=4, moe_hidden=512, sga_window=64,
             sga_max_globals=16, ws_slots=32, ws_active=8, ws_rank=32,
             pkm_n=16, pkm_dk=32, pkm_dv=256, pkm_t=4, pkm_kc=4,
             max_len=16384, seed=seed)
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def run_efficiency(seed=0, model="both", overrides=None,
                   lens=(1024, 2048, 4096, 8192, 16384), n_repeats=5,
                   out_dir=None) -> ExperimentResult:
    """Forward throughput/memory scan over sequence lengths."""
    config = efficiency_config(seed, overrides)
    kinds = list(BUILDERS) if model == "both" else [model]
    records = []
    for kind in kinds:
        params = BUILDERS[kind](config)
        for L in lens:
            records.append(measure_throughput(config, params, L, n_repeats=n_repeats, seed=seed))
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


def _wikitext(seed, epochs, ablate, overrides, path, context_len=256, vocab_cap=4096,
              n_eval_windows=48, bench_len=4096) -> Setup:
    """Short-budget language modeling on a plain-text file."""
    corpus = load_text_corpus(path, context_len, vocab_cap)
    if len(corpus.windows) < n_eval_windows + 8:
        raise UsageError("corpus too small for the requested eval split")
    config = wikitext_config(corpus.vocab.size, seed, overrides)
    evals = corpus.windows[-n_eval_windows:]

    def measure(params, report):
        ppl = eval_perplexity(config, params, evals, ablate)
        thr = measure_throughput(config, params, bench_len, n_repeats=3, seed=seed)
        return ({"perplexity": ppl, "tokens_per_sec": thr.tokens_per_sec,
                 "peak_mem_mb": thr.peak_mem_mb, "epochs": epochs},
                [("perplexity", ppl), (f"tokens_per_sec_L{bench_len}", thr.tokens_per_sec)])

    # no accuracy eval: the held-out windows are scored by perplexity
    return Setup(config=config,
                 settings=TrainSettings(epochs=epochs, batch_size=4, lr=1e-3,
                                        weight_decay=0.01, log_every_epoch=False),
                 evals=[], measure=measure, train=corpus.windows[:-n_eval_windows])


def eval_perplexity(config, params, windows, ablate=frozenset(), batch_size=4):
    total_nll = 0.0
    total_n = 0
    for s0 in range(0, len(windows), batch_size):
        batch = windows[s0:s0 + batch_size]
        toks = np.stack([w.tokens for w in batch])
        targets = np.stack([np.asarray(w.target) for w in batch])
        mask = np.stack([w.meta["mask"] for w in batch])
        with no_grad():
            logits = params.forward(toks, config, ablate=frozenset(ablate))
            loss = lm_loss(logits, targets, mask)
        n = int(mask.sum())
        total_nll += loss.item() * n
        total_n += n
    return float(np.exp(total_nll / max(total_n, 1)))


# ---------------------------------------------------------------------------
# selective recall (product-key memory)

def pkm_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=128, n_blocks=4, n_heads=4, chunk_size=4,
             routing_dim=16, n_experts=4, moe_hidden=256, sga_window=8,
             sga_max_globals=2, ws_slots=8, ws_active=4, ws_rank=16,
             pkm_n=16, pkm_dk=32, pkm_dv=128, pkm_t=4, pkm_kc=4, max_len=16,
             seed=seed, sga_blocks=[2], moe_blocks=[1, 3])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def _pkm_recall(seed, epochs, ablate, overrides, n_facts=128, n_train=1024, n_eval=256,
                gate_penalty=0.02) -> Setup:
    """Open/closed-book QA; tracks the recall gate per mode."""
    config = pkm_config(qa_vocab(n_facts).size, seed, overrides)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)
    evals = [gen_qa_openclosed(n_facts, bool(i % 2), s) for i, s in enumerate(ev_seeds)]

    def resample(epoch):
        return [gen_qa_openclosed(n_facts, bool(i % 2), s)
                for i, s in enumerate(epoch_sample_seeds(seed, epoch, n_train))]

    def measure(params, report):
        collected = []
        acc = evaluate_accuracy(config, params, evals, ablate, collect=collected)
        open_idx = [i for i, s in enumerate(evals) if s.meta["is_open_book"]]
        closed_idx = [i for i, s in enumerate(evals) if not s.meta["is_open_book"]]

        def acc_of(idx):
            return evaluate_accuracy(config, params, [evals[i] for i in idx], ablate)

        summary = {"accuracy": acc, "acc_open": acc_of(open_idx),
                   "acc_closed": acc_of(closed_idx), "epochs": epochs}
        if collected:
            beta = np.array([c["beta_pkm_final"] for c in collected])
            summary["beta_open"] = float(beta[open_idx].mean())
            summary["beta_closed"] = float(beta[closed_idx].mean())
        return summary, [(k, v) for k, v in summary.items() if isinstance(v, float)]

    return Setup(config=config,
                 settings=TrainSettings(epochs=epochs, batch_size=16, lr=1e-3,
                                        gate_penalty=gate_penalty),
                 evals=evals, measure=measure, resample=resample)


# ---------------------------------------------------------------------------
# distant premise (sparse attention)

def distant_premise_config(vocab_size: int, seed: int, overrides=None) -> ModelConfig:
    d = dict(vocab=vocab_size, d=64, n_blocks=2, n_heads=2, chunk_size=64,
             routing_dim=16, n_experts=2, moe_hidden=128, sga_window=64,
             sga_max_globals=16, ws_slots=8, ws_active=4, ws_rank=16,
             pkm_n=8, pkm_dk=16, pkm_dv=64, pkm_t=4, pkm_kc=4, max_len=4096,
             seed=seed, sga_blocks=[1], moe_blocks=[0])
    return ModelConfig.from_dict(_apply_overrides(d, overrides))


def _distant_premise(seed, epochs, ablate, overrides, L=4096, premise_center=2000,
                     premise_jitter=100, n_train=32, n_eval=64) -> Setup:
    """Premise-retrieval across long distractor spans."""
    config = distant_premise_config(distant_premise_vocab().size, seed, overrides)
    _, ev_seeds = train_eval_seeds(seed, 1, n_eval)
    evals = [gen_distant_premise(L, premise_center, s) for s in ev_seeds]

    def resample(epoch):
        pos_rng = substream(seed, f"distant.positions.{epoch}")
        return [gen_distant_premise(L, int(pos_rng.integers(premise_center - premise_jitter,
                                                            premise_center + premise_jitter + 1)), s)
                for s in epoch_sample_seeds(seed, epoch, n_train)]

    def measure(params, report):
        acc = evaluate_accuracy(config, params, evals, ablate, batch_size=8)
        # per-token forward latency at the task length
        thr = measure_throughput(config, params, L, n_repeats=3, seed=seed)
        return ({"accuracy": acc, "ms_per_token": thr.ms_per_token, "epochs": epochs},
                [("accuracy", acc), ("ms_per_token", thr.ms_per_token)])

    # the transformer has no global selection, so it ignores the exploration draws
    return Setup(config=config,
                 settings=TrainSettings(epochs=epochs, batch_size=1, lr=1e-3, weight_decay=0.01,
                                        explore_sga="sga" not in ablate, log_every_epoch=False),
                 evals=evals, measure=measure, resample=resample)


# ---------------------------------------------------------------------------
# mixture-of-experts vs dense

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


def _moe_dense(seed, epochs, ablate, overrides, arm="moe", n_domains=4, n_train=2000,
               n_eval=500, seq_len=8) -> Setup:
    """Multi-domain arithmetic: chunked Top-2 experts vs one wide FFN."""
    if arm not in ("moe", "dense"):
        raise UsageError("arm must be 'moe' or 'dense'")
    config = moe_config(multidomain_vocab(n_domains).size, seed, dense=(arm == "dense"),
                        overrides=overrides)
    tr_seeds, ev_seeds = train_eval_seeds(seed, n_train, n_eval)
    evals = [gen_multidomain(n_domains, seq_len, s) for s in ev_seeds]

    def measure(params, report):
        collected = []
        acc = evaluate_accuracy(config, params, evals, ablate, collect=collected)
        mi = 0.0
        if collected and config.n_experts > 1:
            domains = np.array([c["sample"].meta["domain_id"] for c in collected])
            top1 = np.array([c["top_expert_final"] for c in collected])
            mi = mutual_information_bits(top1, domains)
        # per-query latency: one sequence of the task length
        thr = measure_throughput(config, params, seq_len, seed=seed)
        summary = {"accuracy": acc, "expert_domain_mi_bits": mi,
                   "ms_per_query": thr.ms_per_token * seq_len, "epochs": epochs}
        return summary, [(k, float(v)) for k, v in summary.items()]

    return Setup(config=config,
                 settings=TrainSettings(epochs=epochs, batch_size=8, lr=1e-3, weight_decay=0.01),
                 evals=evals, measure=measure,
                 train=[gen_multidomain(n_domains, seq_len, s) for s in tr_seeds],
                 tag="" if arm == "moe" else f"_{arm}")


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

PROTOCOLS = {
    "logic": Protocol(1000, _logic),
    "wikitext": Protocol(2, _wikitext),
    "pkm_recall": Protocol(16, _pkm_recall),
    "distant_premise": Protocol(100, _distant_premise),
    "moe_dense": Protocol(5, _moe_dense),
}
EXPERIMENTS = (*PROTOCOLS, "efficiency")


def run_protocol(name: str, seed: int = 0, scale: float = 1.0, model: str = "hydra",
                 ablate=(), overrides=None, out_dir=None, **task_params) -> ExperimentResult:
    """Train one arm of the protocol ``name`` and measure it; with
    ``out_dir``, save its report and checkpoint there."""
    if name not in PROTOCOLS:
        raise UsageError(f"unknown experiment '{name}'; choose from {sorted(EXPERIMENTS)}")
    if model not in BUILDERS:
        raise UsageError(f"unknown model '{model}'; choose from {sorted(BUILDERS)}")
    protocol = PROTOCOLS[name]
    ablate = frozenset(ablate)
    epochs = max(1, round(protocol.base_epochs * scale))
    setup = protocol.setup(seed, epochs, ablate, overrides, **task_params)
    params = BUILDERS[model](setup.config)
    report = train_model(setup.config, params, setup.train, setup.evals, setup.settings, seed,
                         ablate, resample_fn=setup.resample)
    summary, metrics = setup.measure(params, report)
    variant = model + setup.tag + ("_no_" + "_".join(sorted(ablate)) if ablate else "")
    result = ExperimentResult(
        name=name, variant=variant, seed=seed, report=report, summary=summary,
        records=[RunRecord(name, variant, seed, m, v) for m, v in metrics],
        config=setup.config, params=params,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.save(out_dir / "report.csv")
        ck = out_dir / "model.ckpt"
        save_checkpoint(ck, params.kind, setup.config, params.parameters())
        result.checkpoint = str(ck)
    return result


def run_experiment(name: str, seed: int = 0, scale: float = 1.0, model: str = "hydra",
                   ablate=(), overrides=None, out_dir=None, **task_params) -> ExperimentResult:
    """Run one experiment arm by name: a protocol, or the efficiency scan,
    whose default arm times both models. The scan trains nothing, so it
    takes no ablation and no scale."""
    if name == "efficiency":
        if ablate or scale != 1.0:
            raise UsageError("the efficiency scan takes no ablation and no scale")
        return run_efficiency(seed=seed, model=model if model != "hydra" else "both",
                              overrides=overrides, out_dir=out_dir, **task_params)
    return run_protocol(name, seed=seed, scale=scale, model=model, ablate=ablate,
                        overrides=overrides, out_dir=out_dir, **task_params)

"""Optimizers, losses, report records, and the generic training loop
that the protocols in ``experiments.py`` drive.

``train_model`` trains one arm (a built model plus optional ablations),
logs one report row per epoch, and evaluates at the end. Every path
that is not ablated trains from the first step; ablated paths stay
frozen at their initial weights. The auxiliary
objectives follow the architecture: a Switch-style balance term on the
expert router whenever a mixture is live, and an optional mean-gate
penalty on the memory interpolation weights so retrieval only stays
open where it pays for itself.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .model import ModelConfig
from .moe import dispatch_fractions, load_balance_loss
from .rng import substream
from .tasks import TaskSample
from .tensor import Tensor, backward, no_grad


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class OptimState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0   # 0 -> Adam; >0 -> AdamW (decoupled)
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params, state: OptimState, frozen: set | None = None):
    """One bias-corrected Adam/AdamW update over (name, tensor) pairs.

    Parameters without a gradient are skipped; a NaN gradient aborts
    with the offending parameter's name.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in named_params:
        if frozen and name in frozen:
            continue
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise T.NumericError(f"non-finite gradient for parameter '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.square(g)
        denom = np.empty_like(v)
        np.sqrt(v, out=denom)
        denom *= 1.0 / np.sqrt(c2)
        denom += state.eps
        update = np.divide(m, denom, out=denom)
        update *= state.lr / c1
        if state.weight_decay:
            update += (state.lr * state.weight_decay) * p.data
        p.data -= update


def zero_grads(named_params):
    for _, p in named_params:
        p.grad = None


# ---------------------------------------------------------------------------
# loss

def lm_loss(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy over masked positions (perplexity = exp).

    One tape op, ``T.cross_entropy``. It keeps the [..., V] probabilities
    for its backward only when it is recorded; under ``no_grad`` it keeps
    nothing. An empty mask raises ``UsageError``.
    """
    return T.cross_entropy(logits, targets, mask)


def perplexity(loss_value: float) -> float:
    return float(np.exp(loss_value))


# ---------------------------------------------------------------------------
# reports

TRAIN_REPORT_COLUMNS = [
    "epoch", "loss", "accuracy", "balance_loss", "gate_loss",
    "mean_p_sga", "mean_beta_ws", "mean_beta_pkm", "expert_entropy",
    "expert_histogram", "seed", "wall_time_s",
]


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)

    def add(self, **kw):
        self.rows.append({c: kw.get(c, "") for c in TRAIN_REPORT_COLUMNS})

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=TRAIN_REPORT_COLUMNS, lineterminator="\n")
        w.writeheader()
        for r in self.rows:
            w.writerow(r)
        return buf.getvalue()

    def save(self, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_csv(), encoding="utf-8")


@dataclass
class RunRecord:
    task: str
    variant: str
    seed: int
    metric: str
    value: float


def write_run_records(path, records):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["task", "variant", "seed", "metric", "value"])
        for r in records:
            w.writerow([r.task, r.variant, r.seed, r.metric, repr(r.value)])


# ---------------------------------------------------------------------------
# generic training loop

#: weight of the Switch-style balance term whenever a mixture is live
BALANCE_WEIGHT = 0.01


@dataclass
class TrainSettings:
    epochs: int
    batch_size: int
    lr: float = 1e-3
    weight_decay: float = 0.0
    gate_penalty: float = 0.0
    explore_sga: bool = False
    log_every_epoch: bool = True


def _answer_targets(batch: list[TaskSample], L: int):
    """Supervision targets: full next-token sequences when samples carry
    them, otherwise only the final position (answer-only tasks)."""
    B = len(batch)
    first = np.atleast_1d(batch[0].target)
    if first.size > 1:
        targets = np.stack([np.asarray(s.target, dtype=np.int64) for s in batch])
        if "mask" in batch[0].meta:
            mask = np.stack([np.asarray(s.meta["mask"], dtype=bool) for s in batch])
        else:
            mask = np.ones((B, L), dtype=bool)
        return targets, mask
    targets = np.zeros((B, L), dtype=np.int64)
    mask = np.zeros((B, L), dtype=bool)
    for i, s in enumerate(batch):
        targets[i, -1] = int(s.target)
        mask[i, -1] = True
    return targets, mask


def _entropy(hist: np.ndarray) -> float:
    p = hist[hist > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def train_model(config: ModelConfig, params, train_samples, eval_samples,
                settings: TrainSettings, seed: int, ablate=frozenset(), resample_fn=None):
    """Train one arm; returns the report, whose accuracy column is the
    final-position argmax accuracy on eval_samples (0.0 when there are
    none). ``resample_fn(epoch)``, when given, regenerates the training set at
    each epoch start (the online regime for synthetic tasks). The
    auxiliary terms apply when the forward reports a router decision
    in its stats, which only the hybrid does."""
    ablate = frozenset(ablate)
    named = params.parameters()
    state = OptimState(lr=settings.lr, weight_decay=settings.weight_decay)
    shuffle_rng = substream(seed, "train.shuffle")
    explore_rng = substream(seed, "train.explore") if settings.explore_sga else None
    report = TrainReport()
    has_moe = "moe" not in ablate and len(config.moe_block_ids()) > 0
    bal_w = BALANCE_WEIGHT if has_moe else 0.0
    gate_w = settings.gate_penalty if "pkm" not in ablate or "workspace" not in ablate else 0.0
    frozen_static = {n for n, _ in named if ablate and any(
        a in n for a in ({"workspace": "workspace.", "pkm": "pkm.", "sga": ".sga.", "moe": ".moe."}[x] for x in ablate))}

    for epoch in range(settings.epochs):
        t0 = time.perf_counter()
        if resample_fn is not None:
            train_samples = resample_fn(epoch)
        order = shuffle_rng.permutation(len(train_samples))
        ep_loss = ep_bal = ep_gate = 0.0
        gate_stats = np.zeros(3)
        hist = np.zeros(config.n_experts)
        n_batches = 0
        for s0 in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[s0:s0 + settings.batch_size]]
            toks = np.stack([s.tokens for s in batch])
            targets, mask = _answer_targets(batch, toks.shape[1])

            stats = {}
            logits = params.forward(toks, config, train_mode=True, ablate=ablate,
                                    stats=stats, explore_rng=explore_rng)
            loss = lm_loss(logits, targets, mask)
            dec = stats.get("decision")
            if bal_w and dec is not None:
                E = config.n_experts
                dist = T.reshape(dec.full_distribution, (-1, E))
                bal = load_balance_loss(dist, dispatch_fractions(dec.expert_ids, E))
                loss = T.add(loss, T.mul(bal, bal_w))
                ep_bal += bal.item()
            if gate_w and dec is not None:
                gate = T.add(T.tmean(dec.beta_pkm), T.tmean(dec.beta_ws))
                loss = T.add(loss, T.mul(gate, gate_w))
                ep_gate += gate.item()

            ep_loss += loss.item()
            backward(loss)
            adam_step(named, state, frozen=frozen_static)
            zero_grads(named)

            gate_stats += [stats.get("mean_p_sga", 0.0), stats.get("mean_beta_ws", 0.0),
                           stats.get("mean_beta_pkm", 0.0)]
            hist += stats.get("expert_histogram", 0.0)
            n_batches += 1

        last = epoch == settings.epochs - 1
        acc = evaluate_accuracy(config, params, eval_samples, ablate) if settings.log_every_epoch or last else ""
        hist_norm = hist / max(hist.sum(), 1.0)
        report.add(
            epoch=epoch, loss=ep_loss / max(n_batches, 1), accuracy=acc,
            balance_loss=ep_bal / max(n_batches, 1), gate_loss=ep_gate / max(n_batches, 1),
            mean_p_sga=gate_stats[0] / max(n_batches, 1),
            mean_beta_ws=gate_stats[1] / max(n_batches, 1),
            mean_beta_pkm=gate_stats[2] / max(n_batches, 1),
            expert_entropy=_entropy(hist_norm),
            expert_histogram=";".join(f"{x:.4f}" for x in hist_norm),
            seed=seed, wall_time_s=round(time.perf_counter() - t0, 3),
        )
    return report


def evaluate_accuracy(config, params, samples, ablate=frozenset(),
                      batch_size=32, collect=None):
    """Final-position argmax accuracy; optionally collects gate stats."""
    if not samples:
        return 0.0
    hits = 0
    for s0 in range(0, len(samples), batch_size):
        batch = samples[s0:s0 + batch_size]
        toks = np.stack([s.tokens for s in batch])
        stats = {}
        with no_grad():
            logits = params.forward(toks, config, ablate=ablate, stats=stats)
        pred = logits.data[:, -1, :].argmax(axis=-1)
        for i, s in enumerate(batch):
            hits += int(pred[i] == int(s.target))
        dec = stats.get("decision")
        if collect is not None and dec is not None:
            top_slot = dec.expert_weights.data[:, -1, :].argmax(axis=-1)
            for i, s in enumerate(batch):
                collect.append({
                    "sample": s,
                    "beta_pkm_final": float(dec.beta_pkm.data[i, -1]),
                    "beta_ws_final": float(dec.beta_ws.data[i, -1]),
                    "expert_ids_final": dec.expert_ids[i, -1].tolist(),
                    "top_expert_final": int(dec.expert_ids[i, -1, top_slot[i]]),
                })
    return hits / len(samples)

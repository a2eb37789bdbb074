"""Live and peak memory of one training step, phase by phase, or of one
eval forward, stage by stage.

Run:  PYTHONPATH=src python tools/step_memory.py [--vocab 4096] [--batch 4] [--length 256]
      PYTHONPATH=src python tools/step_memory.py --eval 16384

The defaults are the shape of the benchmark's ``train-256`` workload:
``wikitext_config(vocab, 0)``, fresh ``build_hydra`` weights, and one step
of forward (``train_mode=True``), ``lm_loss`` on the next tokens,
``backward`` and AdamW (lr 1e-3, weight decay 0.01) from a fresh optimizer
state. An untimed warm-up step runs first. For each phase the script
prints the bytes live at its end and the peak during it, both in MiB above
what was live before the step, from ``tracemalloc`` (numpy reports its
buffers to it).

With ``--eval L`` it instead runs one ``no_grad`` forward with hard gates
of ``efficiency_config(0)`` on [1, L] random tokens (the shape of the
benchmark's ``eval-16k`` workload at L = 16384), after an untimed warm-up
forward. For each stage (``T.layer_norm``, ``model.ssm_scan``,
``model.moe_apply``, ``model.tri_path_block``, ``model._memory_stage`` and,
inside it, ``model.workspace_read``, ``model.pkm_query_batch`` and
``model.pkm_blend``) it prints the number of calls and the highest peak
during any one call, in MiB above what was live before the forward; the
last row is the peak of the whole forward. A stage's peak includes the
stages it calls.
"""

from __future__ import annotations

import argparse
import gc
import tracemalloc

import numpy as np

from hydra_lab import model, training
from hydra_lab import tensor as T
from hydra_lab.experiments import efficiency_config, wikitext_config
from hydra_lab.model import build_hydra, hydra_forward

#: the stages of an eval forward: (owner, attribute), called through it
STAGES = ((T, "layer_norm"), (model, "ssm_scan"), (model, "moe_apply"), (model, "tri_path_block"),
          (model, "_memory_stage"), (model, "workspace_read"), (model, "pkm_query_batch"),
          (model, "pkm_blend"))


def _step(config, params, toks):
    """One training step from a fresh optimizer state, yielding each
    phase's name as it finishes."""
    named = params.parameters()
    state = training.OptimState(lr=1e-3, weight_decay=0.01)
    logits = hydra_forward(toks[:, :-1], config, params, train_mode=True)
    yield "forward"
    loss = training.lm_loss(logits, toks[:, 1:], np.ones(toks[:, 1:].shape))
    del logits                  # the tape holds it until backward frees it
    yield "loss"
    T.backward(loss)
    yield "backward"
    training.adam_step(named, state)
    training.zero_grads(named)
    yield "adam"


def step_memory(vocab: int, batch: int, length: int) -> list[tuple[str, float, float]]:
    """(phase, live MiB, peak MiB) of one step, above the pre-step baseline."""
    config = wikitext_config(vocab, 0)
    params = build_hydra(config)
    toks = np.random.default_rng(0).integers(0, vocab, size=(batch, length + 1))
    for _ in _step(config, params, toks):       # warm-up
        pass
    gc.collect()
    rows = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for phase in _step(config, params, toks):
            live, peak = tracemalloc.get_traced_memory()
            rows.append((phase, (live - base) / 2**20, (peak - base) / 2**20))
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    return rows


def forward_memory(length: int) -> list[tuple[str, int, float]]:
    """(stage, calls, peak MiB) of one eval forward, above the pre-forward
    baseline; the last row, ``forward``, is the whole forward's peak."""
    config = efficiency_config(0)
    params = build_hydra(config)
    toks = np.random.default_rng(0).integers(0, config.vocab, size=(1, length))
    with T.no_grad():
        model.hydra_forward(toks, config, params)              # warm-up
    gc.collect()
    calls = {attr: 0 for _, attr in STAGES}
    peaks = dict.fromkeys(calls, 0)
    top = [0]                   # highest peak seen before the latest reset
    open_stages = []            # the stages running now, outermost first

    def fold():
        """Credit the peak since the latest reset to the forward and to
        every running stage."""
        peak = tracemalloc.get_traced_memory()[1]
        top[0] = max(top[0], peak)
        for attr in open_stages:
            peaks[attr] = max(peaks[attr], peak)

    def staged(attr, fn):
        def call(*args, **kwargs):
            fold()
            tracemalloc.reset_peak()
            open_stages.append(attr)
            try:
                return fn(*args, **kwargs)
            finally:
                fold()
                open_stages.pop()
                calls[attr] += 1
        return call

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in STAGES]
    tracemalloc.start()
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, staged(attr, fn))
        base = tracemalloc.get_traced_memory()[0]
        with T.no_grad():
            logits = model.hydra_forward(toks, config, params)
        fold()
        del logits
    finally:
        tracemalloc.stop()
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    rows = [(attr, calls[attr], (peaks[attr] - base) / 2**20) for attr in calls]
    return rows + [("forward", 1, (top[0] - base) / 2**20)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vocab", type=int, default=4096)
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--length", type=int, default=256)
    ap.add_argument("--eval", type=int, default=None, metavar="L",
                    help="report one eval forward of efficiency_config at [1, L] instead")
    args = ap.parse_args(argv)
    if args.eval is not None:
        print(f"# one no_grad forward, efficiency_config(0), hard gates, B=1, L={args.eval}; "
              "peak MiB above the pre-forward baseline (tracemalloc)")
        print(f"{'stage':<16} {'calls':>6} {'peak_mib':>10}")
        for stage, n, peak in forward_memory(args.eval):
            print(f"{stage:<16} {n:>6} {peak:>10.1f}")
        return
    rows = step_memory(args.vocab, args.batch, args.length)
    print(f"# one training step, wikitext_config(vocab={args.vocab}), B={args.batch}, L={args.length}; "
          "MiB above the pre-step baseline (tracemalloc)")
    print(f"{'phase':<10} {'live_mib':>10} {'peak_mib':>10}")
    for phase, live, peak in rows:
        print(f"{phase:<10} {live:>10.1f} {peak:>10.1f}")
    print(f"{'step':<10} {'':>10} {max(p for _, _, p in rows):>10.1f}")


if __name__ == "__main__":
    main()

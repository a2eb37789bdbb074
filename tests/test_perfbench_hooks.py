"""The benchmark's per-layer tracer still finds and times every hooked path.

``perfbench/tracer.py`` swaps timing wrappers onto ``hydra_lab`` module
attributes. A refactor that renames a hooked attribute, or calls around
the module global the tracer replaces, silently zeroes a per-layer
metric; one tiny training step under the tracer catches both.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from hydra_lab import model
from hydra_lab import tensor as T
from hydra_lab.model import ModelConfig, build_hydra
from hydra_lab.training import lm_loss

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPANS = ("model.router.ms", "ssm.scan.ms", "ssm.recurrence.ms", "moe.apply.ms", "moe.scatter.ms",
         "workspace.stage.ms", "pkm.query.ms", "attention.sga.ms")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return tracer


def test_targets_resolve(tracer):
    for owner, attr in tracer.targets():
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_train_step_fills_every_path(tracer):
    cfg = ModelConfig(vocab=17, d=8, n_blocks=2, n_heads=2, chunk_size=4, routing_dim=4,
                      n_experts=2, moe_hidden=8, sga_window=4, sga_max_globals=2,
                      ws_slots=4, ws_active=2, ws_rank=4, pkm_n=4, pkm_dk=4, pkm_dv=8,
                      pkm_t=2, pkm_kc=2, max_len=32, attn_block=4, sga_blocks=[1], moe_blocks=[0, 1])
    params = build_hydra(cfg)
    toks = np.random.default_rng(0).integers(0, cfg.vocab, size=(2, 17))
    originals = [getattr(owner, attr) for owner, attr in tracer.targets()]
    T.reset_tape()
    with tracer.Tracer() as tr:
        tr.begin()
        # called through the module attribute, as the benchmark does
        logits = model.hydra_forward(toks[:, :-1], cfg, params, train_mode=True)
        T.backward(lm_loss(logits, toks[:, 1:], np.ones((2, 16))))
        metrics = tr.end()
    for name in SPANS:
        assert metrics[name] > 0, name
    assert metrics["moe.expert_rows"] > 0
    assert metrics["pkm.candidates"] > 0
    # every original is back after exit
    assert [getattr(owner, attr) for owner, attr in tracer.targets()] == originals

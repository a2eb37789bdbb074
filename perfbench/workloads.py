"""The benchmark's workloads, driven through the public hydra_lab API.

Weights are fresh ``build_hydra`` / ``build_transformer`` parameters from
the config's own seed (0), so every run times the same model. Token ids
come from the benchmark seed. Each workload also runs a fixed reference
input, independent of that seed, whose result is compared with
``reference.json``.

A workload is driven as: ``setup(seed)`` once per set-up, then for each
iteration ``prepare(i)`` (untimed), ``step(i)`` (timed) and
``check(i, out)`` (untimed), and at the end ``measured_reference()``.
"""

from __future__ import annotations

import zlib
from time import perf_counter

import numpy as np

from hydra_lab import model, training
from hydra_lab import tensor as T
from hydra_lab.experiments import efficiency_config, wikitext_config

#: entropy of the seed-independent reference inputs
REFERENCE_ENTROPY = 20250815
#: tokens in the reference prefix a forward workload warms up on
REFERENCE_LEN = 1024
#: probe logits recorded for a forward reference: the first 8 vocab entries
#: at these positions of the reference prefix
PROBE_POSITIONS = (0, 511, 1023)
COST_COLUMNS = ("ssm", "sga", "moe", "workspace", "pkm", "baseline_total")
#: a training step's phases, in ms (zero on the forward workloads)
PHASES = ("training.fwd_ms", "training.loss_ms", "training.bwd_ms", "training.optim_ms")


def input_rng(entropy: int, name: str) -> np.random.Generator:
    return np.random.default_rng([entropy, zlib.crc32(name.encode())])


def _logits_problem(out, shape) -> str | None:
    if out.shape != shape:
        return f"logits shape {out.shape}, expected {shape}"
    if not np.isfinite(out.data).all():
        return "logits not finite"
    return None


class ForwardWorkload:
    """Closed loop of forward passes on one [1, L] sequence under no_grad.

    ``kind`` is "hydra" or "transformer"; ``train_mode`` selects the
    Hydra gates (soft, every path live) over the eval gates (hard).
    Every iteration must reproduce the first one's logits bit for bit.
    """

    peak_iterations = 1

    def __init__(self, name: str, kind: str, train_mode: bool, L: int):
        self.name, self.kind, self.train_mode, self.L = name, kind, train_mode, L
        self.config = efficiency_config(0)
        self.tokens_per_iter = L
        self.params = None
        self.phases = dict.fromkeys(PHASES, 0.0)
        self._reference = None

    def _forward(self, tokens):
        with T.no_grad():
            if self.kind == "hydra":
                return model.hydra_forward(tokens, self.config, self.params, train_mode=self.train_mode)
            return model.transformer_forward(tokens, self.config, self.params)

    def setup(self, seed: int):
        self.params = None
        build = model.build_hydra if self.kind == "hydra" else model.build_transformer
        self.params = build(self.config)
        self.tokens = input_rng(seed, self.name).integers(0, self.config.vocab, size=(1, self.L))
        self._checksum = None
        # warm-up on the reference prefix, kept for the reference check
        self._reference = self.reference_values(self._forward(self._reference_tokens()))

    def _reference_tokens(self):
        rng = input_rng(REFERENCE_ENTROPY, self.name)
        return rng.integers(0, self.config.vocab, size=(1, REFERENCE_LEN))

    @staticmethod
    def reference_values(logits) -> dict:
        x = logits.data[0]
        return {"rms": float(np.sqrt(np.mean(x * x))),
                "probe": [float(v) for p in PROBE_POSITIONS for v in x[p, :8]]}

    def prepare(self, i: int):
        pass

    def step(self, i: int):
        return self._forward(self.tokens)

    def check(self, i: int, out) -> str | None:
        problem = _logits_problem(out, (1, self.L, self.config.vocab))
        if problem:
            return problem
        checksum = float(out.data.sum())
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            return f"logits changed between iterations on the same input ({checksum!r} != {self._checksum!r})"
        return None

    def measured_reference(self) -> dict:
        return self._reference

    def cost(self, sga_on: bool) -> dict:
        """``model.cost_model`` per component at this L, SGA on as measured.

        The dense workload keeps only the baseline's column."""
        c = model.cost_model(self.config, self.L, model.ActiveDecisions(sga_on=sga_on))
        return {k: c[k] if self.kind == "hydra" or k == "baseline_total" else 0.0
                for k in COST_COLUMNS}


class TrainWorkload:
    """Closed loop of full training steps at B=4, L=256.

    A step is forward (train_mode=True), ``lm_loss`` on the next tokens,
    ``backward``, ``adam_step`` (lr 1e-3, weight decay 0.01) and
    ``zero_grads``. Every ``CYCLE`` steps the weights go back to their
    initial values and the optimizer state is dropped (untimed), so the
    loop stays stationary: the router does not drift and every cycle
    repeats the same steps on the seed's ``CYCLE`` batches.
    """

    name = "train-256"
    B, L = 4, 256
    CYCLE = 4
    peak_iterations = CYCLE

    def __init__(self):
        self.config = wikitext_config(4096, 0)
        self.tokens_per_iter = self.B * self.L
        self.params = None
        self.phases = dict.fromkeys(PHASES, 0.0)

    def setup(self, seed: int):
        self.params = None
        self.params = model.build_hydra(self.config)
        self.named = self.params.parameters()
        self.initial = [p.data.copy() for _, p in self.named]
        self.batches = self._batches(input_rng(seed, self.name))
        self._reset()
        self.step(0)  # warm-up
        self.state = None

    def _batches(self, rng):
        shape = (self.B, self.L + 1)
        return [rng.integers(0, self.config.vocab, size=shape) for _ in range(self.CYCLE)]

    def _reset(self):
        for (_, p), init in zip(self.named, self.initial):
            np.copyto(p.data, init)
            p.grad = None
        self.state = training.OptimState(lr=1e-3, weight_decay=0.01)

    def prepare(self, i: int):
        if i % self.CYCLE == 0 or self.state is None:
            self._reset()

    def step(self, i: int):
        """One training step on batch ``i % CYCLE``; returns (logits, loss).

        Leaves the forward/loss/backward/optimizer wall times of the step
        in ``self.phases`` (ms).
        """
        toks = self.batches[i % self.CYCLE]
        t0 = perf_counter()
        logits = model.hydra_forward(toks[:, :-1], self.config, self.params, train_mode=True)
        t1 = perf_counter()
        loss = training.lm_loss(logits, toks[:, 1:], np.ones((self.B, self.L)))
        t2 = perf_counter()
        T.backward(loss)
        t3 = perf_counter()
        training.adam_step(self.named, self.state)
        training.zero_grads(self.named)
        t4 = perf_counter()
        self.phases = {k: (b - a) * 1e3 for k, a, b in zip(PHASES, (t0, t1, t2, t3), (t1, t2, t3, t4))}
        return logits, loss.item()

    def check(self, i: int, out) -> str | None:
        logits, loss = out
        problem = _logits_problem(logits, (self.B, self.L, self.config.vocab))
        if problem:
            return problem
        if not np.isfinite(loss):
            return f"loss {loss} not finite"
        return None

    def measured_reference(self) -> dict:
        """Loss on reference batch 0 after one cycle of steps from fresh weights."""
        seed_batches = self.batches
        self.batches = self._batches(input_rng(REFERENCE_ENTROPY, self.name))
        try:
            self._reset()
            for i in range(self.CYCLE):
                self.step(i)
            toks = self.batches[0]
            with T.no_grad():
                logits = model.hydra_forward(toks[:, :-1], self.config, self.params, train_mode=True)
            loss = training.lm_loss(logits, toks[:, 1:], np.ones((self.B, self.L))).item()
        finally:
            self.batches = seed_batches
            self.state = None
        return {"loss_after_cycle": loss}

    def cost(self, sga_on: bool) -> dict:
        return dict.fromkeys(COST_COLUMNS, 0.0)


WORKLOADS = {
    "train-256": TrainWorkload,
    "eval-16k": lambda: ForwardWorkload("eval-16k", "hydra", False, 16384),
    "attn-4k": lambda: ForwardWorkload("attn-4k", "hydra", True, 4096),
    "dense-4k": lambda: ForwardWorkload("dense-4k", "transformer", False, 4096),
}

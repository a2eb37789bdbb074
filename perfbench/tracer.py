"""Per-layer tracing of hydra_lab from outside its source.

``Tracer`` swaps timing wrappers in for module attributes of
``hydra_lab`` while it is entered and puts every original back on exit,
also when the traced code raises. Nothing under ``src/`` is edited.

Two splits are recorded for the same iteration:

* by path: spans around the model's components. Each span records its
  self time (its duration minus the spans it calls), so the path
  metrics add up to the forward time. ``model.glue`` is what
  ``hydra_forward`` spends outside every wrapped child: embedding, layer
  norms, residual adds and the logits.
* by tape op: flat timers around the tensor ops, forward and backward.
  An op's time also counts in the path span it runs under.

Counters are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

from hydra_lab import model, moe, pkm, ssm
from hydra_lab import tensor as T

#: forward ops timed one by one (``tensor.op.<name>.ms``)
OPS = ("matmul", "add", "mul", "silu", "sigmoid", "softmax", "log_softmax", "layer_norm",
       "gather_rows", "gather_rows_batched", "take_along_last", "concat", "getitem",
       "reshape", "transpose")
#: backward rules timed one by one (``tensor.bwd.<name>.ms``): every op name a
#: training step records; a rule of any other name counts in ``tensor.bwd.other.ms``
BWD_OPS = ("matmul", "add", "mul", "silu", "sigmoid", "softmax", "log_softmax", "layer_norm",
           "gather_rows", "take_along_last", "concat", "getitem", "reshape", "transpose",
           "diag_recurrence", "scatter_rows", "sum", "mean")
#: path spans: (owner, attribute, metric)
SPANS = (
    (model, "hydra_forward", "model.glue.ms"),
    (model, "transformer_forward", "model.baseline_glue.ms"),
    (model, "route", "model.router.ms"),
    (model, "ssm_scan", "ssm.scan.ms"),
    (ssm, "diag_recurrence", "ssm.recurrence.ms"),
    (model, "moe_apply", "moe.apply.ms"),
    (moe, "scatter_rows", "moe.scatter.ms"),
    (model, "_memory_stage", "workspace.stage.ms"),
    (model, "pkm_query_batch", "pkm.query.ms"),
)
SGA_MS = "attention.sga.ms"
DENSE_MS = "attention.dense.ms"

COUNTERS = ("tensor.op_calls", "tensor.tape_ops", "pkm.candidates", "workspace.write_rounds",
            "moe.expert_rows", "attention.sga.on_rate")

_HYDRA_SIG = inspect.signature(model.hydra_forward)


def targets():
    """Every (owner, attribute) the tracer replaces while entered."""
    out = [(T, name) for name in OPS]
    out += [(T, "_check_finite"), (T, "_stable_sigmoid"), (T, "_make_output"), (T, "backward")]
    out += [(owner, attr) for owner, attr, _ in SPANS]
    out += [(model, "sga_forward"), (moe.ExpertFfn, "__call__")]
    return out


class Tracer:
    """Context manager collecting one iteration's per-layer numbers at a time.

    Call ``begin()`` before an iteration and ``end()`` after it; ``end``
    returns that iteration's metrics as ``{name: value}``.
    """

    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []      # open spans: [metric, seconds spent in child spans]
        self._saved = []      # (owner, attribute, original)
        self._in_dense = False
        self._train_mode = False
        self._decision = None
        self._scored0 = 0

    # -- install / restore ---------------------------------------------------
    def __enter__(self):
        try:
            for name in OPS:
                self._swap(T, name, self._timer(f"tensor.op.{name}.ms"))
            self._swap(T, "_check_finite", self._timer("tensor.finite_check.ms"))
            self._swap(T, "_stable_sigmoid", self._timer("tensor.sigmoid_kernel.ms"))
            self._swap(T, "_make_output", self._op_counter)
            self._swap(T, "backward", self._backward)
            for owner, attr, metric in SPANS:
                self._swap(owner, attr, self._span(metric, *self._hooks.get(attr, ())))
            self._swap(model, "sga_forward", self._sga_span)
            self._swap(moe.ExpertFfn, "__call__", self._expert_rows)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _swap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-iteration bookkeeping --------------------------------------------
    def begin(self):
        self.ms.clear()
        self.counts.clear()
        self._scored0 = pkm.candidate_counter.scored

    def end(self) -> dict:
        out = {f"tensor.op.{n}.ms": self.ms[f"tensor.op.{n}.ms"] for n in OPS}
        for n in BWD_OPS + ("other",):
            out[f"tensor.bwd.{n}.ms"] = self.ms[f"tensor.bwd.{n}.ms"]
        for metric in ("tensor.finite_check.ms", "tensor.sigmoid_kernel.ms",
                       "tensor.backward.engine_ms", SGA_MS, DENSE_MS):
            out[metric] = self.ms[metric]
        out.update({metric: self.ms[metric] for _, _, metric in SPANS})
        c = self.counts
        out["tensor.op_calls"] = c["op_calls"]
        out["tensor.tape_ops"] = c["tape_ops"]
        out["pkm.candidates"] = pkm.candidate_counter.scored - self._scored0
        out["moe.expert_rows"] = c["expert_rows"]
        # one softmax per write round, plus one for the read, per stage call
        out["workspace.write_rounds"] = c["workspace_softmax"] - c["workspace_stages"]
        computed = c["sga_chunks"]
        out["attention.sga.on_rate"] = c["sga_chunks_on"] / computed if computed else 0.0
        return out

    # -- wrappers ---------------------------------------------------------------
    def _timer(self, metric):
        ms, counts, stack = self.ms, self.counts, self._stack
        is_softmax = metric == "tensor.op.softmax.ms"

        def make(fn):
            def timed(*args, **kwargs):
                if is_softmax and stack and stack[-1][0] == "workspace.stage.ms":
                    counts["workspace_softmax"] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ms[metric] += (perf_counter() - t0) * 1e3
            return timed
        return make

    def _span(self, metric, before=None, after=None):
        ms, stack = self.ms, self._stack

        def make(fn):
            def span(*args, **kwargs):
                if before is not None:
                    before(self, args, kwargs)
                frame = [metric, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    ms[metric] += (dur - frame[1]) * 1e3
                    if stack:
                        stack[-1][1] += dur
                if after is not None:
                    after(self, out)
                return out
            return span
        return make

    def _on_hydra(self, args, kwargs):
        bound = _HYDRA_SIG.bind(*args, **kwargs)
        self._train_mode = bool(bound.arguments.get("train_mode", False))
        self._in_dense = False

    def _on_dense(self, args, kwargs):
        self._in_dense = True

    def _on_stage(self, args, kwargs):
        self.counts["workspace_stages"] += 1

    def _on_decision(self, decision):
        self._decision = decision

    # attribute -> (before, after) hooks of its span
    _hooks = {"hydra_forward": (_on_hydra,), "transformer_forward": (_on_dense,),
              "_memory_stage": (_on_stage,), "route": (None, _on_decision)}

    def _sga_span(self, fn):
        sga = self._span(SGA_MS)(fn)
        dense = self._span(DENSE_MS)(fn)

        def span(*args, **kwargs):
            if self._in_dense:
                return dense(*args, **kwargs)
            # SGA runs over every chunk; a chunk is useful when its gate is
            # nonzero: soft p_sga while training, the hard on-mask at eval
            d = self._decision
            gate = d.p_sga.data > 0 if self._train_mode else d.sga_on
            self.counts["sga_chunks"] += gate.size
            self.counts["sga_chunks_on"] += int(gate.sum())
            return sga(*args, **kwargs)
        return span

    def _op_counter(self, fn):
        counts = self.counts

        def make_output(*args, **kwargs):
            counts["op_calls"] += 1
            return fn(*args, **kwargs)
        return make_output

    def _expert_rows(self, fn):
        counts = self.counts

        def call(expert, x):
            counts["expert_rows"] += x.data.shape[0]
            return fn(expert, x)
        return call

    def _backward(self, fn):
        ms, counts = self.ms, self.counts

        def backward(loss):
            tape = T._TAPE
            counts["tape_ops"] += len(tape)
            in_rules = [0.0]
            for op in tape:
                name = op.name if op.name in BWD_OPS else "other"
                op.backward_fn = _timed_rule(op.backward_fn, f"tensor.bwd.{name}.ms", ms, in_rules)
            t0 = perf_counter()
            try:
                return fn(loss)
            finally:
                total = perf_counter() - t0
                ms["tensor.backward.engine_ms"] += (total - in_rules[0]) * 1e3
        return backward


def _timed_rule(rule, metric, ms, in_rules):
    def timed(g):
        t0 = perf_counter()
        try:
            return rule(g)
        finally:
            dt = perf_counter() - t0
            in_rules[0] += dt
            ms[metric] += dt * 1e3
    return timed

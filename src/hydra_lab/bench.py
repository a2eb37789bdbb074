"""Throughput, latency, and peak-memory measurement with scaling fits.

Timing is wall-clock (monotonic) over forward-only passes with the
tape disabled; two warmup runs are discarded and at least three are
measured, and throughput and latency both come from the median run.
Peak memory is measured with ``tracemalloc`` (numpy reports its buffers
to it) over one extra untimed forward: the bytes allocated above what
was live before that pass, so parameters and other tensors already
alive do not count.
"""

from __future__ import annotations

import csv
import gc
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ModelConfig
from .tasks import gen_random_tokens
from .tensor import UsageError, no_grad

BENCH_COLUMNS = ["variant", "seq_len", "tokens_per_sec", "ms_per_token",
                 "peak_mem_mb", "n_repeats", "stddev"]


@dataclass
class BenchRecord:
    variant: str
    seq_len: int
    tokens_per_sec: float
    ms_per_token: float
    peak_mem_mb: float
    n_repeats: int
    stddev: float


@dataclass
class ScalingFit:
    variant: str
    exponent: float       # p in time(L) ~ a * L^p
    coefficient: float
    r_squared: float


def _forward_once(tokens, config, params):
    with no_grad():
        # all conditional paths live: worst-case hybrid cost
        params.forward(tokens, config, train_mode=True)


def measure_throughput(config: ModelConfig, params, L: int,
                       n_repeats: int = 5, seed: int = 0) -> BenchRecord:
    """Median-of-repeats forward timing at one sequence length, for the
    variant ``params.kind``.

    tokens_per_sec and ms_per_token both come from the median run;
    peak_mem_mb is the forward's own peak (see ``_forward_peak_mb``).
    """
    if L > config.max_len:
        raise UsageError(f"L={L} exceeds max_len={config.max_len}")
    if n_repeats < 3:
        raise UsageError("n_repeats must be >= 3")
    tokens = gen_random_tokens(L, config.vocab, seed).tokens
    for _ in range(2):  # warmup
        _forward_once(tokens, config, params)
    times = []
    for _ in range(n_repeats):
        t0 = time.monotonic()
        _forward_once(tokens, config, params)
        times.append(time.monotonic() - t0)
    times = np.array(times)
    med = float(np.median(times))
    return BenchRecord(
        variant=params.kind, seq_len=L,
        tokens_per_sec=L / med,
        ms_per_token=1000.0 * med / L,
        peak_mem_mb=_forward_peak_mb(tokens, config, params),
        n_repeats=n_repeats,
        stddev=float(times.std()),
    )


def _forward_peak_mb(tokens, config, params) -> float:
    """Peak bytes (MiB) one forward allocates above the live baseline."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _forward_once(tokens, config, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def fit_scaling(records: list[BenchRecord]):
    """Log-log fits per variant plus the measured throughput crossover.

    Returns (fits, crossover_L): crossover_L is the smallest measured L
    at which the hybrid's throughput reaches the baseline's and stays
    there for every larger measured L; None when that never happens.
    """
    by_variant = {}
    for r in records:
        by_variant.setdefault(r.variant, []).append(r)
    fits = []
    for variant, rs in by_variant.items():
        if len({r.seq_len for r in rs}) < 4:
            raise UsageError("fit_scaling needs >= 4 distinct sequence lengths")
        rs = sorted(rs, key=lambda r: r.seq_len)
        L = np.array([r.seq_len for r in rs], dtype=float)
        t = np.array([r.seq_len / r.tokens_per_sec for r in rs])
        p, loga = np.polyfit(np.log(L), np.log(t), 1)
        pred = p * np.log(L) + loga
        ss_res = float(((np.log(t) - pred) ** 2).sum())
        ss_tot = float(((np.log(t) - np.log(t).mean()) ** 2).sum())
        fits.append(ScalingFit(variant=variant, exponent=float(p),
                               coefficient=float(np.exp(loga)),
                               r_squared=1.0 - ss_res / max(ss_tot, 1e-300)))

    crossover = None
    if "hydra" in by_variant and "transformer" in by_variant:
        h = {r.seq_len: r.tokens_per_sec for r in by_variant["hydra"]}
        b = {r.seq_len: r.tokens_per_sec for r in by_variant["transformer"]}
        common = sorted(set(h) & set(b))
        for i, L in enumerate(common):
            if all(h[L2] >= b[L2] for L2 in common[i:]):
                crossover = L
                break
    return fits, crossover


def emit_report(records: list[BenchRecord], fits: list[ScalingFit], out_dir) -> dict:
    """Write the records CSV and a plot-data file; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec_path = out_dir / "bench.csv"
    with open(rec_path, "w", newline="\n", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(BENCH_COLUMNS)
        for r in sorted(records, key=lambda r: (r.variant, r.seq_len)):
            w.writerow([r.variant, r.seq_len, repr(r.tokens_per_sec), repr(r.ms_per_token),
                        repr(r.peak_mem_mb), r.n_repeats, repr(r.stddev)])

    plot_path = out_dir / "plot_data.csv"
    with open(plot_path, "w", newline="\n", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["series", "x", "y"])
        for r in sorted(records, key=lambda r: (r.variant, r.seq_len)):
            w.writerow([f"{r.variant}_throughput", r.seq_len, repr(r.tokens_per_sec)])
        for r in sorted(records, key=lambda r: (r.variant, r.seq_len)):
            w.writerow([f"{r.variant}_peak_mem", r.seq_len, repr(r.peak_mem_mb)])

    fit_path = out_dir / "scaling.csv"
    with open(fit_path, "w", newline="\n", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["variant", "exponent", "coefficient", "r_squared"])
        for fit in sorted(fits, key=lambda x: x.variant):
            w.writerow([fit.variant, repr(fit.exponent), repr(fit.coefficient), repr(fit.r_squared)])
    return {"bench": rec_path, "plot": plot_path, "scaling": fit_path}


def parse_report(path) -> list[BenchRecord]:
    with open(path, encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return [BenchRecord(r["variant"], int(r["seq_len"]), float(r["tokens_per_sec"]),
                        float(r["ms_per_token"]), float(r["peak_mem_mb"]),
                        int(r["n_repeats"]), float(r["stddev"])) for r in rows]

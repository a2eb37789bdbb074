"""Benchmark of hydra_lab: end-to-end metrics, or a traced per-layer breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-16k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times a closed loop with tracing off and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced iterations and reports its ``per_layer`` metrics,
including the tracing overhead. Report lines come first; the last line
of standard output is one JSON object: correct, attempted, failed,
metrics. The package is imported from ``src/`` of the checkout this
file sits in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
#: relative tolerance of the reference check, scaled by the largest reference value
REFERENCE_RTOL = 1e-6
MIN_ITERATIONS = 2
#: one BLAS thread: on a shared 2-vCPU host, two threads made tok_s spread
#: about twice as wide from run to run
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _set_blas_threads():
    """BLAS_THREADS, capped at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, _nproc()))


def _blas_record() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
              "blas_threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                return record
    return record


def host_record(seed: int) -> dict:
    import numpy as np

    nproc = _nproc()
    record = {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__}
    record.update(_blas_record())
    if record["blas_threads"] is None:
        record["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    record["seed"] = seed
    return record


# ---------------------------------------------------------------------------
# measurement

class Iterations:
    """Wall times and check results of a closed loop of iterations."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0

    def run(self, wl, i, around=None):
        """Prepare (untimed), time and check one iteration; returns its wall
        seconds, or None when it raised or failed its check. ``around``
        is entered just outside the timed region."""
        self.attempted += 1
        try:
            wl.prepare(i)
            gc.collect()
            with around or contextlib.nullcontext():
                t0 = perf_counter()
                out = wl.step(i)
                dt = perf_counter() - t0
            problem = wl.check(i, out)
        except Exception:  # a failed iteration is counted, and the loop goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if problem:
            print(f"check failed on iteration {i}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return dt


def set_up(wl, seed: int) -> float:
    """Set up SETUP_REPEATS times; returns the median seconds of one set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(seed)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed_loop(wl, seconds: float, it: Iterations):
    start = perf_counter()
    i = 0
    while i < MIN_ITERATIONS or perf_counter() - start < seconds:
        dt = it.run(wl, i)
        if dt is not None:
            it.times.append(dt)
        i += 1


def true_peak_mb(wl, it: Iterations) -> float:
    """Peak bytes above the pre-iteration baseline, from tracemalloc (numpy
    reports its buffers to it), over ``wl.peak_iterations`` iterations."""
    wl.prepare(0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for i in range(wl.peak_iterations):
            if it.run(wl, i) is None:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


class TracedIteration:
    """Installs the tracer around one iteration and keeps its metrics."""

    def __init__(self, wl):
        from hydra_lab import tensor
        from tracer import Tracer

        self.T = tensor
        self.wl = wl
        self.tracer = Tracer()
        self.row = None

    def __enter__(self):
        self.tracer.__enter__()
        self.tracer.begin()
        self.T.reset_peak_memory()
        self.live0 = self.T.live_memory_mb()

    def __exit__(self, *exc):
        self.row = self.tracer.end()
        self.tracer.__exit__(*exc)
        self.row.update(self.wl.phases)
        # above the pre-iteration baseline, as peak_mb is
        self.row["tensor.alloc_counter_peak_mb"] = self.T.peak_memory_mb() - self.live0
        return False


def traced_loop(wl, seconds: float, it: Iterations):
    """Alternate untraced and traced iterations; returns the traced
    iterations' metrics (None if none completed) and the two lists of
    wall times."""
    from tracer import COUNTERS

    traced_it = TracedIteration(wl)
    untraced, traced, rows = [], [], []
    start = perf_counter()
    i = 0
    while i < 2 * MIN_ITERATIONS or perf_counter() - start < seconds:
        dt = it.run(wl, i, traced_it if i % 2 else None)
        if dt is not None:
            (traced if i % 2 else untraced).append(dt)
            if i % 2:
                rows.append(traced_it.row)
        i += 1
    if not rows or not untraced:
        return None, untraced, traced
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0] if k not in COUNTERS}
    metrics.update({k: rows[0][k] for k in COUNTERS})  # exact counts of one iteration
    return metrics, untraced, traced


# ---------------------------------------------------------------------------
# reference check

def reference_problem(name: str, measured: dict, references: dict) -> str | None:
    expected = references["workloads"].get(name)
    if expected is None:
        return f"no reference recorded for {name}"
    rtol = references["rtol"]

    def flat(d):
        return [x for k in sorted(d) for x in (d[k] if isinstance(d[k], list) else [d[k]])]

    got, want = flat(measured), flat(expected)
    if len(got) != len(want):
        return "reference has a different number of values"
    tol = rtol * max(abs(v) for v in want)
    worst = max(abs(g - w) for g, w in zip(got, want))
    if worst > tol:
        return f"differs from reference by {worst:.3g} (tolerance {tol:.3g})"
    return None


# ---------------------------------------------------------------------------
# one workload

def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 spec: dict, references: dict):
    """Returns (result, report lines)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    setup_s = import_s + set_up(wl, seed)
    it = Iterations()
    lines = [f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}",
             "# host " + json.dumps(host_record(seed))]

    if trace:
        found, untraced, traced = traced_loop(wl, seconds, it)
        wanted = spec["per_layer"]
    else:
        timed_loop(wl, seconds, it)
        found = None
        wanted = spec["end_to_end"]

    problem = reference_problem(name, wl.measured_reference(), references)
    it.attempted += 1
    if problem:
        print(f"reference check failed: {problem}", file=sys.stderr)
        it.failed += 1

    if trace:
        if found is None:
            return None, lines
        u, t = statistics.median(untraced), statistics.median(traced)
        found["trace.untraced_ms"] = u * 1e3
        found["trace.traced_ms"] = t * 1e3
        found["trace.overhead_pct"] = (t / u - 1.0) * 100.0
        found.update({f"cost.{k}": v for k, v in
                      wl.cost(sga_on=found["attention.sga.on_rate"] > 0).items()})
        lines.append(f"# traced {len(traced)} and untraced {len(untraced)} iterations; "
                     "times are medians per iteration, counts those of the first traced one")
    else:
        if not it.times:
            return None, lines
        med = statistics.median(it.times)
        found = {"tok_s": wl.tokens_per_iter / med, "setup_s": setup_s,
                 "peak_mb": true_peak_mb(wl, it)}
        lines.append(_timing_line(it.times))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": found[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']:<36} {found[m['name']]:>16.6g} {m['unit']}")
    lines.append(f"# attempted {it.attempted}  failed {it.failed}")
    result = {"correct": it.failed == 0, "attempted": it.attempted, "failed": it.failed,
              "metrics": metrics}
    return result, lines


def _timing_line(times) -> str:
    n = len(times)
    line = f"# {n} timed iterations, median {statistics.median(times) * 1e3:.1f} ms"
    if n >= 20:  # the highest percentile with ten samples beyond it
        p = 100.0 * (n - 10) / n
        line += f", p{p:.0f} {sorted(times)[n - 11] * 1e3:.1f} ms"
    return line


# ---------------------------------------------------------------------------
# entry point

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write perfbench/reference.json from this checkout and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hydra_lab" / "__init__.py").is_file():
        print(f"perfbench: no hydra_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    _set_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import hydra_lab  # noqa: F401  (and numpy with it)
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    if args.record_reference:
        return _record_reference(WORKLOADS)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "reference.json").read_text())

    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     import_s, spec, references)
        print("\n".join(lines), flush=True)
        if result is None:
            print(f"perfbench: {name}: no iteration completed", file=sys.stderr)
            return 1
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


def _record_reference(workloads) -> int:
    out = {"rtol": REFERENCE_RTOL, "workloads": {}}
    for name, make in workloads.items():
        wl = make()
        wl.setup(0)
        out["workloads"][name] = wl.measured_reference()
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

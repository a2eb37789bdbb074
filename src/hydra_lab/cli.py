"""Command-line entry point.

Subcommands: gen-data, train, eval, bench, and ablate (a train matrix
over ablation arms). Every run directory receives exactly one
manifest.json capturing the command, the resolved configuration, the
seed, and timestamps, so a run can be reproduced from its manifest.
Exit codes: 0 success, 1 runtime failure, 2 usage error.

The output root is, in order of precedence: --out, $HYDRA_LAB_OUT,
./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import restore_model
from .experiments import run_efficiency, run_experiment
from .model import ABLATABLE
from .tasks import (
    gen_distant_premise,
    gen_logic_chain,
    gen_multidomain,
    gen_qa_openclosed,
    gen_random_tokens,
    read_samples,
    write_samples,
)
from .tensor import UsageError
from .training import evaluate_accuracy, write_run_records

GEN_TASKS = ("logic", "random", "qa", "distant", "multidomain")


def _version_string() -> str:
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5)
        git = desc.stdout.strip() if desc.returncode == 0 else "nogit"
    except Exception:
        git = "nogit"
    return f"{__version__}+{git}"


def _out_root(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("HYDRA_LAB_OUT")
    if env:
        return Path(env) / args.command
    return Path("runs") / args.command


def _write_manifest(run_dir: Path, args, config_snapshot, outputs, started, seed):
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "config": config_snapshot,
        "seed": seed,
        "version": _version_string(),
        "started_unix": started,
        "ended_unix": time.time(),
        "outputs": sorted(str(o) for o in outputs),
    }
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _load_config_file(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    return json.loads(p.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args) -> int:
    started = time.time()
    seed = args.seed
    n = args.n
    gens = {
        "logic": lambda s: gen_logic_chain(args.n_vars, args.chain_len, s, args.distractors),
        "random": lambda s: gen_random_tokens(args.len, args.vocab, s),
        "qa": lambda s: gen_qa_openclosed(args.n_facts,
                                          args.mode == "open" or (args.mode == "mixed" and s % 2 == 0), s),
        "distant": lambda s: gen_distant_premise(args.len, args.premise_pos, s),
        "multidomain": lambda s: gen_multidomain(args.n_domains, args.len, s),
    }
    gen = gens[args.task]
    samples = [gen(seed * (1 << 21) + i) for i in range(n)]
    run_dir = _out_root(args)
    out_file = run_dir / f"{args.task}.txt"
    write_samples(out_file, samples)
    _write_manifest(run_dir, args, {"task": args.task, "n": n,
                                    "params": {k: v for k, v in vars(args).items()
                                               if k not in ("command", "func", "out")}},
                    [out_file], started, seed)
    print(f"wrote {n} samples to {out_file}")
    return 0


# ---------------------------------------------------------------------------
# train

def _parse_task_params(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"task param must be key=value, got '{item}'")
        k, v = item.split("=", 1)
        try:
            out[k] = json.loads(v)
        except json.JSONDecodeError:
            out[k] = v
    return out


def cmd_train(args) -> int:
    started = time.time()
    file_cfg = _load_config_file(args.config) if args.config else {}
    overrides = dict(file_cfg.get("model", {}))
    task_params = dict(file_cfg.get("task", {}))
    task_params.update(_parse_task_params(args.task_param))
    ablate = tuple(args.ablate) if args.ablate else ()
    run_dir = _out_root(args)

    result = run_experiment(args.experiment, seed=args.seed, scale=args.scale,
                            model=args.model, ablate=ablate,
                            overrides=overrides or None, out_dir=run_dir, **task_params)
    rec_path = run_dir / "records.csv"
    write_run_records(rec_path, result.records)
    outputs = [rec_path, run_dir / "report.csv"]
    if result.checkpoint:
        outputs.append(result.checkpoint)
    _write_manifest(run_dir, args,
                    {"experiment": args.experiment, "model": args.model,
                     "ablate": list(ablate), "scale": args.scale,
                     "overrides": overrides, "task_params": task_params,
                     "model_config": result.config.to_dict() if result.config else None},
                    outputs, started, args.seed)
    print(f"{args.experiment}[{result.variant}] seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in result.summary.items()
                     if isinstance(v, (int, float, str))))
    return 0


def cmd_ablate(args) -> int:
    """Train matrix: the full arm plus one arm per ablated component."""
    rc = 0
    base_out = _out_root(args)
    for comp in [None] + list(args.components):
        sub = argparse.Namespace(**vars(args))
        sub.ablate = [comp] if comp else []
        sub.command = "train"
        sub.out = str(base_out / (comp or "full"))
        rc = max(rc, cmd_train(sub))
    return rc


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    started = time.time()
    kind, config, params = restore_model(args.checkpoint)
    samples = read_samples(args.task_file)
    too_big = max(int(np.max(s.tokens)) for s in samples)
    if too_big >= config.vocab:
        print(f"error: task file uses token id {too_big} but checkpoint vocab is {config.vocab}",
              file=sys.stderr)
        return 1
    collected = []
    acc = evaluate_accuracy(kind, config, params, samples, collect=collected)
    print(f"accuracy {acc:.4f} over {len(samples)} samples")
    lines = [f"metric,value", f"accuracy,{acc!r}"]
    modes = {s.meta.get("is_open_book") for s in samples}
    if collected and modes in ({"0", "1"}, {True, False}):
        beta = np.array([c["beta_pkm_final"] for c in collected])
        is_open = np.array([c["sample"].meta.get("is_open_book") in (True, "1") for c in collected])
        bo, bc = float(beta[is_open].mean()), float(beta[~is_open].mean())
        print(f"mean beta (open-book) {bo:.4f}")
        print(f"mean beta (closed-book) {bc:.4f}")
        lines += [f"beta_open,{bo!r}", f"beta_closed,{bc!r}"]
    run_dir = _out_root(args)
    run_dir.mkdir(parents=True, exist_ok=True)
    out_csv = run_dir / "eval.csv"
    out_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(run_dir, args, {"checkpoint": str(args.checkpoint),
                                    "task_file": str(args.task_file)},
                    [out_csv], started, 0)
    return 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    started = time.time()
    if args.repeats < 3:
        raise UsageError("--repeats must be >= 3 (warmups are separate)")
    lens = [int(x) for x in args.lens.split(",")]
    run_dir = _out_root(args)
    result = run_efficiency(args.seed, model=args.variant, lens=lens,
                            n_repeats=args.repeats, out_dir=run_dir)
    summary = result.summary
    for r in summary["bench_records"]:
        print(f"{r.variant} L={r.seq_len}: {r.tokens_per_sec:,.0f} tok/s, "
              f"{r.ms_per_token:.4f} ms/tok, peak {r.peak_mem_mb:.0f} MB")
    for f in summary["bench_fits"]:
        print(f"{f.variant}: time ~ L^{f.exponent:.2f} (R^2={f.r_squared:.3f})")
    if summary["crossover"] is not None:
        print(f"throughput crossover at L={summary['crossover']}")
    _write_manifest(run_dir, args, {"variant": args.variant, "lens": lens,
                                    "repeats": args.repeats,
                                    "model_config": result.config.to_dict()},
                    summary["bench_outputs"], started, args.seed)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hydra-lab",
                                description="Train, evaluate, and benchmark the hybrid "
                                            "SSM/attention/experts/memory model at desk scale.")
    p.add_argument("--version", action="version", version=_version_string())
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write synthetic task samples")
    g.add_argument("task", choices=GEN_TASKS)
    g.add_argument("-n", type=int, default=100, help="number of samples")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output directory")
    g.add_argument("--chain-len", type=int, default=2)
    g.add_argument("--n-vars", type=int, default=26)
    g.add_argument("--distractors", type=int, default=0)
    g.add_argument("--len", type=int, default=4096)
    g.add_argument("--vocab", type=int, default=256)
    g.add_argument("--n-facts", type=int, default=128)
    g.add_argument("--mode", choices=("open", "closed", "mixed"), default="mixed")
    g.add_argument("--premise-pos", type=int, default=2000)
    g.add_argument("--n-domains", type=int, default=4)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run one experiment arm")
    t.add_argument("experiment",
                   choices=("logic", "efficiency", "wikitext", "pkm_recall",
                            "distant_premise", "moe_dense"))
    t.add_argument("--config", help="JSON config file: {'model': {...}, 'task': {...}}")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--scale", type=float, default=1.0, help="epoch-count multiplier")
    t.add_argument("--model", choices=("hydra", "transformer"), default="hydra")
    t.add_argument("--ablate", action="append", choices=ABLATABLE,
                   help="hard-disable a component (repeatable)")
    t.add_argument("--out", help="run directory")
    t.add_argument("--task-param", action="append", metavar="KEY=VALUE",
                   help="override a task parameter (repeatable)")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("ablate", help="train the full model plus per-component ablations")
    a.add_argument("experiment", choices=("logic", "wikitext", "pkm_recall",
                                          "distant_premise", "moe_dense"))
    a.add_argument("--components", nargs="+", choices=ABLATABLE,
                   default=list(ABLATABLE))
    a.add_argument("--config")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--scale", type=float, default=1.0)
    a.add_argument("--model", choices=("hydra",), default="hydra")
    a.add_argument("--out")
    a.add_argument("--task-param", action="append", metavar="KEY=VALUE")
    a.set_defaults(func=cmd_ablate)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a sample file")
    e.add_argument("checkpoint")
    e.add_argument("task_file")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="throughput/memory scan over sequence lengths")
    b.add_argument("--variant", choices=("hydra", "transformer", "both"), default="both")
    b.add_argument("--lens", default="1024,2048,4096,8192,16384")
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure contract: exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

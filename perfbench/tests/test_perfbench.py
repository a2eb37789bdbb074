"""Tests of the benchmark itself: tracer hygiene, exact counters, output format.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_counters(name: str, seed: int) -> dict:
    """Counters of one traced iteration, as the traced run reports them."""
    wl = WORKLOADS[name]()
    wl.setup(seed)
    traced = run.TracedIteration(wl)
    assert run.Iterations().run(wl, 0, traced) is not None
    return {k: traced.row[k] for k in tracer.COUNTERS}


@pytest.fixture(scope="module")
def counters():
    """name -> [counters at seed 0, again at seed 0, at seed 1]."""
    return {name: [_traced_counters(name, s) for s in (0, 0, 1)] for name in WORKLOADS}


def test_tracer_restores_every_attribute_even_on_error():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in tracer.targets()]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(getattr(o, a) is not f for o, a, f in originals)
            raise RuntimeError("inside the traced region")
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_traced_run_restores_attributes():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in tracer.targets()]
    _traced_counters("train-256", 0)
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_counters_repeat_exactly_across_runs_and_seeds(counters):
    for name, (first, again, other_seed) in counters.items():
        assert first == again, name
        assert first == other_seed, name


def test_counters_match_shapes(counters):
    for name, (c, _, _) in counters.items():
        wl = WORKLOADS[name]()
        cfg = wl.config
        if name == "dense-4k":
            assert c["pkm.candidates"] == c["moe.expert_rows"] == c["workspace.write_rounds"] == 0
            continue
        B, L = (wl.B, wl.L) if name == "train-256" else (1, wl.L)
        assert c["pkm.candidates"] == B * L * cfg.pkm_t ** 2
        assert c["moe.expert_rows"] == B * L * 2 * len(cfg.moe_block_ids())
        assert c["workspace.write_rounds"] == -(-L // cfg.chunk_size) - 1
    assert counters["train-256"][0]["tensor.tape_ops"] == counters["train-256"][0]["tensor.op_calls"]
    assert all(counters[n][0]["tensor.tape_ops"] == 0 for n in ("eval-16k", "attn-4k", "dense-4k"))


def test_sga_bypassed_on_eval_and_exercised_on_attn(counters):
    assert counters["eval-16k"][0]["attention.sga.on_rate"] == 0
    assert counters["attn-4k"][0]["attention.sga.on_rate"] > 0


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    p = _bench(ROOT, "--workload", "train-256", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_sga_time_zero_on_eval_nonzero_on_attn():
    for name, positive in (("eval-16k", False), ("attn-4k", True)):
        p = _bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert p.returncode == 0, p.stderr
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        assert (metrics["attention.sga.ms"]["value"] > 0) == positive
        assert (metrics["attention.sga.on_rate"]["value"] > 0) == positive


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "--workload", "train-256", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_reference_check_catches_a_changed_result():
    refs = json.loads((BENCH / "reference.json").read_text())
    good = refs["workloads"]["train-256"]
    assert run.reference_problem("train-256", good, refs) is None
    bad = {"loss_after_cycle": good["loss_after_cycle"] * (1 + 10 * refs["rtol"])}
    assert run.reference_problem("train-256", bad, refs) is not None

"""``tools/step_memory.py`` prints one row per phase of a training step, or
one row per stage of an eval forward."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "step_memory.py"), *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return [line.split() for line in res.stdout.splitlines() if not line.startswith("#")]


def test_prints_every_phase_on_a_tiny_config():
    rows = _run("--vocab", "64", "--batch", "2", "--length", "32")
    assert rows[0] == ["phase", "live_mib", "peak_mib"]
    assert [r[0] for r in rows[1:]] == ["forward", "loss", "backward", "adam", "step"]
    for _, live, peak in rows[1:5]:
        assert 0.0 < float(live) <= float(peak)
    assert float(rows[5][1]) == max(float(r[2]) for r in rows[1:5])


def test_eval_mode_prints_every_stage_at_a_tiny_length():
    rows = _run("--eval", "96")
    assert rows[0] == ["stage", "calls", "peak_mib"]
    stages = ["layer_norm", "ssm_scan", "moe_apply", "tri_path_block", "_memory_stage", "workspace_read",
              "pkm_query_batch", "pkm_blend", "forward"]
    assert [r[0] for r in rows[1:]] == stages
    # efficiency_config: 12 blocks, experts in 6, memory once, and the final norm
    assert [int(r[1]) for r in rows[1:]] == [13, 12, 6, 12, 1, 1, 1, 1, 1]
    peak = {r[0]: float(r[2]) for r in rows[1:]}
    assert all(p > 0.0 for p in peak.values())
    assert peak["forward"] == max(peak.values())
    # a stage's peak includes the stages it calls
    assert peak["tri_path_block"] >= max(peak["ssm_scan"], peak["moe_apply"])
    assert peak["_memory_stage"] >= max(peak["workspace_read"], peak["pkm_query_batch"], peak["pkm_blend"])

"""``tools/step_memory.py`` prints one row per phase of a training step."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_every_phase_on_a_tiny_config():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "step_memory.py"),
                          "--vocab", "64", "--batch", "2", "--length", "32"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == ["phase", "live_mib", "peak_mib"]
    assert [r[0] for r in rows[1:]] == ["forward", "loss", "backward", "adam", "step"]
    for _, live, peak in rows[1:5]:
        assert 0.0 < float(live) <= float(peak)
    assert float(rows[5][1]) == max(float(r[2]) for r in rows[1:5])

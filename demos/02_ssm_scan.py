"""The recurrent backbone: causal, linear-time scans.

Run:  python demos/02_ssm_scan.py
"""

import time

import numpy as np

from hydra_lab.ssm import init_ssm_params, ssm_scan
from hydra_lab.tensor import Tensor, no_grad

d = 64
params = init_ssm_params(d, np.random.default_rng(0))
rng = np.random.default_rng(1)

# Every output depends only on its prefix: scanning the first 200 steps
# alone reproduces the first 200 outputs of the full scan.
x = Tensor(rng.normal(size=(512, d)))
with no_grad():
    full = ssm_scan(x, params)
    prefix = ssm_scan(x[:200], params)
prefix_err = np.abs(prefix.data - full.data[:200]).max()
print(f"prefix-invariance error: {prefix_err:.2e}")

# Per-channel decay rates span short and long memory horizons.
a = 1 / (1 + np.exp(-params.decay_logits.data))
print(f"decay range: {a.min():.3f} .. {a.max():.4f} "
      f"(half-lives {np.log(0.5)/np.log(a.max()):.0f} .. {np.log(0.5)/np.log(a.min()):.1f} steps)")

# Wall time grows linearly with sequence length.
print("\n  L      seconds   tok/s")
for L in (1024, 2048, 4096, 8192, 16384):
    x = Tensor(rng.normal(size=(L, d)))
    with no_grad():
        ssm_scan(x, params)
        t0 = time.perf_counter()
        ssm_scan(x, params)
        dt = time.perf_counter() - t0
    print(f"{L:>6}  {dt:8.4f}  {L/dt:>10,.0f}")

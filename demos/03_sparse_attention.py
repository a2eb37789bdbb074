"""Sparse global attention: window + selected globals vs dense cost.

Run:  python demos/03_sparse_attention.py
"""

import time
from dataclasses import replace

import numpy as np

from hydra_lab.attention import init_sga_params, sga_cost, sga_forward
from hydra_lab.tensor import Tensor, no_grad

rng = np.random.default_rng(0)
d = 64

# Each query block selects its globals by saliency from the causal prefix
# before its window. A salient token far outside the window is reachable
# with max_globals=4 and invisible with max_globals=0 (window only).
params = init_sga_params(d=d, n_heads=4, window=8, max_globals=4, rng=rng)
windowed = replace(params, max_globals=0)
sal = params.saliency_proj.data
h = rng.normal(size=(1, 256, d))
h[0, 40] += 6.0 * sal / np.linalg.norm(sal)  # make position 40 salient
h_pert = h.copy()
h_pert[0, 40] += 1.0
win_start = 256 - 32 - 8  # the last 32-query block starts at 224; window 8
prefix_scores = h[0, :win_start] @ sal
print("top-4 saliency in the last block's prefix:",
      sorted(np.argsort(-prefix_scores)[:4].tolist()))

with no_grad():
    for name, p in (("max_globals=4", params), ("max_globals=0", windowed)):
        base = sga_forward(Tensor(h), p, block_size=32).data[0, -1]
        pert = sga_forward(Tensor(h_pert), p, block_size=32).data[0, -1]
        print(f"{name}: final token moves by {np.abs(pert - base).max():.3e} "
              f"when position 40 changes")

# With the window covering everything, the sparse kernel IS dense
# causal attention; at fixed window the cost model stays linear in L.
print("\n  L     sparse flops   dense flops   ratio")
for L in (1024, 4096, 16384):
    sp = sga_cost(L, w=64, g=16, d=d)
    dn = sga_cost(L, w=L, g=0, d=d)
    print(f"{L:>6}  {sp:12,.0f}  {dn:12,.0f}  {dn/sp:7.1f}x")

# measured: same layer, growing L, fixed window
params = init_sga_params(d=d, n_heads=4, window=64, max_globals=16, rng=rng)
print("\n  L      seconds")
for L in (2048, 4096, 8192, 16384):
    hL = Tensor(rng.normal(size=(1, L, d)))
    with no_grad():
        sga_forward(hL, params)
        t0 = time.perf_counter()
        sga_forward(hL, params)
        print(f"{L:>6}  {time.perf_counter() - t0:8.4f}")

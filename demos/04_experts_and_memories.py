"""Conditional paths: chunk-routed experts, the slot workspace, and
product-key retrieval, each through the batched function the model runs.

Run:  python demos/04_experts_and_memories.py
"""

import numpy as np

from hydra_lab import tensor as T
from hydra_lab.moe import dispatch_fractions, init_expert_pool, load_balance_loss, moe_apply, top2_pairs
from hydra_lab.pkm import candidate_counter, init_pkm_store, pkm_bruteforce, pkm_query_batch
from hydra_lab.tensor import Tensor, no_grad
from hydra_lab.workspace import init_workspace_params, workspace_read, workspace_write

rng = np.random.default_rng(0)

# --- chunk-level top-2 routing -------------------------------------------
# one sequence of 12 chunks of 4 tokens; each chunk picks two of 4 experts
w_moe = Tensor(rng.normal(size=(4, 8)))
summaries = Tensor(rng.normal(size=(1, 12, 8)))
full, ids, weights = top2_pairs(T.matmul(summaries, T.transpose(w_moe)))
f = dispatch_fractions(ids, 4)
print("dispatch fractions per expert:", np.round(f, 3))
print("balance loss (1.0 = perfectly uniform):",
      round(load_balance_loss(T.reshape(full, (12, 4)), f).item(), 4))

pool = init_expert_pool(d=8, hidden=16, n_experts=4, chunk_size=4, rng=rng)
x = Tensor(rng.normal(size=(1, 48, 8)))
with no_grad():
    y = moe_apply(x, pool, ids, weights)
print("expert mixture output:", y.data.shape, "(each token ran exactly 2 of 4 experts)")

# --- workspace: causal write of chunk summaries, per-token read ----------
ws_params = init_workspace_params(d=32, s_total=8, s_active=4, rank=8, rng=rng)
chunk_summaries = Tensor(rng.normal(size=(1, 3, 32)))   # three chunks of 2 tokens
h = Tensor(rng.normal(size=(1, 6, 32)))
with no_grad():
    slots = workspace_write(chunk_summaries, ws_params)  # chunk c reads state from chunks < c
    gate_open = workspace_read(h, slots, Tensor(np.ones((1, 6))), ws_params, 2)
    gate_shut = workspace_read(h, slots, Tensor(np.zeros((1, 6))), ws_params, 2)
print("\nslot states, one per chunk:", slots.data.shape)
print("workspace read changes h when the gate is open:",
      np.abs(gate_open.data - h.data).max() > 0)
print("closed gate is the exact identity:", (gate_shut.data == h.data).all())

# --- product-key memory: factorized vs exhaustive -------------------------
store = init_pkm_store(d=32, n_sub_keys=16, d_k=16, d_v=32, t=4, k_c=4, rng=rng)
q = Tensor(rng.normal(size=(1, 16)))
with no_grad():
    candidate_counter.reset()
    fact = pkm_query_batch(q, store)
    touched = candidate_counter.scored
    true = pkm_bruteforce(q, store)
print("\nfactorized top composites:", [tuple(int(i) for i in p) for p in fact.indices[0]])
print("exhaustive top composites:", [tuple(int(i) for i in p) for p in true.indices[0]])
print("factorized scoring touched", touched, "candidates instead of", store.n_sub_keys ** 2)

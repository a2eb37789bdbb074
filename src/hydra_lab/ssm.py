"""Linear-time recurrent backbone.

A diagonal input-gated linear recurrence: per-channel decay ``a`` in
(0,1) mixes the previous state with a projected input, and the output
is the projected state modulated by a SiLU gate on the input.

A layer is one tape op, ``ssm_scan``, with a hand-written backward (as
``swiglu`` and ``cross_entropy`` are). Its forward allocates only what
it returns, plus what a recorded call keeps for its backward: the input
projection, the state trajectory, the gate pre-activation, its sigmoid
and the projected state. The recurrence is ``diag_recurrence``, a numpy
kernel that runs in place, one python loop over the sequence (Mamba, Gu
& Dao 2023, arXiv 2312.00752, runs its scan as one fused kernel too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class SsmLayerParams:
    decay_logits: Tensor  # [d], a = sigmoid(decay_logits)
    input_proj: Tensor    # [d, d]
    gate_proj: Tensor     # [d, d]
    output_proj: Tensor   # [d, d]
    d: int

    def parameters(self):
        return [
            ("decay_logits", self.decay_logits),
            ("input_proj", self.input_proj),
            ("gate_proj", self.gate_proj),
            ("output_proj", self.output_proj),
        ]


def init_ssm_params(d: int, rng: np.random.Generator) -> SsmLayerParams:
    """Decay logits spaced so a covers ~0.9..0.999 (mixed memory horizons)."""
    lo = np.log(0.9 / 0.1)
    hi = np.log(0.999 / 0.001)
    logits = np.linspace(lo, hi, d)
    scale = 1.0 / np.sqrt(d)
    return SsmLayerParams(
        decay_logits=Tensor(logits, requires_grad=True),
        input_proj=Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True),
        gate_proj=Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True),
        output_proj=Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True),
        d=d,
    )


#: tape ops one recorded ``ssm_scan`` call adds
SSM_TAPE_OPS = 1


def _scan_rows(a: np.ndarray, rows: np.ndarray):
    """rows[t] = a * rows[t-1] + rows[t] for t = 1, 2, ..., in place along
    the first axis: two ufuncs per step and no allocation in the loop."""
    tmp = np.empty(rows.shape[1:])
    prev = rows[0]
    for cur in rows[1:]:
        np.multiply(a, prev, out=tmp)
        np.add(tmp, cur, out=cur)
        prev = cur


def diag_recurrence(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h_t = a * h_{t-1} + v_t along the second-to-last axis, h_{-1} = 0, in place.

    a is [d]; h is [..., L, d], holding v on entry and the state
    trajectory on return. The forward kernel of ``ssm_scan``.
    """
    _scan_rows(a, np.moveaxis(h, -2, 0))
    return h


def ssm_scan(x: Tensor, params: SsmLayerParams) -> Tensor:
    """Full-layer scan from a zero initial state, x [..., L, d] -> y, as one op:
    y = (h W_o) * silu(x W_g), where h is ``diag_recurrence`` over
    v = (1 - a) * (x W_i) and a = sigmoid(decay_logits).

    Under ``no_grad`` the forward holds at most two [..., L, d] arrays at a
    time. A recorded call keeps u = x W_i, h, z = x W_g, sigmoid(z) and
    h W_o. The float operations and their order are those of the chain
    sigmoid, matmul, recurrence, matmul, silu, matmul, mul, so the output
    and each weight's gradient equal that chain's bit for bit; x gets the
    sum of its two gradients as one.
    """
    p = params
    inputs = (x, p.decay_logits, p.input_proj, p.gate_proj, p.output_proj)
    keep = T._GRAD_ENABLED and any(t.requires_grad for t in inputs)
    xd, wi, wg, wo = x.data, p.input_proj.data, p.gate_proj.data, p.output_proj.data
    if xd.ndim < 2 or xd.shape[-1] != wi.shape[0]:
        raise T._op_error(T.ShapeError, f"ssm_scan: x must be [..., L, {wi.shape[0]}], got {xd.shape}")
    # as T.matmul: a batched x is flattened into one GEMM
    x2 = np.ascontiguousarray(xd).reshape(-1, xd.shape[-1]) if xd.ndim > 2 else xd
    a = T._stable_sigmoid(p.decay_logits.data)
    one_minus = 1.0 - a
    seq = xd.shape[:-1] + (wi.shape[1],)                       # [..., L, d]

    u = x2 @ wi
    h = u * one_minus if keep else np.multiply(u, one_minus, out=u)
    h = diag_recurrence(a, h.reshape(seq)).reshape(u.shape)
    y = h @ wo                                                 # h W_o
    if not keep:
        del u, h
        z = x2 @ wg
        y *= T._silu(z, z)[0]
        return T._make_output(y.reshape(seq[:-1] + (wo.shape[1],)), inputs, None, "ssm_scan")
    z = x2 @ wg
    q, s = T._silu(z, np.empty(z.shape), keep=True)
    ph, y = y, y * q
    del q

    def bwd(g):
        g2 = np.ascontiguousarray(g).reshape(-1, wo.shape[1]) if g.ndim > 2 else g
        q = z * s
        gp = g2 * q
        gz = g2 * ph
        # silu's rule, g * (s + z * s * (1 - s)), on the buffers at hand
        np.multiply(q, np.subtract(1.0, s), out=q)
        np.add(s, q, out=q)
        gz *= q
        del q
        gx = gz @ wg.T
        gwg = x2.T @ gz
        del gz
        gh = gp @ wo.T
        gwo = h.T @ gp
        del gp
        # the recurrence's rule, G_t = a G_{t+1} + gh_t: the same scan, run
        # backward in time, in place
        G = np.moveaxis(gh.reshape(seq), -2, 0)
        _scan_rows(a, G[::-1])
        # dL/da = sum over t and batch of G_t (h_{t-1} - u_t), summed over
        # the batch first and then over t from the end, as the chain did
        diff = np.empty(seq)
        hs, us = h.reshape(seq), u.reshape(seq)
        np.subtract(hs[..., :-1, :], us[..., 1:, :], out=diff[..., 1:, :])
        np.subtract(0.0, us[..., 0, :], out=diff[..., 0, :])
        diff *= np.moveaxis(G, 0, -2)
        per_t = diff.sum(axis=tuple(range(diff.ndim - 2))) if diff.ndim > 2 else diff
        ga = np.zeros_like(a)
        for t in range(per_t.shape[0] - 1, -1, -1):
            ga += per_t[t]
        del diff, per_t
        gu = np.multiply(gh, one_minus, out=gh)
        gx += gu @ wi.T
        gwi = x2.T @ gu
        return gx.reshape(xd.shape), ga * a * one_minus, gwi, gwg, gwo

    return T._make_output(y.reshape(seq[:-1] + (wo.shape[1],)), inputs, bwd, "ssm_scan")

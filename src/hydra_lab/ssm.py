"""Linear-time recurrent backbone.

A diagonal input-gated linear recurrence: per-channel decay ``a`` in
(0,1) mixes the previous state with a projected input, and the output
is the projected state modulated by a SiLU gate on the input. The
recurrence itself is a single fused tape op (one python loop forward,
one in reverse) rather than L separate tape nodes.
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


def diag_recurrence(a: Tensor, u: Tensor) -> Tensor:
    """h_t = a * h_{t-1} + (1-a) * u_t along the second-to-last axis, h_{-1} = 0.

    a is [d]; u is [..., L, d]. Returns the full state trajectory [..., L, d].
    """
    ad, ud = a.data, u.data
    if ud.ndim < 2:
        raise T.ShapeError("diag_recurrence: u must be [..., L, d]")
    if ad.shape != (ud.shape[-1],):
        raise T.ShapeError("diag_recurrence: a must be [d] matching u's last axis")
    L = ud.shape[-2]
    one_minus = 1.0 - ad
    h = np.empty_like(ud)
    prev = np.zeros(ud.shape[:-2] + ud.shape[-1:])
    for t in range(L):
        prev = ad * prev + one_minus * ud[..., t, :]
        h[..., t, :] = prev

    def bwd(g):
        gu = np.empty_like(ud)
        ga = np.zeros_like(ad)
        carry = np.zeros(ud.shape[:-2] + ud.shape[-1:])
        batch_axes = tuple(range(ud.ndim - 2))
        for t in range(L - 1, -1, -1):
            gt = g[..., t, :] + ad * carry
            gu[..., t, :] = one_minus * gt
            hprev = h[..., t - 1, :] if t > 0 else 0.0
            contrib = gt * (hprev - ud[..., t, :])
            ga += contrib.sum(axis=batch_axes) if batch_axes else contrib
            carry = gt
        return ga, gu

    return T._make_output(h, (a, u), bwd, "diag_recurrence")


def ssm_scan(x: Tensor, params: SsmLayerParams) -> Tensor:
    """Full-layer scan from a zero initial state: x [..., L, d] -> y."""
    a = T.sigmoid(params.decay_logits)
    u = T.matmul(x, params.input_proj)
    h = diag_recurrence(a, u)
    gate = T.silu(T.matmul(x, params.gate_proj))
    return T.mul(T.matmul(h, params.output_proj), gate)

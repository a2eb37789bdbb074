"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: every forward op appends one
entry to a global tape, and ``backward`` replays the tape in reverse.
All storage is row-major float64. Broadcasting is numpy's trailing-dim
alignment only. Every op checks its output for NaN/Inf, so overflow is
an error rather than a silent value. A failed op and a finished or
failed ``backward`` both leave the tape empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """An op produced NaN/Inf, or an input violated its domain."""


class UsageError(ValueError):
    """An op was called in a way its contract forbids."""


# ---------------------------------------------------------------------------
# allocation accounting (read by `perfbench/run.py --trace 1` as
# tensor.alloc_counter_peak_mb; it counts views as new memory)

class _AllocStats:
    __slots__ = ("current_bytes", "peak_bytes")

    def __init__(self):
        self.current_bytes = 0
        self.peak_bytes = 0

    def add(self, n):
        self.current_bytes += n
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def sub(self, n):
        self.current_bytes -= n


_ALLOC = _AllocStats()


def reset_peak_memory():
    """Reset the allocator high-water mark to the current live footprint."""
    _ALLOC.peak_bytes = _ALLOC.current_bytes


def peak_memory_mb() -> float:
    return _ALLOC.peak_bytes / (1024.0 * 1024.0)


def live_memory_mb() -> float:
    return _ALLOC.current_bytes / (1024.0 * 1024.0)


# ---------------------------------------------------------------------------
# tape

class TapeOp:
    """One recorded operation: inputs, output, and its backward rule."""

    __slots__ = ("inputs", "output", "backward_fn", "name")

    def __init__(self, inputs, output, backward_fn, name):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.name = name


_TAPE: list[TapeOp] = []
_GRAD_ENABLED = True
_NEXT_NODE_ID = 0


def _new_node_id() -> int:
    global _NEXT_NODE_ID
    _NEXT_NODE_ID += 1
    return _NEXT_NODE_ID


def tape_size() -> int:
    return len(_TAPE)


def reset_tape():
    _TAPE.clear()


class no_grad:
    """Context manager disabling tape recording (forward-only evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


# ---------------------------------------------------------------------------
# tensor

class Tensor:
    """Row-major float64 array with an optional gradient buffer.

    Tensors created directly from data are leaves; op results are
    interior nodes that never receive a ``.grad`` of their own.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_is_leaf", "_nbytes", "__weakref__")

    def __init__(self, data, requires_grad=False, _leaf=True):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.node_id = _new_node_id()
        self._is_leaf = _leaf
        self._nbytes = arr.nbytes
        _ALLOC.add(self._nbytes)

    def __del__(self):
        try:
            _ALLOC.sub(self._nbytes)
        except Exception:
            pass  # interpreter shutdown

    # -- introspection ------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# op plumbing

def _numeric_error(msg: str) -> NumericError:
    """The error of a failed op. Clears the tape, so the ops the failed
    forward recorded cannot reach a later backward."""
    _TAPE.clear()
    return NumericError(msg)


def _check_finite(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        raise _numeric_error(f"op '{name}' produced non-finite values")


def _make_output(arr: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable, name: str) -> Tensor:
    _check_finite(arr, name)
    out = Tensor(arr, _leaf=False)
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.append(TapeOp(tuple(inputs), out, backward_fn, name))
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _broadcast_shape(a: Tensor, b: Tensor, name: str):
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# binary elementwise

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make_output(out, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a, b, "sub")
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make_output(out, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make_output(out, (a, b), bwd, "mul")


# ---------------------------------------------------------------------------
# unary elementwise

def _stable_sigmoid(xd: np.ndarray) -> np.ndarray:
    # clipping at +-709 keeps exp finite; the result is bit-identical to
    # the unclipped value in float64 (tails are exactly 0.0 / 1.0)
    out = np.exp(-np.clip(np.abs(xd), 0.0, 709.0))
    out = 1.0 / (1.0 + out)
    return np.where(xd >= 0, out, 1.0 - out)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _stable_sigmoid(x.data)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _make_output(s, (x,), bwd, "sigmoid")


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)
    t = out

    def bwd(g):
        return (g * (1.0 - t * t),)

    return _make_output(out, (x,), bwd, "tanh")


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="raise"):
        try:
            out = np.exp(x.data)
        except FloatingPointError:
            raise _numeric_error("exp overflow") from None
    e = out

    def bwd(g):
        return (g * e,)

    return _make_output(out, (x,), bwd, "exp")


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise _numeric_error("log domain violation: input must be positive")
    out = np.log(x.data)
    xd = x.data

    def bwd(g):
        return (g / xd,)

    return _make_output(out, (x,), bwd, "log")


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return _make_output(out, (x,), bwd, "relu")


def silu(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    s = _stable_sigmoid(xd)
    out = xd * s

    def bwd(g):
        return (g * (s + xd * s * (1.0 - s)),)

    return _make_output(out, (x,), bwd, "silu")


# ---------------------------------------------------------------------------
# matmul

def matmul(a, b) -> Tensor:
    """Matrix product. 2-D by 2-D, batched with equal leading dims, or a
    2-D operand broadcast across the other's batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims {ad.shape[-1]} != {bd.shape[-2]}")

    if bd.ndim == 2 and ad.ndim > 2:
        # single flattened GEMM beats numpy's per-batch loop
        lead = ad.shape[:-1]
        k = ad.shape[-1]
        a2 = np.ascontiguousarray(ad).reshape(-1, k)
        out = (a2 @ bd).reshape(lead + (bd.shape[-1],))

        def bwd(g):
            g2 = np.ascontiguousarray(g).reshape(-1, bd.shape[-1])
            ga = (g2 @ bd.T).reshape(ad.shape)
            gb = a2.T @ g2
            return ga, gb

        return _make_output(out, (a, b), bwd, "matmul")

    try:
        out = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul: batch dims {ad.shape[:-2]} vs {bd.shape[:-2]} incompatible") from None

    def bwd(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _make_output(out, (a, b), bwd, "matmul")


# ---------------------------------------------------------------------------
# reductions

def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def bwd(g):
        g2 = g if (axis is None or keepdims) else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).copy(),)

    return _make_output(np.asarray(out), (x,), bwd, "sum")


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    shape = x.data.shape
    count = x.data.size if axis is None else np.prod([shape[a] for a in np.atleast_1d(axis)])

    def bwd(g):
        if axis is None:
            g2 = g
        else:
            g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / count, shape).copy(),)

    return _make_output(np.asarray(out), (x,), bwd, "mean")


# ---------------------------------------------------------------------------
# shape ops

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return _make_output(out, (x,), bwd, "reshape")


def transpose(x, axes=None) -> Tensor:
    x = as_tensor(x)
    out = np.transpose(x.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make_output(out, (x,), bwd, "transpose")


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make_output(out, tuple(tensors), bwd, "concat")


def getitem(x, key) -> Tensor:
    """Basic indexing (ints, slices, ellipsis). For fancy gathers use
    gather_rows / take_along_last."""
    x = as_tensor(x)
    out = x.data[key]
    shape = x.data.shape

    def bwd(g):
        gx = np.zeros(shape)
        gx[key] = g
        return (gx,)

    return _make_output(np.array(out, copy=True), (x,), bwd, "getitem")


def gather_rows(x, idx) -> Tensor:
    """out = x[idx] along axis 0; idx is an integer ndarray of any shape."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeError("gather_rows: index out of range")
    out = x.data[idx]
    shape = x.data.shape

    def bwd(g):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make_output(out, (x,), bwd, "gather_rows")


def gather_rows_batched(x, idx) -> Tensor:
    """Per-batch row gather: x [B,N,...], idx [B,P] -> out [B,P,...]."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    if x.data.ndim < 2 or idx.ndim != 2 or idx.shape[0] != x.data.shape[0]:
        raise ShapeError("gather_rows_batched: expects x [B,N,...] and idx [B,P]")
    expand = (slice(None),) * 2 + (None,) * (x.data.ndim - 2)
    out = np.take_along_axis(x.data, idx[expand], axis=1)
    shape = x.data.shape
    barange = np.arange(shape[0])[:, None]

    def bwd(g):
        gx = np.zeros(shape)
        np.add.at(gx, (barange, idx), g)
        return (gx,)

    return _make_output(out, (x,), bwd, "gather_rows_batched")


def take_along_last(x, idx) -> Tensor:
    """out[..., j] = x[..., idx[..., j]] along the last axis."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    out = np.take_along_axis(x.data, idx, axis=-1)
    shape = x.data.shape

    def bwd(g):
        gx = np.zeros(shape)
        flat_g = g.reshape(-1, g.shape[-1])
        flat_idx = idx.reshape(-1, idx.shape[-1])
        flat_gx = gx.reshape(-1, shape[-1])
        rows = np.arange(flat_gx.shape[0])[:, None]
        np.add.at(flat_gx, (rows, flat_idx), flat_g)
        return (gx,)

    return _make_output(out, (x,), bwd, "take_along_last")


# ---------------------------------------------------------------------------
# fused numeric ops

def softmax(x, axis=-1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along ``axis``."""
    x = as_tensor(x)
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    p = out

    def bwd(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - dot),)

    return _make_output(out, (x,), bwd, "softmax")


def log_softmax(x, axis=-1) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    shifted = xd - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def bwd(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _make_output(out, (x,), bwd, "log_softmax")


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then
    apply the affine (gain, bias)."""
    if eps <= 0:
        raise UsageError("layer_norm: eps must be positive")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    d = xd.shape[-1]
    gd = gain.data

    def bwd(g):
        gxhat = g * gd
        # d/dx of (x - mu) * inv with mu, inv functions of x
        term = gxhat - gxhat.mean(axis=-1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = term * inv
        red = tuple(range(xd.ndim - 1))
        ggain = (g * xhat).sum(axis=red)
        gbias = g.sum(axis=red)
        return gx, _unbroadcast(ggain, gain.data.shape), _unbroadcast(gbias, bias.data.shape)

    return _make_output(out, (x, gain, bias), bwd, "layer_norm")


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar ``loss`` over the active tape.

    Populates ``.grad`` (additively) on every requires_grad leaf that
    contributed to the loss, then clears the tape, also when a backward
    rule raises.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError("backward expects a scalar loss")
    try:
        # grad_map values are (array, owned); in-place accumulation only on
        # arrays this sweep allocated, since backward rules may alias inputs
        grad_map: dict[int, list] = {loss.node_id: [np.ones_like(loss.data), True]}
        for op in reversed(_TAPE):
            entry = grad_map.pop(op.output.node_id, None)
            if entry is None:
                continue
            grads = op.backward_fn(entry[0])
            for t, gt in zip(op.inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                gt = np.asarray(gt, dtype=np.float64)
                if t._is_leaf:
                    if t.grad is None:
                        t.grad = gt.copy()
                    else:
                        t.grad += gt
                else:
                    acc = grad_map.get(t.node_id)
                    if acc is None:
                        grad_map[t.node_id] = [gt, False]
                    elif acc[1]:
                        acc[0] += gt
                    else:
                        acc[0] = acc[0] + gt
                        acc[1] = True
    finally:
        _TAPE.clear()


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    max_rel_err: float
    max_abs_err: float
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(f, x: Tensor, h=1e-5, tol=1e-4) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x``
    against central finite differences with step ``h``."""
    if not (1e-7 <= h <= 1e-4):
        raise UsageError("grad_check: h must lie in [1e-7, 1e-4]")
    x.zero_grad()
    reset_tape()
    out = f(x)
    backward(out)
    g_ad = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    x.zero_grad()

    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            fp = f(x).item()
        flat[i] = orig - h
        with no_grad():
            fm = f(x).item()
        flat[i] = orig
        fd_flat[i] = (fp - fm) / (2.0 * h)

    abs_err = np.abs(g_ad - g_fd)
    # the floor keeps finite-difference noise on ~zero gradients from
    # registering as relative error
    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-6)
    rel = abs_err / denom
    return GradCheckReport(float(rel.max()), float(abs_err.max()), int(flat.size), tol)

"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: every forward op appends one
entry to a global tape, and ``backward`` replays the tape in reverse,
popping each op as it goes, so the arrays an op saved for its backward
rule are released once that rule has run, not at the end of the sweep.
All storage is row-major float64. Broadcasting is numpy's trailing-dim
alignment only. Every op checks its output for NaN/Inf, so overflow is
an error rather than a silent value. A failed op (shape, usage or
numeric error) and a finished or failed ``backward`` all leave the tape
empty.

Fused ops elsewhere (``swiglu``, ``ssm_scan``) share this module's numpy
kernels: ``_stable_sigmoid`` and the SiLU kernel ``_silu``, which under
``no_grad`` works in fixed-size blocks and keeps no full-size sigmoid.
``ROW_BLOCK`` sizes the row blocks of the MoE experts and the PKM read
under ``no_grad``. ``gated_add`` is the model's gated residual
``x + g * p`` as one op; when not recorded it writes into p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """An op produced NaN/Inf, or a parameter received a non-finite gradient."""


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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# op plumbing

def _op_error(cls, msg: str) -> Exception:
    """The error (``ShapeError``, ``UsageError`` or ``NumericError``) of a
    failed op. Clears the tape, so the ops the failed forward recorded
    cannot reach a later backward."""
    _TAPE.clear()
    return cls(msg)


def _check_finite(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        raise _op_error(NumericError, f"op '{name}' produced non-finite values")


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
        raise _op_error(ShapeError,
                        f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# binary elementwise

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make_output(out, (a, b), bwd, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make_output(out, (a, b), bwd, "mul")


def gated_add(x, g, p) -> Tensor:
    """``x + g * p`` as one op: the residual of a gated path.

    The value and the gradients equal those of ``add(x, mul(g, p))`` bit
    for bit, but the op makes one array, not two, and its backward keeps
    no product. A call that is not recorded consumes p: it writes the sum
    into p's buffer when that buffer has the output's shape, is writeable
    and does not overlap x, so it allocates nothing. Pass a path output
    that nothing reads afterwards, or a copy.
    """
    x, g, p = as_tensor(x), as_tensor(g), as_tensor(p)
    xd, gd, pd = x.data, g.data, p.data
    gp_shape = _broadcast_shape(g, p, "gated_add")
    try:
        shape = np.broadcast_shapes(xd.shape, gp_shape)
    except ValueError:
        raise _op_error(ShapeError, f"gated_add: x {xd.shape} and g * p {gp_shape} do not broadcast") from None
    recorded = _GRAD_ENABLED and (x.requires_grad or g.requires_grad or p.requires_grad)
    in_place = (not recorded and pd.shape == shape and pd.flags.writeable
                and not np.may_share_memory(pd, xd))
    out = np.multiply(gd, pd, out=pd if in_place else np.empty(shape))
    out += xd           # x + gp and gp + x round alike

    def bwd(grad):
        gm = _unbroadcast(grad, gp_shape)
        return _unbroadcast(grad, xd.shape), _unbroadcast(gm * pd, gd.shape), _unbroadcast(gm * gd, pd.shape)

    return _make_output(out, (x, g, p), bwd, "gated_add")


# ---------------------------------------------------------------------------
# unary elementwise

def _stable_sigmoid(xd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # e = 1 / (1 + exp(-|x|)) lies in [0.5, 1], and exp(-|x|) <= 1 cannot
    # overflow. 0.5 + copysign(e - 0.5, x) then gives e, or 1 - e for
    # x < 0, with no rounding: e - 0.5 and 1 - e are exact there (Sterbenz).
    # One buffer (``out``, or a new one) and no mask; a masked subtract was
    # slower than all the rest.
    e = np.copysign(xd, -1.0, out=np.empty(xd.shape) if out is None else out)
    np.exp(e, out=e)
    e += 1.0
    np.divide(1.0, e, out=e)
    e -= 0.5
    np.copysign(e, xd, out=e)
    e += 0.5
    return e


#: elements per block of the SiLU kernel when it keeps no sigmoid: its one
#: sigmoid buffer (256 KiB) stays this size, and stays in cache
SILU_CHUNK = 1 << 15
#: most rows per block of the row-blocked forwards under ``no_grad`` (the
#: MoE experts and the PKM read's row buffer): 4 MiB at 256 float64 columns
ROW_BLOCK = 2048


def _silu(x: np.ndarray, out: np.ndarray, keep: bool = False):
    """The SiLU kernel: ``out = x * sigmoid(x)``, where ``out`` may be ``x``.

    Returns ``(out, s)``. With ``keep`` the full sigmoid ``s`` is made and
    returned, for a backward rule; without it the sigmoid is computed
    ``SILU_CHUNK`` elements at a time into one block-sized buffer and
    ``s`` is None. Both give the same bits as ``x * _stable_sigmoid(x)``.
    ``x`` and ``out`` are C-contiguous and of one shape.
    """
    if keep:
        s = _stable_sigmoid(x)
        return np.multiply(x, s, out=out), s
    xf, of = x.reshape(-1), out.reshape(-1)
    buf = np.empty(min(SILU_CHUNK, xf.size))
    for i in range(0, xf.size, SILU_CHUNK):
        xc = xf[i:i + SILU_CHUNK]
        np.multiply(xc, _stable_sigmoid(xc, out=buf[:xc.size]), out=of[i:i + SILU_CHUNK])
    return out, None


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _stable_sigmoid(x.data)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _make_output(s, (x,), bwd, "sigmoid")


def silu(x) -> Tensor:
    x = as_tensor(x)
    xd = np.ascontiguousarray(x.data)
    out, s = _silu(xd, np.empty(xd.shape), keep=_GRAD_ENABLED and x.requires_grad)

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
        raise _op_error(ShapeError, "matmul operands must have ndim >= 2")
    if ad.shape[-1] != bd.shape[-2]:
        raise _op_error(ShapeError, f"matmul: inner dims {ad.shape[-1]} != {bd.shape[-2]}")

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
        raise _op_error(ShapeError,
                        f"matmul: batch dims {ad.shape[:-2]} vs {bd.shape[:-2]} incompatible") from None

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
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise _op_error(ShapeError, f"reshape: cannot reshape {old} to {shape}") from None

    def bwd(g):
        return (g.reshape(old),)

    return _make_output(out, (x,), bwd, "reshape")


def transpose(x, axes=None) -> Tensor:
    x = as_tensor(x)
    try:
        out = np.transpose(x.data, axes)
    except ValueError:      # numpy's AxisError, or axes of the wrong length
        raise _op_error(ShapeError, f"transpose: axes {axes} do not fit shape {x.data.shape}") from None
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make_output(out, (x,), bwd, "transpose")


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise _op_error(ShapeError, f"concat: shapes {[t.data.shape for t in tensors]} do not join") from None
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make_output(out, tuple(tensors), bwd, "concat")


def getitem(x, key) -> Tensor:
    """Basic indexing (ints, slices, ellipsis). For fancy gathers use
    gather_rows / take_along_last."""
    x = as_tensor(x)
    try:
        out = x.data[key]
    except IndexError:
        raise _op_error(ShapeError, f"getitem: key {key!r} out of range for shape {x.data.shape}") from None
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
        raise _op_error(ShapeError, "gather_rows: index out of range")
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
        raise _op_error(ShapeError, "gather_rows_batched: expects x [B,N,...] and idx [B,P]")
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
    try:
        out = np.take_along_axis(x.data, idx, axis=-1)
    except IndexError:
        raise _op_error(ShapeError, f"take_along_last: index out of range for shape {x.data.shape}") from None
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


def cross_entropy(logits, targets, mask) -> Tensor:
    """Mean next-token cross-entropy over the positions ``mask`` weights:
    ``-sum(mask * log_softmax(logits)[targets]) / sum(mask)``, as one op.

    The forward uses one [..., V] buffer. Only when the op is recorded is
    that buffer turned into the probabilities ``p``, the one array kept;
    the backward rule writes the logits gradient ``(p - onehot) * mask/n``
    into ``p`` in place. The float operations and their order are those of
    ``log_softmax``, a target gather, a masked sum and a scale by ``-1/n``,
    so the loss and the gradient equal that chain's bit for bit.
    """
    x = as_tensor(logits)
    xd = x.data
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask)
    n = float(mask.sum())
    if n == 0:
        raise _op_error(UsageError, "cross_entropy: mask selects no positions")
    m = xd.max(axis=-1, keepdims=True)
    buf = xd - m
    try:
        picked = np.take_along_axis(buf, targets[..., None], axis=-1)
    except (IndexError, ValueError):
        raise _op_error(ShapeError,
                        f"cross_entropy: targets {targets.shape} do not index logits {xd.shape}") from None
    np.exp(buf, out=buf)
    lse = np.log(buf.sum(axis=-1, keepdims=True))
    picked -= lse
    maskf = mask.astype(float)
    loss = np.asarray((picked.reshape(targets.shape) * maskf).sum() * (-1.0 / n))

    p = None
    if _GRAD_ENABLED and x.requires_grad:
        p = np.subtract(xd, m, out=buf)
        p -= lse
        np.exp(p, out=p)

    def bwd(g):
        c = (g * (1.0 / n)) * maskf
        np.multiply(p, c[..., None], out=p)
        p[(*np.indices(targets.shape, sparse=True), targets)] -= c
        return (p,)

    return _make_output(loss, (x,), bwd, "cross_entropy")


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then
    apply the affine (gain, bias), which must broadcast to x's shape.

    The forward makes two full-size arrays: the centred input, which
    becomes ``xhat`` in place, and its square, which becomes the output.
    """
    if eps <= 0:
        raise _op_error(UsageError, "layer_norm: eps must be positive")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd = x.data
    try:
        fits = np.broadcast_shapes(xd.shape, gain.data.shape, bias.data.shape) == xd.shape
    except ValueError:
        fits = False
    if not fits:
        raise _op_error(ShapeError, f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} "
                                    f"do not broadcast to {xd.shape}")
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    sq = xc * xc
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    out = np.multiply(xhat, gain.data, out=sq)
    out += bias.data
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
    contributed to the loss. Each op leaves the tape as its rule is about
    to run, so its closure and the arrays it saved are freed as the sweep
    moves on rather than at its end. The tape is empty afterwards, also
    when a backward rule raises.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError("backward expects a scalar loss")
    try:
        # grad_map values are (array, owned); in-place accumulation only on
        # arrays this sweep allocated, since backward rules may alias inputs
        grad_map: dict[int, list] = {loss.node_id: [np.ones_like(loss.data), True]}
        while _TAPE:
            op = _TAPE.pop()
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

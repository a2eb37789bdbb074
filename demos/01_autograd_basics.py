"""A tour of the tensor engine: forward ops, the tape, and gradients.

Run:  python demos/01_autograd_basics.py
"""

import numpy as np

from hydra_lab import tensor as T
from hydra_lab.tensor import Tensor, backward, grad_check, no_grad

# Tensors are float64 numpy buffers; ops record themselves on a tape.
x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
w = Tensor(np.eye(2), requires_grad=True)

y = T.tsum(T.silu(T.matmul(x, w)))
print("forward value:", y.item())
print("ops recorded on the tape:", T.tape_size())

# backward() replays the tape in reverse and fills .grad on the leaves.
backward(y)
print("x.grad:\n", x.grad)
print("w.grad:\n", w.grad)

# The numerical oracle used throughout the test suite: central
# finite differences vs the autodiff gradient.
x2 = Tensor(np.random.default_rng(0).uniform(-2, 2, size=(3, 3)), requires_grad=True)
report = grad_check(lambda t: T.tsum(T.softmax(t, axis=-1) * t), x2, h=1e-5, tol=1e-5)
print(f"grad check: max rel err {report.max_rel_err:.2e} over {report.n_checked} coords "
      f"-> {'ok' if report.passed else 'FAIL'}")

# Overflow is an error, not a silent inf (every op checks its output):
try:
    with np.errstate(over="ignore"):
        T.mul(Tensor([1e308]), 10.0)
except T.NumericError as e:
    print("overflow raises:", e)

# no_grad() turns the tape off for cheap inference:
with no_grad():
    _ = T.matmul(x, w)
print("tape after no_grad block:", T.tape_size())

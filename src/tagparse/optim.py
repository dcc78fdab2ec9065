"""Adam (Kingma & Ba 2015), with the moments kept as unnormalised float32 sums.

The textbook recurrence at step t, for gradient g, is

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

`adam_step` keeps s = m / (1-b1) and q = v / (1-b2) instead:

    s <- b1 s + g;  q <- b2 q + g^2
    p <- p - step * s / (sqrt(q) + eps_q)

with the bias corrections and eps folded into two scalars per step,

    step  = lr * (1-b1) / (1-b1^t) * sqrt((1-b2^t) / (1-b2))
    eps_q = eps * sqrt((1-b2^t) / (1-b2))

Precision. The parameters and gradients stay float64 (the master weights
of Micikevicius et al. 2018, "Mixed Precision Training"); s and q are
float32, which halves the optimizer's memory. Each chunk's gradient is cast
once into a float32 scratch buffer, both sums and the step are computed in
float32, and the step is subtracted from the float64 parameter. That is
fifteen elementwise passes per value: the ten of the sums form, the cast,
and four for the guards below.

Guards. A value whose gradient stays zero decays geometrically, and after
about 800 steps (at b1 = 0.9, for gradients near 1) its float32 first
moment would be subnormal; every pass over subnormals runs several times
slower on x86. So |s| below S_MIN is flushed to 0, by multiplying s with
the comparison |s| >= S_MIN (a masked write would branch on the data and
slow down once the mask mixes), and q is floored at Q_MIN. Both sit far
enough above float32's smallest normal number, 2^-126, that b1 s and b2 q
stay normal, and so does the step's quotient while sqrt(q) < 2^26. A first
moment below S_MIN moves a parameter by at most lr / eps * S_MIN a step,
8e-25 at lr 0.01 and eps 1e-8; Q_MIN's square root is 8.7e-19, below
eps_q >= eps by a factor of 1e10 at eps 1e-8.

Overflow. A gradient whose float32 cast or square overflows, or that would
carry q past float32's range, raises FloatingPointError naming the
parameter before that chunk's moments are written; earlier chunks and
parameters keep this step's update. A float64 gradient norm cannot catch
this: |g| > 1.8e19 squares past float32 with a finite float64 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor

__all__ = ["AdamState", "adam_step"]

# values per pass. A chunk spans the float64 parameter and gradient, the
# float32 s and q and three float32 scratch buffers: 36 bytes a value,
# 1.2 MB at 32,768, inside a 2 MB L2. Median step at the paper's sizes
# (9.78M values, one thread, median of 15 steps, six rounds alternating the
# sizes on a shared 2-core Xeon): 58.7-79.9 ms at 16K, 57.6-76.5 at 32K,
# 57.0-67.7 at 64K and 59.0-69.8 at 128K, against 66.2-74.7 ms at 32K and
# 67.7-71.5 at 64K for float64 moments. 32K and 64K cannot be told apart
# there; 32K is the size whose operands fit in L2.
CHUNK = 32_768
S_MIN = np.float32(2.0**-100)
Q_MIN = np.float32(2.0**-120)


@dataclass
class AdamState:
    """Hyperparameters, the step counter and the per-parameter moment sums.

    `s[name]` holds m / (1-b1) and `q[name]` holds v / (1-b2), where m and
    v are the textbook first and second moments (see the module docstring),
    as float32 arrays of the parameter's shape: |s| is 0 or at least S_MIN,
    and q is at least Q_MIN.
    """

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    s: dict = field(default_factory=dict)
    q: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """Update `params` in place from `grads`; returns `params`.

    Each tensor is updated in chunks of CHUNK values through chunk-sized
    float32 scratch buffers, so a step allocates no full-size temporary.
    Raises FloatingPointError when a gradient overflows float32 moments.
    """
    state.t += 1
    root_bc2 = math.sqrt((1.0 - state.beta2**state.t) / (1.0 - state.beta2))
    step = np.float32(state.lr * (1.0 - state.beta1) / (1.0 - state.beta1**state.t) * root_bc2)
    eps_q = np.float32(state.eps * root_bc2)
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    scratch = np.empty((3, CHUNK), np.float32)
    for name, p in params.items():
        grad = grads.get(name)
        if grad is None:
            continue
        value = p.value if isinstance(p, Tensor) else p
        if grad.shape != value.shape:
            raise ShapeError(f"adam_step: param {name} shape {value.shape} vs grad {grad.shape}")
        if name not in state.s:
            state.s[name] = np.zeros(value.shape, np.float32)
            state.q[name] = np.zeros(value.shape, np.float32)
        flat = value.reshape(-1)  # a view unless `value` is strided
        gs, ss, qs = grad.reshape(-1), state.s[name].reshape(-1), state.q[name].reshape(-1)
        for lo in range(0, flat.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            x, g, s, q = flat[part], gs[part], ss[part], qs[part]
            a, b, c = scratch[:, : x.size]
            try:
                with np.errstate(over="raise"):
                    np.copyto(a, g, casting="same_kind")
                    np.multiply(a, a, out=b)
                    np.multiply(q, b2, out=c)
                    c += b
            except FloatingPointError as e:
                raise FloatingPointError(
                    f"adam_step: the gradient of {name} overflows its float32 moments "
                    f"(largest |g| {float(np.abs(grad).max()):.3g}): {e}") from None
            np.maximum(c, Q_MIN, out=q)
            s *= b1
            s += a
            np.abs(s, out=b)
            np.greater_equal(b, S_MIN, out=b)  # 1.0 keeps s, 0.0 flushes it
            s *= b
            np.sqrt(q, out=b)
            b += eps_q
            np.divide(s, b, out=b)
            b *= step
            x -= b
        if not value.flags.c_contiguous:
            value[...] = flat.reshape(value.shape)
    return params

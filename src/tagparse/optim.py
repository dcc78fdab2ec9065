"""Adam (Kingma & Ba 2015), with the moments kept as unnormalised sums.

The textbook recurrence at step t, for gradient g, is

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

`adam_step` keeps s = m / (1-b1) and q = v / (1-b2) instead:

    s <- b1 s + g;  q <- b2 q + g^2
    p <- p - step * s / (sqrt(q) + eps_q)

with the bias corrections and eps folded into two scalars per step,

    step  = lr * (1-b1) / (1-b1^t) * sqrt((1-b2^t) / (1-b2))
    eps_q = eps * sqrt((1-b2^t) / (1-b2))

This is the textbook update in real arithmetic; only rounding differs. It
takes ten elementwise passes per value where the textbook form takes
fourteen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor

__all__ = ["AdamState", "adam_step"]

CHUNK = 65_536  # values per pass: a chunk of each operand and the scratch buffer stay in cache


@dataclass
class AdamState:
    """Hyperparameters, the step counter and the per-parameter moment sums.

    `s[name]` holds m / (1-b1) and `q[name]` holds v / (1-b2), where m and
    v are the textbook first and second moments (see the module docstring).
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

    Each tensor is updated in chunks of CHUNK values through one chunk-sized
    scratch buffer, so a step allocates no full-size temporary.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    root_bc2 = math.sqrt((1.0 - b2**state.t) / (1.0 - b2))
    step = state.lr * (1.0 - b1) / (1.0 - b1**state.t) * root_bc2
    eps_q = state.eps * root_bc2
    scratch = np.empty(CHUNK)
    for name, p in params.items():
        grad = grads.get(name)
        if grad is None:
            continue
        value = p.value if isinstance(p, Tensor) else p
        if grad.shape != value.shape:
            raise ShapeError(f"adam_step: param {name} shape {value.shape} vs grad {grad.shape}")
        if name not in state.s:
            state.s[name] = np.zeros(value.shape, value.dtype)
            state.q[name] = np.zeros(value.shape, value.dtype)
        flat = value.reshape(-1)  # a view unless `value` is strided
        gs, ss, qs = grad.reshape(-1), state.s[name].reshape(-1), state.q[name].reshape(-1)
        for lo in range(0, flat.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            x, g, s, q = flat[part], gs[part], ss[part], qs[part]
            a = scratch[: x.size]
            s *= b1
            s += g
            q *= b2
            np.multiply(g, g, out=a)
            q += a
            np.sqrt(q, out=a)
            a += eps_q
            np.divide(s, a, out=a)
            a *= step
            x -= a
        if not value.flags.c_contiguous:
            value[...] = flat.reshape(value.shape)
    return params

"""Adam optimizer with the standard bias-corrected moment recurrence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor

__all__ = ["AdamState", "adam_step"]

CHUNK = 65_536  # values per pass: a chunk of each operand and both scratch buffers stay in cache


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """Update `params` in place from `grads`; returns `params`.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    Each tensor is updated in chunks of CHUNK values through two chunk-sized
    scratch buffers, so a step allocates no full-size temporary. Every value
    goes through the same operations in the same order as the one-line
    expressions above, so the results are bit-identical to them.
    """
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    scratch = np.empty((2, CHUNK))
    for name, p in params.items():
        grad = grads.get(name)
        if grad is None:
            continue
        value = p.value if isinstance(p, Tensor) else p
        if grad.shape != value.shape:
            raise ShapeError(f"adam_step: param {name} shape {value.shape} vs grad {grad.shape}")
        if name not in state.m:
            state.m[name] = np.zeros(value.shape, value.dtype)
            state.v[name] = np.zeros(value.shape, value.dtype)
        flat = value.reshape(-1)  # a view unless `value` is strided
        gs, ms, vs = grad.reshape(-1), state.m[name].reshape(-1), state.v[name].reshape(-1)
        for lo in range(0, flat.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            x, g, m, v = flat[part], gs[part], ms[part], vs[part]
            a, b = scratch[0, : x.size], scratch[1, : x.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, bc1, out=a)
            a *= lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            x -= a
        if not value.flags.c_contiguous:
            value[...] = flat.reshape(value.shape)
    return params

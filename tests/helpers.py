"""Shared test utilities: independent finite-difference oracle, error norms and
tape size."""

import numpy as np


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x, element by element."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def rel_err(analytic, numeric):
    """Max elementwise |a-n| / max(|a|, |n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def tape_nodes(root):
    """Number of distinct tape nodes reachable from `root` through parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)

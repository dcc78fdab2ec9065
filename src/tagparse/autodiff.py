"""Dense float tensors with reverse-mode automatic differentiation.

Every `Tensor` holds a numpy float64 array, or a float32 one when it is
given float32 (any other dtype is cast to float64), and doubles as a node
of the computation tape: it records the op that produced it, references
to its parents, and a closure that maps its gradient to theirs. The tape
is an implicit DAG; `backward` walks it exactly once in reverse
topological order.

Tape lifetime. A closure holds what its backward needs (operands, cached
activations; the LSTM op's whole BPTT cache), so it is released as soon
as it has run: once an interior node (one with parents) has passed its
gradient on, `backward` drops the node's closure and its `.grad`. Each
node keeps its `.value` and `parents`, so outputs stay readable and the
graph stays walkable, but it cannot be differentiated through again: a
second `backward` that reaches it raises RuntimeError naming its op.
Leaves (parameters, constants), and any tensor passed to `gradients` or
named in `backward(keep=...)`, keep their gradients.

`no_grad()` switches recording off: inside it every new tensor is a leaf,
with no parents and no closure, so a forward pass builds no tape at all
and each op's saved arrays die with the op. The switch holds for the
calling thread only and is restored on exit, also when an exception
leaves the block.

Non-differentiable inputs (index arrays, dropout masks, class targets)
are passed as plain numpy arrays, never as tape nodes.

Each op computes in its operands' dtype (a dropout mask takes its
operand's), and so must every constant a caller adds in: numpy would
silently promote a float32 operand that meets a float64 array. Training
and the gradient checks run in float64, only Adam's moments are float32
(`optim`); float32 serves forward passes under `no_grad`.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "as_tensor",
    "parameter",
    "add",
    "mul",
    "matmul",
    "linear",
    "transpose",
    "reshape",
    "concat",
    "slice_axis",
    "sigmoid_array",
    "relu",
    "max_over_axis",
    "embedding_lookup",
    "conv1d",
    "dropout_with_mask",
    "cross_entropy_with_logits",
    "reduce_sum",
    "backward",
    "gradients",
    "zero_grads",
    "no_grad",
    "is_grad_enabled",
]


class _Recording(threading.local):
    on = True  # whether new tensors of this thread record parents and a closure


_recording = _Recording()


class ShapeError(ValueError):
    """Operand shapes do not conform; the message names both shapes."""


class Tensor:
    __slots__ = ("value", "parents", "op", "grad", "_backward", "__weakref__")

    def __init__(self, value, *, parents=(), op="leaf", backward=None):
        arr = np.asarray(value)
        if arr.dtype != np.float64 and arr.dtype != np.float32:
            arr = arr.astype(np.float64)
        self.value = arr
        self.op = op
        self.grad = None
        if _recording.on:
            self.parents = tuple(parents)
            self._backward = backward
        else:
            self.parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: new tensors have no parents or closure."""
    saved, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = saved


def is_grad_enabled() -> bool:
    """False inside `no_grad` on this thread."""
    return _recording.on


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def parameter(value) -> Tensor:
    """A leaf tensor meant to receive gradients and optimizer updates."""
    return Tensor(value, op="param")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.value + b.value
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, parents=(a, b), op="add", backward=bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.value * b.value
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        return _unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)

    return Tensor(out, parents=(a, b), op="mul", backward=bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[n, k] @ [k, m], or [B, n, k] @ [B, k, m] with equal leading dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    ndim = a.value.ndim
    if (ndim not in (2, 3) or b.value.ndim != ndim or a.shape[-1] != b.shape[-2]
            or a.shape[:-2] != b.shape[:-2]):
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.value @ b.value

    def bwd(g):
        return g @ np.swapaxes(b.value, -1, -2), np.swapaxes(a.value, -1, -2) @ g

    return Tensor(out, parents=(a, b), op="matmul", backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Rows [N, d] through a layer: x @ W.T (+ b), W [n, d] and b [n].

    The backward returns dW as g.T @ x, so it is C-ordered like W.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[1] or (
            b is not None and b.shape != w.shape[:1]):
        shapes = (x.shape, w.shape) + (() if b is None else (b.shape,))
        raise ShapeError(f"linear: shapes {shapes} do not conform")
    out = x.value @ w.value.T
    if b is not None:
        out += b.value

    def bwd(g):
        return (g @ w.value, g.T @ x.value) + (() if b is None else (g.sum(axis=0),))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor(out, parents=parents, op="linear", backward=bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.value, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return Tensor(out, parents=(a,), op="transpose", backward=bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.value.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {tuple(shape)}") from None

    def bwd(g):
        return (g.reshape(a.shape),)

    return Tensor(out, parents=(a,), op="reshape", backward=bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.value for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat: shapes {shapes} do not conform along axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, parents=tuple(tensors), op="concat", backward=bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis; keeps rank."""
    a = as_tensor(a)
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.value[idx]

    def bwd(g):
        full = np.zeros_like(a.value)
        full[idx] = g
        return (full,)

    return Tensor(out, parents=(a,), op="slice", backward=bwd)


def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of a numpy array, the one every sigmoid uses.

    Four passes, 1/(1+e^-x), written into `out` when given (which may be
    `x` itself). Below about -709, e^-x overflows to inf and the result is
    the limit 0; that overflow is expected and raises no warning.
    """
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.value, 0.0)

    def bwd(g):
        return (g * (a.value > 0.0),)

    return Tensor(out, parents=(a,), op="relu", backward=bwd)


def max_over_axis(a: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; ties route the gradient to the first maximum."""
    a = as_tensor(a)
    out = np.max(a.value, axis=axis)
    arg = np.argmax(a.value, axis=axis)

    def bwd(g):
        full = np.zeros_like(a.value)
        idx = list(np.indices(out.shape))
        idx.insert(axis, arg)
        full[tuple(idx)] = g
        return (full,)

    return Tensor(out, parents=(a,), op="max", backward=bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table; ids may have any shape."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding_lookup: table shape {table.shape} is not 2-D")
    out = table.value[ids]

    def bwd(g):
        full = np.zeros_like(table.value)
        rows, g = ids.reshape(-1) % table.shape[0], g.reshape(-1, table.shape[1])
        if np.bincount(rows).max(initial=0) <= 1:
            full[rows] = g  # no row repeats, so there is nothing to accumulate
        else:
            np.add.at(full, rows, g)
        return (full,)

    return Tensor(out, parents=(table,), op="embedding", backward=bwd)


def conv1d(x: Tensor, filters: Tensor) -> Tensor:
    """Valid 1-D convolution: x [..., T, Cin], filters [W, Cin, Cout] -> [..., T-W+1, Cout].

    Leading dimensions of x are a batch of independent sequences. Any
    padding is the caller's responsibility.
    """
    x, filters = as_tensor(x), as_tensor(filters)
    if x.value.ndim < 2 or filters.value.ndim != 3 or x.shape[-1] != filters.shape[1]:
        raise ShapeError(f"conv1d: shapes {x.shape} and {filters.shape} do not conform")
    width, c_in = filters.shape[0], x.shape[-1]
    t_out = x.shape[-2] - width + 1
    if t_out < 1:
        raise ShapeError(f"conv1d: input {x.shape} shorter than filter width {width}")
    lead = x.shape[:-2]
    fmat = filters.value.reshape(width * c_in, -1)
    # [..., t_out, W, Cin] -> one row per output position
    windows = np.stack([x.value[..., w : w + t_out, :] for w in range(width)], axis=-2)
    rows = windows.reshape(-1, width * c_in)
    out = (rows @ fmat).reshape(lead + (t_out, fmat.shape[1]))

    def bwd(g):
        g = g.reshape(-1, fmat.shape[1])
        gw = (g @ fmat.T).reshape(lead + (t_out, width, c_in))
        gx = np.zeros_like(x.value)
        for w in range(width):
            gx[..., w : w + t_out, :] += gw[..., w, :]
        gf = (rows.T @ g).reshape(filters.shape)
        return gx, gf

    return Tensor(out, parents=(x, filters), op="conv1d", backward=bwd)


def dropout_with_mask(x: Tensor, mask) -> Tensor:
    """Multiply by a fixed mask (inverted-dropout scaling baked into the mask)."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=x.value.dtype)
    try:
        out = x.value * mask
    except ValueError:
        raise ShapeError(f"dropout: shapes {x.shape} and {mask.shape} do not broadcast") from None

    def bwd(g):
        return (_unbroadcast(g * mask, x.shape),)

    return Tensor(out, parents=(x,), op="dropout", backward=bwd)


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Row-wise logsumexp(logits) - logits[target]; logits [N, C], targets [N] ints."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.value.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs targets {targets.shape} do not conform"
        )
    z = logits.value
    zmax = np.max(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    rows = np.arange(z.shape[0])
    out = lse - z[rows, targets]

    def bwd(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, targets] -= 1.0
        return (p * g[:, None],)

    return Tensor(out, parents=(logits,), op="cross_entropy", backward=bwd)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.value, axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor(out, parents=(a,), op="sum", backward=bwd)


def _toposort(root: Tensor) -> list:
    """Iterative DFS postorder; each node appears exactly once."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, keep=()) -> None:
    """Store d(loss)/d(node) in `.grad` of the leaves reachable from loss.

    `loss` must be a scalar. Existing grads on reachable nodes are overwritten,
    but a tensor the loss does not reach keeps its old grad: use `gradients`,
    which clears its parameters first, or call `zero_grads`. Interior nodes
    release their closure and gradient once it has reached their parents;
    those in `keep` keep the gradient. Raises RuntimeError if a reachable
    node was released by an earlier backward.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    for node in reversed(order):
        if node.parents and node._backward is None:
            raise RuntimeError(f"backward: the {node.op!r} node was already differentiated"
                               " through, and its tape was released")
    for node in order:
        node.grad = None
    kept = {id(t) for t in keep}
    loss.grad = np.ones(())
    for node in reversed(order):
        fn, node._backward = node._backward, None
        if fn is None:
            continue
        if node.grad is not None:
            for parent, g in zip(node.parents, fn(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        if id(node) not in kept:
            node.grad = None


def gradients(loss: Tensor, params) -> dict:
    """Run backward and return a grad per named tensor, zeros if unreachable."""
    zero_grads(params)
    backward(loss, keep=params.values())
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.value))
        for name, p in params.items()
    }


def zero_grads(params) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None

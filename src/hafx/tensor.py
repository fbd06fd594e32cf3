"""Dense float64 tensors with tape-based reverse-mode autodiff.

The graph doubles as the tape: each op records its parents and a backward
rule on the output node, and ``backward`` replays the recorded nodes once in
reverse topological order. Everything is computed in float64; checkpoints
may downcast to float32 on disk.

A NaN/Inf guard aborts any forward op whose output is not finite, so
silent divergence cannot leak into diagnostics.
"""

import numpy as np

from .errors import ContractError, NonFiniteError, ShapeError


def _check_finite(arr, op_name):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by op '{op_name}'")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Row-major float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data, parents, backward_fn, op_name):
        _check_finite(data, op_name)
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        other = Tensor._coerce(other)

        def bw(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._op(self.data + other.data, (self, other), bw, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)

        def bw(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._op(self.data - other.data, (self, other), bw, "sub")

    def __neg__(self):
        return Tensor._op(-self.data, (self,), lambda g: (-g,), "neg")

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def bw(g):
            return (
                _unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape),
            )

        return Tensor._op(a.data * b.data, (a, b), bw, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def bw(g):
            return (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            )

        return Tensor._op(a.data / b.data, (a, b), bw, "div")

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(
                f"matmul inner dims disagree: {a.shape} @ {b.shape}"
            )

        def bw(g):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return Tensor._op(np.matmul(a.data, b.data), (a, b), bw, "matmul")

    def pow(self, p):
        x = self

        def bw(g):
            return (g * p * np.power(x.data, p - 1),)

        return Tensor._op(np.power(x.data, p), (x,), bw, "pow")

    def sqrt(self):
        return self.pow(0.5)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        x = self

        def bw(g):
            return (g * out_data,)

        return Tensor._op(out_data, (x,), bw, "exp")

    def log(self):
        x = self

        def bw(g):
            return (g / x.data,)

        return Tensor._op(np.log(x.data), (x,), bw, "log")

    def tanh(self):
        out_data = np.tanh(self.data)
        x = self

        def bw(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._op(out_data, (x,), bw, "tanh")

    def relu(self):
        x = self

        def bw(g):
            return (g * (x.data > 0),)

        return Tensor._op(np.maximum(x.data, 0.0), (x,), bw, "relu")

    def elu(self):
        x = self
        neg = np.expm1(np.minimum(x.data, 0.0))
        out_data = np.where(x.data > 0, x.data, neg)

        def bw(g):
            return (g * np.where(x.data > 0, 1.0, neg + 1.0),)

        return Tensor._op(out_data, (x,), bw, "elu")

    def clamp_min(self, lo):
        x = self
        mask = x.data >= lo

        def bw(g):
            return (g * mask,)

        return Tensor._op(np.maximum(x.data, lo), (x,), bw, "clamp_min")

    # -- shape ops -------------------------------------------------------------

    def swapaxes(self, a, b):
        x = self

        def bw(g):
            return (np.swapaxes(g, a, b),)

        return Tensor._op(np.swapaxes(x.data, a, b), (x,), bw, "swapaxes")

    def __getitem__(self, idx):
        x = self

        def bw(g):
            full = np.zeros_like(x.data)
            full[idx] += g
            return (full,)

        return Tensor._op(x.data[idx], (x,), bw, "getitem")

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        x = self

        def bw(g):
            if axis is None:
                return (np.broadcast_to(g, x.shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, x.shape).copy(),)

        return Tensor._op(x.data.sum(axis=axis, keepdims=keepdims), (x,), bw, "sum")

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[a] for a in axis]))
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- backward ----------------------------------------------------------------

    def backward(self):
        """Reverse sweep from a scalar loss; accumulates .grad on the graph."""
        if self.size != 1:
            raise ContractError("backward requires a scalar loss tensor")
        order = _topo_order(self)
        # Interior nodes get fresh grads per sweep; leaf parameters
        # accumulate across sweeps (explicit gradient accumulation).
        for node in order:
            if node._backward_fn is not None:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if parent.requires_grad and g is not None:
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.data)
                    parent.grad += g


def _topo_order(root):
    """Iterative post-order over requires_grad nodes; each visited once."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in visited:
            continue
        if expanded:
            visited.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    return order


# -- free-function ops ------------------------------------------------------------


def concat(tensors, axis=0):
    tensors = [Tensor._coerce(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._op(data, tuple(tensors), bw, "concat")


def row_softmax(x):
    """Numerically stabilised softmax over the last axis."""
    x = Tensor._coerce(x)
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError("row_softmax requires a non-empty last axis")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._op(out_data, (x,), bw, "row_softmax")


def logsumexp(x, axis=-1):
    x = Tensor._coerce(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)
    soft = e / s

    def bw(g):
        return (np.expand_dims(g, axis) * soft,)

    return Tensor._op(out_data, (x,), bw, "logsumexp")


def embedding(weight, idx):
    """Row gather weight[idx]; backward scatter-adds into the table."""
    weight = Tensor._coerce(weight)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._op(weight.data[idx], (weight,), bw, "embedding")


def take_along_last(x, idx):
    """x[..., idx] picked per-row along the last axis (for target logits)."""
    x = Tensor._coerce(x)
    idx = np.asarray(idx, dtype=np.int64)
    expanded = np.expand_dims(idx, -1)

    def bw(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        return (full,)

    return Tensor._op(
        np.take_along_axis(x.data, expanded, axis=-1).squeeze(-1), (x,), bw, "take_along_last"
    )


def gelu(x):
    """tanh-approximation GELU, composed from primitives."""
    x = Tensor._coerce(x)
    c = float(np.sqrt(2.0 / np.pi))
    return x * 0.5 * ((c * (x + 0.044715 * x.pow(3))).tanh() + 1.0)


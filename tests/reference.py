"""Test-only reference forms the fast kernels and the backward sweep are
held to, and the finite-difference gradient check."""

import numpy as np

from hafx.attention import LA_EPS, linear_attention
from hafx.errors import ContractError
from hafx.tensor import Tensor, _topo_order


def causal_mult_mask(T):
    """0/1 causal mask: query t sees the keys i <= t."""
    return np.tril(np.ones((T, T)))


def linear_attention_quadratic_oracle(phi_q, phi_k, v, eps=LA_EPS):
    """Causal linear attention over the explicit T x T kernel matrix (plain
    numpy)."""
    phi_q = np.asarray(phi_q, dtype=np.float64)
    phi_k = np.asarray(phi_k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    T = phi_q.shape[0]
    kernel = (phi_q @ phi_k.T) * causal_mult_mask(T)
    den = kernel.sum(axis=-1, keepdims=True)
    den = np.maximum(den, eps)
    return (kernel @ v) / den


def linear_attention_np(phi_q, phi_k, v):
    """`linear_attention` with lag 0 on numpy arrays: (out, clamp count)."""
    clamps = []
    out = linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v), clamps=clamps)
    return out.data, sum(clamps)


def finite_diff_check(f, x, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor and must be deterministic. Relative
    error uses |analytic - numeric| / (|numeric| + 1e-8) per element.
    """
    if step <= 0:
        raise ContractError("finite_diff_check requires step > 0")
    x0 = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    xt = Tensor(x0.copy(), requires_grad=True)
    out = f(xt)
    out.backward()
    analytic = xt.grad.copy() if xt.grad is not None else np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(Tensor(x0.copy())).data)
        flat[i] = orig - step
        fm = float(f(Tensor(x0.copy())).data)
        flat[i] = orig
        numeric.reshape(-1)[i] = (fp - fm) / (2.0 * step)

    err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(err.max()) if err.size else 0.0


def backward_zero_fill(loss):
    """`Tensor.backward` with a zero-filled gradient on every interior node,
    which each incoming gradient is added into in place and which outlives
    the sweep."""
    order = _topo_order(loss)
    for node in order:
        if node._backward_fn is not None:
            node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is None:
            continue
        grads = node._backward_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if parent.requires_grad and g is not None:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g

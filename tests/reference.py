"""Test-only reference forms the fast kernels are held to."""

import numpy as np

from hafx.attention import LA_EPS


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

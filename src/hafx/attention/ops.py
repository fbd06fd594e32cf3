"""Differentiable attention kernels: causal softmax, sliding-window softmax,
attention sinks, feature-mapped linear attention, RoPE, and the hybrid
combiner with its ablation modes.

All kernels take tensors shaped (..., T, d) and are pure functions, so
batched/multi-head evaluation is just broadcasting. Linear attention has one
kernel, the chunkwise O(T) `linear_attention`; the masked kernel-matrix form
and the numpy oracles below are references it is held to.
"""

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..tensor import Tensor, concat, row_softmax

MASK_NEG = -1e30  # additive mask; underflows to exact 0 after softmax shift
LA_EPS = 1e-6  # denominator guard for linear-attention normalisation
LA_CHUNK = 64  # queries per chunk of `linear_attention`

# Count of positions whose LA denominator was clamped, keyed for diagnostics.
_GUARD_COUNT = 0


def reset_guard_count():
    global _GUARD_COUNT
    _GUARD_COUNT = 0


def guard_count():
    return _GUARD_COUNT


def _note_guards(n):
    global _GUARD_COUNT
    _GUARD_COUNT += int(n)


class Activation(enum.Enum):
    SOFTMAX = "softmax"
    EXPONENTIAL = "exponential"
    RELU = "relu"
    ONE_PLUS_ELU = "one_plus_elu"
    NONE = "none"


class AblationMode(enum.Enum):
    FULL_HYBRID = "full_hybrid"
    SWA_ONLY = "swa_only"
    LA_ONLY = "la_only"
    SINKS_ONLY = "sinks_only"
    NO_ATTENTION = "no_attention"
    HYBRID_OVERLAP = "hybrid_overlap"


@dataclass
class FeatureMapParams:
    """Learnable map producing non-negative features of width 2*d_prime."""

    w: Tensor  # (h_d, d_prime)
    b: Tensor  # (d_prime,)
    activation: Activation = Activation.SOFTMAX

    @property
    def d_prime(self):
        return self.w.shape[1]

    def tensors(self):
        return {"w": self.w, "b": self.b}


@dataclass
class WindowSpec:
    window: int = 64
    sink_count: int = 8

    def __post_init__(self):
        if self.window < 1:
            raise ShapeError("window must be >= 1")
        if self.sink_count < 0:
            raise ShapeError("sink_count must be >= 0")


@dataclass
class HybridSpec:
    g: float = 0.5  # a = g*1, b = (1-g)*1
    overlap: bool = False

    def __post_init__(self):
        if not 0.0 <= self.g <= 1.0:
            raise ShapeError("mixing scalar g must lie in [0, 1]")


@dataclass
class RoPEParams:
    base: float = 10000.0
    head_dim: int = 16

    def __post_init__(self):
        if self.head_dim % 2:
            raise ShapeError("RoPE head dimension must be even")


# -- masks -------------------------------------------------------------------


def causal_additive_mask(T):
    m = np.zeros((T, T))
    m[np.triu_indices(T, k=1)] = MASK_NEG
    return m


def band_additive_mask(T, window):
    t = np.arange(T)
    allowed = (t[None, :] <= t[:, None]) & (t[None, :] >= t[:, None] - window + 1)
    return np.where(allowed, 0.0, MASK_NEG)


def sinks_additive_mask(T, sink_count):
    t = np.arange(T)
    allowed = (t[None, :] <= t[:, None]) & (t[None, :] < sink_count)
    return np.where(allowed, 0.0, MASK_NEG)


def causal_mult_mask(T):
    return np.tril(np.ones((T, T)))


def lagged_mult_mask(T, window):
    """Keys strictly outside the sliding window: i <= t - window (0-based)."""
    t = np.arange(T)
    return (t[None, :] <= t[:, None] - window).astype(np.float64)


# -- kernels -----------------------------------------------------------------


def apply_rope(x, params, pos_offset=0):
    """Rotate query/key pairs by position-dependent angles; norm-preserving."""
    h_d = x.shape[-1]
    if h_d % 2:
        raise ShapeError("apply_rope requires an even head dimension")
    T = x.shape[-2]
    half = h_d // 2
    inv_freq = params.base ** (-np.arange(half) / half)
    angles = np.outer(np.arange(pos_offset, pos_offset + T), inv_freq)
    cos = np.cos(angles)
    sin = np.sin(angles)
    x1 = x[..., :half]
    x2 = x[..., half:]
    return concat([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def softmax_attention_causal(q, k, v, additive_mask=None):
    T, d = q.shape[-2], q.shape[-1]
    if T == 0:
        raise ShapeError("attention over an empty sequence")
    if additive_mask is None:
        additive_mask = causal_additive_mask(T)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d)) + Tensor(additive_mask)
    return row_softmax(scores) @ v


def sliding_window_attention(q, k, v, window):
    T = q.shape[-2]
    return softmax_attention_causal(q, k, v, band_additive_mask(T, window))


def sinks_attention(q, k, v, sink_count):
    if sink_count < 1:
        raise ShapeError("sinks_attention requires sink_count >= 1")
    T = q.shape[-2]
    return softmax_attention_causal(q, k, v, sinks_additive_mask(T, sink_count))


def feature_map_apply(params, x):
    """phi(x) = sigma(W^T x + b) ++ sigma(-W^T x - b), width 2*d_prime."""
    z = x @ params.w + params.b
    act = params.activation
    if act is Activation.SOFTMAX:
        pos, neg = row_softmax(z), row_softmax(-z)
    elif act is Activation.EXPONENTIAL:
        pos, neg = z.exp(), (-z).exp()
    elif act is Activation.RELU:
        pos, neg = z.relu(), (-z).relu()
    elif act is Activation.ONE_PLUS_ELU:
        pos, neg = z.elu() + 1.0, (-z).elu() + 1.0
    elif act is Activation.NONE:
        warnings.warn(
            "feature map without activation can emit negative features",
            RuntimeWarning,
            stacklevel=2,
        )
        pos, neg = z, -z
    else:  # pragma: no cover
        raise ValueError(f"unknown activation {act}")
    return concat([pos, neg], axis=-1)


def linear_attention_masked(phi_q, phi_k, v, mult_mask, eps=LA_EPS):
    """Normalised linear attention via a masked (T, T) kernel matrix.

    The reference form of `linear_attention`: with `causal_mult_mask(T)` or
    `lagged_mult_mask(T, lag)` it is the same attention at O(T^2) cost.
    Denominators below eps are clamped and counted.
    """
    kernel = (phi_q @ phi_k.swapaxes(-1, -2)) * Tensor(mult_mask)
    num = kernel @ v
    den = kernel.sum(axis=-1, keepdims=True)
    _note_guards(np.count_nonzero(den.data < eps))
    return num / den.clamp_min(eps)


def _rows(x, start, stop):
    """x[..., start:stop, :], or x itself when that is every row."""
    return x if (start, stop) == (0, x.shape[-2]) else x[..., start:stop, :]


def linear_attention(phi_q, phi_k, v, lag=0, eps=LA_EPS):
    """Normalised linear attention where query t sees the keys i <= t - lag.

    Queries run in chunks of LA_CHUNK (the chunkwise form of GLA, Yang et
    al. 2023, over the causal recurrence of Katharopoulos et al. 2020).
    Chunk [s, e) sees the key block [max(s - lag, 0), e) through a 0/1 mask
    and every earlier key through the running state S = sum phi_k^T v,
    z = sum phi_k; after each chunk the keys that left the window join the
    state. The cost is O(T (LA_CHUNK + lag)). Up to LA_CHUNK tokens are one
    chunk, which is exactly the masked form `linear_attention_masked`.
    Denominators below eps are clamped and counted, so a query with no keys
    gets an exact 0.
    """
    T = phi_q.shape[-2]
    pos = np.arange(T)
    outs, S, z = [], None, None
    for s in range(0, T or 1, LA_CHUNK):  # an empty sequence is one empty chunk
        e = min(s + LA_CHUNK, T)
        lo = max(s - lag, 0)
        q = _rows(phi_q, s, e)
        mask = (pos[None, lo:e] <= pos[s:e, None] - lag).astype(np.float64)
        kernel = (q @ _rows(phi_k, lo, e).swapaxes(-1, -2)) * Tensor(mask)
        num = kernel @ _rows(v, lo, e)
        den = kernel.sum(axis=-1, keepdims=True)
        if S is not None:
            num = num + q @ S
            den = den + q @ z
        _note_guards(np.count_nonzero(den.data < eps))
        outs.append(num / den.clamp_min(eps))
        hi = max(e - lag, 0)  # where the next chunk's key block starts
        if e < T and hi > lo:
            k_out = _rows(phi_k, lo, hi).swapaxes(-1, -2)
            dS, dz = k_out @ _rows(v, lo, hi), k_out.sum(axis=-1, keepdims=True)
            S, z = (dS, dz) if S is None else (S + dS, z + dz)
    return outs[0] if len(outs) == 1 else concat(outs, axis=-2)


def streaming_state_bytes(d_prime2, d_v, itemsize=8):
    """Footprint of the running state: S (F x d_v) plus z (F); T-free."""
    return (d_prime2 * d_v + d_prime2) * itemsize


def linear_attention_streaming(phi_q, phi_k, v, eps=LA_EPS):
    """`linear_attention` with lag 0 on numpy arrays.

    Returns (out: T x d_v, the number of denominators this call clamped).
    """
    before = guard_count()
    out = linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v), eps=eps)
    return out.data, guard_count() - before


def linear_attention_quadratic_oracle(phi_q, phi_k, v, eps=LA_EPS):
    """Reference form over the explicit causal kernel matrix (plain numpy)."""
    phi_q = np.asarray(phi_q, dtype=np.float64)
    phi_k = np.asarray(phi_k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    T = phi_q.shape[0]
    kernel = (phi_q @ phi_k.T) * np.tril(np.ones((T, T)))
    den = kernel.sum(axis=-1, keepdims=True)
    den = np.maximum(den, eps)
    return (kernel @ v) / den


def softmax_attention_full_np(q, k, v):
    """Plain-numpy causal softmax attention that materialises the T x T
    score matrix; the quadratic reference path for the scaling benchmark.

    The only T x T allocation is the float64 score matrix (T*T*8 bytes, the
    auxiliary state the benchmark reports); masking, the max shift, exp and
    normalisation run in place on it, with O(T) row temporaries besides.
    Both products use einsum, which runs on the calling thread; `@` would
    hand them to the BLAS thread pool, whose speed depends on whether the
    machine's other cores are idle.
    """
    T, d = q.shape
    scores = np.einsum("td,sd->ts", q, k)
    scores *= 1.0 / np.sqrt(d)
    for t in range(T - 1):
        scores[t, t + 1:] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.einsum("ts,sd->td", scores, v)


def hybrid_attention(q, k, v, phi, win, hy, mode, return_branches=False):
    """a (.) SWA + b (.) LA with a = g*1, b = (1-g)*1, plus ablation modes.

    q and k are expected post-RoPE; the SWA branch consumes them raw while
    the LA branch consumes phi(q), phi(k). In non-overlap mode the LA branch
    only sees keys outside the sliding window, i <= t - window (empty
    context -> exact zero); in overlap mode it sees every causal key.
    """
    T, d_v = q.shape[-2], v.shape[-1]
    zeros = Tensor(np.zeros(v.shape[:-2] + (T, d_v)))

    if mode is AblationMode.NO_ATTENTION:
        out = zeros
        return (out, zeros, zeros) if return_branches else out
    if mode is AblationMode.SINKS_ONLY:
        out = sinks_attention(q, k, v, win.sink_count)
        return (out, zeros, zeros) if return_branches else out

    g = hy.g
    swa_branch = zeros
    la_branch = zeros
    if mode in (AblationMode.FULL_HYBRID, AblationMode.SWA_ONLY, AblationMode.HYBRID_OVERLAP):
        swa_branch = sliding_window_attention(q, k, v, win.window)
    if mode in (AblationMode.FULL_HYBRID, AblationMode.LA_ONLY, AblationMode.HYBRID_OVERLAP):
        overlap = hy.overlap or mode is AblationMode.HYBRID_OVERLAP
        phi_q = feature_map_apply(phi, q)
        phi_k = feature_map_apply(phi, k)
        la_branch = linear_attention(phi_q, phi_k, v, lag=0 if overlap else win.window)

    out = g * swa_branch + (1.0 - g) * la_branch
    return (out, swa_branch, la_branch) if return_branches else out

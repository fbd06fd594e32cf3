"""Differentiable attention kernels: causal softmax, sliding-window softmax,
attention sinks, feature-mapped linear attention, RoPE, and the hybrid
combiner with its ablation modes.

All kernels take tensors shaped (..., T, d) and are pure functions, so
batched/multi-head evaluation is just broadcasting. The model's kernels run
the same query chunks (`_chunks`), each over its own key block, so none
builds a T x T array. Linear attention has one kernel, the chunkwise O(T)
`linear_attention`; the masked kernel-matrix form below is the reference
it is held to.
"""

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..tensor import Tensor, concat, row_softmax

MASK_NEG = -1e30  # additive mask; underflows to exact 0 after softmax shift
LA_EPS = 1e-6  # denominator guard for linear-attention normalisation
LA_CHUNK = 64  # queries per chunk of every attention kernel


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


def _rows(x, start, stop):
    """x[..., start:stop, :], or x itself when that is every row."""
    return x if (start, stop) == (0, x.shape[-2]) else x[..., start:stop, :]


def _chunks(T, reach):
    """(s, e, lo, t, j) per chunk [s, e) of LA_CHUNK queries: its key block
    [lo, e) starts `reach` keys before s, and t and j are the query and key
    positions, shaped for the chunk's mask. No queries make one empty chunk."""
    pos = np.arange(T)
    for s in range(0, T or 1, LA_CHUNK):
        e, lo = min(s + LA_CHUNK, T), max(s - reach, 0)
        yield s, e, lo, pos[s:e, None], pos[None, lo:e]


def softmax_attention_causal(q, k, v, window=None, sink_count=None):
    """Causal softmax attention where query t sees the keys j <= t, and
    only j > t - window with a window or j < sink_count with sinks.

    Queries run in `linear_attention`'s chunks: chunk [s, e) scores the key
    block [max(s - window + 1, 0), e) under an additive mask; with sinks,
    every chunk after the first scores only the sinks [0, min(sink_count, e)).
    Up to LA_CHUNK tokens are one chunk. Every query must see a key.
    """
    T, d = q.shape[-2], q.shape[-1]
    if T == 0:
        raise ShapeError("attention over an empty sequence")
    w = T if window is None else window  # a window of T keys is plain causal
    outs = []
    for s, e, lo, t, j in _chunks(T, w - 1):
        j = j[:, :sink_count] if sink_count is not None and s else j
        hi = lo + j.shape[-1]  # the key block is [lo, hi)
        allowed = (j <= t) & (j > t - w)
        if sink_count is not None:
            allowed &= j < sink_count
        mask = Tensor(np.where(allowed, 0.0, MASK_NEG))
        scores = (_rows(q, s, e) @ _rows(k, lo, hi).swapaxes(-1, -2)) * (1.0 / np.sqrt(d)) + mask
        outs.append(row_softmax(scores) @ _rows(v, lo, hi))
    return outs[0] if len(outs) == 1 else concat(outs, axis=-2)


def sliding_window_attention(q, k, v, window):
    return softmax_attention_causal(q, k, v, window=window)


def sinks_attention(q, k, v, sink_count):
    if sink_count < 1:
        raise ShapeError("sinks_attention requires sink_count >= 1")
    return softmax_attention_causal(q, k, v, sink_count=sink_count)


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


def linear_attention_masked(phi_q, phi_k, v, mult_mask, eps=LA_EPS, clamps=None):
    """Normalised linear attention via a masked (T, T) kernel matrix.

    The reference form of `linear_attention`: with `lagged_mult_mask(T, lag)`
    it is the same attention at O(T^2) cost.
    Denominators below eps are clamped and counted, as in `linear_attention`.
    """
    kernel = (phi_q @ phi_k.swapaxes(-1, -2)) * Tensor(mult_mask)
    num = kernel @ v
    den = kernel.sum(axis=-1, keepdims=True)
    if clamps is not None:
        clamps.append(int(np.count_nonzero(den.data < eps)))
    return num / den.clamp_min(eps)


def linear_attention(phi_q, phi_k, v, lag=0, eps=LA_EPS, clamps=None):
    """Normalised linear attention where query t sees the keys i <= t - lag.

    Queries run in chunks of LA_CHUNK (the chunkwise form of GLA, Yang et
    al. 2023, over the causal recurrence of Katharopoulos et al. 2020).
    Chunk [s, e) sees the key block [max(s - lag, 0), e) through a 0/1 mask
    and every earlier key through the running state S = sum phi_k^T v,
    z = sum phi_k; after each chunk the keys that left the window join the
    state. The cost is O(T (LA_CHUNK + lag)). Up to LA_CHUNK tokens are one
    chunk, which is exactly the masked form `linear_attention_masked`.
    Denominators below eps are clamped, so a query with no keys gets an
    exact 0; when `clamps` is a list, each chunk appends how many it clamped.
    The outputs do not depend on it.
    """
    T = phi_q.shape[-2]
    outs, S, z = [], None, None
    for s, e, lo, t, j in _chunks(T, lag):
        q = _rows(phi_q, s, e)
        mask = (j <= t - lag).astype(np.float64)
        kernel = (q @ _rows(phi_k, lo, e).swapaxes(-1, -2)) * Tensor(mask)
        num = kernel @ _rows(v, lo, e)
        den = kernel.sum(axis=-1, keepdims=True)
        if S is not None:
            num = num + q @ S
            den = den + q @ z
        if clamps is not None:
            clamps.append(int(np.count_nonzero(den.data < eps)))
        outs.append(num / den.clamp_min(eps))
        hi = max(e - lag, 0)  # where the next chunk's key block starts
        if e < T and hi > lo:
            k_out = _rows(phi_k, lo, hi).swapaxes(-1, -2)
            dS, dz = k_out @ _rows(v, lo, hi), k_out.sum(axis=-1, keepdims=True)
            S, z = (dS, dz) if S is None else (S + dS, z + dz)
    return outs[0] if len(outs) == 1 else concat(outs, axis=-2)


def hybrid_attention(q, k, v, phi, win, hy, mode, return_branches=False, clamps=None):
    """a (.) SWA + b (.) LA with a = g*1, b = (1-g)*1, plus ablation modes.

    q and k are expected post-RoPE; the SWA branch consumes them raw while
    the LA branch consumes phi(q), phi(k). In non-overlap mode the LA branch
    only sees keys outside the sliding window, i <= t - window (empty
    context -> exact zero); in overlap mode it sees every causal key. The
    LA branch appends its clamp counts to `clamps`, as `linear_attention`.
    """
    T, d_v = q.shape[-2], v.shape[-1]
    zeros = Tensor(np.zeros(v.shape[:-2] + (T, d_v)))

    if mode is AblationMode.NO_ATTENTION:
        out = zeros
        return (out, zeros, zeros) if return_branches else out
    if mode is AblationMode.SINKS_ONLY:  # no sinks: no keys, so 0 as in LA
        out = sinks_attention(q, k, v, win.sink_count) if win.sink_count else zeros
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
        la_branch = linear_attention(phi_q, phi_k, v, lag=0 if overlap else win.window,
                                     clamps=clamps)

    out = g * swa_branch + (1.0 - g) * la_branch
    return (out, swa_branch, la_branch) if return_branches else out

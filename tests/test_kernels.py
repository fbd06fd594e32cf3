import tracemalloc

import numpy as np
import pytest

from hafx.attention import (
    AblationMode,
    FeatureMapParams,
    HybridSpec,
    WindowSpec,
    apply_rope,
    feature_map_apply,
    hybrid_attention,
    linear_attention,
    linear_attention_masked,
    sinks_attention,
    sliding_window_attention,
    softmax_attention_causal,
)
from hafx.attention.ops import lagged_mult_mask
from hafx.errors import ShapeError
from hafx.evalbench import softmax_attention_full_np
from hafx.rng import SeededRng
from hafx.tensor import Tensor, row_softmax

from .reference import (
    causal_mult_mask,
    finite_diff_check,
    linear_attention_np,
    linear_attention_quadratic_oracle,
)


def brute_force_masked_softmax(q, k, v, allowed):
    """Independent oracle: explicit T x T score matrix with a boolean mask."""
    d = q.shape[-1]
    scores = (q @ k.T) / np.sqrt(d)
    scores = np.where(allowed, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w = w / w.sum(axis=-1, keepdims=True)
    return w @ v


def causal_allowed(T):
    t = np.arange(T)
    return t[None, :] <= t[:, None]


def rand_qkv(T, d, d_v=None, seed=42):
    rng = SeededRng(seed, "qkv")
    return (
        rng.normal((T, d)),
        rng.normal((T, d)),
        rng.normal((T, d_v or d)),
    )


def make_phi(h_d, d_prime, seed=0, trainable=False):
    rng = SeededRng(seed, "phi")
    return FeatureMapParams(
        w=Tensor(np.eye(h_d, d_prime) + rng.normal((h_d, d_prime), std=0.1),
                 requires_grad=trainable),
        b=Tensor(np.zeros(d_prime), requires_grad=trainable),
    )


# -- RoPE ------------------------------------------------------------------


def test_rope_position_zero_unchanged():
    x = SeededRng(0, "rope").normal((4, 8))
    out = apply_rope(Tensor(x))
    np.testing.assert_allclose(out.data[0], x[0], atol=1e-15)


def test_rope_is_isometry():
    x = SeededRng(1, "rope").normal((16, 8))
    out = apply_rope(Tensor(x))
    np.testing.assert_allclose(
        np.linalg.norm(out.data, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
    )


@pytest.mark.parametrize("shift", [1, 5])
def test_rope_relative_position_invariance(shift):
    rng = SeededRng(11, "rope-shift")
    q = Tensor(rng.normal((8, 8)))
    k = Tensor(rng.normal((8, 8)))
    base_q, base_k = apply_rope(q), apply_rope(k)
    off_q, off_k = apply_rope(q, pos_offset=shift), apply_rope(k, pos_offset=shift)
    for m, n in [(2, 0), (5, 3), (7, 7)]:
        a = base_q.data[m] @ base_k.data[n]
        b = off_q.data[m] @ off_k.data[n]
        assert abs(a - b) < 1e-10


def test_rope_rejects_odd_head_dim():
    with pytest.raises(ShapeError):
        apply_rope(Tensor(np.zeros((2, 5))))


# -- causal softmax attention ------------------------------------------------


def test_softmax_attention_single_token():
    q, k, v = rand_qkv(1, 4)
    out = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_allclose(out.data, v, atol=1e-15)


def test_softmax_attention_identical_keys_running_mean():
    T = 3
    q = SeededRng(2, "q").normal((T, 4))
    k = np.tile(SeededRng(2, "k").normal((1, 4)), (T, 1))
    v = SeededRng(2, "v").normal((T, 2))
    out = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    for t in range(T):
        np.testing.assert_allclose(out.data[t], v[: t + 1].mean(axis=0), atol=1e-12)


def test_softmax_attention_vs_brute_force():
    q, k, v = rand_qkv(8, 4)
    out = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    oracle = brute_force_masked_softmax(q, k, v, causal_allowed(8))
    assert np.abs(out.data - oracle).max() < 1e-12


@pytest.mark.parametrize("T", [1, 2, 7, 64])
def test_full_np_reference_matches_tape_kernel(T):
    # the benchmark's quadratic path must compute the same attention
    q, k, v = rand_qkv(T, 8)
    out = softmax_attention_full_np(q, k, v)
    tape = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    assert np.abs(out - tape.data).max() <= 1e-12


def test_full_np_reference_allocates_one_score_matrix():
    # the scaling benchmark reports T*T*8 bytes as this path's aux state
    T = 256
    q, k, v = rand_qkv(T, 8)
    tracemalloc.start()
    try:
        softmax_attention_full_np(q, k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * T * T * 8


def test_softmax_attention_empty_sequence():
    with pytest.raises(ShapeError):
        softmax_attention_causal(
            Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4)))
        )


# -- feature map ----------------------------------------------------------------


def test_feature_map_softmax_symmetry():
    phi = FeatureMapParams(Tensor(np.eye(2)), Tensor(np.zeros(2)))
    out = feature_map_apply(phi, Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.5, 0.5]])
    np.testing.assert_allclose(out.data[0, :2].sum(), 1.0)


def test_feature_map_non_negative():
    phi = make_phi(6, 3, seed=4)
    x = Tensor(SeededRng(4, "fm").normal((10, 6), std=2.0))
    out = feature_map_apply(phi, x)
    assert (out.data >= 0).all()
    assert out.shape == (10, 6)  # 2 * d_prime


# -- linear attention ----------------------------------------------------------


def test_linear_attention_single_token():
    v = SeededRng(3, "v").normal((1, 5))
    phi = np.abs(SeededRng(3, "p").normal((1, 6))) + 0.1
    out, guards = linear_attention_np(phi, phi, v)
    np.testing.assert_allclose(out, v, atol=1e-12)
    assert guards == 0


def test_linear_attention_uniform_features_running_mean():
    T = 6
    v = SeededRng(5, "v").normal((T, 3))
    ones = np.ones((T, 4))
    out, _ = linear_attention_np(ones, ones, v)
    for t in range(T):
        np.testing.assert_allclose(out[t], v[: t + 1].mean(axis=0), atol=1e-12)
    oracle = linear_attention_quadratic_oracle(ones, ones, v)
    np.testing.assert_allclose(oracle, out, atol=1e-12)


@pytest.mark.parametrize("d_prime", [4, 8])
def test_streaming_matches_quadratic_oracle_100_cases(d_prime):
    worst = 0.0
    for case in range(100):
        rng = SeededRng(case, "la-consistency")
        T = int(rng.integers(1, 65))
        d_v = int(rng.integers(1, 9))
        phi_q = np.abs(rng.normal((T, 2 * d_prime))) + 1e-3
        phi_k = np.abs(rng.normal((T, 2 * d_prime))) + 1e-3
        v = rng.normal((T, d_v))
        stream, _ = linear_attention_np(phi_q, phi_k, v)
        quad = linear_attention_quadratic_oracle(phi_q, phi_k, v)
        worst = max(worst, float(np.abs(stream - quad).max()))
    assert worst < 1e-10


def recurrent_la(phi_q, phi_k, v, eps=1e-6):
    """The per-token streaming recurrence, one token at a time:
    S += phi_k[t] v[t]^T, z += phi_k[t], out[t] = phi_q[t] S / max(phi_q[t] z, eps)."""
    S, z = np.zeros((phi_k.shape[1], v.shape[1])), np.zeros(phi_k.shape[1])
    out = np.empty((len(v), v.shape[1]))
    for t in range(len(v)):
        S += np.outer(phi_k[t], v[t])
        z += phi_k[t]
        out[t] = phi_q[t] @ S / max(phi_q[t] @ z, eps)
    return out


def test_differentiable_path_matches_streaming():
    for T in (16, 150):
        rng = SeededRng(42, "la-diff")
        phi_q = np.abs(rng.normal((T, 8))) + 1e-3
        phi_k = np.abs(rng.normal((T, 8))) + 1e-3
        v = rng.normal((T, 4))
        diff = linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v))
        assert np.abs(diff.data - recurrent_la(phi_q, phi_k, v)).max() < 1e-10


def test_denominator_guard_counts():
    zeros = np.zeros((3, 4))
    v = np.ones((3, 2))
    clamps = []
    out = linear_attention(Tensor(zeros), Tensor(zeros), Tensor(v), clamps=clamps)
    assert clamps == [3]
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))
    stream, guards = linear_attention_np(zeros, zeros, v)
    assert guards == 3


def la_inputs(seed, T, lead=(2,), F=6, d_v=3):
    rng = SeededRng(seed, "la-chunked")
    return (np.abs(rng.normal(lead + (T, F))) + 1e-3,
            np.abs(rng.normal(lead + (T, F))) + 1e-3,
            rng.normal(lead + (T, d_v)))


def outputs_and_grads(fn, phi_q, phi_k, v):
    """fn's output and the q/k/v gradients of a weighted sum of it."""
    ts = [Tensor(x, requires_grad=True) for x in (phi_q, phi_k, v)]
    out = fn(*ts)
    w = SeededRng(1, "la-weights").normal(out.shape)
    (out * Tensor(w)).sum().backward()
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("T", [1, 63, 64, 65, 130, 200])
@pytest.mark.parametrize("lag", [0, 1, 63, 64, 65, "T", "T+5"])
def test_linear_attention_matches_masked_reference(T, lag):
    """One chunk is the masked form op for op, so T <= LA_CHUNK is
    bit-identical; across chunks only the summation order differs. Errors
    are relative to the reference's largest magnitude, floored at 1, since
    a query whose one visible key is its whole context has an analytic
    feature-map gradient of exactly 0 and a computed one of rounding noise."""
    lag = {"T": T, "T+5": T + 5}.get(lag, lag)
    args = la_inputs(T * 1000 + lag, T)
    ours = outputs_and_grads(lambda q, k, v: linear_attention(q, k, v, lag=lag), *args)
    ref = outputs_and_grads(
        lambda q, k, v: linear_attention_masked(q, k, v, lagged_mult_mask(T, lag)), *args)
    for a, b in zip(ours, ref):
        if T <= 64:
            assert (a == b).all()
        else:
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def test_linear_attention_matches_quadratic_oracle_across_chunks():
    worst = 0.0
    for case in range(20):
        rng = SeededRng(case, "la-long")
        T = int(rng.integers(65, 301))
        phi_q = np.abs(rng.normal((T, 8))) + 1e-3
        phi_k = np.abs(rng.normal((T, 8))) + 1e-3
        v = rng.normal((T, int(rng.integers(1, 9))))
        stream, _ = linear_attention_np(phi_q, phi_k, v)
        quad = linear_attention_quadratic_oracle(phi_q, phi_k, v)
        worst = max(worst, float(np.abs(stream - quad).max()))
    assert worst < 1e-10


@pytest.mark.parametrize("which", [0, 1, 2])
def test_linear_attention_gradient_vs_finite_diff_across_chunks(which):
    args = list(la_inputs(12, 70, lead=(), F=4))
    w = Tensor(SeededRng(13, "la-fd").normal((70, 3)))

    def f(t):
        xs = [Tensor(a) for a in args]
        xs[which] = t
        return (linear_attention(*xs, lag=3) * w).sum()

    assert finite_diff_check(f, Tensor(args[which]), step=1e-5) < 1e-4


@pytest.mark.parametrize("T,lag", [(16, 4), (130, 0), (130, 70), (200, 64)])
def test_linear_attention_clamp_counts_match_reference(T, lag):
    phi_q, phi_k, v = la_inputs(T + lag, T)
    phi_q[:, ::7] = 0.0  # these queries' denominators are 0 whatever they see
    chunked, masked = [], []
    out = linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v), lag=lag, clamps=chunked)
    uncounted = linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v), lag=lag)
    assert (out.data == uncounted.data).all()  # the list only collects counts
    linear_attention_masked(Tensor(phi_q), Tensor(phi_k), Tensor(v), lagged_mult_mask(T, lag),
                            clamps=masked)
    assert len(chunked) == -(-T // 64) and len(masked) == 1
    assert sum(chunked) == sum(masked) > 0


# -- sliding window / sinks ---------------------------------------------------


def test_swa_window_covers_all_equals_causal():
    q, k, v = rand_qkv(6, 4)
    swa = sliding_window_attention(Tensor(q), Tensor(k), Tensor(v), window=10)
    full = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_allclose(swa.data, full.data, atol=1e-15)


def test_swa_identical_keys_window_mean():
    k = np.tile(SeededRng(6, "k").normal((1, 4)), (3, 1))
    q = SeededRng(6, "q").normal((3, 4))
    v = SeededRng(6, "v").normal((3, 2))
    out = sliding_window_attention(Tensor(q), Tensor(k), Tensor(v), window=2)
    np.testing.assert_allclose(out.data[2], v[1:3].mean(axis=0), atol=1e-12)


def test_swa_vs_banded_brute_force():
    q, k, v = rand_qkv(16, 4)
    out = sliding_window_attention(Tensor(q), Tensor(k), Tensor(v), window=4)
    t = np.arange(16)
    allowed = (t[None, :] <= t[:, None]) & (t[None, :] >= t[:, None] - 3)
    oracle = brute_force_masked_softmax(q, k, v, allowed)
    assert np.abs(out.data - oracle).max() < 1e-12


def test_sinks_early_positions_match_full_softmax():
    q, k, v = rand_qkv(12, 4)
    out = sinks_attention(Tensor(q), Tensor(k), Tensor(v), sink_count=8)
    full = softmax_attention_causal(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_allclose(out.data[:8], full.data[:8], atol=1e-15)


def test_sinks_single_key():
    q, k, v = rand_qkv(5, 4)
    out = sinks_attention(Tensor(q), Tensor(k), Tensor(v), sink_count=1)
    for t in range(5):
        np.testing.assert_allclose(out.data[t], v[0], atol=1e-12)


def test_sinks_vs_brute_force():
    q, k, v = rand_qkv(16, 4)
    out = sinks_attention(Tensor(q), Tensor(k), Tensor(v), sink_count=8)
    t = np.arange(16)
    allowed = (t[None, :] <= t[:, None]) & (t[None, :] < 8)
    oracle = brute_force_masked_softmax(q, k, v, allowed)
    assert np.abs(out.data - oracle).max() < 1e-12


# -- chunked softmax kernels --------------------------------------------------


def masked_softmax_reference(q, k, v, allowed):
    """Taped T x T form: every score, with the keys a boolean `allowed` rules
    out pushed to -1e30 before the row softmax."""
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    return row_softmax(scores + Tensor(np.where(allowed, 0.0, -1e30))) @ v


def softmax_case(kind, n, T):
    """(kernel, allowed) for causal softmax, a window of n, or n sinks."""
    t, j = np.arange(T)[:, None], np.arange(T)[None, :]
    if kind == "swa":
        return (lambda q, k, v: sliding_window_attention(q, k, v, n)), (j <= t) & (j > t - n)
    if kind == "sinks":
        return (lambda q, k, v: sinks_attention(q, k, v, n)), (j <= t) & (j < n)
    return softmax_attention_causal, j <= t


SOFTMAX_CASES = ([("causal", None)] + [("swa", w) for w in (1, 8, 63, 64, 65)]
                 + [("sinks", n) for n in (1, 2, 64, 65)])


@pytest.mark.parametrize("T", [1, 40, 64, 65, 130, 512])
@pytest.mark.parametrize("kind,n", SOFTMAX_CASES)
def test_softmax_kernels_match_masked_reference(T, kind, n):
    """Up to LA_CHUNK tokens are one chunk, which is the reference op for op;
    across chunks only the key blocks differ. Errors are relative to the
    reference's largest magnitude, floored at 1."""
    kernel, allowed = softmax_case(kind, n, T)
    rng = SeededRng(T * 100 + (n or 0), "softmax-chunked")
    args = [rng.normal((2, T, 8)) for _ in range(3)]
    ours = outputs_and_grads(kernel, *args)
    ref = outputs_and_grads(lambda q, k, v: masked_softmax_reference(q, k, v, allowed), *args)
    for a, b in zip(ours, ref):
        if T <= 64:
            assert (a == b).all()
        else:
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("kind,n", [("causal", None), ("swa", 8), ("sinks", 2)])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_softmax_kernel_gradients_vs_finite_diff_across_chunks(kind, n, which):
    kernel, _ = softmax_case(kind, n, 70)
    rng = SeededRng(15, "softmax-fd")
    args = [rng.normal((70, 4)) for _ in range(3)]
    w = Tensor(rng.normal((70, 4)))

    def f(t):
        xs = [Tensor(a) for a in args]
        xs[which] = t
        return (kernel(*xs) * w).sum()

    assert finite_diff_check(f, Tensor(args[which]), step=1e-5) < 1e-4


# -- hybrid combiner -------------------------------------------------------------


def hybrid_args(T=32, d=8, seed=42):
    q, k, v = rand_qkv(T, d, seed=seed)
    phi = make_phi(d, d // 2, seed=seed)
    return (Tensor(q), Tensor(k), Tensor(v)), phi


def test_hybrid_no_attention_is_zero():
    (q, k, v), phi = hybrid_args()
    out = hybrid_attention(q, k, v, phi, WindowSpec(8), HybridSpec(), AblationMode.NO_ATTENTION)
    assert (out.data == 0).all()


def test_hybrid_swa_only_is_half_swa():
    (q, k, v), phi = hybrid_args()
    out = hybrid_attention(q, k, v, phi, WindowSpec(8), HybridSpec(0.5), AblationMode.SWA_ONLY)
    swa = sliding_window_attention(q, k, v, 8)
    np.testing.assert_array_equal(out.data, 0.5 * swa.data)


def test_hybrid_empty_la_context_is_half_swa():
    (q, k, v), phi = hybrid_args(T=6)
    out = hybrid_attention(q, k, v, phi, WindowSpec(8), HybridSpec(0.5), AblationMode.FULL_HYBRID)
    swa = sliding_window_attention(q, k, v, 8)
    np.testing.assert_allclose(out.data, 0.5 * swa.data, atol=1e-15)


def test_hybrid_branch_additivity():
    (q, k, v), phi = hybrid_args()
    win, hy = WindowSpec(8), HybridSpec(0.5)
    full = hybrid_attention(q, k, v, phi, win, hy, AblationMode.FULL_HYBRID)
    swa = hybrid_attention(q, k, v, phi, win, hy, AblationMode.SWA_ONLY)
    la = hybrid_attention(q, k, v, phi, win, hy, AblationMode.LA_ONLY)
    assert np.abs(full.data - (swa.data + la.data)).max() < 1e-10


@pytest.mark.parametrize("overlap", [False, True])
def test_hybrid_matches_composed_oracles(overlap):
    (q, k, v), phi = hybrid_args(T=32, d=8)
    from hafx.attention import feature_map_apply as fma

    win, hy = WindowSpec(8), HybridSpec(0.5, overlap=overlap)
    mode = AblationMode.HYBRID_OVERLAP if overlap else AblationMode.FULL_HYBRID
    out = hybrid_attention(q, k, v, phi, win, hy, mode)
    swa = sliding_window_attention(q, k, v, 8)
    mask = causal_mult_mask(32) if overlap else lagged_mult_mask(32, 8)
    la = linear_attention_masked(fma(phi, q), fma(phi, k), v, mask)
    np.testing.assert_allclose(out.data, 0.5 * swa.data + 0.5 * la.data, atol=1e-10)


@pytest.mark.parametrize("mode", [AblationMode.FULL_HYBRID, AblationMode.LA_ONLY,
                                  AblationMode.HYBRID_OVERLAP])
def test_hybrid_la_branch_across_chunks_matches_masked_form(mode):
    """At T > LA_CHUNK the LA branch sees keys i <= t - window, or every
    causal key with overlap, as the masked reference does."""
    (q, k, v), phi = hybrid_args(T=150, d=8)
    win, hy = WindowSpec(70), HybridSpec(0.5)
    _out, _swa, la = hybrid_attention(q, k, v, phi, win, hy, mode, return_branches=True)
    mask = np.tril(np.ones((150, 150)))
    if mode is not AblationMode.HYBRID_OVERLAP:
        mask = lagged_mult_mask(150, 70)
    ref = linear_attention_masked(feature_map_apply(phi, q), feature_map_apply(phi, k), v, mask)
    assert np.abs(la.data - ref.data).max() < 1e-12


def test_hybrid_full_across_chunks_matches_composed_masked_forms():
    (q, k, v), phi = hybrid_args(T=150, d=8)
    win, hy = WindowSpec(8), HybridSpec(0.5)
    out = hybrid_attention(q, k, v, phi, win, hy, AblationMode.FULL_HYBRID)
    _, allowed = softmax_case("swa", 8, 150)
    swa = masked_softmax_reference(q, k, v, allowed)
    la = linear_attention_masked(feature_map_apply(phi, q), feature_map_apply(phi, k), v,
                                 lagged_mult_mask(150, 8))
    ref = 0.5 * swa.data + 0.5 * la.data
    assert np.abs(out.data - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


def test_hybrid_sinks_only_without_sinks_is_zero():
    """No sinks leave a query no keys, which gives 0 as in linear attention."""
    (q, k, v), phi = hybrid_args(T=16)
    out = hybrid_attention(q, k, v, phi, WindowSpec(4, sink_count=0), HybridSpec(),
                           AblationMode.SINKS_ONLY)
    assert (out.data == 0).all() and out.shape == v.shape
    with pytest.raises(ShapeError):
        sinks_attention(q, k, v, 0)


def test_hybrid_sinks_only_routes_to_sinks():
    (q, k, v), phi = hybrid_args(T=16)
    out = hybrid_attention(q, k, v, phi, WindowSpec(4, sink_count=16), HybridSpec(),
                           AblationMode.SINKS_ONLY)
    full = softmax_attention_causal(q, k, v)
    assert np.abs(out.data - full.data).max() < 1e-12


def test_hybrid_gradients_reach_both_branches():
    rng = SeededRng(8, "hybrid-grad")
    q = Tensor(rng.normal((16, 8)), requires_grad=True)
    k = Tensor(rng.normal((16, 8)), requires_grad=True)
    v = Tensor(rng.normal((16, 8)), requires_grad=True)
    phi = make_phi(8, 4, trainable=True)
    out = hybrid_attention(q, k, v, phi, WindowSpec(4), HybridSpec(0.5),
                           AblationMode.FULL_HYBRID)
    (out * out).sum().backward()
    assert np.abs(phi.w.grad).max() > 0
    assert np.abs(q.grad).max() > 0
    assert np.abs(k.grad).max() > 0


@pytest.mark.parametrize(
    "kernel",
    [
        lambda q, k, v: softmax_attention_causal(q, k, v),
        lambda q, k, v: sliding_window_attention(q, k, v, 3),
        lambda q, k, v: sinks_attention(q, k, v, 2),
        lambda q, k, v: hybrid_attention(
            q, k, v, make_phi(4, 2), WindowSpec(3), HybridSpec(0.5), AblationMode.FULL_HYBRID
        ),
    ],
    ids=["softmax", "swa", "sinks", "hybrid"],
)
def test_kernel_gradients_vs_finite_diff(kernel):
    rng = SeededRng(13, "kernel-fd")
    k = Tensor(rng.normal((6, 4)))
    v = Tensor(rng.normal((6, 4)))

    def f(q):
        out = kernel(q, k, v)
        return (out * out).sum()

    assert finite_diff_check(f, Tensor(rng.normal((6, 4))), step=1e-5) < 1e-4


def test_feature_map_gradient_vs_finite_diff():
    rng = SeededRng(14, "fm-fd")
    x = Tensor(rng.normal((5, 4)))

    def f(w):
        phi = FeatureMapParams(w, Tensor(np.zeros(2)))
        out = feature_map_apply(phi, x)
        return (out * out).sum()

    assert finite_diff_check(f, Tensor(rng.normal((4, 2))), step=1e-5) < 1e-4


def test_rope_gradient_vs_finite_diff():
    x = Tensor(SeededRng(15, "rope-fd").normal((5, 4)))
    err = finite_diff_check(lambda t: (apply_rope(t) * 1.5).pow(2).sum(), x)
    assert err < 1e-4

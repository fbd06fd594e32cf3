import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafx.attention import AblationMode, HybridSpec, WindowSpec
from hafx.errors import ContractError, NonFiniteError, ShapeError
from hafx.model import AttnSettings, ModelConfig, init_model, lm_loss
from hafx.rng import SeededRng
from hafx.tensor import (
    Tensor,
    _topo_order,
    concat,
    embedding,
    gelu,
    logsumexp,
    row_softmax,
    take_along_last,
)

from .reference import backward_zero_fill, finite_diff_check


def test_matmul_identity():
    a = Tensor(np.eye(2)) @ Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(a.data, [[1, 2], [3, 4]])


def test_matmul_zeros():
    out = Tensor(np.zeros((2, 3))) @ Tensor(np.ones((3, 4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_hand_case():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_row_softmax_symmetry():
    np.testing.assert_allclose(row_softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_row_softmax_analytic():
    out = row_softmax(Tensor([np.log(2.0), 0.0]))
    np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)


def test_row_softmax_stability():
    out = row_softmax(Tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_row_softmax_empty_row():
    with pytest.raises(ShapeError):
        row_softmax(Tensor(np.zeros((2, 0))))


def test_row_softmax_rows_sum_to_one():
    x = Tensor(SeededRng(5, "sm").normal((7, 9), std=3.0))
    s = row_softmax(x).data.sum(axis=-1)
    np.testing.assert_allclose(s, np.ones(7), atol=1e-12)


@given(st.integers(-50, 50))
@settings(max_examples=30, deadline=None)
def test_row_softmax_shift_invariance(c):
    # integer-valued inputs so x + c is exact; stabilisation then makes the
    # shifted computation bit-for-bit identical
    x = np.array([[1.0, -3.0, 7.0, 0.0], [2.0, 2.0, -5.0, 11.0]])
    a = row_softmax(Tensor(x)).data
    b = row_softmax(Tensor(x + float(c))).data
    assert (a == b).all()


def test_backward_linear_case():
    w = Tensor(SeededRng(0, "w").normal((3, 4)), requires_grad=True)
    w.sum().backward()
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_zero_loss():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    (0.0 * w.sum()).backward()
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))


def test_backward_nonscalar_rejected():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (w * 2.0).backward()


def test_backward_composite_matches_finite_diff():
    rng = SeededRng(7, "composite")
    w1 = Tensor(rng.normal((4, 4)))
    w2 = Tensor(rng.normal((4, 4)))

    def f(x):
        h = (x @ w1).tanh()
        h = row_softmax(h @ w2)
        return (h * h).sum()

    x = Tensor(rng.normal((3, 4)))
    assert finite_diff_check(f, x, step=1e-5) < 1e-4


def test_finite_diff_quadratic_exact():
    x = Tensor([1.0, 2.0])
    assert finite_diff_check(lambda t: (t * t).sum(), x) < 1e-8
    xt = Tensor([1.0, 2.0], requires_grad=True)
    (xt * xt).sum().backward()
    np.testing.assert_allclose(xt.grad, [2.0, 4.0])


def test_finite_diff_softmax_sum():
    x = Tensor(SeededRng(1, "fd").normal((2, 5)))
    err = finite_diff_check(
        lambda t: (row_softmax(t) @ Tensor(np.arange(5.0).reshape(5, 1))).sum(), x
    )
    assert err < 1e-4


def test_finite_diff_constant_function():
    x = Tensor([1.0, -1.0])
    assert finite_diff_check(lambda t: Tensor(3.0) + 0.0 * t.sum(), x) == 0.0


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ContractError):
        finite_diff_check(lambda t: t.sum(), Tensor([1.0]), step=0.0)


@pytest.mark.parametrize(
    "name,f",
    [
        ("log", lambda t: (t * t + 1.0).log().sum()),
        ("tanh", lambda t: t.tanh().sum()),
        ("pow", lambda t: (t * t).pow(1.5).sum()),
        ("sqrt", lambda t: (t * t + 0.5).sqrt().sum()),
        ("div", lambda t: (t / (t * t + 2.0)).sum()),
        ("mean", lambda t: (t * 3.0).mean()),
        ("gelu", lambda t: gelu(t).sum()),
        ("clamp", lambda t: (t.clamp_min(0.3) * t).sum()),
        ("getitem", lambda t: (t[1:, :2] * 2.0).sum()),
        ("swapaxes", lambda t: (t.swapaxes(0, 1) @ Tensor(np.ones((3, 2)))).sum()),
        ("logsumexp", lambda t: logsumexp(t, axis=-1).sum()),
        ("matmul", lambda t: (t @ Tensor(np.ones((4, 2)))).pow(2).sum()),
        ("concat", lambda t: (concat([t, t * 2.0], axis=-1)).pow(2).mean()),
    ],
)
def test_op_gradients_vs_finite_diff(name, f):
    # inputs kept away from non-smooth points (clamp kinks)
    x = Tensor(SeededRng(11, f"grad/{name}").normal((3, 4)) + 0.01)
    assert finite_diff_check(f, x, step=1e-5) < 1e-4, name


# (op, left shape, right shape): a scalar and a (4,) row against (3, 4)
# either way round, and matrices for @, one side batched
SHAPE_CASES = [
    (op, left, right)
    for op in ("add", "sub", "mul", "truediv")
    for left, right in (((3, 4), ()), ((), (3, 4)), ((3, 4), (4,)), ((4,), (3, 4)))
] + [("matmul", (3, 4), (4, 2)), ("matmul", (2, 3, 4), (4, 2)), ("matmul", (3, 4), (2, 4, 2))]


@pytest.mark.parametrize("live", ["left", "right"])
@pytest.mark.parametrize("op,left_shape,right_shape", SHAPE_CASES, ids=str)
def test_binary_op_gradient_with_a_constant_operand(op, left_shape, right_shape, live):
    """The live operand's gradient, summed down to its shape, matches finite
    differences; the recorded backward computes none for the constant."""
    rng = SeededRng(13, f"const/{op}/{left_shape}/{right_shape}/{live}")
    live_shape, const_shape = (left_shape, right_shape)[:: 1 if live == "left" else -1]
    # values in [0.5, 1.5]: away from 0 for truediv and from tanh's flat tails
    x = rng.child("live").uniform(live_shape, 0.5, 1.5)
    const = Tensor(rng.child("const").uniform(const_shape, 0.5, 1.5))

    def apply(t):
        return getattr(operator, op)(*((t, const) if live == "left" else (const, t)))

    assert finite_diff_check(lambda t: apply(t).tanh().sum(), Tensor(x), step=1e-5) < 1e-4
    assert const.grad is None
    out = apply(Tensor(x, requires_grad=True))
    assert out._backward_fn(np.ones(out.shape))[1 if live == "left" else 0] is None


def test_embedding_gradient_scatter():
    w = Tensor(SeededRng(2, "emb").normal((5, 3)), requires_grad=True)
    out = embedding(w, np.array([1, 1, 4]))
    (out * 2.0).sum().backward()
    expected = np.zeros((5, 3))
    expected[1] = 4.0
    expected[4] = 2.0
    np.testing.assert_array_equal(w.grad, expected)


def test_take_along_last_gradient():
    x = Tensor(SeededRng(3, "tal").normal((2, 4)))
    idx = np.array([2, 0])
    err = finite_diff_check(lambda t: take_along_last(t, idx).sum(), x)
    assert err < 1e-8


def test_nan_guard_aborts():
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        Tensor([1.0]) / Tensor([0.0])


def test_determinism_same_seed_bitwise():
    def run():
        rng = SeededRng(123, "det")
        x = Tensor(rng.normal((4, 4)), requires_grad=True)
        y = row_softmax(x @ x.swapaxes(0, 1)).sum()
        y.backward()
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert (y1 == y2).all() and (g1 == g2).all()


def test_gradient_accumulation_across_backwards():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    (w * 1.0).sum().backward()
    (w * 2.0).sum().backward()
    np.testing.assert_array_equal(w.grad, 3.0 * np.ones((2, 2)))


ORACLE_CFG = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, max_T=160,
                         mlp_width=32)


def lora_model(T):
    """A LoRA-attached ORACLE_CFG model with B off zero, so A's gradient is
    not 0, and a (2, T + 1) batch of tokens for it."""
    model = init_model(ORACLE_CFG)
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    rng = SeededRng(T, "oracle")
    for ad in model.lora.values():
        ad.b.data = rng.child("lora_b").normal(ad.b.shape, std=0.1)
    return model, rng.child("tokens").integers(0, ORACLE_CFG.vocab_size, (2, T + 1))


@pytest.mark.parametrize("T", [32, 150])  # 150 crosses LA_CHUNK
@pytest.mark.parametrize("mode,trainable", [  # ids: the mode, then "-lora" for adapters only
    pytest.param(m, t, id=f"{getattr(m, 'value', m)}{'-lora' if t == 'lora' else ''}")
    for t in ("all", "lora") for m in (None, *AblationMode)
])
def test_backward_matches_the_zero_fill_sweep(T, mode, trainable):
    """Every leaf gradient of a LoRA-attached model's `lm_loss` is
    bit-identical to the zero-fill sweep's, with every parameter trainable
    or only the adapters, and the sweep frees every interior gradient."""
    model, toks = lora_model(T)
    if trainable == "lora":
        model.set_trainable(lambda n: ".lora_" in n)
    attn = (AttnSettings("softmax") if mode is None
            else AttnSettings("hybrid", mode, WindowSpec(8, 2), HybridSpec(0.5)))
    params = model.named_parameters()

    def sweep(backward):
        for p in params.values():
            p.grad = None
        loss = lm_loss(model.forward_logits(toks[:, :-1], attn), toks[:, 1:])
        backward(loss)
        grads = {n: p.grad for n, p in params.items() if p.grad is not None}
        return loss, grads

    loss, ours = sweep(Tensor.backward)
    _, ref = sweep(backward_zero_fill)
    assert ours.keys() == ref.keys() and any(".lora_a" in n for n in ours)
    assert all(".lora_" in n for n in ours) == (trainable == "lora")
    for name, g in ours.items():
        assert g.dtype == ref[name].dtype and g.shape == ref[name].shape, name
        assert g.tobytes() == ref[name].tobytes(), name
    interior = [node for node in _topo_order(loss) if node._backward_fn is not None]
    assert interior and all(node.grad is None for node in interior)


def test_frozen_weights_get_no_gradient_matmul(monkeypatch):
    """A LoRA-only backward skips the gradient matmul of every frozen
    operand that a backward with every parameter trainable computes."""
    model, toks = lora_model(32)
    attn = AttnSettings("hybrid", AblationMode.FULL_HYBRID, WindowSpec(8, 2), HybridSpec(0.5))
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))

    def backward_matmuls(predicate):
        model.set_trainable(predicate)
        loss = lm_loss(model.forward_logits(toks[:, :-1], attn), toks[:, 1:])
        calls.clear()
        loss.backward()
        return len(calls)

    every = backward_matmuls(lambda n: True)
    lora_only = backward_matmuls(lambda n: ".lora_" in n)
    # frozen: each layer's mlp w1 and w2, each head's phi W (applied to q
    # and to k) and the head; and layer 0's x in x @ wq, wk and wv, which
    # the frozen embedding and LayerNorm make a constant
    cfg = ORACLE_CFG
    assert every - lora_only == cfg.n_layers * (2 + 2 * cfg.n_heads) + 1 + 3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_seeded_rng_reproducible(seed):
    a = SeededRng(seed, "x").normal((4,))
    b = SeededRng(seed, "x").normal((4,))
    c = SeededRng(seed, "y").normal((4,))
    assert (a == b).all()
    assert not (a == c).all()

"""The benchmark's checks accept the program's outputs and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks as ck  # noqa: E402
import hooks  # noqa: E402
from reference import (  # noqa: E402
    Reference, linear_attention_recurrent, masked_cross_entropy, setting)

from hafx import attention, checkpoint, model as hmodel  # noqa: E402
from hafx.attention import AblationMode, Activation, HybridSpec, WindowSpec  # noqa: E402
from hafx.attention.ops import lagged_mult_mask  # noqa: E402
from hafx.model import AttnSettings, ModelConfig, init_model, lm_loss  # noqa: E402
from hafx.optim import AdamW  # noqa: E402
from hafx.tensor import Tensor  # noqa: E402

CFG = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, mlp_width=32, max_T=32, seed=5)


def converted_model():
    """Feature maps plus LoRA with non-zero B, as after a finetune."""
    m = init_model(CFG)
    m.attach_feature_maps(4, Activation.SOFTMAX)
    m.lora_attach(rank=2, alpha=4.0)
    rng = np.random.default_rng(0)
    for ad in m.lora.values():
        ad.b.data = rng.normal(0.0, 0.1, ad.b.shape)
    return m


def tokens(rows=3, T=20):
    return np.random.default_rng(1).integers(0, CFG.vocab_size, (rows, T))


def program_logits(m, s):
    if s["kind"] == "softmax":
        return m.forward_logits(tokens(), AttnSettings("softmax")).data
    attn = AttnSettings("hybrid", AblationMode(s["mode"]), WindowSpec(s["window"], s["sinks"]),
                        HybridSpec(s["g"], s["overlap"]))
    return m.forward_logits(tokens(), attn).data


SETTINGS = [setting()] + [setting("hybrid", mode, w, 2, 0.5, ov)
                          for mode in ("full_hybrid", "swa_only", "la_only", "sinks_only",
                                       "no_attention", "hybrid_overlap")
                          for w in (3, 8) for ov in (False, True)]


@pytest.mark.parametrize("s", SETTINGS, ids=lambda s: str(sorted(s.values(), key=str)))
def test_reference_matches_program(s):
    m = converted_model()
    ok, detail = ck.close(program_logits(m, s), Reference.from_model(m).logits(tokens(), s))
    assert ok, detail


def test_forward_check_rejects_one_perturbed_weight():
    m = converted_model()
    s = setting("hybrid", "full_hybrid", 8, 2, 0.5, False)
    ref = Reference.from_model(m)
    ref.p["layers.1.mlp.w2"][3, 4] += 1e-6
    assert not ck.close(program_logits(m, s), ref.logits(tokens(), s))[0]


def test_forward_check_rejects_la_over_the_wrong_window():
    rng = np.random.default_rng(2)
    T, w = 24, 6
    phi_q, phi_k = rng.random((2, T, 8)) + 0.01
    v = rng.normal(size=(T, 5))
    program = attention.linear_attention_masked(
        Tensor(phi_q), Tensor(phi_k), Tensor(v), lagged_mult_mask(T, w)).data
    assert ck.close(program, linear_attention_recurrent(phi_q, phi_k, v, w))[0]
    assert not ck.close(program, linear_attention_recurrent(phi_q, phi_k, v, w + 1))[0]
    assert not ck.close(program, linear_attention_recurrent(phi_q, phi_k, v, 0))[0]


def first_step():
    """theta0, grad, theta1 of one program AdamW step on a small LM batch."""
    m = init_model(CFG)
    opt = AdamW(m.trainable_parameters(), lr=1e-3, weight_decay=0.01)
    toks = tokens()
    loss = lm_loss(m.forward_logits(toks, AttnSettings("softmax")), np.roll(toks, -1, axis=1))
    loss.backward()
    theta0 = {n: p.data.copy() for n, p in opt.params.items()}
    grad = {n: p.grad.copy() for n, p in opt.params.items()}
    opt.step()
    return m, theta0, grad, {n: p.data.copy() for n, p in opt.params.items()}


def test_adamw_check_accepts_the_program_and_rejects_a_wrong_update():
    _m, theta0, grad, theta1 = first_step()
    assert ck.adamw_first_update(theta0, grad, theta1, 1e-3, 0.01, 1e-8)[0]
    assert not ck.adamw_first_update(theta0, grad, theta1, 1e-3, 0.0, 1e-8)[0]
    theta1["head"] = theta1["head"].copy()
    theta1["head"][0, 0] += 1e-9
    assert not ck.adamw_first_update(theta0, grad, theta1, 1e-3, 0.01, 1e-8)[0]


def test_directional_fd_accepts_the_gradient_and_rejects_a_wrong_one():
    _m, theta0, grad, _theta1 = first_step()
    toks = tokens()
    targets = np.roll(toks, -1, axis=1)

    def loss(params):
        logits = Reference(params, CFG.n_heads).logits(toks, setting())
        return masked_cross_entropy(logits, targets, np.ones(toks.shape))

    rng = np.random.default_rng(3)
    d = {n: rng.normal(size=a.shape) for n, a in theta0.items()}
    norm = np.sqrt(sum(float(np.sum(x * x)) for x in d.values()))
    d = {n: x / norm for n, x in d.items()}
    assert ck.directional_derivative(loss, theta0, grad, d)[0]
    wrong = dict(grad, **{"layers.0.attn.wq": grad["layers.0.attn.wq"] * 1.05})
    assert not ck.directional_derivative(loss, theta0, wrong, d)[0]


def test_loss_decreases():
    assert ck.loss_decreases(list(np.linspace(3.0, 1.0, 40)))[0]
    assert not ck.loss_decreases(list(np.linspace(1.0, 3.0, 40)))[0]
    assert not ck.loss_decreases([2.0] * 40)[0]
    assert ck.loss_decreases([5.0, 3.0, 4.0, 2.0], share=0.5)[0]
    assert not ck.loss_decreases([2.0, 4.0, 3.0, 5.0], share=0.5)[0]


@pytest.fixture
def checkpoints(tmp_path):
    m = init_model(CFG)
    m.attach_feature_maps(4, Activation.SOFTMAX)
    before = tmp_path / "post-transfer.ckpt"
    checkpoint.save_model(str(before), m, "post-transfer")
    m.lora_attach(rank=2, alpha=4.0)

    def after(edit=None, b_value=0.01):
        for ad in m.lora.values():
            ad.b.data = np.full(ad.b.shape, b_value)
        if edit:
            m.named_parameters()[edit].data = m.named_parameters()[edit].data + 1e-3
        path = tmp_path / "post-finetune.ckpt"
        checkpoint.save_model(str(path), m, "post-finetune")
        return ck.read_checkpoint(str(path))

    return ck.read_checkpoint(str(before)), after


def test_frozen_check_accepts_lora_only_changes(checkpoints):
    before, after = checkpoints
    assert ck.frozen_during_finetune(before, after())[0]


@pytest.mark.parametrize("edit", ["layers.0.attn.wq", "layers.1.phi.0.w", "lnf.b"])
def test_frozen_check_rejects_a_changed_weight_or_feature_map(checkpoints, edit):
    before, after = checkpoints
    assert not ck.frozen_during_finetune(before, after(edit))[0]


def test_frozen_check_rejects_a_finetune_that_left_lora_b_at_zero(checkpoints):
    before, after = checkpoints
    assert not ck.frozen_during_finetune(before, after(b_value=0.0))[0]


def test_read_checkpoint_matches_the_program_loader_and_rejects_truncation(tmp_path):
    m = converted_model()
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(str(path), m, "post-finetune")
    ours = ck.read_checkpoint(str(path))
    theirs, _meta = checkpoint.load_checkpoint(str(path))
    assert sorted(ours) == sorted(theirs)
    assert all(ours[n].tobytes() == theirs[n].tobytes() for n in ours)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        ck.read_checkpoint(str(path))


def test_accuracy_check_rejects_a_wrong_accuracy():
    logits = np.zeros((4, 3, 5))
    targets = np.zeros((4, 3), dtype=int)
    logits[:, -1, 2] = 1.0  # predicts 2 at the scored position
    targets[:2, -1] = 2
    mask = np.zeros((4, 3), dtype=bool)
    mask[:, -1] = True
    assert ck.accuracy_matches(0.5, logits, targets, mask)[0]
    assert not ck.accuracy_matches(0.75, logits, targets, mask)[0]


def test_rounds_check_rejects_a_differing_round():
    a = {"losses": [1.0, 0.5], "post.ckpt": "ab"}
    assert ck.same_across_rounds([a, dict(a)])[0]
    assert not ck.same_across_rounds([a, dict(a, losses=[1.0, 0.5000001])])[0]
    assert not ck.same_across_rounds([a])[0]


def test_patches_reach_every_binding_and_undo_restores_them():
    original = attention.hybrid_attention
    calls = []

    def wrapper(fn):
        def counted(*a, **k):
            calls.append(1)
            return fn(*a, **k)
        return counted

    p = hooks.Patches()
    assert p.wrap("hafx.attention.ops:hybrid_attention", wrapper)
    assert hmodel.hybrid_attention is not original
    assert attention.hybrid_attention is hmodel.hybrid_attention
    m = converted_model()
    m.forward_logits(tokens(), AttnSettings("hybrid", AblationMode.FULL_HYBRID, WindowSpec(4, 2)))
    assert len(calls) == CFG.n_layers * CFG.n_heads
    p.undo()
    assert hmodel.hybrid_attention is original and attention.hybrid_attention is original
    assert not p.wrap("hafx.attention.ops:no_such_function", wrapper)


def test_tracer_counts_and_self_time():
    tracer = hooks.Tracer()
    p = hooks.Patches()
    tracer.install(p)
    try:
        m = init_model(CFG)
        m.forward_logits(tokens(), AttnSettings("softmax"))
    finally:
        p.undo()
    calls = tracer.calls
    assert calls["model.forward_logits"] == 1
    assert calls["model.attention"] == CFG.n_layers
    assert calls["attention.apply_rope"] == 2 * CFG.n_layers * CFG.n_heads
    counts = tracer.counts
    assert counts["tensor.ops"] == calls["tensor.check_finite"] > 0
    assert counts["tensor.taped_ops"] == counts["tensor.ops"]  # parameters are trainable
    assert counts["tensor.eval_taped_ops"] == 0
    spans = [s for s in tracer.spans if s is not None]
    root = next(s for s in spans if s[2] == "model.forward_logits")
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(root[4] - root[3], rel=1e-9)
    assert tracer.absent == []


def test_step_clock_drops_steps_that_span_an_evaluation():
    clock = hooks.StepClock()
    opt = object.__new__(AdamW)
    opt.params = {"w": None}
    clock._kinds[id(opt)] = (opt, "base")
    clock.steps = [(t, id(opt), "base", 1.0) for t in (1.0, 2.0, 3.5, 4.0)]
    clock.evals = [(2.1, 3.0, 32, 1024, 1, 0.0)]
    assert clock.step_samples(("base",)) == [1.0, 0.5]
    assert clock.step_samples(("finetune",)) == []

import copy

import numpy as np
import pytest

from hafx.attention import (
    AblationMode,
    FeatureMapParams,
    HybridSpec,
    WindowSpec,
    feature_map_apply,
)
from hafx.convert import (
    SSDSchedule,
    TrainConfig,
    TransferObjective,
    run_attention_transfer,
    run_base_training,
    run_finetune,
    ssd_sample,
    transfer_loss,
)
from hafx.errors import ConfigError, ContractError
from hafx.model import Model, ModelConfig, init_model
from hafx.optim import LR_FLOOR, PLATEAU_PATIENCE, AdamW, ReduceOnPlateau
from hafx.rng import SeededRng
from hafx.tensor import Tensor

from .reference import finite_diff_check

TINY = ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2, max_T=16, mlp_width=32)
NO_SSD = SSDSchedule([0.0], [4])  # plain fine-tuning at window 4: SSD at rate 0


def tiny_data(n=8, T=8, seed=0):
    rng = SeededRng(seed, "convert-data")
    tokens = rng.integers(0, TINY.vocab_size, (n, T))
    return {
        "tokens": tokens,
        "targets": np.roll(tokens, -1, axis=-1),
        "loss_mask": np.ones((n, T)),
    }


def make_phi(seed=0, d_prime=4, trainable=True):
    rng = SeededRng(seed, "tphi")
    return FeatureMapParams(
        w=Tensor(np.eye(8, d_prime) + rng.normal((8, d_prime), std=0.1),
                 requires_grad=trainable),
        b=Tensor(np.zeros(d_prime), requires_grad=trainable),
    )


def qkv(T=10, d=8, seed=1):
    rng = SeededRng(seed, "tqkv")
    return rng.normal((T, d)), rng.normal((T, d)), rng.normal((T, d))


def np_teacher(q, k):
    d = q.shape[-1]
    T = q.shape[0]
    s = (q @ k.T) / np.sqrt(d)
    s = np.where(np.tril(np.ones((T, T), dtype=bool)), s, -np.inf)
    s -= s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    return w / w.sum(axis=-1, keepdims=True)


# -- SSD schedule ------------------------------------------------------------


def test_ssd_schedule_validation():
    with pytest.raises(ConfigError):
        SSDSchedule([], [4])
    with pytest.raises(ConfigError):
        SSDSchedule([1.5], [4])
    with pytest.raises(ConfigError):
        SSDSchedule([0.5], [0])


def test_ssd_sample_rate_indexing():
    sched = SSDSchedule([0.9, 0.75, 0.5], [4, 8, 16, 32, 64])
    rng = SeededRng(0, "ssd")
    # epoch 1 uses the first dropout rate; verify via the rate's effect
    hits = sum(ssd_sample(sched, 1, rng.child(str(i)))[0] for i in range(4000))
    assert abs(hits / 4000 - 0.9) < 0.03
    hits3 = sum(ssd_sample(sched, 3, rng.child(f"e3/{i}"))[0] for i in range(4000))
    assert abs(hits3 / 4000 - 0.5) < 0.03


def test_ssd_sample_window_indexing_and_hold_last():
    sched = SSDSchedule([0.9, 0.75, 0.5], [4, 8, 16, 32, 64])
    rng = SeededRng(1, "ssd")
    assert ssd_sample(sched, 3, rng.child("a"))[1] == 16
    assert ssd_sample(sched, 5, rng.child("b"))[1] == 64
    # both lists hold their last value past the end
    assert ssd_sample(sched, 9, rng.child("c"))[1] == 64
    hits = sum(ssd_sample(sched, 9, rng.child(f"h/{i}"))[0] for i in range(4000))
    assert abs(hits / 4000 - 0.5) < 0.03


def test_ssd_sample_extremes_deterministic():
    sched = SSDSchedule([1.0], [8])
    rng = SeededRng(2, "ssd")
    assert all(ssd_sample(sched, 1, rng.child(str(i)))[0] for i in range(100))
    never = SSDSchedule([0.0], [8])
    assert not any(ssd_sample(never, 1, rng.child(f"n{i}"))[0] for i in range(100))


def test_ssd_sample_rejects_epoch_zero():
    with pytest.raises(ContractError):
        ssd_sample(SSDSchedule([0.5], [8]), 0, SeededRng(0, "x"))


# -- transfer losses ---------------------------------------------------------


def test_weights_ce_matches_numpy_recomputation():
    q, k, v = qkv()
    phi = make_phi()
    loss = transfer_loss(TransferObjective.WEIGHTS_CE, q, k, v, phi,
                         WindowSpec(4), HybridSpec(0.5))
    pq = feature_map_apply(phi, Tensor(q)).data
    pk = feature_map_apply(phi, Tensor(k)).data
    T = q.shape[0]
    kern = (pq @ pk.T) * np.tril(np.ones((T, T)))
    p = kern / np.maximum(kern.sum(axis=-1, keepdims=True), 1e-12)
    expected = (-(np_teacher(q, k) * np.log(p + 1e-12)).sum(axis=-1)).mean()
    np.testing.assert_allclose(loss.data, expected, atol=1e-12)


def test_outputs_mse_matches_numpy_recomputation():
    q, k, v = qkv(seed=2)
    phi = make_phi(seed=2)
    loss = transfer_loss(TransferObjective.OUTPUTS_MSE, q, k, v, phi,
                         WindowSpec(4), HybridSpec(0.5))
    pq = feature_map_apply(phi, Tensor(q)).data
    pk = feature_map_apply(phi, Tensor(k)).data
    T = q.shape[0]
    kern = (pq @ pk.T) * np.tril(np.ones((T, T)))
    student = (kern @ v) / np.maximum(kern.sum(axis=-1, keepdims=True), 1e-6)
    expected = ((student - np_teacher(q, k) @ v) ** 2).mean()
    np.testing.assert_allclose(loss.data, expected, atol=1e-12)


def test_hybrid_outputs_mse_swa_plus_lagged_la():
    q, k, v = qkv(T=12, seed=3)
    phi = make_phi(seed=3)
    win, hy = WindowSpec(4), HybridSpec(0.5)
    loss = transfer_loss(TransferObjective.HYBRID_OUTPUTS_MSE, q, k, v, phi, win, hy)
    pq = feature_map_apply(phi, Tensor(q)).data
    pk = feature_map_apply(phi, Tensor(k)).data
    T = q.shape[0]
    t = np.arange(T)
    swa_mask = (t[None, :] <= t[:, None]) & (t[None, :] > t[:, None] - win.window)
    s = (q @ k.T) / np.sqrt(q.shape[-1])
    s = np.where(swa_mask, s, -np.inf)
    s -= s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    swa = (w / w.sum(axis=-1, keepdims=True)) @ v
    la_mask = (t[None, :] <= t[:, None] - win.window).astype(float)
    kern = (pq @ pk.T) * la_mask
    la = (kern @ v) / np.maximum(kern.sum(axis=-1, keepdims=True), 1e-6)
    student = hy.g * swa + (1 - hy.g) * la
    expected = ((student - np_teacher(q, k) @ v) ** 2).mean()
    np.testing.assert_allclose(loss.data, expected, atol=1e-12)


@pytest.mark.parametrize("objective", list(TransferObjective))
def test_transfer_loss_gradients_vs_finite_diff(objective):
    q, k, v = qkv(T=8, seed=4)
    b = Tensor(np.zeros(4))

    def f(w):
        phi = FeatureMapParams(w, b)
        return transfer_loss(objective, q, k, v, phi, WindowSpec(3), HybridSpec(0.5))

    w0 = Tensor(np.eye(8, 4) + SeededRng(4, "fd").normal((8, 4), std=0.1))
    assert finite_diff_check(f, w0, step=1e-5) < 1e-4


# -- optimizer / scheduler -----------------------------------------------------


def test_adamw_first_step_hand_computed():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, eps=1e-8, weight_decay=0.0)
    p.grad = np.array([0.5])
    opt.step()
    # first step: m_hat = g, v_hat = g^2 -> update ~= lr * sign(g)
    expected = 2.0 - 0.1 * (0.5 / (0.5 + 1e-8))
    np.testing.assert_allclose(p.data, [expected], atol=1e-12)


def test_adamw_decay_is_decoupled():
    p = Tensor(np.array([4.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
    opt.step()  # grad is None -> pure decay
    np.testing.assert_allclose(p.data, [4.0 * (1 - 0.01 * 0.1)], atol=1e-12)


def test_adamw_converges_on_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)
    for _ in range(400):
        opt.zero_grad()
        ((p - 1.0) * (p - 1.0)).sum().backward()
        opt.step()
    assert abs(p.data[0] - 1.0) < 1e-2


def test_plateau_reduces_after_patience():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=1.0)
    sched = ReduceOnPlateau(opt)
    assert not sched.step(1.0)   # new best
    assert not sched.step(1.0)   # bad 1
    assert not sched.step(1.0)   # bad 2
    assert sched.step(1.0)       # bad 3 > patience -> reduce
    assert opt.lr == 0.5


def test_plateau_improvement_resets_counter():
    opt = AdamW({"p": Tensor(np.array([1.0]), requires_grad=True)}, lr=1.0)
    sched = ReduceOnPlateau(opt)
    sched.step(1.0)
    sched.step(1.0)
    sched.step(0.5)  # improvement resets bad count
    assert not sched.step(0.5)
    assert not sched.step(0.5)
    assert opt.lr == 1.0


def test_plateau_lr_floor_freeze():
    opt = AdamW({"p": Tensor(np.array([1.0]), requires_grad=True)}, lr=1.5 * LR_FLOOR)
    sched = ReduceOnPlateau(opt)
    sched.step(1.0)
    for _ in range(PLATEAU_PATIENCE):
        assert not sched.step(1.0)
    assert sched.step(1.0)  # would halve below the floor -> frozen
    assert opt.lr == 1.5 * LR_FLOOR


# -- stage runners ------------------------------------------------------------


def test_transfer_requires_feature_maps():
    model = init_model(TINY)
    with pytest.raises(ContractError):
        run_attention_transfer(model, TransferObjective.WEIGHTS_CE, TrainConfig(),
                               tiny_data()["tokens"], WindowSpec(4), HybridSpec(0.5), 1)


def test_transfer_touches_only_phi():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    cfg = TrainConfig(batch_size=4, seed=0)
    run_attention_transfer(model, TransferObjective.WEIGHTS_CE, cfg,
                           tiny_data()["tokens"], WindowSpec(4), HybridSpec(0.5), 1)
    for name, p in model.named_parameters().items():
        if ".phi." in name:
            assert not (p.data == before[name]).all() or p.data.size == 0
        else:
            assert (p.data == before[name]).all(), name


def test_transfer_reduces_loss_over_epochs():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    cfg = TrainConfig(batch_size=4)
    report = run_attention_transfer(model, TransferObjective.OUTPUTS_MSE, cfg,
                                    tiny_data(n=16)["tokens"], WindowSpec(4), HybridSpec(0.5), 4)
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_finetune_requires_lora():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    data = tiny_data()
    with pytest.raises(ContractError):
        run_finetune(model, TrainConfig(), NO_SSD, data, data, WindowSpec(4), HybridSpec(0.5), 1)


def test_finetune_deterministic_across_runs():
    def run():
        model = init_model(TINY)
        model.attach_feature_maps(4)
        model.lora_attach(rank=2)
        cfg = TrainConfig(batch_size=4, accumulation=2, seed=5)
        data = tiny_data(n=8)
        run_finetune(model, cfg, SSDSchedule([0.5, 0.25], [4, 8]), data, data,
                     WindowSpec(4), HybridSpec(0.5), 2)
        return {n: p.data.copy() for n, p in model.named_parameters().items()}

    a, b = run(), run()
    assert a.keys() == b.keys()
    for name in a:
        assert (a[name] == b[name]).all(), name


def test_finetune_updates_only_lora():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    cfg = TrainConfig(batch_size=4, seed=1)
    data = tiny_data(n=8)
    run_finetune(model, cfg, NO_SSD, data, data, WindowSpec(4), HybridSpec(0.5), 1)
    for name, p in model.named_parameters().items():
        if ".lora_" not in name:
            assert (p.data == before[name]).all(), name


def hedgecats(model, cfg, stage2_epochs, data, eval_gap_fn=None):
    """Weights-CE transfer, then LoRA fine-tuning with an early stop."""
    win, hy = WindowSpec(4), HybridSpec(0.5)
    s1 = run_attention_transfer(model, TransferObjective.WEIGHTS_CE, cfg, data["tokens"],
                                win, hy, 1)
    model.lora_attach()
    s2 = run_finetune(model, cfg, NO_SSD, data, data, win, hy, stage2_epochs,
                      eval_gap_fn=eval_gap_fn)
    return s1, s2


def test_hedgecats_stage2_zero_is_transfer_only():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    data = tiny_data(n=8)
    cfg = TrainConfig(batch_size=4, seed=2)
    s1, s2 = hedgecats(model, cfg, 0, data)
    assert s1.epoch_losses and not s2.epoch_losses


def test_hedgecats_early_stop_on_closed_gap():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    data = tiny_data(n=8)
    cfg = TrainConfig(batch_size=4, seed=3)
    calls = []

    def gap(_m):
        calls.append(1)
        return -0.1  # gap already closed -> stop after the first epoch

    _, s2 = hedgecats(model, cfg, 5, data, eval_gap_fn=gap)
    assert len(s2.epoch_losses) == 1 and len(calls) == 1


def test_full_dropout_epoch_never_uses_swa(monkeypatch):
    """With dropout 1.0 every optimisation step runs in LA-only mode."""
    import hafx.convert as convert

    seen = []
    orig = convert.ssd_sample

    def spy(sched, epoch, rng):
        out = orig(sched, epoch, rng)
        seen.append(out[0])
        return out

    monkeypatch.setattr(convert, "ssd_sample", spy)
    model = init_model(TINY)
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    data = tiny_data(n=8)
    cfg = TrainConfig(batch_size=4, accumulation=1, seed=4)
    run_finetune(model, cfg, SSDSchedule([1.0], [4]), data, data,
                 WindowSpec(4), HybridSpec(0.5), 1)
    assert seen and all(seen)


def test_rate_zero_schedule_runs_every_step_full_hybrid(monkeypatch):
    """Plain fine-tuning is SSD at rate 0: every step, and the held-out
    eval, runs the full hybrid at the schedule's window."""
    seen = []
    orig = Model.forward_logits

    def spy(self, tokens, attn, *a, **k):
        seen.append((attn.mode, attn.win.window))
        return orig(self, tokens, attn, *a, **k)

    monkeypatch.setattr(Model, "forward_logits", spy)
    model = init_model(TINY)
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    data = tiny_data(n=8)
    cfg = TrainConfig(batch_size=2, accumulation=1, seed=4)
    run_finetune(model, cfg, NO_SSD, data, data, WindowSpec(4), HybridSpec(0.5), 2)
    assert seen == [(AblationMode.FULL_HYBRID, 4)] * (2 * (4 + 1))  # 2 x (4 steps + 1 eval)


def test_loop_rng_streams(monkeypatch):
    """The streams that make reruns byte-identical: base batches are drawn
    from base/shuffle/{epoch}; each SSD coin from finetune/ssd/{epoch}/{s},
    where s indexes the step's first micro-batch, so with accumulation 2
    s = 0, 2, ... and both micro-batches of a step share its coin."""
    seen = []  # (tokens, attn) of every forward
    orig = Model.forward_logits

    def spy(self, tokens, attn, *a, **k):
        seen.append((np.array(tokens), attn))
        return orig(self, tokens, attn, *a, **k)

    monkeypatch.setattr(Model, "forward_logits", spy)
    train, heldout = tiny_data(n=8), tiny_data(n=4, seed=1)
    model = init_model(TINY)
    run_base_training(model, TrainConfig(batch_size=2, accumulation=2, seed=7),
                      train, heldout, 2)
    expected = []
    for epoch in (1, 2):
        order = SeededRng(7, f"base/shuffle/{epoch}").permutation(8)
        expected += [train["tokens"][order[i:i + 2]] for i in range(0, 8, 2)]
        expected.append(heldout["tokens"])
    assert len(seen) == len(expected)
    assert all((tokens == want).all() for (tokens, _), want in zip(seen, expected))

    seen.clear()
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    ssd = SSDSchedule([0.5], [4, 8])
    cfg = TrainConfig(batch_size=2, accumulation=2, seed=6)
    run_finetune(model, cfg, ssd, train, heldout, WindowSpec(4), HybridSpec(0.5), 2)
    expected = []
    for epoch in (1, 2):
        for s in (0, 2):
            drop, window = ssd_sample(ssd, epoch, SeededRng(6, f"finetune/ssd/{epoch}/{s}"))
            mode = AblationMode.LA_ONLY if drop else AblationMode.FULL_HYBRID
            expected += [(mode, window)] * 2
        expected.append((AblationMode.FULL_HYBRID, 4))  # held-out eval
    assert [(attn.mode, attn.win.window) for _, attn in seen] == expected
    assert {mode for mode, _ in expected} == {AblationMode.LA_ONLY, AblationMode.FULL_HYBRID}


# -- LA clamp counts ------------------------------------------------------------
# With softmax feature maps every denominator over a non-empty context is
# positive, so the clamps are exactly the queries t < w whose LA context
# (keys i <= t - w) is empty: N rows * layers * heads * w per epoch.

def test_finetune_guard_counts_are_the_empty_la_contexts():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    model.lora_attach(rank=2)
    train, heldout = tiny_data(n=8), tiny_data(n=5, seed=1)
    cfg = TrainConfig(batch_size=3, accumulation=2, seed=5)
    report = run_finetune(model, cfg, NO_SSD, train, heldout, WindowSpec(4), HybridSpec(0.5), 2)
    assert report.guard_counts == [8 * 1 * 2 * 4] * 2  # held-out evals count nothing
    assert all(type(c) is int for c in report.guard_counts)  # stages.jsonl is JSON


def test_hybrid_transfer_guard_counts_are_the_empty_la_contexts():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    cfg = TrainConfig(batch_size=3, seed=5)
    report = run_attention_transfer(model, TransferObjective.HYBRID_OUTPUTS_MSE, cfg,
                                    tiny_data(n=8)["tokens"], WindowSpec(4), HybridSpec(0.5), 2)
    assert report.guard_counts == [8 * 1 * 2 * 4] * 2


def test_overlap_guard_counts_are_zero():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    data = tiny_data(n=8)
    cfg = TrainConfig(batch_size=4, seed=5)
    overlap = HybridSpec(0.5, overlap=True)
    transfer = run_attention_transfer(model, TransferObjective.HYBRID_OUTPUTS_MSE, cfg,
                                      data["tokens"], WindowSpec(4), overlap, 1)
    model.lora_attach(rank=2)
    finetune = run_finetune(model, cfg, NO_SSD, data, data, WindowSpec(4), overlap, 1)
    assert transfer.guard_counts == finetune.guard_counts == [0]

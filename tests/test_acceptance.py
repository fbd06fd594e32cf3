"""End-to-end acceptance checks.

Each test prints a single CRITERION line so the suite output doubles as a
checklist. Criterion 8 (collapse reproduction) is qualitative: its outcome
is reported but does not fail the suite.
"""

import time

import numpy as np
import pytest

from hafx.attention import (
    AblationMode,
    FeatureMapParams,
    HybridSpec,
    WindowSpec,
    feature_map_apply,
    hybrid_attention,
    linear_attention_masked,
    sinks_attention,
    softmax_attention_causal,
)
from hafx.attention.ops import lagged_mult_mask
from hafx.convert import (
    SSDSchedule,
    TrainConfig,
    TransferObjective,
    run_attention_transfer,
    ssd_sample,
    transfer_loss,
)
from hafx.evalbench import benchmark_scaling, evaluate_task, recovered_performance
from hafx.model import AttnSettings, ModelConfig, init_model, lm_loss
from hafx.rng import SeededRng
from hafx.tensor import (
    Tensor,
    concat,
    embedding,
    gelu,
    logsumexp,
    row_softmax,
    take_along_last,
)

from .reference import finite_diff_check, linear_attention_np, linear_attention_quadratic_oracle

TINY = ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2, max_T=16, mlp_width=32)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {criterion}: {status} — {detail}")
    return ok


# -- 1: streaming LA vs quadratic oracle ------------------------------------------


def test_criterion_1_streaming_equals_quadratic():
    t0 = time.perf_counter()
    worst = 0.0
    case = 0
    for d_prime in (4, 8):
        for i in range(50):
            rng = SeededRng(case, "acc1")
            case += 1
            T = int(rng.integers(1, 65))
            d_v = int(rng.integers(1, 17))
            phi_q = np.abs(rng.normal((T, 2 * d_prime))) + 1e-3
            phi_k = np.abs(rng.normal((T, 2 * d_prime))) + 1e-3
            v = rng.normal((T, d_v))
            stream, _ = linear_attention_np(phi_q, phi_k, v)
            quad = linear_attention_quadratic_oracle(phi_q, phi_k, v)
            worst = max(worst, float(np.abs(stream - quad).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(1, ok, f"100 cases, max |diff| = {worst:.3e}, {elapsed:.1f}s")


# -- 2: finite-difference gradient checks -------------------------------------------


def _op_cases():
    m34 = Tensor(np.ones((3, 4)))
    return [
        ("add", lambda t: (t + 2.0).sum()),
        ("sub", lambda t: (t - m34).sum()),
        ("mul", lambda t: (t * t).sum()),
        ("div", lambda t: (t / (t * t + 2.0)).sum()),
        ("neg", lambda t: (-t).sum()),
        ("matmul", lambda t: (t @ Tensor(np.ones((4, 2)))).pow(2).sum()),
        ("pow", lambda t: (t * t + 0.5).pow(1.5).sum()),
        ("sqrt", lambda t: (t * t + 0.5).sqrt().sum()),
        ("log", lambda t: (t * t + 1.0).log().sum()),
        ("tanh", lambda t: t.tanh().sum()),
        ("clamp_min", lambda t: (t.clamp_min(0.3) * t).sum()),
        ("swapaxes", lambda t: (t.swapaxes(0, 1) @ Tensor(np.ones((3, 2)))).sum()),
        ("getitem", lambda t: (t[1:, :2] * 2.0).sum()),
        ("sum", lambda t: (t * 1.5).sum()),
        ("mean", lambda t: (t * 3.0).mean()),
        ("concat", lambda t: concat([t, t * 2.0], axis=-1).pow(2).mean()),
        ("row_softmax", lambda t: (row_softmax(t) * row_softmax(t)).sum()),
        ("logsumexp", lambda t: logsumexp(t, axis=-1).sum()),
        ("gelu", lambda t: gelu(t).sum()),
        ("embedding", lambda t: embedding(t, np.array([2, 0, 1])).pow(2).sum()),
        ("take_along_last", lambda t: take_along_last(t, np.array([3, 0, 2])).sum()),
    ]


def _transfer_cases():
    rng = SeededRng(0, "acc2")
    q, k, v = rng.normal((4, 8)), rng.normal((4, 8)), rng.normal((4, 8))
    b = Tensor(np.zeros(2))

    def make(objective):
        def f(w):
            phi = FeatureMapParams(w, b)
            return transfer_loss(objective, q, k, v, phi, WindowSpec(2), HybridSpec(0.5))

        return f

    return [(obj.value, make(obj)) for obj in TransferObjective]


def test_criterion_2_gradients_vs_finite_difference():
    failures = []
    worst = 0.0
    for name, f in _op_cases():
        x = Tensor(SeededRng(11, f"grad/{name}").normal((3, 4)) + 0.01)
        err = finite_diff_check(f, x, step=1e-5)
        worst = max(worst, err)
        if err >= 1e-4:
            failures.append((name, err))
    for name, f in _transfer_cases():
        w0 = Tensor(np.eye(8, 2) + SeededRng(12, name).normal((8, 2), std=0.1))
        err = finite_diff_check(f, w0, step=1e-5)
        worst = max(worst, err)
        if err >= 1e-4:
            failures.append((name, err))
    n = len(_op_cases()) + 3
    ok = not failures
    assert report(2, ok, f"{n} ops/losses checked, worst rel err = {worst:.3e}"
                  + (f", failing: {failures}" if failures else ""))


# -- 3: branch algebra --------------------------------------------------------------


def test_criterion_3_branch_algebra():
    rng = SeededRng(3, "acc3")
    T, d = 32, 8
    q = Tensor(rng.normal((T, d)))
    k = Tensor(rng.normal((T, d)))
    v = Tensor(rng.normal((T, d)))
    phi = FeatureMapParams(
        Tensor(np.eye(d, 4) + rng.normal((d, 4), std=0.1)),
        Tensor(np.zeros(4)),
    )
    win, hy = WindowSpec(8, sink_count=4), HybridSpec(0.5)
    full = hybrid_attention(q, k, v, phi, win, hy, AblationMode.FULL_HYBRID)
    swa = hybrid_attention(q, k, v, phi, win, hy, AblationMode.SWA_ONLY)
    la = hybrid_attention(q, k, v, phi, win, hy, AblationMode.LA_ONLY)
    additivity = float(np.abs(full.data - (swa.data + la.data)).max())

    none = hybrid_attention(q, k, v, phi, win, hy, AblationMode.NO_ATTENTION)
    none_zero = bool((none.data == 0).all())

    sinks = hybrid_attention(q, k, v, phi, WindowSpec(8, sink_count=T), hy,
                             AblationMode.SINKS_ONLY)
    full_sm = softmax_attention_causal(q, k, v)
    sinks_diff = float(np.abs(sinks.data - full_sm.data).max())

    ok = additivity < 1e-10 and none_zero and sinks_diff < 1e-12
    assert report(3, ok, f"additivity {additivity:.3e}, NoAttention zero: {none_zero}, "
                  f"SinksOnly(s=T) vs softmax {sinks_diff:.3e}")


# -- 4: SSD schedule semantics -----------------------------------------------------


def test_criterion_4_schedule_semantics():
    sched = SSDSchedule([0.9, 0.75, 0.5], [4, 8, 16, 32, 64])
    rng = SeededRng(4, "acc4")
    # epoch-1 rate is exactly the first entry: verify via the uniform threshold
    rates = []
    for epoch, expected in ((1, 0.9), (3, 0.5), (99, 0.5)):
        hits = sum(ssd_sample(sched, epoch, rng.child(f"{epoch}/{i}"))[0]
                   for i in range(20000))
        rates.append((epoch, hits / 20000, expected))
    rate_ok = all(abs(got - want) < 0.01 for _, got, want in rates)
    windows_ok = (
        ssd_sample(sched, 3, rng.child("w3"))[1] == 16
        and ssd_sample(sched, 5, rng.child("w5"))[1] == 64
        and ssd_sample(sched, 42, rng.child("w42"))[1] == 64  # hold-last
    )
    always = SSDSchedule([1.0], [8])
    all_dropped = all(ssd_sample(always, 1, rng.child(f"d{i}"))[0] for i in range(1000))

    # a dropped step's gradient is identical to the pure LA branch: the SWA
    # branch contributes exactly zero gradient
    q = Tensor(rng.normal((16, 8)), requires_grad=True)
    k = Tensor(rng.normal((16, 8)), requires_grad=True)
    v = Tensor(rng.normal((16, 8)), requires_grad=True)
    phi = FeatureMapParams(Tensor(np.eye(8, 4) + rng.normal((8, 4), std=0.1),
                                  requires_grad=True),
                           Tensor(np.zeros(4), requires_grad=True))
    win, hy = WindowSpec(4), HybridSpec(0.5)
    out = hybrid_attention(q, k, v, phi, win, hy, AblationMode.LA_ONLY)
    (out * out).sum().backward()
    g_drop = [q.grad.copy(), k.grad.copy(), v.grad.copy(), phi.w.grad.copy()]
    for p in (q, k, v, phi.w):
        p.grad = None
    la = (1.0 - hy.g) * linear_attention_masked(
        feature_map_apply(phi, q), feature_map_apply(phi, k), v,
        lagged_mult_mask(16, win.window))
    (la * la).sum().backward()
    g_la = [q.grad, k.grad, v.grad, phi.w.grad]
    grad_ok = all((a == b).all() for a, b in zip(g_drop, g_la))

    ok = rate_ok and windows_ok and all_dropped and grad_ok
    assert report(4, ok, f"rates {[(e, round(r, 3)) for e, r, _ in rates]}, "
                  f"windows ok: {windows_ok}, dropout-1.0 all dropped: {all_dropped}, "
                  f"SWA-branch gradient zero: {grad_ok}")


# -- 5: LoRA contracts -------------------------------------------------------------


def test_criterion_5_lora_contracts():
    rng = SeededRng(5, "acc5")
    tokens = rng.integers(0, TINY.vocab_size, (10,))

    model = init_model(TINY)
    base = model.forward_logits(tokens, AttnSettings()).data
    model.lora_attach(rank=4, alpha=8.0)
    noop = bool((model.forward_logits(tokens, AttnSettings()).data == base).all())

    for ad in model.lora.values():
        ad.b.data = rng.child("fill").normal(ad.b.shape, std=0.05)
    pre_merge = model.forward_logits(tokens, AttnSettings()).data
    model.lora_merge()
    merge_diff = float(np.abs(model.forward_logits(tokens, AttnSettings()).data
                              - pre_merge).max())

    model2 = init_model(TINY)
    model2.attach_feature_maps(4)
    before = {n: p.data.copy() for n, p in model2.named_parameters().items()}
    data = rng.integers(0, TINY.vocab_size, (8, 8))
    run_attention_transfer(model2, TransferObjective.WEIGHTS_CE,
                           TrainConfig(batch_size=4), data, WindowSpec(4), HybridSpec(0.5), 1)
    untouched = all(
        (p.data == before[n]).all()
        for n, p in model2.named_parameters().items()
        if ".phi." not in n
    )
    phi_moved = any(
        not (p.data == before[n]).all()
        for n, p in model2.named_parameters().items()
        if ".phi." in n
    )

    ok = noop and merge_diff < 1e-12 and untouched and phi_moved
    assert report(5, ok, f"zero-init no-op: {noop}, merge diff {merge_diff:.3e}, "
                  f"transfer leaves non-phi bit-identical: {untouched}")


# -- 6: recovered-performance arithmetic ----------------------------------------------


def test_criterion_6_recovered_performance():
    a = recovered_performance(65.56, 68.26)
    b = recovered_performance(34.40, 68.26)
    ok = abs(a - 96.04) <= 0.01 and abs(b - 50.39) <= 0.01
    assert report(6, ok, f"(65.56, 68.26) -> {a:.4f}, (34.40, 68.26) -> {b:.4f}")


# -- 9: byte determinism --------------------------------------------------------------


def test_criterion_9_byte_determinism(tmp_path, monkeypatch):
    from hafx.config import parse_config
    from hafx.pipelines import cmd_ablate, cmd_ssd_run

    cfg_text = (
        "seed = 3\n"
        "model.vocab_size = 32\n"
        "model.d_model = 16\n"
        "model.n_layers = 1\n"
        "model.n_heads = 2\n"
        "model.mlp_width = 32\n"
        "model.max_T = 32\n"
        "attn.window = 8\n"
        "ssd.dropout = 0.5\n"
        "ssd.window = 4,8\n"
        "task.kinds = assoc_recall\n"
        "task.T = 16\n"
        "task.n_examples = 64\n"
        "task.n_pairs = 4\n"
        "task.n_keys = 4\n"
        "task.n_values = 4\n"
        "train.base_epochs = 1\n"
        "train.finetune_epochs = 1\n"
        "train.batch_size = 8\n"
        "train.accumulation = 1\n"
    )

    def run(out_dir):
        monkeypatch.setenv("HAFX_OUTPUT_DIR", str(out_dir))
        cfg = parse_config(cfg_text)
        cmd_ssd_run(cfg)
        cmd_ablate(cfg, str(out_dir / "post-finetune.ckpt"))
        return {
            p.name: p.read_bytes()
            for p in sorted(out_dir.iterdir())
            if p.suffix in (".ckpt", ".csv")
        }

    a = run(tmp_path / "run1")
    b = run(tmp_path / "run2")
    same_names = a.keys() == b.keys()
    diffs = [n for n in a if a[n] != b.get(n)]
    ok = same_names and not diffs and len(a) >= 3
    assert report(9, ok, f"{len(a)} checkpoint/CSV artifacts, "
                  + ("all byte-identical across reruns" if ok
                     else f"mismatched: {diffs or 'name sets differ'}"))


# -- 8: collapse reproduction (soft gate) ----------------------------------------------


def test_criterion_8_collapse_soft_gate(tmp_path, monkeypatch):
    """Qualitative collapse reproduction (soft gate).

    Runs the shipped recipes end to end: the hybrid-outputs conversion must
    leave the LA branch inert (LAOnly at chance, SWAOnly ≈ FullHybrid on the
    small-window associative-recall probe), while the weights-transfer recipe
    (HedgeCATs stage 1) must leave LAOnly above chance by > 3σ. Only the
    runtime bound is enforced; the signature itself is reported.
    """
    import os

    from hafx.config import load_config
    from hafx.pipelines import cmd_ablate, cmd_finetune, cmd_hedgecats, cmd_transfer
    from hafx.tasks import gen_task

    t0 = time.perf_counter()
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    modes = [AblationMode.FULL_HYBRID, AblationMode.SWA_ONLY,
             AblationMode.LA_ONLY, AblationMode.NO_ATTENTION]

    def ablation_accs(cfg, ckpt):
        rep, _ = cmd_ablate(cfg, ckpt, modes=modes)
        return {m.value: acc for m, _task, acc, _loss in rep.rows}

    collapse_dir = tmp_path / "collapse"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(collapse_dir))
    ccfg = load_config(os.path.join(configs, "collapse.cfg"))
    cmd_transfer(ccfg)
    cmd_finetune(ccfg, str(collapse_dir / "post-transfer.ckpt"))
    hyb = ablation_accs(ccfg, str(collapse_dir / "post-finetune.ckpt"))

    hedge_dir = tmp_path / "hedgecats"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(hedge_dir))
    hcfg = load_config(os.path.join(configs, "hedgecats.cfg"))
    cmd_hedgecats(hcfg, base_ckpt=str(collapse_dir / "base.ckpt"))
    ce = ablation_accs(hcfg, str(hedge_dir / "post-transfer.ckpt"))

    probe = gen_task(ccfg.task_specs()[0], "eval")
    chance = probe["chance"]
    n_scored = int(probe["acc_mask"].sum())
    sigma = float(np.sqrt(chance * (1.0 - chance) / n_scored))

    la_dead = abs(hyb["la_only"] - chance) <= 3 * sigma
    swa_is_all = abs(hyb["full_hybrid"] - hyb["swa_only"]) <= 3 * sigma
    la_alive = ce["la_only"] - chance > 3 * sigma
    elapsed = time.perf_counter() - t0

    ok = la_dead and swa_is_all and la_alive and elapsed < 1800.0
    report(
        8, ok,
        f"hybrid-outputs: LAOnly {hyb['la_only']:.3f} vs chance {chance:.3f} "
        f"(3σ = {3 * sigma:.3f}, dead: {la_dead}), "
        f"FullHybrid {hyb['full_hybrid']:.3f} vs SWAOnly {hyb['swa_only']:.3f} "
        f"(collapsed: {swa_is_all}); weights-transfer: LAOnly {ce['la_only']:.3f} "
        f"(alive: {la_alive}); {elapsed:.0f}s (< 1800s soft-gate pipeline)",
    )
    # soft gate: only the runtime bound is enforced
    assert elapsed < 1800.0


# -- 7: scaling benchmark --------------------------------------------------------------


def test_criterion_7_scaling_benchmark():
    """Linear vs quadratic cost, measured as wall-clock doubling ratios.

    Each ratio is time(2T)/time(T) for one path: the median over the
    benchmark's interleaved rounds of the two samples timed in the same
    round. Streaming LA touches each token once, so doubling T should about
    double its time; the quadratic path's T x T score matrix should about
    quadruple it. The aux-state check asserts the streaming accumulators do
    not grow with T.
    """
    t0 = time.perf_counter()
    bench = benchmark_scaling([512, 1024, 2048], reps=5)
    elapsed = time.perf_counter() - t0
    stream_path = next(p for p, *_ in bench.rows if p.startswith("streaming-"))
    stream = bench.ratios(stream_path)
    quad = bench.ratios("quadratic-softmax")
    stream_ok = all(1.6 <= r <= 2.6 for r in stream.values())
    quad_ok = all(3.2 <= r <= 5.2 for r in quad.values())
    aux = {a for p, _T, _ms, a in bench.rows if p == stream_path}
    aux_ok = len(aux) == 1
    ok = stream_ok and quad_ok and aux_ok and elapsed < 120.0
    assert report(
        7, ok,
        f"{stream_path} ratios {[round(r, 2) for r in stream.values()]} (want 1.6-2.6), "
        f"quadratic {[round(r, 2) for r in quad.values()]} (want 3.2-5.2), "
        f"aux state T-independent: {aux_ok}, {elapsed:.1f}s",
    )

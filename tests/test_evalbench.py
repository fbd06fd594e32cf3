import contextlib

import numpy as np
import pytest

from hafx.attention import AblationMode, HybridSpec, WindowSpec
from hafx.convert import evaluate_lm
from hafx.errors import ConfigError, ContractError, InputError
from hafx.evalbench import (
    ALL_MODES,
    BenchReport,
    EvalReport,
    benchmark_scaling,
    evaluate_ablations,
    evaluate_task,
    mode_scores,
    recovered_performance,
)
from hafx.model import AttnSettings, Model, ModelConfig, init_model, lm_loss
from hafx.tasks import CHAR_OFFSET, MARKER, TaskSpec, gen_task, merge_datasets
from hafx.tensor import Tensor

TINY = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_T=32, mlp_width=32)


# -- tasks -------------------------------------------------------------------


def test_assoc_recall_layout():
    spec = TaskSpec(kind="assoc_recall", T=16, vocab=32, n_examples=8,
                    n_pairs=3, n_keys=4, n_values=4)
    data = gen_task(spec, "eval")
    toks = data["tokens"]
    assert (toks[:, -2] == MARKER).all()
    # the queried key appears among the stored keys, and the target is its value
    for row, tgt in zip(toks, data["targets"]):
        keys, values = row[0:6:2], row[1:7:2]
        q = row[-1]
        assert q in keys
        assert tgt[-1] == values[list(keys).index(q)]
    assert data["acc_mask"][:, :-1].sum() == 0
    assert data["chance"] == 0.25


def test_copy_layout():
    spec = TaskSpec(kind="copy", T=11, vocab=32, n_examples=8, copy_symbols=4,
                    n_keys=4, n_values=4)
    data = gen_task(spec, "eval")
    for row in data["tokens"]:
        L = 5
        assert row[L] == MARKER
        np.testing.assert_array_equal(row[:L], row[L + 1 : 2 * L + 1])
    assert data["chance"] == 0.25


def test_char_lm_targets_shift():
    spec = TaskSpec(kind="char_lm", T=12, vocab=64, n_examples=8)
    data = gen_task(spec, "eval")
    assert (data["tokens"] >= CHAR_OFFSET).all()
    np.testing.assert_array_equal(data["tokens"][:, 1:], data["targets"][:, :-1])


def test_task_determinism():
    spec = TaskSpec(kind="assoc_recall", T=16, vocab=32, n_examples=16,
                    n_pairs=3, n_keys=4, n_values=4)
    a = gen_task(spec, "train", gen_task(spec, "eval"))
    b = gen_task(spec, "train", gen_task(spec, "eval"))
    assert (a["tokens"] == b["tokens"]).all()
    assert (a["targets"] == b["targets"]).all()


def test_train_eval_disjoint():
    spec = TaskSpec(kind="copy", T=9, vocab=32, n_examples=64, copy_symbols=3,
                    n_keys=4, n_values=4)
    ev = gen_task(spec, "eval")
    train = gen_task(spec, "train", ev)
    eval_rows = {row.tobytes() for row in ev["tokens"]}
    assert not any(row.tobytes() in eval_rows for row in train["tokens"])
    # a train split cannot exclude an eval split it is not given
    with pytest.raises(ContractError):
        gen_task(spec, "train")


def test_task_validation():
    with pytest.raises(ConfigError):
        TaskSpec(kind="sorting")
    with pytest.raises(ConfigError):
        TaskSpec(kind="assoc_recall", T=6, n_pairs=4)
    with pytest.raises(ConfigError):
        TaskSpec(vocab=8, n_keys=16, n_values=16)


def test_merge_datasets_preserves_rows():
    s1 = TaskSpec(kind="copy", T=16, vocab=32, n_examples=8, copy_symbols=4,
                  n_keys=4, n_values=4)
    s2 = TaskSpec(kind="assoc_recall", T=16, vocab=32, n_examples=8,
                  n_pairs=3, n_keys=4, n_values=4)
    a, b = (gen_task(s, "train", gen_task(s, "eval")) for s in (s1, s2))
    merged = merge_datasets([a, b], seed=1)
    assert len(merged["tokens"]) == 16
    pool = {r.tobytes() for r in a["tokens"]} | {r.tobytes() for r in b["tokens"]}
    assert all(r.tobytes() in pool for r in merged["tokens"])


# -- recovered performance ---------------------------------------------------


def test_recovered_performance_table_values():
    # the two published anchor points for the metric
    assert abs(recovered_performance(65.56, 68.26) - 96.04) < 0.01
    assert abs(recovered_performance(34.40, 68.26) - 50.39) < 0.01


def test_recovered_performance_identity_and_zero():
    assert recovered_performance(0.5, 0.5) == 100.0
    assert recovered_performance(0.0, 0.5) == 0.0


def test_recovered_performance_rejects_zero_base():
    with pytest.raises(ContractError):
        recovered_performance(0.5, 0.0)


# -- evaluation harness ----------------------------------------------------------


@pytest.fixture
def eval_setup():
    model = init_model(TINY)
    model.attach_feature_maps(4)
    spec = TaskSpec(kind="copy", T=9, vocab=32, n_examples=16, copy_symbols=4,
                    n_keys=4, n_values=4)
    return model, {"copy": gen_task(spec, "eval")}


def test_evaluate_task_counts_scored_positions(eval_setup):
    model, tasks = eval_setup
    data = tasks["copy"]
    acc, loss, n = evaluate_task(model, data, AttnSettings(kind="softmax"))
    assert n == int(data["acc_mask"].sum())
    assert 0.0 <= acc <= 1.0 and np.isfinite(loss)


def test_evaluate_task_loss_is_mean_over_scored_positions():
    # 40 rows: one batch of 32 and a short one of 8
    model = init_model(ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                                   max_T=16, mlp_width=32))
    data = gen_task(TaskSpec(kind="char_lm", T=16, vocab=64, n_examples=160), "eval")
    assert len(data["tokens"]) == 40
    attn = AttnSettings(kind="softmax")
    _acc, loss, _n = evaluate_task(model, data, attn)
    direct = lm_loss(model.forward_logits(data["tokens"], attn), data["targets"],
                     data["loss_mask"])
    assert abs(loss - float(direct.data)) < 1e-12


@pytest.mark.parametrize("evaluate", [evaluate_lm, evaluate_task])
def test_evals_build_no_tape_and_restore_every_flag(eval_setup, monkeypatch, evaluate):
    """The evals' results are bit-equal to the same forwards run taped with
    the parameters trainable; no op inside them tapes; every requires_grad
    flag is restored on return and on a forward that raises."""
    model, tasks = eval_setup
    model.lora_attach(rank=2)
    model.set_trainable(lambda n: ".lora_" in n)
    flags = {n: p.requires_grad for n, p in model.named_parameters().items()}
    data = tasks["copy"]
    attn = AttnSettings("hybrid", AblationMode.FULL_HYBRID, WindowSpec(4), HybridSpec(0.5))

    taped = []
    op = Tensor._op

    def counted(*a):
        out = op(*a)
        taped.append(out._backward_fn is not None)
        return out

    monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
    with monkeypatch.context() as m:
        m.setattr(Model, "no_grad", lambda self: contextlib.nullcontext())
        expected = evaluate(model, data, attn, batch_size=3)
    assert any(taped)
    taped.clear()
    assert evaluate(model, data, attn, batch_size=3) == expected
    assert taped and not any(taped)
    assert {n: p.requires_grad for n, p in model.named_parameters().items()} == flags

    bad = dict(data, tokens=data["tokens"].copy())
    bad["tokens"][-1, 0] = TINY.vocab_size
    with pytest.raises(InputError):
        evaluate(model, bad, attn, batch_size=3)
    assert {n: p.requires_grad for n, p in model.named_parameters().items()} == flags


def _every_binding(monkeypatch, fn, replacement):
    """Replace `fn` under every name a loaded `hafx` module binds it to."""
    import sys

    for name, module in list(sys.modules.items()):
        if name == "hafx" or name.startswith("hafx."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("evaluate, other", [(evaluate_lm, evaluate_task),
                                             (evaluate_task, evaluate_lm)])
def test_neither_eval_runs_the_other(eval_setup, monkeypatch, evaluate, other):
    """The benchmark times both evals; a nested call would count twice."""
    model, tasks = eval_setup

    def refuse(*_a, **_k):
        raise AssertionError(f"{other.__name__} ran inside {evaluate.__name__}")

    _every_binding(monkeypatch, other, refuse)
    evaluate(model, tasks["copy"], AttnSettings(kind="softmax"))


def test_evaluate_ablations_is_mode_scores_per_mode(eval_setup):
    model, tasks = eval_setup
    spec = TaskSpec(kind="assoc_recall", T=9, vocab=32, n_examples=16, n_pairs=2,
                    n_keys=4, n_values=4)
    tasks["assoc_recall"] = gen_task(spec, "eval")
    hy, win = HybridSpec(0.5), {"copy": WindowSpec(4), "assoc_recall": WindowSpec(2)}
    modes = (AblationMode.SWA_ONLY, AblationMode.LA_ONLY)
    report = evaluate_ablations(model, tasks, hy, win, modes=modes)
    base = mode_scores(model, tasks, None, hy, win)
    assert report.base_scores == {name: scores[0] for name, scores in base.items()}
    per_mode = {mode: mode_scores(model, tasks, mode, hy, win) for mode in modes}
    assert report.rows == [(mode, name, acc, loss) for mode in modes
                           for name, (acc, loss, _n) in per_mode[mode].items()]


def test_evaluate_ablations_row_schema(eval_setup):
    model, tasks = eval_setup
    report = evaluate_ablations(model, tasks, HybridSpec(0.5), {"copy": WindowSpec(4)})
    softmax = AttnSettings(kind="softmax")
    assert report.base_scores == {"copy": evaluate_task(model, tasks["copy"], softmax)[0]}
    report.base_scores = {"copy": 0.5}  # an untrained model can score exactly zero
    assert len(report.rows) == len(ALL_MODES)
    rows = report.csv_rows()
    assert len(rows) == 2 * len(report.rows)  # accuracy + loss per row
    assert rows[0][0] == "eval" and rows[0][3] == "accuracy"
    assert rows[1][3] == "loss"


def test_evaluate_ablations_per_task_windows(eval_setup):
    model, tasks = eval_setup
    narrow = evaluate_ablations(model, tasks, HybridSpec(0.5), {"copy": WindowSpec(2)},
                                modes=(AblationMode.SWA_ONLY,))
    wide = evaluate_ablations(model, tasks, HybridSpec(0.5), {"copy": WindowSpec(16)},
                              modes=(AblationMode.SWA_ONLY,))
    assert narrow.rows[0][3] != wide.rows[0][3]  # loss differs with the window


def test_eval_report_arithmetic():
    report = EvalReport(stage="s", tasks=["a", "b"],
                        base_scores={"a": 0.8, "b": 0.6})
    report.rows = [
        (AblationMode.SWA_ONLY, "a", 0.4, 1.0),
        (AblationMode.SWA_ONLY, "b", 0.3, 1.0),
    ]
    assert abs(report.base_avg - 0.7) < 1e-12
    assert abs(report.mode_avg(AblationMode.SWA_ONLY) - 0.35) < 1e-12
    assert abs(report.recovered(AblationMode.SWA_ONLY) - 50.0) < 1e-9


def test_eval_report_with_zero_softmax_base(tmp_path, capsys):
    from hafx.cli import _print_table
    from hafx.pipelines import write_csv

    report = EvalReport(stage="s", tasks=["a"], base_scores={"a": 0.0})
    report.rows = [
        (AblationMode.FULL_HYBRID, "a", 0.25, 1.5),
        (AblationMode.LA_ONLY, "a", 0.0, 2.0),
    ]
    assert report.recovered(AblationMode.FULL_HYBRID) is None
    path = write_csv(tmp_path / "ablation.csv",
                     ("stage", "mode", "task", "metric", "value", "recovered_pct"),
                     report.csv_rows())
    lines = path.read_text().splitlines()
    assert lines[1] == "s,full_hybrid,a,accuracy,0.250000,"
    assert len(lines) == 5 and all(line.endswith(",") for line in lines[1:])
    _print_table(report)
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 4 and all(line.endswith("n/a") for line in table[1:])


# -- benchmark ----------------------------------------------------------------


def test_benchmark_rejects_too_few_reps():
    with pytest.raises(ContractError):
        benchmark_scaling([64], reps=2)


def test_benchmark_rows_and_constant_aux_state():
    report = benchmark_scaling([64, 128], reps=3)
    paths = {p for p, *_ in report.rows}
    assert "quadratic-softmax" in paths
    assert any(p.startswith("streaming-") for p in paths)
    stream_aux = {aux for p, _T, _ms, aux in report.rows if p.startswith("streaming-")}
    assert len(stream_aux) == 1  # T-independent
    # S accumulator (2 d' x d_v) plus z accumulator (2 d'), float64
    assert stream_aux == {(2 * 8 * 64 + 2 * 8) * 8}
    quad_aux = sorted(aux for p, _T, _ms, aux in report.rows if p == "quadratic-softmax")
    assert quad_aux == [64 * 64 * 8, 128 * 128 * 8]


def test_benchmark_ratio_helper():
    report = benchmark_scaling([64, 128], reps=3)
    ratios = report.ratios("quadratic-softmax")
    assert set(ratios) == {64}
    assert ratios[64] > 0


def test_benchmark_ratio_pairs_samples_within_a_round():
    # a slow patch covers rounds 3-5 at T=64 but only rounds 4-5 at T=128;
    # dividing the two medians (20 / 30) would report inverted scaling
    report = BenchReport(
        samples={("p", 64): [10.0, 10.0, 30.0, 30.0, 30.0],
                 ("p", 128): [20.0, 20.0, 20.0, 60.0, 60.0],
                 ("p", 512): [1.0] * 5,
                 ("other", 64): [1.0] * 5},
        aux={("p", 64): 8, ("p", 128): 8, ("p", 512): 8, ("other", 64): 0},
    )
    assert report.ratios("p") == {64: 2.0}
    assert report.ratios("other") == {}
    assert report.rows[:2] == [("p", 64, 30.0, 8), ("p", 128, 20.0, 8)]

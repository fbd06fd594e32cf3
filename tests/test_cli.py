import os

import numpy as np
import pytest

from hafx.cli import main
from hafx.config import SCHEMA, RunConfig, load_config, parse_config, serialise_config
from hafx.convert import SSDSchedule, TransferObjective
from hafx.errors import ConfigError
from hafx.pipelines import write_csv


# -- config parsing ------------------------------------------------------------


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg["attn.window"] == 64
    assert cfg["attn.sinks"] == 8
    assert cfg["attn.g"] == 0.5
    assert cfg["lora.rank"] == 8 and cfg["lora.alpha"] == 16.0
    assert cfg["eval.window"] == 8


def test_parse_basic_and_comments():
    cfg = parse_config(
        "seed = 3\n"
        "# a comment\n"
        "attn.window = 16  # trailing comment\n"
        "\n"
        "ssd.dropout = 0.9,0.75,0.5\n"
        "attn.overlap = true\n"
        "ssd.window = 4, 8,\nlora.targets = wq , wv\ntask.transfer_kinds =\n"
    )
    assert cfg["seed"] == 3
    assert cfg["attn.window"] == 16
    assert cfg["ssd.dropout"] == [0.9, 0.75, 0.5]
    assert cfg["attn.overlap"] is True
    assert cfg["ssd.window"] == [4, 8] and cfg["lora.targets"] == ["wq", "wv"]
    assert cfg["task.transfer_kinds"] == []


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as e:
        parse_config("seed = 1\nnot.a.key = 2\n")
    assert e.value.line == 2
    assert "not.a.key" in str(e.value)


def test_bad_type_reports_line_number():
    with pytest.raises(ConfigError) as e:
        parse_config("attn.window = many\n")
    assert e.value.line == 1
    with pytest.raises(ConfigError) as e:
        parse_config("seed = 1\nssd.window = 4,x\n")
    assert e.value.line == 2


def test_out_of_range_g_names_the_key():
    with pytest.raises(ConfigError) as e:
        parse_config("attn.g = 1.5\n")
    assert "attn.g" in str(e.value) and e.value.line == 1


def test_feature_map_other_than_softmax_names_its_line():
    assert parse_config("attn.activation = softmax\n")["attn.activation"] == "softmax"
    with pytest.raises(ConfigError) as e:
        parse_config("seed = 1\nattn.activation = relu\n")
    assert "attn.activation" in str(e.value) and e.value.line == 2


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config("just some words\n")
    assert e.value.line == 1


def test_serialise_round_trip():
    cfg = parse_config(
        "seed = 9\nattn.g = 0.25\nssd.dropout = 0.9,0.5\nssd.window = 4,8\n"
        "task.kinds = assoc_recall,copy\nattn.overlap = true\n"
    )
    again = parse_config(serialise_config(cfg))
    assert cfg == again
    # serialisation is canonical: one line per schema key, sorted
    lines = serialise_config(cfg).strip().splitlines()
    assert len(lines) == len(SCHEMA)
    assert lines == sorted(lines)


def test_builders():
    cfg = parse_config(
        "model.d_model = 32\nmodel.n_heads = 2\n"
        "objective = weights_ce\nssd.dropout = 0.5\n"
    )
    assert cfg.model_config().h_d == 16
    assert cfg.d_prime() == 8  # h_d / 2 default
    assert cfg.objective() is TransferObjective.WEIGHTS_CE
    assert cfg.ssd().window_per_epoch == [64]
    assert parse_config("").ssd() == SSDSchedule([0.0], [64])


def test_merged_builds_generate_each_split_once(monkeypatch):
    import hafx.pipelines
    import hafx.tasks
    from hafx.pipelines import build_datasets, conversion_datasets

    calls = []
    gen_task = hafx.tasks.gen_task

    def counted(spec, split="train", *a, **k):
        calls.append((spec.kind, split))
        return gen_task(spec, split, *a, **k)

    monkeypatch.setattr(hafx.tasks, "gen_task", counted)
    monkeypatch.setattr(hafx.pipelines, "gen_task", counted)
    cfg = parse_config(CRITERION9 + "task.kinds = assoc_recall,copy\n"
                       "task.transfer_kinds = copy\nmodel.vocab_size = 64\n")
    build_datasets(cfg)
    assert sorted(calls) == [("assoc_recall", "eval"), ("assoc_recall", "train"),
                             ("copy", "eval"), ("copy", "train")]
    calls.clear()
    conversion_datasets(cfg)
    assert sorted(calls) == [("copy", "eval"), ("copy", "train")]


def test_output_dir_env_override(monkeypatch):
    cfg = parse_config("output_dir = somewhere\n")
    assert cfg.output_dir() == "somewhere"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", "/tmp/elsewhere")
    assert cfg.output_dir() == "/tmp/elsewhere"


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 11\n")
    assert load_config(p)["seed"] == 11


# -- CLI ------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["bench", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_missing_config_file_is_error(capsys):
    assert main(["transfer", "--config", "/does/not/exist.cfg"]) != 0
    capsys.readouterr()


def test_bad_config_value_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("attn.g = 1.5\n")
    rc = main(["eval", "--config", str(p), "--ckpt", "x.ckpt"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "attn.g" in err


def test_bench_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--T", "64,128", "--d", "16", "--d-prime", "4",
               "--reps", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,T,median_ms,aux_bytes"
    assert len(lines) > 1
    capsys.readouterr()


def test_report_cli_prints_csv(tmp_path, capsys):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5)])
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "a\tb" in out and "0.500000" in out


def test_write_csv_fixed_float_format(tmp_path):
    path = tmp_path / "v.csv"
    write_csv(path, ("x",), [(0.1 + 0.2,), (3,), ("s",)])
    assert path.read_text() == "x\n0.300000\n3\ns\n"


def test_failed_csv_write_keeps_the_earlier_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "v.csv"
    write_csv(path, ("x",), [(1.0,)])
    with pytest.raises(RuntimeError):
        write_csv(path, ("x",), [(2.0,), (Unprintable(),)])
    assert path.read_text() == "x\n1.000000\n"
    assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]


def test_failed_run_cfg_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    from hafx.pipelines import _prepare_out

    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    cfg = parse_config("seed = 3\n")
    _prepare_out(cfg)
    path = tmp_path / "run.cfg"
    before = path.read_text()
    assert before == serialise_config(cfg)
    with pytest.raises(RuntimeError):
        _prepare_out(RunConfig(dict(cfg.values, seed=Unprintable())))
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# -- pipelines ------------------------------------------------------------------


def test_ssd_run_resumes_from_the_saved_transfer_checkpoint(tmp_path, monkeypatch):
    """ssd-run is transfer, then SSD fine-tuning from the float32
    post-transfer.ckpt on disk, not from the float64 model in memory: its
    post-finetune.ckpt is byte-identical to the two commands run apart."""
    from hafx.pipelines import cmd_finetune, cmd_ssd_run, cmd_transfer

    cfg = parse_config(
        "seed = 3\nmodel.vocab_size = 32\nmodel.d_model = 16\nmodel.n_layers = 1\n"
        "model.n_heads = 2\nmodel.mlp_width = 32\nmodel.max_T = 32\nattn.window = 8\n"
        "ssd.dropout = 0.5\nssd.window = 4,8\ntask.T = 16\ntask.n_examples = 64\n"
        "task.n_pairs = 4\ntask.n_keys = 4\ntask.n_values = 4\ntrain.base_epochs = 1\n"
        "train.finetune_epochs = 2\ntrain.batch_size = 8\ntrain.accumulation = 2\n"
    )
    together, apart = tmp_path / "together", tmp_path / "apart"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(together))
    cmd_ssd_run(cfg)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(apart))
    cmd_transfer(cfg)
    cmd_finetune(cfg, str(apart / "post-transfer.ckpt"), use_ssd=True)
    for name in ("post-transfer.ckpt", "post-finetune.ckpt"):
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def test_ssd_run_rerun_keeps_one_record_per_stage(tmp_path, monkeypatch):
    import json

    from hafx.pipelines import cmd_ssd_run

    cfg = parse_config(
        "seed = 3\nmodel.vocab_size = 32\nmodel.d_model = 16\nmodel.n_layers = 1\n"
        "model.n_heads = 2\nmodel.mlp_width = 32\nmodel.max_T = 32\nattn.window = 8\n"
        "task.T = 16\ntask.n_examples = 64\ntask.n_pairs = 4\ntask.n_keys = 4\n"
        "task.n_values = 4\ntrain.base_epochs = 1\ntrain.finetune_epochs = 1\n"
        "train.batch_size = 8\ntrain.accumulation = 1\n"
    )
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    cmd_ssd_run(cfg)
    first = (tmp_path / "stages.jsonl").read_text()
    cmd_ssd_run(cfg)
    lines = (tmp_path / "stages.jsonl").read_text().splitlines()
    stages = [json.loads(line)["stage"] for line in lines]
    assert stages == ["base", "post-transfer", "post-finetune"]

    def timeless(text):
        return [dict(json.loads(line), wall_time_s=0) for line in text.splitlines()]

    assert timeless("\n".join(lines)) == timeless(first)
    assert not list(tmp_path.glob("*.tmp"))


def test_ablate_without_sinks_writes_every_mode(tmp_path, monkeypatch, capsys):
    """`attn.sinks = 0` is a valid config; its sinks_only row scores a zero
    attention output instead of aborting the ablation."""
    from hafx.attention import AblationMode

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 3\nmodel.vocab_size = 32\nmodel.d_model = 16\nmodel.n_layers = 1\n"
        "model.n_heads = 2\nmodel.mlp_width = 32\nmodel.max_T = 32\nattn.window = 8\n"
        "attn.sinks = 0\ntask.kinds = assoc_recall\ntask.T = 16\ntask.n_examples = 64\n"
        "task.n_pairs = 4\ntask.n_keys = 4\ntask.n_values = 4\ntrain.base_epochs = 1\n"
        "train.batch_size = 8\ntrain.accumulation = 1\n"
    )
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    assert main(["transfer", "--config", str(cfg)]) == 0
    ckpt = str(tmp_path / "post-transfer.ckpt")
    assert main(["ablate", "--config", str(cfg), "--ckpt", ckpt]) == 0
    capsys.readouterr()
    rows = (tmp_path / "ablation.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} >= {m.value for m in AblationMode}


def test_eval_prints_evaluate_task_accuracy_per_task(tmp_path, monkeypatch, capsys):
    """`hafx eval` scores each configured task once, in the requested mode
    or under full softmax, with the same windows as the ablation."""
    from hafx.attention import AblationMode, WindowSpec
    from hafx.checkpoint import load_model
    from hafx.evalbench import evaluate_task
    from hafx.model import AttnSettings
    from hafx.pipelines import eval_datasets

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "seed = 3\nmodel.vocab_size = 32\nmodel.d_model = 16\nmodel.n_layers = 1\n"
        "model.n_heads = 2\nmodel.mlp_width = 32\nmodel.max_T = 32\nattn.window = 8\n"
        "eval.window = 4\ntask.kinds = assoc_recall,copy\ntask.T = 16\n"
        "task.n_examples = 64\ntask.n_pairs = 4\ntask.n_keys = 4\ntask.n_values = 4\n"
        "train.base_epochs = 1\ntrain.batch_size = 8\ntrain.accumulation = 1\n"
    )
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    assert main(["transfer", "--config", str(cfg_path)]) == 0
    ckpt = str(tmp_path / "post-transfer.ckpt")
    capsys.readouterr()
    cfg = load_config(cfg_path)
    model, stage = load_model(ckpt)
    evals = eval_datasets(cfg)
    windows = {"assoc_recall": WindowSpec(4, 8), "copy": WindowSpec(8, 8)}
    for flags, attn_of in (
        (["--mode", "la_only"],
         lambda task: AttnSettings("hybrid", AblationMode.LA_ONLY, windows[task], cfg.hybrid())),
        (["--softmax"], lambda task: AttnSettings("softmax")),
    ):
        assert main(["eval", "--config", str(cfg_path), "--ckpt", ckpt] + flags) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == [f"{stage} {t}" for t in evals]
        for line, (task, data) in zip(lines, evals.items()):
            acc = evaluate_task(model, data, attn_of(task))[0]
            assert f"acc={acc:.4f} " in line, (flags, line)


# the acceptance suite's criterion-9 recipe
CRITERION9 = (
    "seed = 3\nmodel.vocab_size = 32\nmodel.d_model = 16\nmodel.n_layers = 1\n"
    "model.n_heads = 2\nmodel.mlp_width = 32\nmodel.max_T = 32\nattn.window = 8\n"
    "ssd.dropout = 0.5\nssd.window = 4,8\ntask.kinds = assoc_recall\ntask.T = 16\n"
    "task.n_examples = 64\ntask.n_pairs = 4\ntask.n_keys = 4\ntask.n_values = 4\n"
    "train.base_epochs = 1\ntrain.finetune_epochs = 1\ntrain.batch_size = 8\n"
    "train.accumulation = 1\n"
)


def stage_records(out_dir):
    import json

    lines = (out_dir / "stages.jsonl").read_text().splitlines()
    return {r["stage"]: r for r in map(json.loads, lines)}


def test_transfer_from_scratch_records_each_stage_checkpoint(tmp_path, monkeypatch):
    from hafx.pipelines import cmd_transfer

    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    cmd_transfer(parse_config(CRITERION9))
    records = stage_records(tmp_path)
    assert list(records) == ["base", "post-transfer"]
    for stage, record in records.items():
        assert record["checkpoints"] == [str(tmp_path / f"{stage}.ckpt")], stage
        assert (tmp_path / f"{stage}.ckpt").exists(), stage


def test_each_epoch_key_reaches_its_stage(tmp_path, monkeypatch):
    """ssd-run trains each stage for the epochs of its own config key."""
    from hafx.pipelines import cmd_ssd_run

    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    cmd_ssd_run(parse_config(CRITERION9 + "train.base_epochs = 2\ntrain.transfer_epochs = 3\n"
                             "train.finetune_epochs = 2\n"))
    epochs = {stage: len(r["epoch_losses"]) for stage, r in stage_records(tmp_path).items()}
    assert epochs == {"base": 2, "post-transfer": 3, "post-finetune": 2}


def test_hedgecats_is_weights_ce_transfer_then_early_stopped_finetune(tmp_path, monkeypatch):
    """HedgeCATs' post-transfer.ckpt is what `hafx transfer` writes with the
    weights-CE objective (no LoRA adapters yet), and its fine-tune stage
    writes the fine-tune checkpoints for at most `train.stage2_epochs`."""
    from hafx.checkpoint import load_checkpoint
    from hafx.pipelines import cmd_hedgecats, cmd_transfer

    cfg = parse_config(CRITERION9 + "train.stage2_epochs = 3\n")
    base, hedge, transfer = tmp_path / "base", tmp_path / "hedge", tmp_path / "transfer"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(base))
    cmd_transfer(cfg)
    base_ckpt = str(base / "base.ckpt")
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(hedge))
    cmd_hedgecats(cfg, base_ckpt=base_ckpt)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(transfer))
    cmd_transfer(cfg, base_ckpt, TransferObjective.WEIGHTS_CE)

    name = "post-transfer.ckpt"
    assert (hedge / name).read_bytes() == (transfer / name).read_bytes()
    tensors, _meta = load_checkpoint(str(hedge / name))
    assert not [n for n in tensors if ".lora_" in n]

    records = stage_records(hedge)
    assert list(records) == ["post-transfer", "post-finetune"]
    finetune = records["post-finetune"]
    epochs = len(finetune["epoch_losses"])
    assert 1 <= epochs <= 3
    assert finetune["checkpoints"] == (
        [str(hedge / f"post-finetune-epoch{n}.ckpt") for n in range(1, epochs + 1)]
        + [str(hedge / "post-finetune.ckpt")]
    )
    assert all(os.path.exists(p) for p in finetune["checkpoints"])


@pytest.mark.parametrize("objective", [None, TransferObjective.WEIGHTS_CE],
                         ids=["configured", "weights_ce"])
def test_transfer_from_scratch_starts_from_its_base_checkpoint(tmp_path, monkeypatch,
                                                               objective):
    """`hafx transfer` from scratch transfers from the float32 base.ckpt it
    wrote, so a transfer resumed from that file writes the same bytes."""
    from hafx.pipelines import cmd_transfer

    cfg = parse_config(CRITERION9)
    scratch, resumed = tmp_path / "scratch", tmp_path / "resumed"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(scratch))
    cmd_transfer(cfg, None, objective)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(resumed))
    cmd_transfer(cfg, str(scratch / "base.ckpt"), objective)
    name = "post-transfer.ckpt"
    assert (scratch / name).read_bytes() == (resumed / name).read_bytes()


def test_hedgecats_finetunes_from_its_post_transfer_checkpoint(tmp_path, monkeypatch):
    """HedgeCATs' fine-tune stage starts from the post-transfer.ckpt it
    wrote: with one epoch in both, its post-finetune.ckpt equals `hafx
    finetune` run on that file."""
    from hafx.pipelines import cmd_finetune, cmd_hedgecats

    cfg = parse_config(CRITERION9 + "train.stage2_epochs = 1\n")
    hedge, apart = tmp_path / "hedge", tmp_path / "apart"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(hedge))
    cmd_hedgecats(cfg)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(apart))
    cmd_finetune(cfg, str(hedge / "post-transfer.ckpt"))
    name = "post-finetune.ckpt"
    assert (hedge / name).read_bytes() == (apart / name).read_bytes()


@pytest.mark.parametrize("command", ["eval", "finetune", "ablate"])
def test_malformed_checkpoint_is_an_error_line(tmp_path, monkeypatch, capsys, command):
    from hafx.checkpoint import save_checkpoint

    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, {}, {"config": {"vocab_size": 32, "colour": 1}}, "base")
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path))
    assert main([command, "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.ckpt: meta block" in err


def base_checkpoint(tmp_path):
    """The criterion-9 config file and an untrained `base.ckpt` for it: a
    softmax model with no feature maps."""
    from hafx.checkpoint import save_model
    from hafx.model import init_model

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CRITERION9)
    ckpt = tmp_path / "base" / "base.ckpt"
    ckpt.parent.mkdir()
    save_model(str(ckpt), init_model(parse_config(CRITERION9).model_config()), "base")
    return str(cfg), str(ckpt)


@pytest.mark.parametrize("args", [["finetune"], ["eval", "--mode", "la_only"], ["ablate"]],
                         ids=["finetune", "eval", "ablate"])
def test_hybrid_command_on_a_base_checkpoint_is_an_error_line(tmp_path, monkeypatch, capsys,
                                                              args):
    cfg, ckpt = base_checkpoint(tmp_path)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(args + ["--config", cfg, "--ckpt", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "feature maps" in err


def test_finetune_refuses_a_base_checkpoint_before_any_set_up(tmp_path, monkeypatch, capsys):
    cfg, ckpt = base_checkpoint(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(out))
    assert main(["finetune", "--config", cfg, "--ckpt", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (out / "run.cfg").exists()


def test_softmax_eval_of_a_base_checkpoint_runs(tmp_path, monkeypatch, capsys):
    cfg, ckpt = base_checkpoint(tmp_path)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["eval", "--config", cfg, "--ckpt", ckpt, "--softmax"]) == 0
    assert capsys.readouterr().out.startswith("base assoc_recall: acc=")


def test_char_lm_task_longer_than_its_corpus_is_an_error_line(tmp_path, monkeypatch, capsys):
    """The packaged corpus holds 2,478 characters and a row reads T + 1 of
    them, so T = 2,476 is the longest char-LM task."""
    from hafx.pipelines import eval_datasets

    char_lm = CRITERION9 + "model.vocab_size = 64\ntask.kinds = char_lm\n"
    evals = eval_datasets(parse_config(char_lm + "task.T = 2476\n"))
    assert evals["char_lm"]["tokens"].shape == (32, 2476)
    cfg, ckpt = base_checkpoint(tmp_path)
    with open(cfg, "w") as f:
        f.write(char_lm + "task.T = 2477\n")
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["eval", "--config", cfg, "--ckpt", ckpt, "--softmax"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: task.T = 2477 ") and "2478-character" in err


@pytest.mark.parametrize("line", ["garbage", "[1]", '{"stage": 3}', '{"epoch_losses": []}'])
def test_bad_stage_record_is_an_error_line_before_training(tmp_path, monkeypatch, capsys,
                                                           line):
    cfg, ckpt = base_checkpoint(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    stages = out / "stages.jsonl"
    stages.write_text('{"stage": "base"}\n' + line + "\n")
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(out))
    assert main(["transfer", "--config", cfg, "--base-ckpt", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{stages} line 2: " in err
    assert sorted(p.name for p in out.iterdir()) == ["stages.jsonl"]


def test_odd_head_width_is_an_error_line_before_any_write(tmp_path, monkeypatch, capsys):
    """RoPE rotates pairs of a head's dimensions, so the config parser
    refuses an odd head width, naming both keys."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CRITERION9 + "model.d_model = 6\n")
    out = tmp_path / "out"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(out))
    assert main(["transfer", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.d_model" in err and "model.n_heads" in err
    assert not out.exists()


def post_transfer_checkpoint(tmp_path):
    """An untrained `post-transfer.ckpt` for the criterion-9 model."""
    from hafx.checkpoint import save_model
    from hafx.model import init_model

    ckpt = tmp_path / "post-transfer.ckpt"
    model = init_model(parse_config(CRITERION9).model_config()).attach_feature_maps(4)
    save_model(str(ckpt), model, "post-transfer")
    return str(ckpt)


@pytest.mark.parametrize("command, text", [
    (["transfer"], ""),
    (["ssd-run"], ""),
    (["ssd-run"], CRITERION9 + "ssd.window = 4,16\n"),
    (["finetune", "--ckpt"], CRITERION9 + "attn.window = 16\n"),
], ids=["transfer-defaults", "ssd-run-defaults", "ssd-window-T", "finetune-window-T"])
def test_window_that_leaves_la_no_key_is_refused(tmp_path, monkeypatch, capsys, command, text):
    """Without attn.overlap, query t sees LA keys i <= t - window only, so a
    window of task.T or more would bypass LA; no stage runs or writes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    if command[-1] == "--ckpt":
        command = command + [post_transfer_checkpoint(tmp_path)]
    out = tmp_path / "out"
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(out))
    assert main(command + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: attn.window / ssd.window ") and "task.T" in err
    assert not out.exists()


def test_overlap_gives_la_every_key_so_a_wide_window_passes():
    from hafx.pipelines import _check_la_context

    _check_la_context(parse_config("attn.overlap = true\n"))
    _check_la_context(parse_config("attn.window = 63\nssd.window = 8,63\n"))


def test_finetune_without_ssd_never_drops_a_step(tmp_path, monkeypatch):
    """`hafx finetune` without --ssd is SSD at rate 0 and reads no `ssd.*`
    key: a config's dropout of 1.0 applies only with --ssd."""
    import hafx.convert as convert

    seen = []
    orig = convert.ssd_sample

    def spy(sched, epoch, rng):
        out = orig(sched, epoch, rng)
        seen.append(out)
        return out

    monkeypatch.setattr(convert, "ssd_sample", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CRITERION9 + "ssd.dropout = 1.0\n")
    ckpt = post_transfer_checkpoint(tmp_path)
    monkeypatch.setenv("HAFX_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["finetune", "--config", str(cfg), "--ckpt", ckpt]) == 0
    assert seen and seen == [(False, 8)] * len(seen)
    seen.clear()
    assert main(["finetune", "--config", str(cfg), "--ckpt", ckpt, "--ssd"]) == 0
    assert seen and all(drop for drop, _window in seen)

import os

import numpy as np
import pytest

from hafx.attention import Activation
from hafx.cli import main
from hafx.config import SCHEMA, RunConfig, load_config, parse_config, serialise_config
from hafx.convert import TransferObjective
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
    )
    assert cfg["seed"] == 3
    assert cfg["attn.window"] == 16
    assert cfg["ssd.dropout"] == [0.9, 0.75, 0.5]
    assert cfg["attn.overlap"] is True


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as e:
        parse_config("seed = 1\nnot.a.key = 2\n")
    assert e.value.line == 2
    assert "not.a.key" in str(e.value)


def test_bad_type_reports_line_number():
    with pytest.raises(ConfigError) as e:
        parse_config("attn.window = many\n")
    assert e.value.line == 1


def test_out_of_range_g_names_the_key():
    with pytest.raises(ConfigError) as e:
        parse_config("attn.g = 1.5\n")
    assert "attn.g" in str(e.value) and e.value.line == 1


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
        "model.d_model = 32\nmodel.n_heads = 2\nattn.activation = relu\n"
        "objective = weights_ce\nssd.dropout = 0.5\n"
    )
    assert cfg.model_config().h_d == 16
    assert cfg.d_prime() == 8  # h_d / 2 default
    assert cfg.activation() is Activation.RELU
    assert cfg.objective() is TransferObjective.WEIGHTS_CE
    assert cfg.ssd().window_per_epoch == [64]
    assert parse_config("").ssd() is None


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

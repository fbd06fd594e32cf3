"""Run orchestration shared by the CLI subcommands: dataset assembly,
stage pipelines, and deterministic CSV/JSON-lines persistence."""

import json
import os

from .attention import Activation, WindowSpec
from .checkpoint import load_model, save_model
from .config import RunConfig, serialise_config
from .convert import (
    TransferObjective,
    run_attention_transfer,
    run_base_training,
    run_finetune,
    run_hedgecats,
)
from .evalbench import ALL_MODES, AblationMode, benchmark_scaling, evaluate_ablations, evaluate_task
from .model import AttnSettings, init_model
from .tasks import TaskSpec, gen_task, merge_datasets

CSV_FLOAT_FMT = "{:.6f}"


def write_csv(path, header, rows):
    """Schema-stable CSV with fixed float formatting (byte-reproducible)."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                CSV_FLOAT_FMT.format(c) if isinstance(c, float) else str(c)
                for c in row
            ]
            f.write(",".join(cells) + "\n")
    return path


def append_jsonl(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _merged_split(cfg: RunConfig, specs, split):
    return merge_datasets([gen_task(s, split) for s in specs], seed=cfg["seed"])


def build_datasets(cfg: RunConfig):
    """Merged train/eval splits of the base-training tasks (`task.kinds`)."""
    specs = cfg.task_specs()
    return _merged_split(cfg, specs, "train"), _merged_split(cfg, specs, "eval")


def eval_datasets(cfg: RunConfig):
    """Per-task eval splits of `task.kinds`, keyed by task kind."""
    return {spec.kind: gen_task(spec, "eval") for spec in cfg.task_specs()}


def conversion_datasets(cfg: RunConfig):
    """Merged train/eval corpus for the conversion stages (attention transfer
    and LoRA fine-tuning). `task.transfer_kinds` selects the source tasks —
    the desk-scale analogue of converting on generic text rather than on the
    evaluation benchmarks."""
    specs = cfg.transfer_specs()
    return _merged_split(cfg, specs, "train"), _merged_split(cfg, specs, "eval")


def eval_windows(cfg: RunConfig, tasks):
    """Collapse probe: associative recall is scored with the small eval
    window so long-range pairs fall outside SWA's reach."""
    sinks = cfg["attn.sinks"]
    return {
        name: WindowSpec(
            cfg["eval.window"] if name == "assoc_recall" else cfg["attn.window"], sinks
        )
        for name in tasks
    }


def _prepare_out(cfg: RunConfig):
    out = cfg.output_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "run.cfg"), "w") as f:
        f.write(serialise_config(cfg))
    return out


def _get_base_model(cfg: RunConfig, base_ckpt, out, stages_path):
    if base_ckpt:
        model, stage = load_model(base_ckpt)
        return model
    merged_train, merged_eval = build_datasets(cfg)
    model = init_model(cfg.model_config())
    report = run_base_training(
        model, cfg.train_config(), merged_train, merged_eval, cfg["train.base_epochs"]
    )
    save_model(os.path.join(out, "base.ckpt"), model, "base")
    append_jsonl(stages_path, report.to_dict())
    return model


def cmd_transfer(cfg: RunConfig, base_ckpt=None, objective=None):
    """Train (or load) the base model, attach feature maps, run attention
    transfer, and checkpoint the post-transfer model."""
    out = _prepare_out(cfg)
    stages = os.path.join(out, "stages.jsonl")
    model = _get_base_model(cfg, base_ckpt, out, stages)
    if model.phi is None:
        model.attach_feature_maps(cfg.d_prime(), cfg.activation())
    # attention transfer has no held-out eval, so only the train split is built
    conv_train = _merged_split(cfg, cfg.transfer_specs(), "train")
    report = run_attention_transfer(
        model,
        objective or cfg.objective(),
        cfg.train_config(),
        conv_train["tokens"],
        win=cfg.window(),
        hy=cfg.hybrid(),
    )
    path = os.path.join(out, "post-transfer.ckpt")
    save_model(path, model, "post-transfer")
    report.checkpoints.append(path)
    append_jsonl(stages, report.to_dict())
    return model, report


def cmd_finetune(cfg: RunConfig, ckpt, use_ssd=False):
    """LoRA fine-tuning (optionally with scheduled SWA dropout) from a
    post-transfer checkpoint."""
    out = _prepare_out(cfg)
    model, _stage = load_model(ckpt)
    if model.lora is None:
        model.lora_attach(
            tuple(cfg["lora.targets"]), cfg["lora.rank"], cfg["lora.alpha"]
        )
    conv_train, conv_eval = conversion_datasets(cfg)
    ssd = cfg.ssd() if use_ssd else None

    def checkpoint_fn(m, epoch):
        path = os.path.join(out, f"post-finetune-epoch{epoch}.ckpt")
        save_model(path, m, "post-finetune")
        return path

    report = run_finetune(
        model,
        cfg.train_config(),
        ssd,
        conv_train,
        conv_eval,
        win=cfg.window(),
        hy=cfg.hybrid(),
        checkpoint_fn=checkpoint_fn,
    )
    path = os.path.join(out, "post-finetune.ckpt")
    save_model(path, model, "post-finetune")
    report.checkpoints.append(path)
    append_jsonl(os.path.join(out, "stages.jsonl"), report.to_dict())
    return model, report


def cmd_hedgecats(cfg: RunConfig, base_ckpt=None):
    """Two-stage pipeline: weights-transfer (LA-only), then brief hybrid
    LoRA fine-tuning with early stopping on the hybrid-vs-SWA-only gap."""
    out = _prepare_out(cfg)
    stages = os.path.join(out, "stages.jsonl")
    model = _get_base_model(cfg, base_ckpt, out, stages)
    if model.phi is None:
        model.attach_feature_maps(cfg.d_prime(), cfg.activation())
    model.lora_attach(tuple(cfg["lora.targets"]), cfg["lora.rank"], cfg["lora.alpha"])
    evals = eval_datasets(cfg)
    conv_train, conv_eval = conversion_datasets(cfg)
    wins = eval_windows(cfg, evals)

    def eval_gap_fn(m):
        gaps = []
        for name, data in evals.items():
            hy = cfg.hybrid()
            w = wins[name]
            full = evaluate_task(
                m, data, AttnSettings("hybrid", AblationMode.FULL_HYBRID, w, hy)
            )[0]
            swa = evaluate_task(
                m, data, AttnSettings("hybrid", AblationMode.SWA_ONLY, w, hy)
            )[0]
            gaps.append(full - swa)
        return sum(gaps) / len(gaps)

    def checkpoint_fn(m, epoch):
        name = "post-transfer.ckpt" if epoch == 0 else f"hedgecats-epoch{epoch}.ckpt"
        path = os.path.join(out, name)
        save_model(path, m, "post-transfer" if epoch == 0 else "post-finetune")
        return path

    stage1, stage2 = run_hedgecats(
        model,
        cfg.train_config(),
        cfg["train.stage2_epochs"],
        conv_train["tokens"],
        conv_train,
        conv_eval,
        eval_gap_fn=eval_gap_fn,
        win=cfg.window(),
        hy=cfg.hybrid(),
        checkpoint_fn=checkpoint_fn,
    )
    path = os.path.join(out, "post-finetune.ckpt")
    save_model(path, model, "post-finetune")
    append_jsonl(stages, stage1.to_dict())
    append_jsonl(stages, stage2.to_dict())
    return model, (stage1, stage2)


def cmd_ssd_run(cfg: RunConfig, base_ckpt=None):
    """Transfer per the configured objective, then LoRA fine-tuning under
    the configured dropout/window schedule."""
    model, _ = cmd_transfer(cfg, base_ckpt=base_ckpt)
    out = cfg.output_dir()
    return cmd_finetune(cfg, os.path.join(out, "post-transfer.ckpt"), use_ssd=True)


def cmd_ablate(cfg: RunConfig, ckpt, modes=ALL_MODES, stage=None, csv_name="ablation.csv"):
    out = _prepare_out(cfg)
    model, ckpt_stage = load_model(ckpt)
    evals = eval_datasets(cfg)
    report = evaluate_ablations(
        model,
        evals,
        modes=modes,
        hy=cfg.hybrid(),
        win=eval_windows(cfg, evals),
        stage=stage or ckpt_stage,
    )
    path = write_csv(
        os.path.join(out, csv_name),
        ("stage", "mode", "task", "metric", "value", "recovered_pct"),
        report.csv_rows(),
    )
    return report, path


def cmd_eval(cfg: RunConfig, ckpt, mode=AblationMode.FULL_HYBRID, softmax=False):
    model, stage = load_model(ckpt)
    evals = eval_datasets(cfg)
    wins = eval_windows(cfg, evals)
    results = {}
    for name, data in evals.items():
        attn = (
            AttnSettings(kind="softmax")
            if softmax
            else AttnSettings("hybrid", mode, wins[name], cfg.hybrid())
        )
        acc, loss, n = evaluate_task(model, data, attn)
        results[name] = {"accuracy": acc, "loss": loss, "n": n}
    return stage, results


def cmd_bench(T_list, d=64, d_prime=8, reps=3, out_path="bench.csv", seed=0):
    report = benchmark_scaling(T_list, d=d, d_prime=d_prime, reps=reps, seed=seed)
    write_csv(out_path, ("path", "T", "median_ms", "aux_bytes"), report.csv_rows())
    return report

"""Run orchestration shared by the CLI subcommands: dataset assembly,
stage pipelines, and deterministic CSV/JSON-lines persistence.

Every stage starts from the checkpoint its predecessor wrote: transfer
loads `base.ckpt` (trained first when none is given), fine-tuning loads
`post-transfer.ckpt`, and `hedgecats` and `ssd-run` chain those two
commands. So a run resumed from its own checkpoints writes the same bytes
as the run that wrote them."""

import json
import os

from .attention import WindowSpec
from .checkpoint import atomic_open, load_model, save_model
from .config import RunConfig, serialise_config
from .convert import (
    run_attention_transfer,
    run_base_training,
    run_finetune,
)
from .errors import ConfigError, ContractError, HafxError
from .evalbench import ALL_MODES, AblationMode, evaluate_ablations, mode_scores
from .model import init_model
from .tasks import gen_task, merge_datasets

CSV_FLOAT_FMT = "{:.6f}"


def write_csv(path, header, rows):
    """Schema-stable CSV with fixed float formatting (byte-reproducible),
    written atomically."""
    with atomic_open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                CSV_FLOAT_FMT.format(c) if isinstance(c, float) else str(c)
                for c in row
            ]
            f.write(",".join(cells) + "\n")
    return path


def _read_stages(path):
    """The records of the JSON-lines stage file at `path`, [] if there is
    none. A line that is not a JSON object with a string `stage` raises a
    HafxError naming the file and the line."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            try:
                record = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                record = None
            if not (isinstance(record, dict) and isinstance(record.get("stage"), str)):
                raise HafxError(f"{path} line {n}: not a stage record")
            records.append(record)
    return records


def record_stage(path, record):
    """Store a stage's record in the JSON-lines file at `path`, which holds
    one record per stage: a rerun replaces that stage's earlier record."""
    records = _read_stages(path)
    stages = [r["stage"] for r in records]
    if record["stage"] in stages:
        records[stages.index(record["stage"])] = record
    else:
        records.append(record)
    with atomic_open(path, "w") as f:
        f.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _merged_splits(cfg: RunConfig, specs):
    """Merged train and eval splits of `specs`. Each eval split is generated
    once and is also the set of rows its train split excludes."""
    evals = [gen_task(s, "eval") for s in specs]
    trains = [gen_task(s, "train", ev) for s, ev in zip(specs, evals)]
    return merge_datasets(trains, seed=cfg["seed"]), merge_datasets(evals, seed=cfg["seed"])


def build_datasets(cfg: RunConfig):
    """Merged train/eval splits of the base-training tasks (`task.kinds`)."""
    return _merged_splits(cfg, cfg.task_specs())


def eval_datasets(cfg: RunConfig):
    """Per-task eval splits of `task.kinds`, keyed by task kind."""
    return {spec.kind: gen_task(spec, "eval") for spec in cfg.task_specs()}


def conversion_datasets(cfg: RunConfig):
    """Merged train/eval corpus for the conversion stages (attention transfer
    and LoRA fine-tuning). `task.transfer_kinds` selects the source tasks —
    the desk-scale analogue of converting on generic text rather than on the
    evaluation benchmarks."""
    return _merged_splits(cfg, cfg.transfer_specs())


def _check_la_context(cfg: RunConfig, keys, windows):
    """Refuse a hybrid run whose LA branch would see no key at one of the
    `windows` that config `keys` set: without `attn.overlap`, query t sees
    keys i <= t - window only."""
    window = max(windows)
    if not cfg["attn.overlap"] and window >= cfg["task.T"]:
        raise ConfigError(f"{keys} {window} >= task.T {cfg['task.T']} "
                          "without attn.overlap: linear attention would see no key")


def eval_windows(cfg: RunConfig, tasks):
    """Collapse probe: associative recall is scored with the small eval
    window so long-range pairs fall outside SWA's reach. Refused by
    `_check_la_context` if a window leaves LA no key."""
    sinks = cfg["attn.sinks"]
    wins = {
        name: WindowSpec(
            cfg["eval.window"] if name == "assoc_recall" else cfg["attn.window"], sinks
        )
        for name in tasks
    }
    _check_la_context(cfg, "attn.window / eval.window", [w.window for w in wins.values()])
    return wins


def _prepare_out(cfg: RunConfig):
    """The stage commands' prologue: refuse a window that leaves LA no key or
    a malformed `stages.jsonl` before any write, then write `run.cfg`."""
    _check_la_context(cfg, "attn.window / ssd.window", [cfg["attn.window"], *cfg["ssd.window"]])
    out = cfg.output_dir()
    _read_stages(os.path.join(out, "stages.jsonl"))
    os.makedirs(out, exist_ok=True)
    with atomic_open(os.path.join(out, "run.cfg"), "w") as f:
        f.write(serialise_config(cfg))
    return out


def _save_stage(out, model, report):
    """The epilogue of every stage: write `<out>/<report.stage>.ckpt`, list
    it in the report and record the stage in `stages.jsonl`."""
    path = os.path.join(out, f"{report.stage}.ckpt")
    save_model(path, model, report.stage)
    report.checkpoints.append(path)
    record_stage(os.path.join(out, "stages.jsonl"), report.to_dict())
    return path


def _base_checkpoint(cfg: RunConfig, base_ckpt, out):
    """`base_ckpt`, or else the `base.ckpt` of a base model trained here."""
    if base_ckpt:
        return base_ckpt
    merged_train, merged_eval = build_datasets(cfg)
    model = init_model(cfg.model_config())
    report = run_base_training(
        model, cfg.train_config(), merged_train, merged_eval, cfg["train.base_epochs"]
    )
    return _save_stage(out, model, report)


def cmd_transfer(cfg: RunConfig, base_ckpt=None):
    """Attention transfer per `objective` from the base checkpoint (trained
    first when none is given); writes `post-transfer.ckpt`."""
    out = _prepare_out(cfg)
    model, _stage = load_model(_base_checkpoint(cfg, base_ckpt, out))
    if model.phi is None:
        model.attach_feature_maps(cfg.d_prime())
    # attention transfer has no held-out eval; the eval split is built only
    # because the train split excludes its rows
    conv_train, _conv_eval = conversion_datasets(cfg)
    report = run_attention_transfer(model, cfg.objective(), cfg.train_config(),
                                    conv_train["tokens"], cfg.window(), cfg.hybrid(),
                                    cfg["train.transfer_epochs"])
    _save_stage(out, model, report)
    return model, report


def cmd_finetune(cfg: RunConfig, ckpt, eval_gap_fn=None):
    """LoRA fine-tuning from a post-transfer checkpoint, attaching the
    configured adapters if it has none, for `train.finetune_epochs` under the
    `ssd.*` schedule (SSD at rate 0 without one), with an optional early stop
    (`convert.run_finetune`); checkpoints every epoch and the final model."""
    model, _stage = load_model(ckpt)
    if model.phi is None:
        raise ContractError(f"{ckpt} has no feature maps; fine-tuning starts from a "
                            "post-transfer checkpoint")
    out = _prepare_out(cfg)
    if model.lora is None:
        model.lora_attach(
            tuple(cfg["lora.targets"]), cfg["lora.rank"], cfg["lora.alpha"]
        )
    conv_train, conv_eval = conversion_datasets(cfg)

    def checkpoint_fn(m, epoch):
        path = os.path.join(out, f"post-finetune-epoch{epoch}.ckpt")
        save_model(path, m, "post-finetune")
        return path

    report = run_finetune(model, cfg.train_config(), cfg.ssd(), conv_train, conv_eval,
                          cfg.window(), cfg.hybrid(), cfg["train.finetune_epochs"],
                          checkpoint_fn=checkpoint_fn, eval_gap_fn=eval_gap_fn)
    _save_stage(out, model, report)
    return model, report


def cmd_hedgecats(cfg: RunConfig, base_ckpt=None):
    """HedgeCATs: weights-CE attention transfer, then LoRA fine-tuning
    without SSD from its `post-transfer.ckpt` for `train.stage2_epochs` at
    most, stopped once the hybrid-vs-SWA-only eval gap closes. Both stages
    run on the config that says so, which `run.cfg` records."""
    evals = eval_datasets(cfg)
    wins = eval_windows(cfg, evals)
    cfg = RunConfig(dict(cfg.values, objective="weights_ce", **{
        "ssd.dropout": [], "ssd.window": [], "train.finetune_epochs": cfg["train.stage2_epochs"]}))
    _, stage1 = cmd_transfer(cfg, base_ckpt)

    def eval_gap_fn(m):
        hybrid, swa = (mode_scores(m, evals, mode, cfg.hybrid(), wins)
                       for mode in (AblationMode.FULL_HYBRID, AblationMode.SWA_ONLY))
        gaps = [hybrid[name][0] - swa[name][0] for name in evals]
        return sum(gaps) / len(gaps)

    model, stage2 = cmd_finetune(cfg, stage1.checkpoints[-1], eval_gap_fn=eval_gap_fn)
    return model, (stage1, stage2)


def cmd_ssd_run(cfg: RunConfig, base_ckpt=None):
    """`cmd_transfer`, then `cmd_finetune` on the checkpoint it wrote."""
    _, transfer = cmd_transfer(cfg, base_ckpt=base_ckpt)
    return cmd_finetune(cfg, transfer.checkpoints[-1])


def cmd_ablate(cfg: RunConfig, ckpt, modes=ALL_MODES, csv_name="ablation.csv"):
    """Write the ablation table of `ckpt` to `<output_dir>/<csv_name>`, and nothing else."""
    evals = eval_datasets(cfg)
    wins = eval_windows(cfg, evals)
    model, stage = load_model(ckpt)
    report = evaluate_ablations(model, evals, cfg.hybrid(), wins, modes=modes, stage=stage)
    out = cfg.output_dir()
    os.makedirs(out, exist_ok=True)
    path = write_csv(
        os.path.join(out, csv_name),
        ("stage", "mode", "task", "metric", "value", "recovered_pct"),
        report.csv_rows(),
    )
    return report, path


def cmd_eval(cfg: RunConfig, ckpt, mode):
    """{task: accuracy, loss, n} of `mode_scores` under ablation `mode`, or
    under full softmax when `mode` is None, and the checkpoint's stage."""
    evals = eval_datasets(cfg)
    wins = None if mode is None else eval_windows(cfg, evals)
    model, stage = load_model(ckpt)
    scores = mode_scores(model, evals, mode, cfg.hybrid(), wins)
    return stage, {name: {"accuracy": acc, "loss": loss, "n": n}
                   for name, (acc, loss, n) in scores.items()}

"""Digest the checkpoints and CSVs that four small conversion runs write.

A refactor that must not change results leaves this output unchanged. Run
the script against the source tree before and after the change and diff:

    python tools/artifact_digest.py OUT_DIR [--src SRC] > digest.txt

SRC is the `src/` directory whose `hafx` is imported (default: the one next
to this script), and OUT_DIR must not exist yet. Each config runs
`cmd_ssd_run` and `cmd_ablate` on its fine-tuned checkpoint, then
`cmd_hedgecats` from the same base checkpoint and `cmd_ablate` on the
HedgeCATs post-finetune and post-transfer checkpoints, and `cmd_eval` on
the ssd run's fine-tuned checkpoint under full softmax and under LA only.
The output is one `sha256  path` line per `.ckpt`/`.csv` file, then every
`stages.jsonl` record with `wall_time_s` dropped and paths made relative to
OUT_DIR, then one `config/eval-mode: stage task accuracy loss n` line per
task of each `cmd_eval`, with its floats in `repr`.
"""

import argparse
import hashlib
import json
import os
import sys

# the acceptance suite's criterion-9 recipe
BASE = {
    "seed": "3",
    "model.vocab_size": "32",
    "model.d_model": "16",
    "model.n_layers": "1",
    "model.n_heads": "2",
    "model.mlp_width": "32",
    "model.max_T": "32",
    "attn.window": "8",
    "ssd.dropout": "0.5",
    "ssd.window": "4,8",
    "task.kinds": "assoc_recall",
    "task.T": "16",
    "task.n_examples": "64",
    "task.n_pairs": "4",
    "task.n_keys": "4",
    "task.n_values": "4",
    "train.base_epochs": "1",
    "train.finetune_epochs": "1",
    "train.batch_size": "8",
    "train.accumulation": "1",
}

CONFIGS = {
    "criterion9": {},
    "acc2-ssd": {
        "task.kinds": "assoc_recall,copy",
        "task.transfer_kinds": "char_lm",
        "model.vocab_size": "64",
        "train.accumulation": "2",
        "train.base_epochs": "2",
        "train.finetune_epochs": "3",
        "train.stage2_epochs": "2",
    },
    "overlap": {"attn.overlap": "true"},
    "outputs-mse": {"objective": "outputs_mse"},
}


def run_config(pipelines, cfg, out):
    """Run the config's stages under `out`; return its `cmd_eval` lines."""
    ssd, hedge = os.path.join(out, "ssd"), os.path.join(out, "hedgecats")
    os.environ["HAFX_OUTPUT_DIR"] = ssd
    pipelines.cmd_ssd_run(cfg)
    pipelines.cmd_ablate(cfg, os.path.join(ssd, "post-finetune.ckpt"))
    evals = []
    for label, kwargs in (("softmax", {"softmax": True}),
                          ("la_only", {"mode": pipelines.AblationMode.LA_ONLY})):
        stage, results = pipelines.cmd_eval(cfg, os.path.join(ssd, "post-finetune.ckpt"),
                                            **kwargs)
        evals += [f"{os.path.basename(out)}/eval-{label}: {stage} {task} {r['accuracy']!r} "
                  f"{r['loss']!r} {r['n']}" for task, r in results.items()]
    os.environ["HAFX_OUTPUT_DIR"] = hedge
    pipelines.cmd_hedgecats(cfg, base_ckpt=os.path.join(ssd, "base.ckpt"))
    pipelines.cmd_ablate(cfg, os.path.join(hedge, "post-finetune.ckpt"))
    pipelines.cmd_ablate(cfg, os.path.join(hedge, "post-transfer.ckpt"),
                         csv_name="ablation-post-transfer.csv")
    return evals


def relative(value, root):
    if isinstance(value, str) and value.startswith(root):
        return os.path.relpath(value, root)
    if isinstance(value, list):
        return [relative(v, root) for v in value]
    if isinstance(value, dict):
        return {k: relative(v, root) for k, v in value.items()}
    return value


def digest(root):
    lines, stages = [], []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if name.endswith((".ckpt", ".csv")):
                with open(path, "rb") as f:
                    lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {rel}")
            elif name == "stages.jsonl":
                with open(path) as f:
                    for line in f:
                        record = json.loads(line)
                        record.pop("wall_time_s", None)
                        record = relative(record, root + os.sep)
                        stages.append(f"{rel}: {json.dumps(record, sort_keys=True)}")
    return lines, stages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hafx import pipelines
    from hafx.config import parse_config

    root = os.path.abspath(args.out_dir)
    os.makedirs(root)
    evals = []
    for name, overrides in CONFIGS.items():
        text = "".join(f"{k} = {v}\n" for k, v in {**BASE, **overrides}.items())
        evals += run_config(pipelines, parse_config(text), os.path.join(root, name))
    lines, stages = digest(root)
    print("\n".join(lines + stages + evals))
    print(f"# {len(lines)} .ckpt/.csv files, {len(stages)} stage records, "
          f"{len(evals)} eval lines", file=sys.stderr)


if __name__ == "__main__":
    main()

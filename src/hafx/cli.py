"""Command-line entry point.

Subcommands: transfer, finetune, hedgecats, ssd-run, eval, ablate, bench,
report. Every pipeline is driven by a `key = value` config file (see
configs/ for the shipped recipes); flags name checkpoints, modes and outputs.
"""

import argparse
import os
import sys

from .config import RunConfig, load_config, parse_config
from .errors import HafxError, InputError
from .evalbench import ALL_MODES, AblationMode, benchmark_scaling


def _config(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return parse_config("")


def _modes(text):
    """`--modes`: "all" or comma-separated mode names."""
    if text == "all":
        return ALL_MODES
    try:
        return tuple(AblationMode(m.strip()) for m in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{e}; the modes are all or "
                                         f"{', '.join(m.value for m in AblationMode)}") from e


def _lengths(text):
    """`bench --T`: comma-separated positive sequence lengths."""
    try:
        T_list = [int(t) for t in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{e}; --T takes comma-separated ints") from e
    if min(T_list) < 1:
        raise argparse.ArgumentTypeError(f"{min(T_list)} is not a positive length")
    return T_list


def build_parser():
    p = argparse.ArgumentParser(prog="hafx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="run config file")
        return sp

    sp = add("transfer", "train/load base model and run attention transfer")
    sp.add_argument("--base-ckpt", help="existing base checkpoint")

    sp = add("finetune", "LoRA fine-tuning from a post-transfer checkpoint")
    sp.add_argument("--ckpt", required=True)

    sp = add("hedgecats", "two-stage weights-transfer + hybrid LoRA pipeline")
    sp.add_argument("--base-ckpt")

    sp = add("ssd-run", "transfer then SSD-scheduled fine-tuning")
    sp.add_argument("--base-ckpt")

    sp = add("eval", "evaluate a checkpoint on the configured tasks")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--mode", default="full_hybrid",
                    choices=[m.value for m in AblationMode] + ["softmax"])

    sp = add("ablate", "six-mode ablation table for a checkpoint")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--modes", default="all", type=_modes)

    sp = sub.add_parser("bench", help="linear vs quadratic scaling benchmark")
    sp.add_argument("--T", default="256,512,1024", type=_lengths)
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--out", default="bench.csv")

    sp = sub.add_parser("report", help="pretty-print an ablation CSV as a table")
    sp.add_argument("csv", nargs="+")
    return p


def _run(args):
    from . import pipelines

    if args.command == "transfer":
        _, report = pipelines.cmd_transfer(_config(args), base_ckpt=args.base_ckpt)
        print(f"transfer losses: {report.epoch_losses}")
    elif args.command == "finetune":
        _, report = pipelines.cmd_finetune(_config(args), args.ckpt)
        print(f"finetune losses: {report.epoch_losses}")
    elif args.command == "hedgecats":
        _, (s1, s2) = pipelines.cmd_hedgecats(_config(args), base_ckpt=args.base_ckpt)
        print(f"stage1 losses: {s1.epoch_losses}; stage2 epochs: {len(s2.epoch_losses)}")
    elif args.command == "ssd-run":
        _, report = pipelines.cmd_ssd_run(_config(args), base_ckpt=args.base_ckpt)
        print(f"ssd finetune losses: {report.epoch_losses}")
    elif args.command == "eval":
        mode = None if args.mode == "softmax" else AblationMode(args.mode)
        stage, results = pipelines.cmd_eval(_config(args), args.ckpt, mode)
        for task, r in results.items():
            print(f"{stage} {task}: acc={r['accuracy']:.4f} loss={r['loss']:.4f}")
    elif args.command == "ablate":
        report, path = pipelines.cmd_ablate(_config(args), args.ckpt, modes=args.modes)
        print(f"wrote {path}")
        _print_table(report)
    elif args.command == "bench":
        if not os.path.isdir(os.path.dirname(args.out) or "."):  # before timing, not after
            raise InputError(f"{args.out}: cannot open: its directory does not exist")
        report = benchmark_scaling(args.T, args.reps)
        pipelines.write_csv(args.out, ("path", "T", "median_ms", "aux_bytes"), report.rows)
        for path, T, ms, aux in report.rows:
            print(f"{path:20s} T={T:<6d} {ms:10.3f} ms  aux={aux} B")
        print(f"wrote {args.out}")
    elif args.command == "report":
        _print_csvs(args.csv)
    return 0


def _print_table(report):
    def rec(value):
        return f"{'n/a':>9s}" if value is None else f"{value:9.2f}"

    print(f"{'mode':16s} " + " ".join(f"{t:>14s}" for t in report.tasks) + f" {'AVG':>8s} {'Rec.Perf':>9s}")
    base = " ".join(f"{report.base_scores[t] * 100:14.2f}" for t in report.tasks)
    print(f"{'base (softmax)':16s} {base} {report.base_avg * 100:8.2f} "
          f"{rec(100.0 if report.base_avg > 0 else None)}")
    for mode in dict.fromkeys(m for m, *_ in report.rows):
        accs = {t: a for m, t, a, _l in report.rows if m == mode}
        cells = " ".join(f"{accs[t] * 100:14.2f}" for t in report.tasks)
        print(
            f"{mode.value:16s} {cells} {report.mode_avg(mode) * 100:8.2f} "
            f"{rec(report.recovered(mode))}"
        )


def _print_csvs(paths):
    for path in paths:
        with open(path, encoding="utf-8") as f:
            try:
                lines = list(f)
            except UnicodeDecodeError as e:
                raise InputError(f"{path}: not UTF-8 text: {e}") from e
        for line in lines:
            print(line.rstrip("\n").replace(",", "\t"))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return _run(args)
    except HafxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a path that is missing, unreadable or unwritable
        where = "" if e.filename is None else f"{e.filename}: cannot open: "
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

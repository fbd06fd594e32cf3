"""Worker process of the benchmark: set-up, one round, then checks.

    python3 perfbench/workloads.py --workload NAME --seed N --work DIR
        [--setup-only | [--trace] [--check]]

`run.py` starts one worker per set-up sample and one per round, so every
round runs in a fresh process, as each `hafx` command does. A round is one
pass of the workload's pipeline commands into a fresh output directory.
The last line of standard output is one JSON object for `run.py`.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hafx import checkpoint, convert, evalbench, pipelines, tasks  # noqa: E402
from hafx.attention import AblationMode, HybridSpec, WindowSpec  # noqa: E402
from hafx.config import RunConfig, parse_config  # noqa: E402
from hafx.model import AttnSettings, init_model  # noqa: E402

import checks as ck  # noqa: E402
from hooks import Patches, StepClock, Tracer  # noqa: E402
from reference import Reference, masked_cross_entropy, setting  # noqa: E402

# configs/collapse.cfg, copied so that a change to the recipe does not
# change what the benchmark measures
COLLAPSE = {
    "model.vocab_size": 64, "model.d_model": 64, "model.n_layers": 2,
    "model.n_heads": 2, "model.mlp_width": 128, "model.max_T": 64,
    "attn.window": 16, "attn.sinks": 2, "attn.g": 0.5, "attn.d_prime": 16,
    "objective": "hybrid_outputs_mse",
    "task.kinds": "assoc_recall", "task.transfer_kinds": "char_lm", "task.T": 32,
    "task.n_examples": 4096, "task.n_pairs": 8, "task.n_keys": 8,
    "task.n_values": 8, "task.min_pairs": 2,
    "train.lr_finetune": 0.0002, "train.batch_size": 32, "train.accumulation": 1,
    "train.base_epochs": 12, "train.transfer_epochs": 2, "train.finetune_epochs": 12,
    "eval.window": 8,
}
# configs/ssd_fig5a.cfg: the collapse model and tasks, default finetune lr
SSD_FIG5A = {k: v for k, v in COLLAPSE.items() if k != "train.lr_finetune"}
SSD_FIG5A.update({"ssd.dropout": "0.9,0.75,0.5", "ssd.window": "4,8,16",
                  "train.finetune_epochs": 5})


def make_config(recipe, seed, output_dir, changes):
    """The recipe with `changes`, as the program's config parser reads it."""
    values = dict(recipe, seed=seed, output_dir=output_dir, **changes)
    return parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))


def in_dir(cfg, output_dir):
    return RunConfig(dict(cfg.values, output_dir=output_dir))


def attn_of(s):
    """The program's AttnSettings for a reference setting."""
    if s["kind"] == "softmax":
        return AttnSettings(kind="softmax")
    return AttnSettings("hybrid", AblationMode(s["mode"]), WindowSpec(s["window"], s["sinks"]),
                        HybridSpec(s["g"], s["overlap"]))


def hybrid(cfg, mode, window):
    return setting("hybrid", mode, window, cfg["attn.sinks"], cfg["attn.g"], cfg["attn.overlap"])


def outputs_of(out_dir):
    """What a round wrote that must repeat exactly: stage losses and the
    bytes of every checkpoint."""
    record = {}
    stages = os.path.join(out_dir, "stages.jsonl")
    if os.path.exists(stages):
        with open(stages) as f:
            record["stages"] = [{k: v for k, v in json.loads(line).items()
                                 if k not in ("wall_time_s", "checkpoints")} for line in f]
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".ckpt"):
            with open(os.path.join(out_dir, name), "rb") as f:
                record[name] = hashlib.sha256(f.read()).hexdigest()
    return record


def heldout(cfg, rows=32, kind_key="task.kinds", **changes):
    """First `rows` rows of the eval split of the first task of `kind_key`."""
    spec = (cfg.task_specs() if kind_key == "task.kinds" else cfg.transfer_specs())[0]
    for k, v in changes.items():
        setattr(spec, k, v)
    data = tasks.gen_task(spec, "eval")
    return {k: (v[:rows] if isinstance(v, np.ndarray) else v) for k, v in data.items()}


def check_forward(checks, model, data, settings, label):
    """forward_logits against the reference on one held-out batch."""
    ref = Reference.from_model(model)
    for s in settings:
        name = s["kind"] if s["kind"] == "softmax" else f"{s['mode']}.w{s['window']}"
        checks.run(f"{label}.forward.{name}", lambda s=s: ck.close(
            model.forward_logits(data["tokens"], attn_of(s)).data, ref.logits(data["tokens"], s)))


class Workload:
    name = ""
    commands = 1  # pipeline commands per round

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def setup(self):
        """Inputs and starting checkpoint; timed as set-up."""

    def round(self, out):
        """Runs the round's pipeline commands; returns (model, extra record)."""
        raise NotImplementedError

    def check(self, checks, first):
        """Checks on the first round's model, files and step losses."""
        raise NotImplementedError

    @property
    def step_tokens(self):
        return self.cfg["train.batch_size"] * self.cfg["train.accumulation"] * self.cfg["task.T"]


class BaseTrain(Workload):
    """`hafx transfer` from scratch: base training, then one transfer epoch."""

    name = "base-train"

    def setup(self):
        self.cfg = make_config(COLLAPSE, self.seed, self.work, {
            "task.n_examples": 1024, "train.base_epochs": 2, "train.transfer_epochs": 1})

    def round(self, out):
        model, _report = pipelines.cmd_transfer(in_dir(self.cfg, out))
        return model, {}

    def check(self, checks, first):
        batch = heldout(self.cfg)
        check_forward(checks, first["model"], batch, [setting()], "base")
        self._check_first_step(checks, batch)
        checks.run("base.loss_decreases", ck.loss_decreases, first["clock"].losses("base"))

    def _check_first_step(self, checks, batch):
        """One base step from the workload's initial model on one batch: the
        AdamW update and a directional finite difference of its gradient."""
        cfg, tc = self.cfg, self.cfg.train_config()
        model = init_model(cfg.model_config())
        seen = {}

        def wrap(fn):
            def step(opt):
                seen["theta0"] = {n: p.data.copy() for n, p in opt.params.items()}
                seen["grad"] = {n: p.grad.copy() for n, p in opt.params.items()}
                fn(opt)
                seen["theta1"] = {n: p.data.copy() for n, p in opt.params.items()}
            return step

        patches = Patches()
        patches.wrap("hafx.optim:AdamW.step", wrap)
        try:
            convert.run_base_training(model, tc, batch, batch, epochs=1)
        finally:
            patches.undo()
        checks.run("base.first_step.adamw_update", ck.adamw_first_update, seen["theta0"],
                   seen["grad"], seen["theta1"], tc.lr_base, tc.weight_decay, tc.adam_eps)
        rng = np.random.default_rng(self.seed)
        direction = {n: rng.normal(size=a.shape) for n, a in seen["theta0"].items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {n: d / norm for n, d in direction.items()}

        def loss(params):
            logits = Reference(params, cfg["model.n_heads"]).logits(batch["tokens"], setting())
            return masked_cross_entropy(logits, batch["targets"], batch["loss_mask"])

        checks.run("base.first_step.directional_fd", ck.directional_derivative, loss,
                   seen["theta0"], seen["grad"], direction)


class SsdConvert(Workload):
    """`hafx ssd-run` from a base checkpoint: two transfer epochs, then three
    SSD finetune epochs, so that each dropout rate and window occurs."""

    name = "ssd-convert"

    def setup(self):
        self.cfg = make_config(SSD_FIG5A, self.seed, self.work, {
            "task.n_examples": 640, "train.finetune_epochs": 3})
        self.base_ckpt = os.path.join(self.work, "base.ckpt")
        checkpoint.save_model(self.base_ckpt, init_model(self.cfg.model_config()), "base")

    def round(self, out):
        model, _report = pipelines.cmd_ssd_run(in_dir(self.cfg, out), base_ckpt=self.base_ckpt)
        return model, {}

    def check(self, checks, first):
        cfg = self.cfg
        batch = heldout(cfg, kind_key="task.transfer_kinds")
        windows = sorted(set(cfg["ssd.window"]) | {cfg["attn.window"]})
        settings = [setting()] + [hybrid(cfg, m, w) for m in ("full_hybrid", "la_only")
                                  for w in windows]
        check_forward(checks, first["model"], batch, settings, "ssd")
        out = first["dir"]
        checks.run("ssd.finetune_touches_only_lora", lambda: ck.frozen_during_finetune(
            ck.read_checkpoint(os.path.join(out, "post-transfer.ckpt")),
            ck.read_checkpoint(os.path.join(out, "post-finetune.ckpt"))))
        # every transfer epoch sees the same batches in the same order
        checks.run("ssd.transfer_loss_decreases", ck.loss_decreases,
                   first["clock"].losses("transfer"), share=1 / cfg["train.transfer_epochs"])


class AblateLong(Workload):
    """The collapse recipe's `hafx transfer`, `hafx finetune` and `hafx
    ablate` calls: a short conversion at T=32 from a base checkpoint, then
    the six ablation modes and the softmax base score at T=512."""

    name = "ablate-long"
    commands = 4
    LONG_T = 512

    def setup(self):
        self.cfg = make_config(COLLAPSE, self.seed, self.work, {
            "model.max_T": self.LONG_T, "task.n_examples": 384,
            "train.transfer_epochs": 1, "train.finetune_epochs": 1})
        self.base_ckpt = os.path.join(self.work, "base.ckpt")
        checkpoint.save_model(self.base_ckpt, init_model(self.cfg.model_config()), "base")
        # n_examples 128 gives the 32-row eval split, one evaluation batch
        self.tasks = {"assoc_recall": heldout(self.cfg, T=self.LONG_T, n_examples=128)}

    def round(self, out):
        cfg = in_dir(self.cfg, out)
        pipelines.cmd_transfer(cfg, base_ckpt=self.base_ckpt)
        pipelines.cmd_finetune(cfg, os.path.join(out, "post-transfer.ckpt"))
        model, stage = checkpoint.load_model(os.path.join(out, "post-finetune.ckpt"))
        report = evalbench.evaluate_ablations(
            model, self.tasks, modes=evalbench.ALL_MODES, hy=cfg.hybrid(),
            win=pipelines.eval_windows(cfg, self.tasks), stage=stage)
        rows = [(m.value, t, acc, loss) for m, t, acc, loss in report.rows]
        return model, {"ablation": rows, "base_scores": report.base_scores}

    def check(self, checks, first):
        cfg, model = self.cfg, first["model"]
        short = heldout(cfg, kind_key="task.transfer_kinds")
        check_forward(checks, model, short, [setting(), hybrid(cfg, "full_hybrid",
                                                              cfg["attn.window"])], "convert")
        out = first["dir"]
        checks.run("convert.finetune_touches_only_lora", lambda: ck.frozen_during_finetune(
            ck.read_checkpoint(os.path.join(out, "post-transfer.ckpt")),
            ck.read_checkpoint(os.path.join(out, "post-finetune.ckpt"))))

        data = self.tasks["assoc_recall"]
        window = pipelines.eval_windows(cfg, self.tasks)["assoc_recall"].window
        # (accuracy, loss) per mode; the softmax base score comes without a loss
        results = {m: (acc, loss) for m, _t, acc, loss in first["record"]["ablation"]}
        results["softmax"] = (first["record"]["base_scores"]["assoc_recall"], None)
        settings = {"softmax": setting()}
        settings.update({m.value: hybrid(cfg, m.value, window) for m in evalbench.ALL_MODES})
        ref = Reference.from_model(model)
        for label, s in settings.items():
            logits = ref.logits(data["tokens"], s)
            acc, loss = results[label]
            checks.run(f"ablate.forward.{label}", lambda s=s, logits=logits: ck.close(
                model.forward_logits(data["tokens"][:4], attn_of(s)).data, logits[:4]))
            checks.run(f"ablate.accuracy.{label}", ck.accuracy_matches, acc, logits,
                       data["targets"], data["acc_mask"])
            if loss is not None:
                checks.run(f"ablate.loss.{label}", lambda loss=loss, logits=logits: ck.close(
                    loss, masked_cross_entropy(logits, data["targets"], data["loss_mask"])))


WORKLOADS = {w.name: w for w in (BaseTrain, SsdConvert, AblateLong)}


def environment():
    """Interpreter, numpy and BLAS of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                return env
    return env


def run_round(workload, out_dir, tracer=None):
    """One round with the step clock, and with the tracer if given."""
    os.makedirs(out_dir)
    patches = Patches()
    clock = StepClock()
    if tracer is not None:
        tracer.install(patches)
    clock.install(patches)
    error = None
    t0 = time.perf_counter()
    try:
        model, record = workload.round(out_dir)
    except Exception as e:  # the round's command failed; report it as a failure
        model, record, error = None, {}, f"{type(e).__name__}: {e}"
    finally:
        wall = time.perf_counter() - t0
        patches.undo()
    record = dict(record, outputs=outputs_of(out_dir),
                  evals=[e[5] for e in clock.evals],
                  losses=[s[3] for s in clock.steps])
    return {"wall": wall, "model": model, "record": record, "clock": clock,
            "dir": out_dir, "error": error}


def _run_checks(workload, checks, first):
    """The workload's checks; raising while preparing them is a failure."""
    workload.check(checks, first)
    return True, "ok"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="scratch directory for this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true", help="record spans in this round")
    p.add_argument("--check", action="store_true", help="check this round's outputs")
    args = p.parse_args(argv)

    os.makedirs(args.work)
    try:
        return _main(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)


def _main(args):
    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    r = run_round(workload, os.path.join(args.work, "round"), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = ck.Checks()
    checks.run("round_completes", lambda: (r["error"] is None, r["error"] or "ok"))
    if args.check and r["error"] is None:
        checks.run("checks_complete", _run_checks, workload, checks, r)

    clock = r["clock"]
    result = {
        "ready": ready,
        "round_s": r["wall"],
        "error": r["error"],
        # what must repeat exactly in every round of one seed
        "digest": hashlib.sha256(json.dumps(r["record"], sort_keys=True).encode()).hexdigest(),
        "operations": (len(clock.steps) + sum(e[4] for e in clock.evals) + workload.commands
                       + len(checks.results)),
        "checks": checks.results,
        "peak_rss_mb": peak_rss_mb,
        "train_step_s": clock.step_samples(("base", "finetune")),
        "transfer_step_s": clock.step_samples(("transfer",)),
        "eval_tokens_s": [(e[3], e[1] - e[0]) for e in clock.evals],
        "step_tokens": workload.step_tokens,
        "env": environment(),
    }
    if tracer is not None:
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        tracer.write(path)
        result.update(layers={"calls": tracer.calls, "self_s": tracer.self_s,
                              "counts": tracer.counts}, absent=tracer.absent,
                      trace_file=os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Wrappers the benchmark installs around functions of the `hafx` package.

A function is patched where its callers look it up: every `hafx` module
that binds the same function object under some name gets the wrapper, and
a method is replaced on its class. `Patches.undo` restores every binding.

Two wrapper sets exist:

* `StepClock`, installed in every round, hooks only the
  optimisation step (`AdamW.step`, plus `Tensor.backward` to read the loss
  the step minimises) and the evaluation calls (`evaluate_lm`,
  `evaluate_task`).
* `Tracer`, for the traced run, records a span around each function in
  `TRACED` and the counts named in `COUNTS`.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time

# (layer, function, locations). A location is "module:attr" or
# "module:Class.attr"; several locations pool into one function name.
TRACED = [
    ("tensor", "backward", ["hafx.tensor:Tensor.backward"]),
    ("tensor", "gelu", ["hafx.tensor:gelu"]),
    ("tensor", "row_softmax", ["hafx.tensor:row_softmax"]),
    ("tensor", "logsumexp", ["hafx.tensor:logsumexp"]),
    ("tensor", "embedding", ["hafx.tensor:embedding"]),
    ("tensor", "check_finite", ["hafx.tensor:_check_finite"]),
    ("model", "forward_logits", ["hafx.model:Model.forward_logits"]),
    ("model", "ln", ["hafx.model:Model._ln"]),
    ("model", "attention", ["hafx.model:Model._attention"]),
    ("model", "lm_loss", ["hafx.model:lm_loss"]),
    ("attention", "apply_rope", ["hafx.attention.ops:apply_rope"]),
    ("attention", "softmax_attention_causal", ["hafx.attention.ops:softmax_attention_causal"]),
    ("attention", "sliding_window_attention", ["hafx.attention.ops:sliding_window_attention"]),
    ("attention", "sinks_attention", ["hafx.attention.ops:sinks_attention"]),
    ("attention", "feature_map_apply", ["hafx.attention.ops:feature_map_apply"]),
    ("attention", "linear_attention_masked", ["hafx.attention.ops:linear_attention_masked"]),
    ("attention", "hybrid_attention", ["hafx.attention.ops:hybrid_attention"]),
    ("attention", "masks", [
        "hafx.attention.ops:causal_additive_mask",
        "hafx.attention.ops:band_additive_mask",
        "hafx.attention.ops:sinks_additive_mask",
        "hafx.attention.ops:causal_mult_mask",
        "hafx.attention.ops:lagged_mult_mask",
    ]),
    ("optim", "AdamW.step", ["hafx.optim:AdamW.step"]),
    ("convert", "run_base_training", ["hafx.convert:run_base_training"]),
    ("convert", "run_attention_transfer", ["hafx.convert:run_attention_transfer"]),
    ("convert", "transfer_loss", ["hafx.convert:transfer_loss"]),
    ("convert", "finetune_epoch", ["hafx.convert:finetune_epoch"]),
    ("convert", "evaluate_lm", ["hafx.convert:evaluate_lm"]),
    ("evalbench", "evaluate_ablations", ["hafx.evalbench:evaluate_ablations"]),
    ("evalbench", "evaluate_task", ["hafx.evalbench:evaluate_task"]),
    ("tasks", "gen_task", ["hafx.tasks:gen_task"]),
    ("checkpoint", "save_model", ["hafx.checkpoint:save_model"]),
    ("checkpoint", "load_model", ["hafx.checkpoint:load_model"]),
    ("pipelines", "cmd_transfer", ["hafx.pipelines:cmd_transfer"]),
    ("pipelines", "cmd_finetune", ["hafx.pipelines:cmd_finetune"]),
    ("pipelines", "cmd_ssd_run", ["hafx.pipelines:cmd_ssd_run"]),
    ("pipelines", "build_datasets", ["hafx.pipelines:build_datasets"]),
    ("pipelines", "conversion_datasets", ["hafx.pipelines:conversion_datasets"]),
]

# Counts recorded at the traced boundaries, by the layer they belong to.
COUNTS = [
    ("tensor", "ops"),
    ("tensor", "taped_ops"),
    ("tensor", "eval_taped_ops"),
    ("attention", "mask_bytes"),
    ("tasks", "rows_generated"),
    ("checkpoint", "bytes_written"),
]

EVAL_FUNCTIONS = ("evaluate_lm", "evaluate_task")
OP_LOCATION = "hafx.tensor:Tensor._op"


def _resolve(location):
    """(owner, attr, raw value) for a location, or None when it is gone."""
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Patches:
    """Installs wrappers at every binding of a function; undoes them all."""

    def __init__(self):
        self._saved = []

    def wrap(self, location, make_wrapper):
        """Replace the function at `location` with `make_wrapper(fn)`.

        Returns False when the function no longer exists.
        """
        found = _resolve(location)
        if found is None:
            return False
        owner, attr, raw = found
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = make_wrapper(fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._set(owner, attr, wrapped)
            return True
        wrapped = make_wrapper(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hafx" or name.startswith("hafx.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, wrapped)
        return True

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _eval_rows_and_batch(fn, args, kwargs):
    """(rows, tokens, batch_size) of one evaluate_lm / evaluate_task call."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    data = bound.arguments["data"]
    tokens = data["tokens"] if isinstance(data, dict) else data
    return tokens.shape[0], tokens.size, bound.arguments["batch_size"]


# -- untraced runs --------------------------------------------------------------


class StepClock:
    """End times of optimisation steps and spans of evaluation calls.

    A step's duration is the time from the end of the previous step of the
    same optimiser to the end of this one, provided no evaluation call ran
    in between. So the first step of a stage, and the first step after an
    epoch's held-out evaluation (and the checkpoint write that follows it),
    give no sample.
    """

    def __init__(self):
        self.steps = []  # (end time, optimiser id, kind, loss)
        self.evals = []  # (start, end, rows, tokens, batches, result)
        self._kinds = {}
        self._loss = None

    def install(self, patches):
        clock = self

        def wrap_step(fn):
            @functools.wraps(fn)
            def step(opt, *a, **k):
                out = fn(opt, *a, **k)
                clock.steps.append((time.perf_counter(), id(opt), clock._kind(opt), clock._loss))
                clock._loss = None
                return out
            return step

        def wrap_backward(fn):
            @functools.wraps(fn)
            def backward(tensor, *a, **k):
                clock._loss = float(tensor.data)
                return fn(tensor, *a, **k)
            return backward

        def wrap_eval(fn):
            @functools.wraps(fn)
            def evaluate(*a, **k):
                rows, tokens, batch = _eval_rows_and_batch(fn, a, k)
                t0 = time.perf_counter()
                out = fn(*a, **k)
                clock.evals.append((t0, time.perf_counter(), rows, tokens,
                                    math.ceil(rows / batch), out))
                return out
            return evaluate

        ok = patches.wrap("hafx.optim:AdamW.step", wrap_step)
        ok &= patches.wrap("hafx.tensor:Tensor.backward", wrap_backward)
        ok &= patches.wrap("hafx.convert:evaluate_lm", wrap_eval)
        ok &= patches.wrap("hafx.evalbench:evaluate_task", wrap_eval)
        if not ok:
            raise RuntimeError("a timed boundary of the program no longer exists")

    def _kind(self, opt):
        # the optimiser stays referenced here, so its id is not reused
        if id(opt) not in self._kinds:
            names = list(opt.params)
            if names and all(".phi." in n for n in names):
                kind = "transfer"
            elif names and all(".lora_" in n for n in names):
                kind = "finetune"
            else:
                kind = "base"
            self._kinds[id(opt)] = (opt, kind)
        return self._kinds[id(opt)][1]

    def step_samples(self, kinds):
        """Durations (s) of the steps of the given kinds that are samples."""
        out = []
        eval_ends = [e[1] for e in self.evals]
        for prev, cur in zip(self.steps, self.steps[1:]):
            if cur[1] != prev[1] or cur[2] not in kinds:
                continue
            if any(prev[0] < end <= cur[0] for end in eval_ends):
                continue
            out.append(cur[0] - prev[0])
        return out

    def losses(self, kind):
        return [s[3] for s in self.steps if s[2] == kind]


# -- traced runs ----------------------------------------------------------------


class Tracer:
    """Span recorder: name, start, end and parent of every traced call.

    Spans stay in memory (`spans`) until the benchmark writes them out. The
    per-name totals are kept as calls and self time, where self time is a
    span's duration minus the time covered by its child spans.
    """

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = {}
        self.self_s = {}
        self.counts = {f"{layer}.{name}": 0 for layer, name in COUNTS}
        self.absent = []
        self._stack = []  # [span id, name, start, child time]
        self._eval_depth = 0

    def install(self, patches):
        self.absent = []
        for layer, function, locations in TRACED:
            name = f"{layer}.{function}"
            present = [patches.wrap(loc, lambda fn, n=name: self._span_wrapper(n, fn))
                       for loc in locations]
            if not all(present):
                self.absent.append(name)
        if not patches.wrap(OP_LOCATION, self._op_wrapper):
            self.absent.extend(f"tensor.{c}" for c in ("ops", "taped_ops", "eval_taped_ops"))

    def _span_wrapper(self, name, fn):
        tracer = self
        is_eval = name.rsplit(".", 1)[-1] in EVAL_FUNCTIONS
        count = self._counter(name)

        @functools.wraps(fn)
        def traced(*a, **k):
            stack = tracer._stack
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            entry = [span_id, name, time.perf_counter(), 0.0]
            stack.append(entry)
            tracer._eval_depth += is_eval
            try:
                out = fn(*a, **k)
            finally:
                end = time.perf_counter()
                tracer._eval_depth -= is_eval
                stack.pop()
                dur = end - entry[2]
                if stack:
                    stack[-1][3] += dur
                tracer.spans[span_id] = (span_id, parent, name, entry[2], end)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - entry[3]
            if count is not None:
                count(out, a, k)
            return out

        return traced

    def _counter(self, name):
        tracer = self

        def mask_bytes(out, a, k):
            tracer.counts["attention.mask_bytes"] += out.nbytes

        def rows(out, a, k):
            tracer.counts["tasks.rows_generated"] += len(out["tokens"])

        def written(out, a, k):
            path = a[0] if a else k["path"]
            tracer.counts["checkpoint.bytes_written"] += os.path.getsize(path)

        return {"attention.masks": mask_bytes, "tasks.gen_task": rows,
                "checkpoint.save_model": written}.get(name)

    def _op_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def op(*a, **k):
            out = fn(*a, **k)
            counts = tracer.counts
            counts["tensor.ops"] += 1
            if out._backward_fn is not None:
                counts["tensor.taped_ops"] += 1
                if tracer._eval_depth:
                    counts["tensor.eval_taped_ops"] += 1
            return out

        return op

    def write(self, path):
        """Spans as JSON lines: [id, parent, name, start_s, end_s]."""
        import json

        with open(path, "w") as f:
            for span in self.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in dict.fromkeys(layer for layer, _f, _l in TRACED):
        for _l, function, _locs in (t for t in TRACED if t[0] == layer):
            out += [(f"{layer}.{function}.calls", "count"), (f"{layer}.{function}.self_ms", "ms")]
        out += [(f"{layer}.{c}", "bytes" if "bytes" in c else "count")
                for _l, c in (c for c in COUNTS if c[0] == layer)]
    out.append(("trace.overhead_s", "s"))
    return out

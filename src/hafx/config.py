"""Run configuration: a flat `key = value` text format with a closed schema.

Unknown keys, type mismatches and out-of-range values are rejected with the
offending line number. Every field has an explicit default, so an empty
document is a valid config. `HAFX_OUTPUT_DIR` overrides `output_dir`.
"""

import os
from dataclasses import dataclass

from .attention import Activation, HybridSpec, WindowSpec
from .convert import SSDSchedule, TrainConfig, TransferObjective
from .errors import ConfigError, ShapeError
from .model import ModelConfig
from .tasks import KINDS as TASK_KINDS
from .tasks import TaskSpec


def _bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _list(item):
    """Parser of a comma-separated list whose items `item` parses."""
    return lambda s: [item(x.strip()) for x in s.split(",") if x.strip()]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# key -> (default, parser, range check or None)
SCHEMA = {
    "seed": (0, int, None),
    "output_dir": ("runs", str, None),
    # model
    "model.vocab_size": (64, int, lambda v: v >= 2),
    "model.d_model": (128, int, lambda v: v >= 2),
    "model.n_layers": (4, int, lambda v: v >= 1),
    "model.n_heads": (4, int, lambda v: v >= 1),
    "model.mlp_width": (0, int, lambda v: v >= 0),
    "model.max_T": (256, int, lambda v: v >= 2),
    # attention
    "attn.activation": ("softmax", str, lambda v: v in [a.value for a in Activation]),
    "attn.d_prime": (0, int, lambda v: v >= 0),  # 0 -> h_d / 2
    "attn.window": (64, int, lambda v: v >= 1),
    "attn.sinks": (8, int, lambda v: v >= 0),
    "attn.g": (0.5, float, lambda v: 0.0 <= v <= 1.0),
    "attn.overlap": (False, _bool, None),
    # objective / schedules
    "objective": (
        "hybrid_outputs_mse",
        str,
        lambda v: v in [o.value for o in TransferObjective],
    ),
    "ssd.dropout": ([], _list(float), lambda v: all(0.0 <= r <= 1.0 for r in v)),
    "ssd.window": ([], _list(int), lambda v: all(w >= 1 for w in v)),
    # lora
    "lora.rank": (8, int, lambda v: v >= 1),
    "lora.alpha": (16.0, float, lambda v: v > 0),
    "lora.targets": (["wq", "wk", "wv", "wo"], _list(str), None),
    # training
    "train.lr_transfer": (1e-2, float, lambda v: v > 0),
    "train.lr_finetune": (1e-4, float, lambda v: v > 0),
    "train.lr_base": (1e-3, float, lambda v: v > 0),
    "train.batch_size": (16, int, lambda v: v >= 1),
    "train.accumulation": (4, int, lambda v: v >= 1),
    "train.base_epochs": (8, int, lambda v: v >= 0),
    "train.transfer_epochs": (1, int, lambda v: v >= 1),
    "train.finetune_epochs": (3, int, lambda v: v >= 0),
    "train.stage2_epochs": (3, int, lambda v: v >= 0),
    # tasks
    "task.kinds": (["assoc_recall"], _list(str), None),
    # conversion corpus: task kinds whose train tokens feed the transfer and
    # fine-tuning stages (the generic-text stand-in); empty = all task.kinds.
    # Need not overlap task.kinds — converting on a corpus disjoint from the
    # evaluation tasks mirrors conversion on generic text.
    "task.transfer_kinds": (
        [],
        _list(str),
        lambda v: all(k in TASK_KINDS for k in v),
    ),
    "task.T": (64, int, lambda v: v >= 4),
    "task.n_examples": (256, int, lambda v: v >= 8),
    "task.n_pairs": (8, int, lambda v: v >= 1),
    "task.min_pairs": (0, int, lambda v: v >= 0),  # 0 = fixed n_pairs
    "task.n_keys": (16, int, lambda v: v >= 1),
    "task.n_values": (16, int, lambda v: v >= 2),
    # evaluation
    "eval.window": (8, int, lambda v: v >= 1),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    # -- object builders ------------------------------------------------------

    def model_config(self):
        v = self.values
        return ModelConfig(
            vocab_size=v["model.vocab_size"],
            d_model=v["model.d_model"],
            n_layers=v["model.n_layers"],
            n_heads=v["model.n_heads"],
            mlp_width=v["model.mlp_width"],
            max_T=v["model.max_T"],
            seed=v["seed"],
        )

    def d_prime(self):
        dp = self.values["attn.d_prime"]
        return dp if dp else self.model_config().h_d // 2

    def window(self):
        return WindowSpec(self.values["attn.window"], self.values["attn.sinks"])

    def hybrid(self):
        return HybridSpec(self.values["attn.g"], self.values["attn.overlap"])

    def objective(self):
        return TransferObjective(self.values["objective"])

    def ssd(self):
        """The `ssd.*` schedule; with neither key, plain fine-tuning."""
        d, w = self.values["ssd.dropout"], self.values["ssd.window"]
        return SSDSchedule(d or [0.0], w or [self.values["attn.window"]])

    def train_config(self):
        v = self.values
        return TrainConfig(
            lr_transfer=v["train.lr_transfer"],
            lr_finetune=v["train.lr_finetune"],
            lr_base=v["train.lr_base"],
            batch_size=v["train.batch_size"],
            accumulation=v["train.accumulation"],
            seed=v["seed"],
        )

    def _specs(self, kinds):
        v = self.values
        return [
            TaskSpec(
                kind=kind,
                T=v["task.T"],
                vocab=v["model.vocab_size"],
                n_examples=v["task.n_examples"],
                seed=v["seed"],
                n_pairs=v["task.n_pairs"],
                n_keys=v["task.n_keys"],
                n_values=v["task.n_values"],
                min_pairs=v["task.min_pairs"] or None,
            )
            for kind in kinds
        ]

    def task_specs(self):
        """TaskSpecs for base training and evaluation (`task.kinds`)."""
        return self._specs(self.values["task.kinds"])

    def transfer_specs(self):
        """TaskSpecs for the conversion corpus; need not overlap task.kinds."""
        return self._specs(self.values["task.transfer_kinds"] or self.values["task.kinds"])

    def output_dir(self):
        return os.environ.get("HAFX_OUTPUT_DIR", self.values["output_dir"])


def parse_config(text) -> RunConfig:
    values = {k: default for k, (default, _, _) in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in SCHEMA:
            raise ConfigError(f"unknown key '{key}'", line=lineno)
        _, parser, check = SCHEMA[key]
        try:
            parsed = parser(val)
        except ValueError as e:
            raise ConfigError(f"bad value for '{key}': {e}", line=lineno) from e
        if check is not None and not check(parsed):
            raise ConfigError(f"value out of range for '{key}': {val}", line=lineno)
        values[key] = parsed
    cfg = RunConfig(values)
    try:
        cfg.model_config()
    except ShapeError as e:
        raise ConfigError(f"model.d_model / model.n_heads: {e}") from e
    try:
        cfg.task_specs()
        cfg.transfer_specs()
    except ConfigError as e:
        raise ConfigError(f"task.*: {e}") from e
    return cfg


def serialise_config(cfg: RunConfig) -> str:
    lines = [f"{k} = {_fmt(cfg.values[k])}" for k in sorted(SCHEMA)]
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        try:
            return parse_config(f.read())
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from e

"""Conversion machinery: attention-transfer objectives, and LoRA fine-tuning
with scheduled sliding-window dropout and an optional early stop. Each
`run_*` stage trains the model it is given in place; `pipelines` chains the
stages through the checkpoints they write (HedgeCATs is `cmd_hedgecats`)."""

import enum
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .attention import (
    AblationMode,
    WindowSpec,
    feature_map_apply,
    hybrid_attention,
    linear_attention,
)
from .errors import ConfigError, ContractError
from .model import AttnSettings, Model, lm_loss
from .optim import AdamW, ReduceOnPlateau
from .rng import SeededRng
from .tensor import Tensor

CE_LOG_EPS = 1e-12


class TransferObjective(enum.Enum):
    WEIGHTS_CE = "weights_ce"
    OUTPUTS_MSE = "outputs_mse"
    HYBRID_OUTPUTS_MSE = "hybrid_outputs_mse"


@dataclass
class SSDSchedule:
    """Per-epoch SWA dropout rates and window sizes; last value held."""

    dropout_per_epoch: list
    window_per_epoch: list

    def __post_init__(self):
        if not self.dropout_per_epoch or not self.window_per_epoch:
            raise ConfigError("SSD schedule lists must be non-empty")
        for r in self.dropout_per_epoch:
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"dropout rate {r} outside [0, 1]")
        for w in self.window_per_epoch:
            if w < 1:
                raise ConfigError(f"window {w} must be >= 1")


def ssd_sample(schedule: SSDSchedule, epoch: int, rng: SeededRng):
    """One per-step coin: (drop_swa, window) for the given 1-based epoch."""
    if epoch < 1:
        raise ContractError("epoch is 1-based")
    rate = schedule.dropout_per_epoch[min(epoch - 1, len(schedule.dropout_per_epoch) - 1)]
    window = schedule.window_per_epoch[min(epoch - 1, len(schedule.window_per_epoch) - 1)]
    drop = bool(rng.uniform() < rate)
    return drop, int(window)


@dataclass
class TrainConfig:
    lr_transfer: float = 1e-2
    lr_finetune: float = 1e-4
    lr_base: float = 1e-3
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 16
    accumulation: int = 4
    seed: int = 0


@dataclass
class StageReport:
    stage: str
    epoch_losses: list = field(default_factory=list)
    eval_losses: list = field(default_factory=list)
    guard_counts: list = field(default_factory=list)
    wall_time_s: float = 0.0
    checkpoints: list = field(default_factory=list)

    def to_dict(self):
        return dict(asdict(self), wall_time_s=round(self.wall_time_s, 3))


# -- transfer objectives --------------------------------------------------------


def _teacher_weights(q, k):
    d = q.shape[-1]
    T = q.shape[-2]
    scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(d)
    scores = np.where(np.tril(np.ones((T, T), dtype=bool)), scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=-1, keepdims=True)


def transfer_loss(objective, q, k, v, phi, win, hy, clamps=None):
    """Distillation loss for one (layer, head); only phi carries gradients.

    q, k, v are the post-RoPE heads of the frozen base projections (Tensors
    with no tape, or arrays); the teacher is the full causal softmax of their
    arrays. The output-matching objectives append LA clamps to `clamps`.
    """
    qt, kt, vt = (Tensor._coerce(x) for x in (q, k, v))
    q, k, v = qt.data, kt.data, vt.data

    if objective is TransferObjective.HYBRID_OUTPUTS_MSE:
        student = hybrid_attention(qt, kt, vt, phi, win, hy, AblationMode.FULL_HYBRID,
                                   clamps=clamps)
    else:
        phi_q = feature_map_apply(phi, qt)
        phi_k = feature_map_apply(phi, kt)
        if objective is TransferObjective.WEIGHTS_CE:
            teacher = _teacher_weights(q, k)
            causal = np.tril(np.ones((q.shape[-2], q.shape[-2])))
            kernel = (phi_q @ phi_k.swapaxes(-1, -2)) * Tensor(causal)
            p = kernel / kernel.sum(axis=-1, keepdims=True).clamp_min(CE_LOG_EPS)
            ce = -(Tensor(teacher) * (p + CE_LOG_EPS).log()).sum(axis=-1)
            return ce.mean()
        if objective is not TransferObjective.OUTPUTS_MSE:  # pragma: no cover
            raise ValueError(objective)
        student = linear_attention(phi_q, phi_k, vt, clamps=clamps)
    diff = student - Tensor(_teacher_weights(q, k) @ v)
    return (diff * diff).mean()


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield slice(start, start + batch_size)


def _lm_batch_loss(model, data, idx, attn):
    """(logits, LM loss) of rows `idx` of a dataset dict under `attn`."""
    logits = model.forward_logits(data["tokens"][idx], attn)
    return logits, lm_loss(logits, data["targets"][idx], data["loss_mask"][idx])


def scored_batches(model, data, attn, batch_size):
    """(rows, logits, loss) per batch slice `rows` of a dataset dict under
    `attn`: the batch loop of both evals, each holding `Model.no_grad`."""
    for idx in _batches(len(data["tokens"]), batch_size):
        yield (idx, *_lm_batch_loss(model, data, idx, attn))


def _epoch(opt, batches, accumulation, step_attn, loss_fn):
    """One epoch of optimisation steps: (mean step loss, guard count).

    The guard count is the number of LA denominators the epoch's steps
    clamped: each step's `attn` carries the epoch's list of clamp counts.
    Each step's graph keeps its forward arrays alive until the next step's
    first micro-batch loss replaces it (`backward` has already freed its
    interior gradients), and the last one is released when this frame
    returns, before the held-out eval runs. Both matter: keeping the last
    graph through the eval raises peak memory, and freeing each graph before
    the next forward slows the steps.
    """
    losses, clamps = [], []
    for s in range(0, len(batches), accumulation):
        group = batches[s:s + accumulation]
        attn = replace(step_attn(s), clamps=clamps)
        loss = None
        for idx in group:
            part = loss_fn(idx, attn)
            loss = part if loss is None else loss + part
        loss = loss * (1.0 / len(group))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return float(np.mean(losses)), sum(clamps)


def _train(model, cfg: TrainConfig, stage, lr, epochs, batches, step_attn, loss_fn,
           accumulation, heldout=None, eval_attn=None, plateau=False,
           checkpoint_fn=None, eval_gap_fn=None):
    """The optimisation loop of every stage, over the model's trainable
    parameters.

    `batches(epoch)` lists the epoch's micro-batches (row selectors);
    each run of `accumulation` of them is one step, whose loss is the mean of
    `loss_fn(idx, step_attn(epoch, s))` over its micro-batches, where `s`
    indexes the step's first micro-batch. After each 1-based epoch: the
    held-out LM loss under `eval_attn` (when `heldout` is given), which
    drives reduce-on-plateau if `plateau`; then `checkpoint_fn(model,
    epoch)`; then an early stop once `eval_gap_fn(model)` is non-positive.
    """
    opt = AdamW(model.trainable_parameters(), lr, eps=cfg.adam_eps,
                weight_decay=cfg.weight_decay)
    sched = ReduceOnPlateau(opt) if plateau else None
    report = StageReport(stage=stage)
    t0 = time.perf_counter()
    for epoch in range(1, epochs + 1):
        loss, guards = _epoch(opt, batches(epoch), accumulation,
                              partial(step_attn, epoch), loss_fn)
        report.epoch_losses.append(loss)
        report.guard_counts.append(guards)
        if heldout is not None:
            report.eval_losses.append(evaluate_lm(model, heldout, eval_attn))
            if sched is not None:
                sched.step(report.eval_losses[-1])
        if checkpoint_fn is not None:
            report.checkpoints.append(checkpoint_fn(model, epoch))
        if eval_gap_fn is not None and eval_gap_fn(model) <= 0.0:
            break
    report.wall_time_s = time.perf_counter() - t0
    return report


def run_base_training(model: Model, cfg: TrainConfig, train, heldout, epochs):
    """Full-parameter LM training with plain softmax attention; produces the
    desk-scale stand-in for a pre-trained base model."""
    model.set_trainable(lambda n: ".phi." not in n and ".lora_" not in n)
    attn = AttnSettings(kind="softmax")
    shuffle_rng = SeededRng(cfg.seed, "base/shuffle")

    def batches(epoch):
        # fresh batch composition every epoch: replaying identical batches in
        # identical order removes the gradient noise the recall transition needs
        order = shuffle_rng.child(str(epoch)).permutation(len(train["tokens"]))
        return [order[b] for b in _batches(len(order), cfg.batch_size)]

    # constant lr: associative recall learns via a late phase transition, and
    # decaying on the pre-transition plateau can prevent it entirely
    return _train(model, cfg, "base", cfg.lr_base, epochs, batches,
                  lambda _epoch, _s: attn, lambda idx, a: _lm_batch_loss(model, train, idx, a)[1],
                  cfg.accumulation, heldout=heldout, eval_attn=attn)


def run_attention_transfer(model: Model, objective, cfg: TrainConfig, data, win, hy, epochs):
    """Train only the feature maps against the frozen base model's attention,
    for `epochs` epochs.

    `data` is an int token array (N, T). The teacher is recomputed per batch
    from the student's own hidden states under full softmax attention. The
    hybrid objective runs the student under the caller's window `win` and
    mixing `hy`; neither has a default, since a window of T or more keys
    leaves LA no key. Each batch is one optimisation step.
    """
    if model.phi is None:
        raise ContractError("attach feature maps before attention transfer")
    model.set_trainable(lambda n: ".phi." in n)
    batches = list(_batches(len(data), cfg.batch_size))

    def loss_fn(idx, attn):
        capture = []
        model.forward_logits(data[idx], attn, capture=capture)
        loss = None
        for (layer, head, q, k, v) in capture:
            part = transfer_loss(objective, q, k, v, model.phi[layer][head], win, hy,
                                 attn.clamps)
            loss = part if loss is None else loss + part
        return loss * (1.0 / model.cfg.n_heads)  # sum layers, mean heads

    base_attn = AttnSettings(kind="softmax")
    return _train(model, cfg, "post-transfer", cfg.lr_transfer, epochs, lambda _epoch: batches,
                  lambda _epoch, _s: base_attn, loss_fn, accumulation=1)


def evaluate_lm(model, data, attn, batch_size=32):
    """Held-out mean LM loss of a dataset dict, weighting each of its
    `scored_batches` by its rows; under `Model.no_grad`, so with no tape."""
    total = 0.0
    with model.no_grad():
        for _rows, logits, loss in scored_batches(model, data, attn, batch_size):
            total += float(loss.data) * len(logits.data)
    return total / len(data["tokens"])


def run_finetune(model: Model, cfg: TrainConfig, ssd, train, heldout, win, hy, epochs,
                 checkpoint_fn=None, eval_gap_fn=None):
    """LoRA fine-tuning for at most `epochs` epochs under SSD schedule `ssd`
    and mixing `hy`, with reduce-on-plateau on the held-out loss at window
    `win`, and an early stop once `eval_gap_fn(model)` is non-positive.

    One `ssd_sample` coin per optimisation step applies to all layers. A
    dropped step zeroes the SWA branch (output = (1-g) (.) LA) with no
    rescaling, matching the inference-time branch-zeroing algebra. Plain
    fine-tuning is `SSDSchedule([0.0], [win.window])`, whose coins never drop.
    """
    if model.lora is None:
        raise ContractError("attach LoRA adapters before fine-tuning")
    model.set_trainable(lambda n: ".lora_" in n)
    rng = SeededRng(cfg.seed, "finetune")
    batches = list(_batches(len(train["tokens"]), cfg.batch_size))

    def step_attn(epoch, s):
        drop, window = ssd_sample(ssd, epoch, rng.child(f"ssd/{epoch}/{s}"))
        mode = AblationMode.LA_ONLY if drop else AblationMode.FULL_HYBRID
        return AttnSettings(kind="hybrid", mode=mode,
                            win=WindowSpec(window, win.sink_count), hy=hy)

    eval_attn = AttnSettings(kind="hybrid", mode=AblationMode.FULL_HYBRID,
                             win=win, hy=hy)
    return _train(model, cfg, "post-finetune", cfg.lr_finetune, epochs, lambda _epoch: batches,
                  step_attn, lambda idx, a: _lm_batch_loss(model, train, idx, a)[1],
                  cfg.accumulation, heldout=heldout, eval_attn=eval_attn, plateau=True,
                  checkpoint_fn=checkpoint_fn, eval_gap_fn=eval_gap_fn)


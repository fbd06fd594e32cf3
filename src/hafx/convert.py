"""Conversion machinery: attention-transfer objectives, LoRA fine-tuning
with scheduled sliding-window dropout, and the two-stage weights-transfer +
fine-tune pipeline with early stopping."""

import enum
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .attention import (
    AblationMode,
    HybridSpec,
    WindowSpec,
    feature_map_apply,
    guard_count,
    hybrid_attention,
    linear_attention,
    reset_guard_count,
)
from .attention.ops import causal_mult_mask
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
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    plateau_factor: float = 0.5
    plateau_patience: int = 2
    plateau_min_delta: float = 1e-4
    transfer_epochs: int = 1
    finetune_epochs: int = 3
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
        return {
            "stage": self.stage,
            "epoch_losses": self.epoch_losses,
            "eval_losses": self.eval_losses,
            "guard_counts": self.guard_counts,
            "wall_time_s": round(self.wall_time_s, 3),
            "checkpoints": self.checkpoints,
        }


# -- transfer objectives --------------------------------------------------------


def _teacher_weights(q, k):
    d = q.shape[-1]
    T = q.shape[-2]
    scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(d)
    scores = np.where(np.tril(np.ones((T, T), dtype=bool)), scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=-1, keepdims=True)


def transfer_loss(objective, q, k, v, phi, win, hy):
    """Distillation loss for one (layer, head); only phi carries gradients.

    q, k, v are post-RoPE numpy constants from the frozen base projections;
    the teacher is the full causal softmax computed from them.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    qt, kt, vt = Tensor(q), Tensor(k), Tensor(v)

    if objective is TransferObjective.HYBRID_OUTPUTS_MSE:
        student = hybrid_attention(qt, kt, vt, phi, win, hy, AblationMode.FULL_HYBRID)
    else:
        phi_q = feature_map_apply(phi, qt)
        phi_k = feature_map_apply(phi, kt)
        if objective is TransferObjective.WEIGHTS_CE:
            teacher = _teacher_weights(q, k)
            kernel = (phi_q @ phi_k.swapaxes(-1, -2)) * Tensor(causal_mult_mask(q.shape[-2]))
            p = kernel / kernel.sum(axis=-1, keepdims=True).clamp_min(CE_LOG_EPS)
            ce = -(Tensor(teacher) * (p + CE_LOG_EPS).log()).sum(axis=-1)
            return ce.mean()
        if objective is not TransferObjective.OUTPUTS_MSE:  # pragma: no cover
            raise ValueError(objective)
        student = linear_attention(phi_q, phi_k, vt)
    diff = student - Tensor(_teacher_weights(q, k) @ v)
    return (diff * diff).mean()


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))


def _lm_batch_loss(model, data, idx, attn):
    """LM loss of rows `idx` of a dataset dict under `attn`."""
    mask = data.get("loss_mask")
    logits = model.forward_logits(data["tokens"][idx], attn)
    return lm_loss(logits, data["targets"][idx], None if mask is None else mask[idx])


def _epoch(opt, batches, accumulation, step_attn, loss_fn):
    """One epoch of optimisation steps: (mean step loss, guard count).

    Each step's graph stays alive until the next step's first micro-batch
    loss replaces it, and the last one is released when this frame returns,
    before the held-out eval runs. Both matter: keeping the last graph
    through the eval raises peak memory, and freeing each graph before the
    next forward slows the steps.
    """
    losses = []
    reset_guard_count()
    for s in range(0, len(batches), accumulation):
        group = batches[s:s + accumulation]
        attn = step_attn(s)
        loss = None
        for idx in group:
            part = loss_fn(idx, attn)
            loss = part if loss is None else loss + part
        loss = loss * (1.0 / len(group))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return float(np.mean(losses)), guard_count()


def _train(model, cfg: TrainConfig, stage, lr, epochs, batches, step_attn, loss_fn,
           accumulation, heldout=None, eval_attn=None, plateau=False,
           checkpoint_fn=None, eval_gap_fn=None):
    """The optimisation loop of every stage, over the model's trainable
    parameters.

    `batches(epoch)` lists the epoch's micro-batches (row-index arrays);
    each run of `accumulation` of them is one step, whose loss is the mean of
    `loss_fn(idx, step_attn(epoch, s))` over its micro-batches, where `s`
    indexes the step's first micro-batch. After each 1-based epoch: the
    held-out LM loss under `eval_attn` (when `heldout` is given), which
    drives reduce-on-plateau if `plateau`; then `checkpoint_fn(model,
    epoch)`; then an early stop once `eval_gap_fn(model)` is non-positive.
    """
    opt = AdamW(model.trainable_parameters(), lr, cfg.betas, cfg.adam_eps, cfg.weight_decay)
    sched = ReduceOnPlateau(opt, cfg.plateau_factor, cfg.plateau_patience,
                            cfg.plateau_min_delta) if plateau else None
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


def run_base_training(model: Model, cfg: TrainConfig, train, heldout, epochs,
                      checkpoint_fn=None):
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
                  lambda _epoch, _s: attn, partial(_lm_batch_loss, model, train),
                  cfg.accumulation, heldout=heldout, eval_attn=attn,
                  checkpoint_fn=checkpoint_fn)


def run_attention_transfer(model: Model, objective, cfg: TrainConfig, data,
                           win=None, hy=None, epochs=None):
    """Train only the feature maps against the frozen base model's attention.

    `data` is an int token array (N, T). The teacher is recomputed per batch
    from the student's own hidden states under full softmax attention. Each
    batch is one optimisation step.
    """
    if model.phi is None:
        raise ContractError("attach feature maps before attention transfer")
    win = win or WindowSpec()
    hy = hy or HybridSpec()
    model.set_trainable(lambda n: ".phi." in n)
    batches = list(_batches(len(data), cfg.batch_size))

    def loss_fn(idx, attn):
        capture = []
        model.forward_logits(data[idx], attn, capture=capture)
        loss = None
        for (layer, head, q, k, v) in capture:
            part = transfer_loss(objective, q, k, v, model.phi[layer][head], win, hy)
            loss = part if loss is None else loss + part
        return loss * (1.0 / model.cfg.n_heads)  # sum layers, mean heads

    base_attn = AttnSettings(kind="softmax")
    return _train(model, cfg, "post-transfer", cfg.lr_transfer,
                  epochs or cfg.transfer_epochs, lambda _epoch: batches,
                  lambda _epoch, _s: base_attn, loss_fn, accumulation=1)


def evaluate_lm(model, data, attn, batch_size=32):
    """Held-out mean LM loss of a dataset dict (no gradients)."""
    total, count = 0.0, 0
    for idx in _batches(len(data["tokens"]), batch_size):
        loss = _lm_batch_loss(model, data, idx, attn)
        total += float(loss.data) * len(idx)
        count += len(idx)
    return total / count


def run_finetune(model: Model, cfg: TrainConfig, ssd, train, heldout,
                 win=None, hy=None, checkpoint_fn=None, epochs=None,
                 eval_gap_fn=None):
    """LoRA fine-tuning with optional scheduled SWA dropout, reduce-on-plateau
    on a held-out loss, and an early stop once `eval_gap_fn(model)` is
    non-positive.

    A single dropout coin per optimisation step applies to all layers. A
    dropped step zeroes the SWA branch (output = (1-g) (.) LA) with no
    rescaling, matching the inference-time branch-zeroing algebra.
    """
    if model.lora is None:
        raise ContractError("attach LoRA adapters before fine-tuning")
    win = win or WindowSpec()
    hy = hy or HybridSpec()
    model.set_trainable(lambda n: ".lora_" in n)
    rng = SeededRng(cfg.seed, "finetune")
    batches = list(_batches(len(train["tokens"]), cfg.batch_size))

    def step_attn(epoch, s):
        if ssd is not None:
            drop, window = ssd_sample(ssd, epoch, rng.child(f"ssd/{epoch}/{s}"))
        else:
            drop, window = False, win.window
        mode = AblationMode.LA_ONLY if drop else AblationMode.FULL_HYBRID
        return AttnSettings(kind="hybrid", mode=mode,
                            win=WindowSpec(window, win.sink_count), hy=hy)

    eval_attn = AttnSettings(kind="hybrid", mode=AblationMode.FULL_HYBRID,
                             win=win, hy=hy)
    return _train(model, cfg, "post-finetune", cfg.lr_finetune,
                  epochs if epochs is not None else cfg.finetune_epochs,
                  lambda _epoch: batches, step_attn, partial(_lm_batch_loss, model, train),
                  cfg.accumulation, heldout=heldout, eval_attn=eval_attn, plateau=True,
                  checkpoint_fn=checkpoint_fn, eval_gap_fn=eval_gap_fn)


def run_hedgecats(model: Model, cfg: TrainConfig, stage2_epochs, transfer_data,
                  train, heldout, eval_gap_fn=None, win=None, hy=None,
                  checkpoint_fn=None):
    """Two-stage conversion: LA-only attention-weights transfer, then brief
    hybrid LoRA fine-tuning with early stopping on the hybrid-vs-SWA-only
    eval gap (stop once the gap is non-positive)."""
    stage1 = run_attention_transfer(model, TransferObjective.WEIGHTS_CE, cfg,
                                    transfer_data, win=win, hy=hy)
    if checkpoint_fn is not None:
        stage1.checkpoints.append(checkpoint_fn(model, 0))
    if model.lora is None:
        model.lora_attach()
    stage2 = run_finetune(model, cfg, None, train, heldout, win=win, hy=hy,
                          checkpoint_fn=checkpoint_fn, epochs=stage2_epochs,
                          eval_gap_fn=eval_gap_fn)
    return stage1, stage2

"""Small decoder-only transformer with swappable attention kernels.

Pre-norm blocks, RoPE on queries/keys, 2-layer GELU MLP, untied head.
The attention path is selected at call time (full softmax for the base
model, hybrid/ablated variants after conversion), so one parameter set
serves every evaluation mode. LoRA adapters can be attached to the four
attention projections; feature maps (one per layer per head) are attached
for conversion.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AblationMode,
    Activation,
    FeatureMapParams,
    HybridSpec,
    WindowSpec,
    apply_rope,
    hybrid_attention,
    softmax_attention_causal,
)
from .errors import ContractError, InputError, ShapeError
from .rng import SeededRng
from .tensor import Tensor, concat, embedding, gelu, logsumexp, take_along_last

LORA_TARGETS = ("wq", "wk", "wv", "wo")
LN_EPS = 1e-5
PHI_NOISE_STD = 0.1  # std of the Gaussian noise on each feature map's initial W


@dataclass
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    mlp_width: int = 0  # 0 -> 4 * d_model
    max_T: int = 256
    seed: int = 0

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_layers, self.n_heads, self.max_T) < 1:
            raise ShapeError("model sizes must be positive")
        if self.d_model % self.n_heads or self.h_d % 2:
            raise ShapeError(f"d_model / n_heads = {self.d_model} / {self.n_heads} is not an "
                             "even head width")
        if self.mlp_width == 0:
            self.mlp_width = 4 * self.d_model

    @property
    def h_d(self):
        return self.d_model // self.n_heads


@dataclass
class AttnSettings:
    """Runtime attention selection for a forward pass. When `clamps` is a
    list, the LA branch appends its clamped-denominator counts to it."""

    kind: str = "softmax"  # "softmax" | "hybrid"
    mode: AblationMode = AblationMode.FULL_HYBRID
    win: WindowSpec = field(default_factory=WindowSpec)
    hy: HybridSpec = field(default_factory=HybridSpec)
    clamps: list | None = field(default=None, compare=False)


@dataclass
class LoRAAdapter:
    a: Tensor  # (d, r)
    b: Tensor  # (r, d)
    rank: int
    alpha: float

    @property
    def scale(self):
        return self.alpha / self.rank


class Model:
    def __init__(self, cfg: ModelConfig, params: dict):
        self.cfg = cfg
        self.params = params  # name -> Tensor
        self.phi = None  # list[layer] of list[head] of FeatureMapParams
        self.phi_meta = None  # (d_prime, Activation)
        self.lora = None  # dict[(layer, target)] -> LoRAAdapter
        self.lora_meta = None  # (targets, rank, alpha)

    # -- parameter access ----------------------------------------------------

    def named_parameters(self):
        out = dict(self.params)
        if self.phi is not None:
            for i, heads in enumerate(self.phi):
                for h, fm in enumerate(heads):
                    out[f"layers.{i}.phi.{h}.w"] = fm.w
                    out[f"layers.{i}.phi.{h}.b"] = fm.b
        if self.lora is not None:
            for (i, tgt), ad in self.lora.items():
                out[f"layers.{i}.attn.{tgt}.lora_a"] = ad.a
                out[f"layers.{i}.attn.{tgt}.lora_b"] = ad.b
        return out

    def set_trainable(self, predicate):
        """requires_grad per parameter name; predicate(name) -> bool."""
        for name, p in self.named_parameters().items():
            p.requires_grad = bool(predicate(name))

    def trainable_parameters(self):
        return {n: p for n, p in self.named_parameters().items() if p.requires_grad}

    @contextmanager
    def no_grad(self):
        """Freeze every parameter for the body, so its forwards build no
        autodiff tape; each requires_grad flag is restored on exit."""
        saved = [(p, p.requires_grad) for p in self.named_parameters().values()]
        try:
            for p, _flag in saved:
                p.requires_grad = False
            yield
        finally:
            for p, flag in saved:
                p.requires_grad = flag

    # -- forward ---------------------------------------------------------------

    def _proj(self, layer, target):
        w = self.params[f"layers.{layer}.attn.{target}"]
        if self.lora is not None and (layer, target) in self.lora:
            ad = self.lora[(layer, target)]
            return w + ad.scale * (ad.a @ ad.b)
        return w

    def _attention(self, layer, x, attn: AttnSettings, capture=None):
        cfg = self.cfg
        q = x @ self._proj(layer, "wq")
        k = x @ self._proj(layer, "wk")
        v = x @ self._proj(layer, "wv")
        head_outs = []
        for h in range(cfg.n_heads):
            sl = (Ellipsis, slice(h * cfg.h_d, (h + 1) * cfg.h_d))
            qh = apply_rope(q[sl])
            kh = apply_rope(k[sl])
            vh = v[sl]
            if capture is not None:
                capture.append((layer, h, qh, kh, vh))
            if attn.kind == "softmax":
                head_outs.append(softmax_attention_causal(qh, kh, vh))
            else:
                fm = self.phi[layer][h]
                head_outs.append(
                    hybrid_attention(qh, kh, vh, fm, attn.win, attn.hy, attn.mode,
                                     clamps=attn.clamps)
                )
        o = concat(head_outs, axis=-1)
        return o @ self._proj(layer, "wo")

    def _ln(self, prefix, x):
        g = self.params[f"{prefix}.g"]
        b = self.params[f"{prefix}.b"]
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        return xc / (var + LN_EPS).sqrt() * g + b

    def forward_logits(self, tokens, attn: AttnSettings, capture=None):
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.max(initial=0) >= self.cfg.vocab_size or tokens.min(initial=0) < 0:
            raise InputError("token id outside vocabulary")
        if tokens.shape[-1] > self.cfg.max_T:
            raise InputError(f"sequence longer than max_T={self.cfg.max_T}")
        if attn.kind == "hybrid" and self.phi is None:
            raise ContractError("hybrid attention requires feature maps; the model has none")
        x = embedding(self.params["emb"], tokens)
        for i in range(self.cfg.n_layers):
            x = x + self._attention(i, self._ln(f"layers.{i}.ln1", x), attn, capture)
            h = self._ln(f"layers.{i}.ln2", x)
            h = gelu(h @ self.params[f"layers.{i}.mlp.w1"] + self.params[f"layers.{i}.mlp.b1"])
            x = x + (h @ self.params[f"layers.{i}.mlp.w2"] + self.params[f"layers.{i}.mlp.b2"])
        x = self._ln("lnf", x)
        return x @ self.params["head"]

    # -- feature maps / LoRA ----------------------------------------------------

    def attach_feature_maps(self, d_prime, activation=Activation.SOFTMAX):
        """One map per (layer, head): W = truncated identity + Gaussian noise
        of std PHI_NOISE_STD. `activation` only names the map in `phi_meta`."""
        if self.phi is not None:
            raise ContractError("feature maps already attached")
        cfg = self.cfg
        rng = SeededRng(cfg.seed, "phi-init")
        self.phi = []
        for i in range(cfg.n_layers):
            heads = []
            for h in range(cfg.n_heads):
                base = np.eye(cfg.h_d, d_prime)
                noise = rng.child(f"phi/{i}/{h}").normal((cfg.h_d, d_prime), std=PHI_NOISE_STD)
                w = Tensor(base + noise, requires_grad=True)
                b = Tensor(np.zeros(d_prime), requires_grad=True)
                heads.append(FeatureMapParams(w=w, b=b))
            self.phi.append(heads)
        self.phi_meta = (d_prime, activation)
        return self

    def lora_attach(self, targets=LORA_TARGETS, rank=8, alpha=16.0):
        if self.lora is not None:
            raise ContractError("LoRA adapters already attached")
        bad = set(targets) - set(LORA_TARGETS)
        if bad:
            raise ContractError(f"unknown LoRA targets: {sorted(bad)}")
        cfg = self.cfg
        rng = SeededRng(cfg.seed, "lora-init")
        self.lora = {}
        for i in range(cfg.n_layers):
            for tgt in targets:
                a = rng.child(f"lora/{i}/{tgt}").normal((cfg.d_model, rank), std=0.02)
                self.lora[(i, tgt)] = LoRAAdapter(
                    a=Tensor(a, requires_grad=True),
                    b=Tensor(np.zeros((rank, cfg.d_model)), requires_grad=True),
                    rank=rank,
                    alpha=float(alpha),
                )
        self.lora_meta = (tuple(targets), rank, float(alpha))
        return self

    def lora_merge(self):
        """Fold (alpha/r) * A @ B into the base weights and drop adapters."""
        if self.lora is None:
            raise ContractError("no LoRA adapters attached")
        for (i, tgt), ad in self.lora.items():
            w = self.params[f"layers.{i}.attn.{tgt}"]
            w.data = w.data + ad.scale * (ad.a.data @ ad.b.data)
        self.lora = None
        self.lora_meta = None
        return self


def init_model(cfg: ModelConfig) -> Model:
    """Deterministic init: embeddings N(0, 0.02), linears N(0, fan_in^-1/2)."""
    rng = SeededRng(cfg.seed, "model-init")
    params = {}

    def lin(name, fan_in, fan_out):
        params[name] = Tensor(
            rng.child(name).normal((fan_in, fan_out), std=1.0 / np.sqrt(fan_in)),
            requires_grad=True,
        )

    params["emb"] = Tensor(
        rng.child("emb").normal((cfg.vocab_size, cfg.d_model), std=0.02),
        requires_grad=True,
    )
    for i in range(cfg.n_layers):
        for tgt in LORA_TARGETS:
            lin(f"layers.{i}.attn.{tgt}", cfg.d_model, cfg.d_model)
        lin(f"layers.{i}.mlp.w1", cfg.d_model, cfg.mlp_width)
        lin(f"layers.{i}.mlp.w2", cfg.mlp_width, cfg.d_model)
        params[f"layers.{i}.mlp.b1"] = Tensor(np.zeros(cfg.mlp_width), requires_grad=True)
        params[f"layers.{i}.mlp.b2"] = Tensor(np.zeros(cfg.d_model), requires_grad=True)
        for ln in ("ln1", "ln2"):
            params[f"layers.{i}.{ln}.g"] = Tensor(np.ones(cfg.d_model), requires_grad=True)
            params[f"layers.{i}.{ln}.b"] = Tensor(np.zeros(cfg.d_model), requires_grad=True)
    params["lnf.g"] = Tensor(np.ones(cfg.d_model), requires_grad=True)
    params["lnf.b"] = Tensor(np.zeros(cfg.d_model), requires_grad=True)
    lin("head", cfg.d_model, cfg.vocab_size)
    return Model(cfg, params)


def lm_loss(logits, targets, mask=None):
    """Mean token-level cross-entropy; optional 0/1 position mask."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ShapeError("logits/targets length mismatch")
    ce = logsumexp(logits, axis=-1) - take_along_last(logits, targets)
    if mask is None:
        return ce.mean()
    m = np.asarray(mask, dtype=np.float64)
    return (ce * m).sum() / m.sum()

"""Plain-numpy forward pass of the hafx model, independent of its kernels.

It is built from the model's parameter arrays alone and calls nothing in
`hafx`. Linear attention runs as the per-token recurrence over the
accumulator pair (S, z), not as the masked T x T kernel matrix the program
uses, so the two agree only if both are right.
"""

import numpy as np

LN_EPS = 1e-5
LA_EPS = 1e-6
ROPE_BASE = 10000.0
GELU_C = np.sqrt(2.0 / np.pi)

MODES = ("full_hybrid", "swa_only", "la_only", "sinks_only", "no_attention", "hybrid_overlap")


def setting(kind="softmax", mode="full_hybrid", window=16, sinks=2, g=0.5, overlap=False):
    """One attention setting: `kind` is "softmax" or "hybrid"."""
    if kind == "softmax":
        return {"kind": "softmax"}
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    return {"kind": "hybrid", "mode": mode, "window": window, "sinks": sinks,
            "g": g, "overlap": overlap}


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * (x * x * x))))


def rope(x):
    """Rotate the two halves of each head vector by position angles."""
    T, half = x.shape[-2], x.shape[-1] // 2
    angles = np.arange(T)[:, None] * ROPE_BASE ** (-np.arange(half) / half)[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def masked_softmax_attention(q, k, v, allowed):
    """Softmax over the keys `allowed[t, j]` admits for query t."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    scores += np.where(allowed, 0.0, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v


def allowed_keys(T, kind, window=None, sinks=None):
    t = np.arange(T)[:, None]
    j = np.arange(T)[None, :]
    if kind == "causal":
        return j <= t
    if kind == "window":
        return (j <= t) & (j > t - window)
    if kind == "sinks":
        return (j <= t) & (j < sinks)
    raise ValueError(kind)


def feature_map(x, w, b):
    z = x @ w + b
    return np.concatenate([_softmax(z), _softmax(-z)], axis=-1)


def linear_attention_recurrent(phi_q, phi_k, v, lag):
    """out_t = phi_q[t] S_t / max(phi_q[t] . z_t, eps), where (S_t, z_t) sum
    phi_k[j] v[j]^T and phi_k[j] over keys j <= t - lag (lag 0: j <= t)."""
    *lead, T, F = phi_q.shape
    S = np.zeros((*lead, F, v.shape[-1]))
    z = np.zeros((*lead, F))
    out = np.empty((*lead, T, v.shape[-1]))
    for t in range(T):
        j = t - lag
        if j >= 0:
            S += phi_k[..., j, :, None] * v[..., j, None, :]
            z += phi_k[..., j, :]
        q_t = phi_q[..., t, None, :]
        num = (q_t @ S)[..., 0, :]
        den = np.maximum((q_t @ z[..., None])[..., 0, :], LA_EPS)
        out[..., t, :] = num / den
    return out


class Reference:
    """Forward pass over a parameter dict laid out as `Model.named_parameters`.

    `lora_scale` is alpha / rank; LoRA factors, when present, are merged
    into the attention weights before the forward pass.
    """

    def __init__(self, params, n_heads, lora_scale=None):
        self.p = {n: np.array(a, dtype=np.float64) for n, a in params.items()}
        self.n_heads = n_heads
        self.n_layers = sum(1 for n in self.p if n.endswith(".ln1.g"))
        self.w = {}
        for i in range(self.n_layers):
            for t in ("wq", "wk", "wv", "wo"):
                w = self.p[f"layers.{i}.attn.{t}"]
                a = self.p.get(f"layers.{i}.attn.{t}.lora_a")
                if a is not None:
                    w = w + lora_scale * (a @ self.p[f"layers.{i}.attn.{t}.lora_b"])
                self.w[i, t] = w

    @classmethod
    def from_model(cls, model):
        """Reads only the model's parameter arrays and head/LoRA sizes."""
        if model.phi_meta is not None and model.phi_meta[1].value != "softmax":
            raise NotImplementedError("the reference covers the softmax feature map only")
        scale = None
        if model.lora_meta is not None:
            _targets, rank, alpha = model.lora_meta
            scale = alpha / rank
        params = {n: t.data for n, t in model.named_parameters().items()}
        return cls(params, model.cfg.n_heads, scale)

    def logits(self, tokens, attn, chunk=32):
        """(N, T, vocab) logits, computed `chunk` rows at a time."""
        tokens = np.asarray(tokens)
        return np.concatenate([self._logits(tokens[s:s + chunk], attn)
                               for s in range(0, len(tokens), chunk)])

    def _logits(self, tokens, attn):
        p = self.p
        x = p["emb"][tokens]
        for i in range(self.n_layers):
            h = layer_norm(x, p[f"layers.{i}.ln1.g"], p[f"layers.{i}.ln1.b"])
            x = x + self._attention(i, h, attn)
            h = layer_norm(x, p[f"layers.{i}.ln2.g"], p[f"layers.{i}.ln2.b"])
            h = gelu(h @ p[f"layers.{i}.mlp.w1"] + p[f"layers.{i}.mlp.b1"])
            x = x + h @ p[f"layers.{i}.mlp.w2"] + p[f"layers.{i}.mlp.b2"]
        return layer_norm(x, p["lnf.g"], p["lnf.b"]) @ p["head"]

    def _heads(self, x):
        B, T, d = x.shape
        return x.reshape(B, T, self.n_heads, d // self.n_heads).transpose(0, 2, 1, 3)

    def _attention(self, i, x, attn):
        q = rope(self._heads(x @ self.w[i, "wq"]))
        k = rope(self._heads(x @ self.w[i, "wk"]))
        v = self._heads(x @ self.w[i, "wv"])
        T = q.shape[-2]
        if attn["kind"] == "softmax":
            out = masked_softmax_attention(q, k, v, allowed_keys(T, "causal"))
        else:
            out = self._hybrid(i, q, k, v, attn)
        B, H, _, hd = out.shape
        return out.transpose(0, 2, 1, 3).reshape(B, T, H * hd) @ self.w[i, "wo"]

    def _hybrid(self, i, q, k, v, attn):
        mode, T = attn["mode"], q.shape[-2]
        if mode == "no_attention":
            return np.zeros_like(v)
        if mode == "sinks_only":
            return masked_softmax_attention(q, k, v, allowed_keys(T, "sinks", sinks=attn["sinks"]))
        g = attn["g"]
        out = np.zeros_like(v)
        if mode in ("full_hybrid", "swa_only", "hybrid_overlap"):
            out += g * masked_softmax_attention(
                q, k, v, allowed_keys(T, "window", window=attn["window"]))
        if mode in ("full_hybrid", "la_only", "hybrid_overlap"):
            lag = 0 if attn["overlap"] or mode == "hybrid_overlap" else attn["window"]
            w = np.stack([self.p[f"layers.{i}.phi.{h}.w"] for h in range(self.n_heads)])[None]
            b = np.stack([self.p[f"layers.{i}.phi.{h}.b"]
                          for h in range(self.n_heads)])[None, :, None]
            out += (1.0 - g) * linear_attention_recurrent(
                feature_map(q, w, b), feature_map(k, w, b), v, lag)
        return out


def masked_cross_entropy(logits, targets, mask):
    """Mean next-token cross-entropy over positions where mask is 1."""
    m = logits.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))[..., 0]
    ce = lse - np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    mask = np.asarray(mask, dtype=np.float64)
    return float((ce * mask).sum() / mask.sum())
